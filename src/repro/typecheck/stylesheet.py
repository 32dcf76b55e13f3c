"""The ``stylesheet`` route: typecheck a compiled stylesheet as a stylesheet.

A stylesheet of :mod:`repro.lang.xslt` compiles to a one-pebble machine
that climbs back up between siblings, so the machine alone only admits
the ``exact`` route.  The machine's source key
(:func:`~repro.runtime.cache.source_of`) still holds the stylesheet it
was compiled from, and with both types plain DTDs the question is local
in the unranked tree:

* every output element comes from a fixed template position, so an
  output is valid iff its root is ``tau2``'s root element and every
  element's children word is in that element's content model;
* that word is the element's items, with each ``apply-templates``
  replaced by the top-level outputs of the context node's children,
  spliced in order.

For each output element ``e`` whose items hold an ``apply-templates``,
a least fixpoint over ``tau1``'s content DFAs computes, per input tag
``b``, the set of transition functions of ``e``'s content DFA that the
top-level output of a valid ``b``-subtree induces, with one
representative subtree per (tag, function).  Martens, Neven and Gyssens
(PAPERS.md) decide top-down transformations that apply one state to
every child the same way, from the schemas' content models.  Functions
rather than relations keep the root template's repeated
``apply-templates`` exact: Example 4.3's Q2 reads one children word
three times, and ``f`` composed three times is not a relation composed
three times.

Every element of every template that actually runs — the root's, and
that of every element some running template applies templates to — is
then checked against its content DFA.  A failure plugs the offending
subtree into a valid context; the compiled machine's own output on that
document (:func:`repro.pebble.run.evaluate`) is the ill-typed output.
No pebble product, no walking summary, no tree automaton for either
type.  The sets are bounded by the transition monoids of the output
content DFAs (exponential in the worst case, a handful of functions on
the repository's stylesheets).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import TypecheckError
from repro.lang.xslt import Apply, Item, Out, Stylesheet
from repro.pebble.run import evaluate
from repro.pebble.transducer import PebbleTransducer
from repro.regex.dfa import DFA
from repro.regex.syntax import Concat, Empty, Regex, Star, Sym, Union
from repro.runtime.cache import source_of
from repro.runtime.governor import ResourceGovernor, current_governor
from repro.runtime.trace import current_tracer
from repro.trees.encoding import encode
from repro.trees.unranked import UTree
from repro.typecheck.engine import TypecheckResult, route_verdict
from repro.xmlio.dtd import DTD

#: Route name, as reported in ``result.method`` and trace spans.
STYLESHEET = "stylesheet"

#: A transition function of an output content DFA: the image of every
#: state, the sink for undeclared letters last.
Function = tuple


def stylesheet_of(
    transducer: PebbleTransducer,
) -> Optional[tuple[Stylesheet, frozenset[str], str]]:
    """The ``(stylesheet, tags, root_tag)`` ``transducer`` was compiled
    from by :func:`~repro.lang.xslt.xslt_to_transducer`, or ``None``."""
    key = source_of(transducer)
    if key is None or key.construction != "xslt_to_transducer":
        return None
    (sheet,) = key.sources
    tags, root_tag = key.extra
    return sheet, frozenset(tags), root_tag


def root_recurs(dtd: DTD) -> bool:
    """Whether some valid document of ``dtd`` has its root element below
    the root.  A compiled stylesheet ends the root template there as if
    it were the document root, dropping that node's later siblings, so
    such an input type breaks the fragment's restriction.  Read off the
    content models' syntax: no automaton is built and no memo table
    consulted, so input validation can afford it on every job."""
    trees = _representatives(dtd)
    return dtd.root in _contexts(dtd, trees, descend=lambda tag: True)


def decline_reasons(
    transducer: PebbleTransducer, input_type, output_type
) -> tuple[str, ...]:
    """Why the route cannot decide this check, in order of detection
    (empty when it can)."""
    source = stylesheet_of(transducer)
    if source is None:
        return ("the transducer was not compiled from a stylesheet",)
    if not isinstance(input_type, DTD) or not isinstance(output_type, DTD):
        return ("the input and output types are not both plain DTDs",)
    _, tags, root_tag = source
    reasons = []
    if input_type.root != root_tag:
        reasons.append(
            f"the input DTD's root {input_type.root!r} is not the "
            f"stylesheet's root tag {root_tag!r}"
        )
    extra = input_type.symbols - tags
    if extra:
        reasons.append(
            "the input DTD declares elements the stylesheet was not "
            f"compiled for: {sorted(extra)}"
        )
    if not reasons and root_recurs(input_type):
        reasons.append(
            f"the input DTD lets the root element {root_tag!r} occur "
            "below the root"
        )
    return tuple(reasons)


def typecheck_stylesheet(
    transducer: PebbleTransducer,
    input_type: DTD,
    output_type: DTD,
    governor: Optional[ResourceGovernor] = None,
) -> TypecheckResult:
    """Decide ``T(tau1) ⊆ tau2`` for a compiled stylesheet between DTDs
    by the content-model fixpoint of the module docstring.

    Raises :class:`~repro.errors.TypecheckError` when the check is
    outside the route's fragment (:func:`decline_reasons`).
    """
    started = time.perf_counter()
    with current_governor().phase("stylesheet-fixpoint"), \
            current_tracer().span("stylesheet-fixpoint"):
        reasons = decline_reasons(transducer, input_type, output_type)
        if reasons:
            raise TypecheckError(
                "the check is outside the stylesheet route's fragment: "
                + "; ".join(reasons)
            )
        sheet, _, _ = stylesheet_of(transducer)
        check = _Check(sheet, input_type, output_type)
        document = check.counterexample()
    witness = None if document is None else encode(document)
    return route_verdict(
        STYLESHEET, transducer, None, check.stats(), started, governor,
        lambda: witness, output=lambda tree: evaluate(transducer, tree),
    )


# ---------------------------------------------------------------------------
# the input type: representative subtrees and the contexts that reach them
# ---------------------------------------------------------------------------


def _shortest(model: Regex, trees: dict[str, UTree]) -> Optional[tuple]:
    """A shortest word of the plain expression ``model`` over the
    elements ``trees`` represents, spelled by their trees; ``None`` when
    there is none."""
    if isinstance(model, Sym):
        tree = trees.get(model.symbol)
        return None if tree is None else (tree,)
    if isinstance(model, Concat):
        first = _shortest(model.first, trees)
        second = _shortest(model.second, trees)
        return None if first is None or second is None else first + second
    if isinstance(model, Union):
        words = [_shortest(model.first, trees), _shortest(model.second, trees)]
        return min((word for word in words if word is not None),
                   key=len, default=None)
    if isinstance(model, Star):
        return _shortest(model.inner, trees) if model.plus else ()
    return None if isinstance(model, Empty) else ()  # epsilon


def _slots(model: Regex, trees: dict[str, UTree]) -> dict[str, tuple]:
    """Each element that occurs in some word of ``model`` over the
    represented elements, with the trees ``(before, after)`` it in one
    such word."""
    if isinstance(model, Sym):
        return {model.symbol: ((), ())} if model.symbol in trees else {}
    if isinstance(model, Concat):
        first = _shortest(model.first, trees)
        second = _shortest(model.second, trees)
        if first is None or second is None:
            return {}
        slots = {
            tag: (before, after + second)
            for tag, (before, after) in _slots(model.first, trees).items()
        }
        for tag, (before, after) in _slots(model.second, trees).items():
            slots.setdefault(tag, (first + before, after))
        return slots
    if isinstance(model, Union):
        slots = _slots(model.first, trees)
        for tag, siblings in _slots(model.second, trees).items():
            slots.setdefault(tag, siblings)
        return slots
    if isinstance(model, Star):  # one iteration holding the element
        return _slots(model.inner, trees)
    return {}


def _representatives(dtd: DTD) -> dict[str, UTree]:
    """A valid subtree per element that has one, each with a shortest
    children word over the elements represented before it."""
    trees: dict[str, UTree] = {}
    changed = True
    while changed:
        changed = False
        for tag, model in sorted(dtd.content.items()):
            if tag not in trees:
                word = _shortest(model, trees)
                if word is not None:
                    trees[tag] = UTree(tag, word)
                    changed = True
    return trees


def _contexts(
    dtd: DTD, trees: dict[str, UTree], descend: Callable[[str], bool]
) -> dict[str, tuple[str, tuple, tuple]]:
    """Every element that labels a non-root node of a valid document
    whose ancestors ``descend`` accepts, with its first-found parent and
    siblings ``(parent, before, after)``, breadth-first from the root."""
    contexts: dict[str, tuple[str, tuple, tuple]] = {}
    if dtd.root not in trees or not descend(dtd.root):
        return contexts
    expanded = {dtd.root}
    queue = deque([dtd.root])
    while queue:
        parent = queue.popleft()
        for child, (before, after) in \
                _slots(dtd.content[parent], trees).items():
            contexts.setdefault(child, (parent, before, after))
            if child not in expanded and descend(child):
                expanded.add(child)
                queue.append(child)
    return contexts


# ---------------------------------------------------------------------------
# the output type: content DFAs as transition functions
# ---------------------------------------------------------------------------


class _Content:
    """An output element's content DFA as total transition functions over
    its states plus a sink, which letters ``tau2`` does not declare (and
    so no content model accepts) lead to."""

    def __init__(self, dfa: DFA) -> None:
        self.dfa = dfa
        self.sink = dfa.n_states
        self.identity: Function = tuple(range(dfa.n_states + 1))
        self._letters: dict[str, Function] = {}

    def letter(self, tag: str) -> Function:
        function = self._letters.get(tag)
        if function is None:
            if tag in self.dfa.alphabet:
                function = tuple(
                    self.dfa.delta[(state, tag)]
                    for state in range(self.dfa.n_states)
                ) + (self.sink,)
            else:
                function = (self.sink,) * len(self.identity)
            self._letters[tag] = function
        return function

    def items(self, items: Sequence[Item], applied: Function) -> Function:
        """The function of ``items``, each ``apply-templates`` reading
        the children output whose function is ``applied``."""
        function = self.identity
        for item in items:
            step = applied if isinstance(item, Apply) else \
                self.letter(item.tag)
            function = _then(function, step)
        return function

    def accepts(self, function: Function) -> bool:
        return function[self.dfa.start] in self.dfa.accepting


def _then(first: Function, second: Function) -> Function:
    """Read a word with function ``first``, then one with ``second``."""
    return tuple(second[state] for state in first)


def _applies(items: Sequence[Item]) -> bool:
    """Whether ``items`` hold an ``apply-templates`` of their own."""
    return any(isinstance(item, Apply) for item in items)


def _elements(items: Sequence[Item]) -> Iterator[Out]:
    """The output elements of a template body, in document order."""
    for item in items:
        if isinstance(item, Out):
            yield item
            yield from _elements(item.items)


# ---------------------------------------------------------------------------
# the check
# ---------------------------------------------------------------------------


class _Check:
    """One stylesheet check: which templates run, the per-element
    function fixpoints, and the first element that can go wrong."""

    def __init__(self, sheet: Stylesheet, tau1: DTD, tau2: DTD) -> None:
        self.sheet = sheet
        self.tau1 = tau1
        self.tau2 = tau2
        self.governor = current_governor()
        self.trees = _representatives(tau1)
        # a template runs at the root, and at every child of a node
        # whose template applies templates
        self.contexts = _contexts(
            tau1, self.trees,
            descend=lambda tag: sheet.templates[tag].n_applies() > 0,
        )
        self.running = [tau1.root, *self.contexts] \
            if tau1.root in self.trees else []
        self.dfas: dict[str, DFA] = {}
        self.contents: dict[str, _Content] = {}
        self.tables: dict[str, dict[str, dict[Function, UTree]]] = {}

    def stats(self) -> dict:
        return {
            "templates_run": len(self.running),
            "output_dfas": len(self.tables),
            "functions": sum(
                len(functions)
                for table in self.tables.values()
                for functions in table.values()
            ),
        }

    def counterexample(self) -> Optional[UTree]:
        """A valid input document whose output is invalid, or ``None``."""
        if not self.running:
            return None  # tau1 is empty
        root = self.tau1.root
        (top,) = self.sheet.templates[root].body
        if top.tag != self.tau2.root:
            return self.trees[root]
        for tag in self.running:
            template = self.sheet.templates[tag]
            for element in _elements(template.body):
                subtree = self._violation(tag, element)
                if subtree is not None:
                    return self._plug(tag, subtree)
        return None

    def _violation(self, tag: str, element: Out) -> Optional[UTree]:
        """A valid ``tag``-subtree on which ``element`` of ``tag``'s
        template gets a children word outside its content model."""
        if element.tag not in self.tau2.content:
            return self.trees[tag]
        content = self._content(element.tag)
        if _applies(element.items):
            table = self._table(element.tag)
            options = self._children(tag, content, table)
        else:  # a fixed children word: any subtree will do
            options = {content.identity: self.trees[tag].children}
        for applied, children in options.items():
            self.governor.tick()
            if not content.accepts(content.items(element.items, applied)):
                return UTree(tag, children)
        return None

    def _plug(self, tag: str, subtree: UTree) -> UTree:
        """``subtree`` at a ``tag`` node of a valid document.  The chain
        of first-found parents ends at the root, which is never in
        ``contexts``: the route declines input types whose root recurs."""
        while tag in self.contexts:
            parent, before, after = self.contexts[tag]
            subtree = UTree(parent, before + (subtree,) + after)
            tag = parent
        return subtree

    def _content(self, element: str) -> _Content:
        content = self.contents.get(element)
        if content is None:
            content = self.contents[element] = _Content(
                self.tau2.content_dfa(element)
            )
        return content

    def _children(
        self,
        tag: str,
        content: _Content,
        table: dict[str, dict[Function, UTree]],
    ) -> dict[Function, tuple]:
        """Every function of ``content`` the spliced top-level outputs
        of a ``tag`` node's children can induce, with children that
        induce it: a breadth-first search over (input content-DFA state,
        function) pairs of ``tag``'s children words."""
        dfa = self.dfas.get(tag)
        if dfa is None:
            dfa = self.dfas[tag] = self.tau1.content_dfa(tag)
        options = {
            child: functions
            for child, functions in table.items() if functions
        }
        start = (dfa.start, content.identity)
        words = {start: ()}
        queue = deque([start])
        found: dict[Function, tuple] = {}
        while queue:
            pair = queue.popleft()
            state, function = pair
            self.governor.tick()
            if state in dfa.accepting and function not in found:
                found[function] = words[pair]
            for child, functions in options.items():
                target = dfa.delta[(state, child)]
                for step, tree in functions.items():
                    successor = (target, _then(function, step))
                    if successor not in words:
                        words[successor] = words[pair] + (tree,)
                        queue.append(successor)
        return found

    def _table(self, element: str) -> dict[str, dict[Function, UTree]]:
        """Per running non-root tag, the least fixpoint of the functions
        of ``element``'s content DFA its top-level output can induce,
        each with a subtree inducing it."""
        table = self.tables.get(element)
        if table is not None:
            return table
        content = self._content(element)
        table = {}
        splicing = []
        for tag in self.contexts:
            top = self.sheet.templates[tag].body
            if _applies(top):
                table[tag] = {}
                splicing.append((tag, top))
            else:
                table[tag] = {content.items(top, ()): self.trees[tag]}
        changed = bool(splicing)
        while changed:
            changed = False
            for tag, top in splicing:
                known = table[tag]
                for applied, children in \
                        self._children(tag, content, table).items():
                    function = content.items(top, applied)
                    if function not in known:
                        self.governor.add_states()
                        known[function] = UTree(tag, children)
                        changed = True
        self.tables[element] = table
        return table
