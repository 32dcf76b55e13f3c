"""An XSLT fragment compiled to 1-pebble transducers (Sections 3.2, 4.1).

The fragment: a stylesheet is a set of templates, one per element tag;
a template body is a forest of output elements with ``apply-templates``
(the paper's Example 4.3 writes ``xsl:apply-patterns``) recursing into
the children of the context node.

Restriction (documented): a template may contain several
``apply-templates`` only when it matches the *root* tag, and the root
template's body must be a single element.  This is exactly what
Example 4.3's query Q2 needs (three ``apply-templates`` in the root
template), and it keeps the compilation to a *single-pebble* transducer:
the only information that must survive the processing of a subtree is
"through which root-level apply-templates did we enter", which is finite
and threaded through the states.  Everything else is recovered from the
input position by climbing (the cons-cell encoding makes the climb
deterministic).

The module provides a direct interpreter (:func:`apply_stylesheet`,
the specification) and the compiler (:func:`xslt_to_transducer`); the
test suite checks they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from repro.errors import PebbleMachineError, XMLParseError
from repro.pebble.transducer import (
    Emit0,
    Emit2,
    Move,
    PebbleTransducer,
    RuleSet,
)
from repro.runtime.cache import set_source_key
from repro.runtime.governor import current_governor
from repro.runtime.trace import current_tracer
from repro.trees.alphabet import CONS, NIL, encoded_alphabet
from repro.trees.unranked import UTree
from repro.xmlio.parser import parse_xml


@dataclass(frozen=True)
class Apply:
    """``<xsl:apply-templates/>``: recurse into the context's children."""


@dataclass(frozen=True)
class Out:
    """An output element in a template body."""

    tag: str
    items: tuple["Item", ...] = ()

    def __init__(self, tag: str, items: Sequence["Item"] = ()) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "items", tuple(items))


Item = Union[Apply, Out]


@dataclass(frozen=True)
class Template:
    """``<xsl:template match="...">body</xsl:template>``."""

    match: str
    body: tuple[Item, ...]

    def __init__(self, match: str, body: Sequence[Item] = ()) -> None:
        object.__setattr__(self, "match", match)
        object.__setattr__(self, "body", tuple(body))

    def n_applies(self) -> int:
        """Number of apply-templates occurrences anywhere in the body."""
        return len(_apply_positions(self.body))


@dataclass(frozen=True)
class Stylesheet:
    """A stylesheet: one template per element tag."""

    templates: dict[str, Template]

    def __init__(self, templates: Iterable[Template]) -> None:
        table: dict[str, Template] = {}
        for template in templates:
            if template.match in table:
                raise PebbleMachineError(
                    f"two templates match {template.match!r}"
                )
            table[template.match] = template
        object.__setattr__(self, "templates", table)

    def template_for(self, tag: str) -> Template:
        if tag not in self.templates:
            raise PebbleMachineError(f"no template matches {tag!r}")
        return self.templates[tag]

    def output_tags(self) -> frozenset[str]:
        """All tags the stylesheet can emit."""
        tags: set[str] = set()

        def scan(items: Sequence[Item]) -> None:
            for item in items:
                if isinstance(item, Out):
                    tags.add(item.tag)
                    scan(item.items)

        for template in self.templates.values():
            scan(template.body)
        return frozenset(tags)


# -- the interpreter (the specification) --------------------------------------


def apply_stylesheet(stylesheet: Stylesheet, tree: UTree) -> UTree:
    """Evaluate the stylesheet on a document (the reference semantics).

    Runs under the ambient :class:`repro.runtime.ResourceGovernor` when
    one is installed, so stylesheet application honours ``--timeout`` /
    ``--max-steps`` budgets."""
    governor = current_governor()

    def process(node: UTree) -> list[UTree]:
        governor.tick()
        template = stylesheet.template_for(node.label)
        return splice(template.body, node)

    def splice(items: Sequence[Item], node: UTree) -> list[UTree]:
        out: list[UTree] = []
        for item in items:
            if isinstance(item, Apply):
                for child in node.children:
                    out.extend(process(child))
            else:
                out.append(UTree(item.tag, splice(item.items, node)))
        return out

    result = process(tree)
    if len(result) != 1:
        raise PebbleMachineError(
            f"the root template must produce exactly one element, got "
            f"{len(result)}"
        )
    return result[0]


# -- stylesheet parsing ---------------------------------------------------------

_APPLY_TAGS = {"xsl:apply-templates", "xsl:apply-patterns"}


def parse_stylesheet(text: str) -> Stylesheet:
    """Parse ``<xsl:template match="...">`` declarations.

    Accepts a bare sequence of templates (as printed in Example 4.3) or a
    document wrapped in ``<xsl:stylesheet>``.  ``match`` attribute values
    are extracted textually; bodies use the fragment's two constructs.
    """
    wrapped = text.strip()
    if not wrapped.startswith("<xsl:stylesheet"):
        wrapped = f"<xsl:stylesheet>{wrapped}</xsl:stylesheet>"
    # our minimal XML parser skips attributes, so recover match= values
    # textually, in template order.
    matches = _match_values(text)
    document = parse_xml(wrapped)
    templates: list[Template] = []
    index = 0
    for child in document.children:
        if child.label != "xsl:template":
            raise XMLParseError(f"unexpected element <{child.label}>")
        if index >= len(matches):
            raise XMLParseError("missing match= attribute on a template")
        templates.append(Template(matches[index], _items_of(child.children)))
        index += 1
    return Stylesheet(templates)


def _match_values(text: str) -> list[str]:
    values: list[str] = []
    pos = 0
    while True:
        start = text.find("<xsl:template", pos)
        if start < 0:
            return values
        end = text.find(">", start)
        if end < 0:
            raise XMLParseError("unterminated <xsl:template> tag", start)
        head = text[start:end]
        marker = 'match="'
        at = head.find(marker)
        if at < 0:
            raise XMLParseError("template without match= attribute")
        at += len(marker)
        close = head.find('"', at)
        if close < 0:
            raise XMLParseError("unterminated match= attribute", start)
        values.append(head[at:close])
        pos = end + 1


def _items_of(children: Sequence[UTree]) -> tuple[Item, ...]:
    items: list[Item] = []
    for child in children:
        if child.label in _APPLY_TAGS:
            items.append(Apply())
        else:
            items.append(Out(child.label, _items_of(child.children)))
    return tuple(items)


# -- compilation to a 1-pebble transducer --------------------------------------

ListId = tuple  # ("top", tag) or ("inner", element-path)


def _apply_positions(body: Sequence[Item]) -> list[tuple[ListId, int]]:
    """All apply-templates occurrences as (list id, index), in document
    order, for one template body."""
    found: list[tuple[ListId, int]] = []

    def scan(items: Sequence[Item], lid: ListId) -> None:
        for index, item in enumerate(items):
            if isinstance(item, Apply):
                found.append((lid, index))
            else:
                scan(item.items, lid + (index,))

    scan(body, ("L",))
    return found


class _XsltCompiler:
    def __init__(
        self,
        stylesheet: Stylesheet,
        tags: frozenset[str],
        root_tag: str,
    ) -> None:
        self.sheet = stylesheet
        self.tags = tags
        self.root_tag = root_tag
        for tag in sorted(tags):
            stylesheet.template_for(tag)  # strictness: every tag covered
        for tag, template in stylesheet.templates.items():
            if tag != root_tag and template.n_applies() > 1:
                raise PebbleMachineError(
                    f"template for {tag!r} has several apply-templates; "
                    f"the fragment allows that only for the root template"
                )
        root_body = stylesheet.template_for(root_tag).body
        if len(root_body) != 1 or not isinstance(root_body[0], Out):
            raise PebbleMachineError(
                "the root template body must be a single element"
            )
        self.root_occurrences = _apply_positions(root_body)
        self.n_conts = max(1, len(self.root_occurrences))
        self.rules = RuleSet()
        self.states: set = set()
        self.alphabet = encoded_alphabet(tags)
        self.output = encoded_alphabet(stylesheet.output_tags())
        if root_tag not in tags:
            raise PebbleMachineError(
                f"the root tag {root_tag!r} is not among the input tags"
            )

    # list addressing: within template `tag`, a list id is a tuple path;
    # ("L",) is the body (top list), ("L", 3, 1) descends into items.

    def list_items(self, tag: str, lid: ListId) -> tuple[Item, ...]:
        items: tuple[Item, ...] = self.sheet.template_for(tag).body
        for step in lid[1:]:
            element = items[step]
            assert isinstance(element, Out)
            items = element.items
        return items

    def add(self, symbols, state, action, pebbles=None) -> None:
        self.states.add(state)
        if isinstance(action, Move):
            self.states.add(action.target)
        elif isinstance(action, Emit2):
            self.states.add(action.left)
            self.states.add(action.right)
        self.rules.add(symbols, state, action, pebbles)

    def compile(self) -> PebbleTransducer:
        root_element = self.sheet.template_for(self.root_tag).body[0]
        assert isinstance(root_element, Out)
        for cont in range(self.n_conts):
            self.emit_lists(cont)
            self.walk(cont)
        # entry: at the root node, emit the root template's single element.
        self.add(
            self.root_tag, "start",
            Move("stay", ("elem", self.root_tag, ("L", 0), 0)),
        )
        self.add(None, "nil", Emit0(NIL))
        self.states.add("start")
        self.states.add("nil")
        return PebbleTransducer(
            input_alphabet=self.alphabet,
            output_alphabet=self.output,
            levels=[self.states],
            initial="start",
            rules=self.rules,
        )

    # ---- element and list emission ------------------------------------------

    def emit_element(self, tag: str, epath: ListId, cont: int) -> None:
        element = self.list_items(tag, epath[:-1])[epath[-1]]
        assert isinstance(element, Out)
        self.add(
            None,
            ("elem", tag, epath, cont),
            Emit2(element.tag, ("list", tag, epath, 0, cont), "nil"),
        )

    def emit_lists(self, cont: int) -> None:
        for tag in sorted(self.tags):
            template = self.sheet.template_for(tag)
            for lid in self._all_lists(template.body):
                items = self.list_items(tag, lid)
                for index, item in enumerate(items):
                    state = ("list", tag, lid, index, cont)
                    if isinstance(item, Out):
                        epath = lid + (index,)
                        self.add(
                            None, state,
                            Emit2(CONS, ("elem", tag, epath, cont),
                                  ("list", tag, lid, index + 1, cont)),
                        )
                        self.emit_element(tag, epath, cont)
                    else:  # Apply: walk the children chain
                        new_cont = cont
                        if tag == self.root_tag:
                            new_cont = self.root_occurrences.index(
                                (lid, index)
                            )
                        self.add(
                            None, state,
                            Move("down-left", ("walk", new_cont)),
                        )
                # list end
                end_state = ("list", tag, lid, len(items), cont)
                if lid == ("L",) and tag != self.root_tag:
                    # spliced top list: climb to our cons cell, step right
                    self.add(None, end_state,
                             Move("up-left", ("cell-right", cont)))
                else:
                    self.add(None, end_state, Emit0(NIL))

    def _all_lists(self, body: Sequence[Item]) -> list[ListId]:
        lists: list[ListId] = [("L",)]

        def scan(items: Sequence[Item], lid: ListId) -> None:
            for index, item in enumerate(items):
                if isinstance(item, Out):
                    lists.append(lid + (index,))
                    scan(item.items, lid + (index,))

        scan(body, ("L",))
        return lists

    # ---- walking the child chain ------------------------------------------------

    def walk(self, cont: int) -> None:
        self.add(None, ("cell-right", cont),
                 Move("down-right", ("walk", cont)))
        self.add(CONS, ("walk", cont), Move("down-left", ("apply", cont)))
        self.add(NIL, ("walk", cont), Move("stay", ("climb", cont)))
        for tag in sorted(self.tags):
            self.add(tag, ("apply", cont),
                     Move("stay", ("list", tag, ("L",), 0, cont)))
        # climb from the end-of-chain nil back to the context element
        self.add(None, ("climb", cont), Move("up-right", ("climb", cont)))
        self.add(None, ("climb", cont), Move("up-left", ("after", cont)))
        # resume the context element's template after its apply-templates
        for tag in sorted(self.tags):
            if tag == self.root_tag:
                if not self.root_occurrences:
                    continue
                lid, index = self.root_occurrences[cont]
            else:
                positions = _apply_positions(
                    self.sheet.template_for(tag).body
                )
                if not positions:
                    continue  # cannot be climbed into
                lid, index = positions[0]
            self.add(tag, ("after", cont),
                     Move("stay", ("list", tag, lid, index + 1, cont)))


def xslt_to_transducer(
    stylesheet: Stylesheet,
    tags: Iterable[str],
    root_tag: str,
) -> PebbleTransducer:
    """Compile a stylesheet to a 1-pebble transducer on encoded trees.

    ``tags`` are the input element tags (each needs a template);
    ``root_tag``, one of them, must label the document root only: below
    the root, its template's list ends the output as if at the document
    root, dropping that node's later siblings.  A stylesheet outside the
    fragment raises :class:`~repro.errors.PebbleMachineError` here.

    The rule table is built, and validated, on the machine's first read
    (:meth:`~repro.pebble.transducer.PebbleTransducer._deferred`), in an
    ``xslt-compile`` span: the ``stylesheet`` route decides an ``ok``
    check from the stylesheet alone and never reads the machine.  The
    compiler is deterministic, so the transducer carries a source key
    over the stylesheet, ``tags`` and ``root_tag``
    (:func:`~repro.runtime.cache.set_source_key`): memo keys built on it
    hash the stylesheet, not the machine, and
    :func:`~repro.runtime.cache.source_of` gives all three back.
    """
    tags = frozenset(tags)
    compiler = _XsltCompiler(stylesheet, tags, root_tag)

    def build() -> PebbleTransducer:
        with current_tracer().span("xslt-compile"):
            return compiler.compile()

    return set_source_key(
        PebbleTransducer._deferred(build), "xslt_to_transducer",
        (stylesheet,), (tuple(sorted(tags)), root_tag),
    )


def q2_stylesheet() -> Stylesheet:
    """Example 4.3's query Q2: ``a^n -> b a^n b a^n b a^n``."""
    return parse_stylesheet(
        """
        <xsl:template match="root">
          <result>
            <b/>
            <xsl:apply-patterns/>
            <b/>
            <xsl:apply-patterns/>
            <b/>
            <xsl:apply-patterns/>
          </result>
        </xsl:template>
        <xsl:template match="a">
          <a/>
        </xsl:template>
        """
    )
