"""Fast-path algorithm routing: pick the cheapest sound decision method.

The exact Theorem 4.4 pipeline is non-elementary (Theorem 4.8), but most
realistic transformations never need it.  This module implements the
two grounded fast paths named in ROADMAP.md and documented in
``docs/algorithms.md``:

* **fast-td** — Martens–Neven–Gyssens ("On Typechecking Top-Down XML
  Transformations: Fixed Input or Output Schemas", PAPERS.md) show that
  typechecking restricted *top-down* transducer classes is tractable.
  :func:`classify` detects a deterministic, purely top-down, linear
  fragment (one head, no up-moves, per-node expansion acyclic and
  visiting each child subtree at most once) and
  :func:`typecheck_fast` decides it with a polynomial product fixpoint
  over ``(transducer state, input-type state, output-DFA state)``
  triples — no pebble product, no summary construction, no
  determinization of anything but the output type.

* **lazy-backward** — Frisch–Hosoya ("Towards Practical Typechecking
  for Macro Tree Transducers", PAPERS.md) keep backward inference
  *lazy*: :func:`typecheck_lazy` builds the Proposition 4.6 product
  ``A`` (``inst(A) = {t | T(t) ∩ ¬tau2 ≠ ∅}``) but never materializes
  its regular language.  Instead the tree-walking summary relations of
  :mod:`repro.pebble.two_way` are computed on demand, only for the
  states co-reachable with the input type, via
  :func:`repro.automata.alternating.lazy_product_witness` — the search
  stops at the first offending tree.  Applicable to every one-pebble
  transducer.

Both routes are *exact*: an ``ok`` is a proof, a counterexample is
genuine, and the audit layer certifies their verdicts exactly like the
Theorem 4.4 pipeline's.  Route selection lives in
:func:`repro.typecheck.engine.typecheck` (``method="auto"``); the
decision and its reasons are reported in ``stats["routing"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.automata.alternating import LazyTA, lazy_product_witness
from repro.errors import TypecheckError
from repro.pebble.output_automaton import output_language
from repro.pebble.product import transducer_times_automaton
from repro.pebble.to_regular import trim_quotient
from repro.pebble.transducer import Emit0, Emit2, Move, PebbleTransducer
from repro.pebble.two_way import (
    NONE,
    _StateTable,
    _down_view,
    _entry_mask,
    _node_relation,
    _prepare_rules,
    is_walking,
)
from repro.runtime.cache import memoized
from repro.runtime.governor import ResourceGovernor, current_governor
from repro.runtime.trace import current_tracer
from repro.trees.ranked import BTree

#: Route names, as reported in ``stats["method"]`` and trace spans.
FAST_TD = "fast-td"
LAZY_BACKWARD = "lazy-backward"
EXACT = "exact"

#: "This branch of the run is stuck / produces no output" — the bottom
#: value of the fast route's output evaluation.
_BOT = object()


@dataclass(frozen=True)
class RouteDecision:
    """The classifier's verdict on a transducer.

    ``route`` is the route ``method="auto"`` takes; ``fast_eligible`` /
    ``lazy_eligible`` say which routes may be *forced*
    (``method="fast"`` / ``"lazy"``); ``reasons`` explains, in order of
    detection, why the fast top-down fragment was declined (empty when
    eligible).
    """

    route: str
    fast_eligible: bool
    lazy_eligible: bool
    reasons: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "route": self.route,
            "fast_eligible": self.fast_eligible,
            "lazy_eligible": self.lazy_eligible,
            "reasons": list(self.reasons),
        }


def classify(transducer: PebbleTransducer) -> RouteDecision:
    """Structurally classify ``transducer`` into the cheapest sound route.

    The decision tree (documented with complexity bounds in
    ``docs/algorithms.md``):

    1. more than one pebble → ``exact`` (only the Theorem 4.7
       quantifier-block construction handles extra pebbles);
    2. one pebble but nondeterministic, walking back up, or with a
       cyclic or copying per-node expansion → ``lazy-backward``;
    3. otherwise (deterministic, purely top-down, linear) → ``fast-td``.

    Purely syntactic: O(rules) with no automaton construction, so it is
    safe to run on every ``method="auto"`` call.
    """
    if transducer.k != 1:
        return RouteDecision(
            route=EXACT,
            fast_eligible=False,
            lazy_eligible=False,
            reasons=(
                f"uses {transducer.k} pebbles; both fast routes need a "
                "single head",
            ),
        )
    reasons: list[str] = []
    if not transducer.is_deterministic():
        reasons.append(
            "nondeterministic: some guard has more than one action"
        )
    up_moves = sorted({
        action.direction
        for actions in transducer.rules.values()
        for action in actions
        if isinstance(action, Move) and action.direction.startswith("up")
    })
    if up_moves:
        reasons.append(
            "walks back up the input (" + ", ".join(up_moves) + ")"
        )
    if not reasons:
        # only meaningful once the machine is deterministic and downward
        cycle = _expansion_cycle(transducer)
        if cycle is not None:
            symbol, state = cycle
            reasons.append(
                f"per-node expansion can loop: state {state!r} at "
                f"symbol {symbol!r} re-enters itself without descending"
            )
        else:
            violation = _copy_violation(transducer)
            if violation is not None:
                symbol, state, side = violation
                reasons.append(
                    f"non-linear: state {state!r} at symbol {symbol!r} "
                    f"descends into the {side} child more than once"
                )
    if reasons:
        return RouteDecision(
            route=LAZY_BACKWARD,
            fast_eligible=False,
            lazy_eligible=True,
            reasons=tuple(reasons),
        )
    return RouteDecision(route=FAST_TD, fast_eligible=True, lazy_eligible=True)


def _local_edges(transducer: PebbleTransducer, symbol: str, state) -> tuple:
    """States the expansion of ``state`` at ``symbol`` consults *at the
    same input node* (stay targets and Emit2 branch states)."""
    actions = transducer.rules.get((symbol, state, ()), ())
    if not actions:
        return ()
    action = actions[0]
    if isinstance(action, Emit2):
        return (action.left, action.right)
    if isinstance(action, Move) and action.direction == "stay":
        return (action.target,)
    return ()


def _expansion_cycle(
    transducer: PebbleTransducer,
) -> Optional[tuple[str, object]]:
    """A ``(symbol, state)`` whose same-node expansion graph has a cycle,
    or ``None`` when every per-node expansion terminates."""
    for symbol in sorted(transducer.input_alphabet.symbols):
        colors: dict = {}  # state -> 1 (on stack) | 2 (done)
        for root in sorted(transducer.states, key=repr):
            if colors.get(root) == 2:
                continue
            stack = [(root, iter(_local_edges(transducer, symbol, root)))]
            colors[root] = 1
            while stack:
                state, edges = stack[-1]
                advanced = False
                for target in edges:
                    mark = colors.get(target)
                    if mark == 1:
                        return symbol, target
                    if mark is None:
                        colors[target] = 1
                        stack.append((
                            target,
                            iter(_local_edges(transducer, symbol, target)),
                        ))
                        advanced = True
                        break
                if not advanced:
                    colors[state] = 2
                    stack.pop()
    return None


def _descend_counts(
    transducer: PebbleTransducer, symbol: str, state, memo: dict
) -> tuple[int, int]:
    """How many times the expansion of ``state`` at ``symbol`` descends
    into the (left, right) child subtree, capped at 2.  Requires the
    expansion graph to be acyclic (checked first)."""
    key = (symbol, state)
    cached = memo.get(key)
    if cached is not None:
        return cached
    actions = transducer.rules.get((symbol, state, ()), ())
    counts = (0, 0)
    if actions:
        action = actions[0]
        if isinstance(action, Move):
            if action.direction == "down-left":
                counts = (1, 0)
            elif action.direction == "down-right":
                counts = (0, 1)
            elif action.direction == "stay":
                counts = _descend_counts(
                    transducer, symbol, action.target, memo
                )
        elif isinstance(action, Emit2):
            left = _descend_counts(transducer, symbol, action.left, memo)
            right = _descend_counts(transducer, symbol, action.right, memo)
            counts = (
                min(2, left[0] + right[0]),
                min(2, left[1] + right[1]),
            )
    memo[key] = counts
    return counts


def _copy_violation(
    transducer: PebbleTransducer,
) -> Optional[tuple[str, object, str]]:
    """A ``(symbol, state, side)`` whose expansion copies a child subtree,
    or ``None`` when every expansion is linear."""
    memo: dict = {}
    for symbol in sorted(transducer.input_alphabet.symbols):
        for state in sorted(transducer.states, key=repr):
            left, right = _descend_counts(transducer, symbol, state, memo)
            if left > 1:
                return symbol, state, "left"
            if right > 1:
                return symbol, state, "right"
    return None


# ---------------------------------------------------------------------------
# fast-td: polynomial triple fixpoint for the linear top-down fragment
# ---------------------------------------------------------------------------


def _placeholders(
    transducer: PebbleTransducer, symbol: str, state, memo: dict
) -> tuple:
    """The child states the expansion descends into: ``(q_left,
    q_right)``, each ``None`` when that side is not visited.  Unique by
    linearity (checked by the classifier)."""
    key = (symbol, state)
    cached = memo.get(key)
    if cached is not None:
        return cached
    actions = transducer.rules.get((symbol, state, ()), ())
    holes: tuple = (None, None)
    if actions:
        action = actions[0]
        if isinstance(action, Move):
            if action.direction == "down-left":
                holes = (action.target, None)
            elif action.direction == "down-right":
                holes = (None, action.target)
            elif action.direction == "stay":
                holes = _placeholders(transducer, symbol, action.target, memo)
        elif isinstance(action, Emit2):
            left = _placeholders(transducer, symbol, action.left, memo)
            right = _placeholders(transducer, symbol, action.right, memo)
            holes = (
                left[0] if left[0] is not None else right[0],
                left[1] if left[1] is not None else right[1],
            )
    memo[key] = holes
    return holes


def _local_value(
    transducer: PebbleTransducer,
    leaf_value: dict,
    step: dict,
    symbol: str,
    state,
    left,
    right,
    memo: dict,
):
    """The output-DFA state the expansion of ``state`` at ``symbol``
    produces, given the DFA values ``left``/``right`` of the subtrees
    the expansion descends into (``_BOT`` when unavailable).  ``_BOT``
    when the expansion is stuck — that branch of the run produces no
    output, so the whole output is undefined."""
    key = (symbol, state, left, right)
    if key in memo:
        return memo[key]
    actions = transducer.rules.get((symbol, state, ()), ())
    value = _BOT
    if actions:
        action = actions[0]
        if isinstance(action, Emit0):
            value = leaf_value.get(action.symbol, _BOT)
        elif isinstance(action, Emit2):
            got_left = _local_value(
                transducer, leaf_value, step, symbol, action.left,
                left, right, memo,
            )
            got_right = _local_value(
                transducer, leaf_value, step, symbol, action.right,
                left, right, memo,
            )
            if got_left is not _BOT and got_right is not _BOT:
                value = step.get((action.symbol, got_left, got_right), _BOT)
        elif isinstance(action, Move):
            if action.direction == "stay":
                value = _local_value(
                    transducer, leaf_value, step, symbol, action.target,
                    left, right, memo,
                )
            elif action.direction == "down-left":
                value = left
            elif action.direction == "down-right":
                value = right
    memo[key] = value
    return value


def _inhabited(tau1) -> dict:
    """A representative tree per reachable input-type state (cheapest
    derivation fixpoint)."""
    governor = current_governor()
    trees: dict = {}
    for symbol in sorted(tau1.leaf_rules):
        leaf = BTree(symbol)
        for state in tau1.leaf_rules[symbol]:
            trees.setdefault(state, leaf)
    changed = True
    while changed:
        changed = False
        for (symbol, left, right), targets in tau1.rules.items():
            governor.tick()
            if left not in trees or right not in trees:
                continue
            for state in targets:
                if state not in trees:
                    trees[state] = BTree(symbol, trees[left], trees[right])
                    changed = True
    return trees


def typecheck_fast(
    transducer: PebbleTransducer,
    input_type,
    output_type,
    governor: Optional[ResourceGovernor] = None,
):
    """Decide ``T(tau1) ⊆ tau2`` for the linear top-down fragment.

    Least fixpoint over triples ``(q, p, b)`` — "some tree with an input
    run reaching ``p`` makes the transducer, started in ``q``, emit an
    output the output DFA reads to ``b``" — with a representative input
    tree per triple.  A triple ``(q0, accepting p, rejecting b)`` is a
    genuine counterexample; absence of one is a proof (the fragment's
    determinism makes the output unique, linearity makes the two child
    triples independent).  Polynomial: at most ``|Q|·|P|·|B|`` triples.
    """
    from repro.typecheck.engine import TypecheckResult, as_automaton

    started = time.perf_counter()
    gov = current_governor()
    tracer = current_tracer()
    decision = classify(transducer)
    if not decision.fast_eligible:
        raise TypecheckError(
            "transducer is outside the fast top-down fragment: "
            + "; ".join(decision.reasons)
        )
    with tracer.span("coerce-input-type"):
        tau1 = as_automaton(input_type, transducer.input_alphabet)
    with gov.phase("fast-output-dfa"), tracer.span("fast-output-dfa"):
        tau2 = as_automaton(output_type, transducer.output_alphabet)
        dfa = tau2.determinized()
    leaf_value = {
        symbol: next(iter(states))
        for symbol, states in dfa.leaf_rules.items()
        if states
    }
    step = {
        key: next(iter(states))
        for key, states in dfa.rules.items()
        if states
    }
    dfa_accepting = dfa.accepting

    holes_memo: dict = {}
    value_memo: dict = {}
    initial = transducer.initial
    states_q = sorted(transducer.states, key=repr)
    #: (q, p) -> {dfa state: representative input tree}
    triples: dict[tuple, dict] = {}
    bad: Optional[BTree] = None

    def offer(q, p, value, tree) -> Optional[BTree]:
        cell = triples.setdefault((q, p), {})
        if value in cell:
            return None
        gov.add_states()
        cell[value] = tree
        if (
            q == initial
            and p in tau1.accepting
            and value not in dfa_accepting
        ):
            return tree
        return None

    with gov.phase("fast-fixpoint"), tracer.span("fast-fixpoint"):
        inhabited = _inhabited(tau1)
        for symbol in sorted(tau1.leaf_rules):
            targets = tau1.leaf_rules[symbol]
            if not targets:
                continue
            for q in states_q:
                gov.tick()
                value = _local_value(
                    transducer, leaf_value, step, symbol, q,
                    _BOT, _BOT, value_memo,
                )
                if value is _BOT:
                    continue
                leaf = BTree(symbol)
                for p in targets:
                    bad = bad or offer(q, p, value, leaf)
        changed = bad is None
        while changed and bad is None:
            changed = False
            for (symbol, p1, p2), targets in tau1.rules.items():
                if bad is not None:
                    break
                for q in states_q:
                    gov.tick()
                    q_left, q_right = _placeholders(
                        transducer, symbol, q, holes_memo
                    )
                    if q_left is None:
                        tree = inhabited.get(p1)
                        left_options = (
                            ((_BOT, tree),) if tree is not None else ()
                        )
                    else:
                        left_options = tuple(
                            triples.get((q_left, p1), {}).items()
                        )
                    if not left_options:
                        continue
                    if q_right is None:
                        tree = inhabited.get(p2)
                        right_options = (
                            ((_BOT, tree),) if tree is not None else ()
                        )
                    else:
                        right_options = tuple(
                            triples.get((q_right, p2), {}).items()
                        )
                    for b_left, t_left in left_options:
                        for b_right, t_right in right_options:
                            gov.tick()
                            value = _local_value(
                                transducer, leaf_value, step, symbol, q,
                                b_left, b_right, value_memo,
                            )
                            if value is _BOT:
                                continue
                            tree = BTree(symbol, t_left, t_right)
                            for p in targets:
                                if value in triples.get((q, p), {}):
                                    continue
                                bad = bad or offer(q, p, value, tree)
                                changed = True
                            if bad is not None:
                                break
                        if bad is not None:
                            break
                    if bad is not None:
                        break

    stats = {
        "seconds": time.perf_counter() - started,
        "triples": sum(len(cell) for cell in triples.values()),
        "output_dfa_states": len(dfa.states),
        "inhabited_input_states": len(inhabited),
    }
    if governor is not None:
        stats["budget"] = {
            "steps": governor.steps,
            "states": governor.states,
            "elapsed": governor.elapsed(),
        }
    if bad is None:
        return TypecheckResult(ok=True, method=FAST_TD, stats=stats)
    with gov.phase("witness"), tracer.span("witness"):
        bad_output = (
            output_language(transducer, bad)
            .intersection(tau2.complemented())
            .witness()
        )
    return TypecheckResult(
        ok=False,
        method=FAST_TD,
        counterexample_input=bad,
        counterexample_output=bad_output,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# lazy-backward: on-the-fly emptiness of the Prop 4.6 product
# ---------------------------------------------------------------------------


def typecheck_lazy(
    transducer: PebbleTransducer,
    input_type,
    output_type,
    governor: Optional[ResourceGovernor] = None,
):
    """Decide ``T(tau1) ⊆ tau2`` by lazy backward inference.

    Builds the Proposition 4.6 product ``A`` (trimmed and
    bisimulation-quotiented) but, instead of materializing its regular
    language via the summary construction, explores only the summary
    relations co-reachable with ``tau1`` — the
    :func:`~repro.automata.alternating.lazy_product_witness` search
    over an implicit :class:`~repro.automata.alternating.LazyTA` whose
    states are computed on demand.  Exact for every one-pebble
    transducer; the search result is memoized like the eager pipeline's
    constructions.
    """
    from repro.typecheck.engine import (
        TypecheckResult,
        as_automaton,
        complement_output_type,
    )

    started = time.perf_counter()
    gov = current_governor()
    tracer = current_tracer()
    if transducer.k != 1:
        raise TypecheckError(
            "lazy backward inference needs a single head; this "
            f"transducer uses {transducer.k} pebbles"
        )
    with tracer.span("coerce-input-type"):
        tau1 = as_automaton(input_type, transducer.input_alphabet)
    tau2, not_tau2 = complement_output_type(transducer, output_type)
    with gov.phase("transducer-product"), tracer.span("transducer-product"):
        product = transducer_times_automaton(transducer, not_tau2)
    with gov.phase("pebble-trim"), tracer.span("pebble-trim"):
        walking = trim_quotient(product)
    if not is_walking(walking):  # pragma: no cover - k==1 guarantees this
        raise TypecheckError(
            "lazy backward inference needs a walking product automaton"
        )

    counts: dict = {}

    def search() -> Optional[BTree]:
        table = _StateTable(walking)
        prepared = _prepare_rules(walking, table)
        entry_mask = _entry_mask(walking, table)
        root_pair = table.pack(table.index[walking.initial], NONE, 0)
        views: dict = {}
        leaves: dict = {}
        steps: dict = {}

        def view_of(relation):
            view = views.get(relation)
            if view is None:
                view = views[relation] = _down_view(relation, table)
            return view

        def leaf_state(symbol):
            relation = leaves.get(symbol)
            if relation is None:
                relation = leaves[symbol] = _node_relation(
                    prepared, table, symbol, None, entry_mask
                )
            return relation

        def step(symbol, left, right):
            key = (symbol, left, right)
            relation = steps.get(key)
            if relation is None:
                relation = steps[key] = _node_relation(
                    prepared,
                    table,
                    symbol,
                    (view_of(left)[0], view_of(right)[1]),
                    entry_mask,
                )
            return relation

        lazy = LazyTA(
            leaf_state=leaf_state,
            step=step,
            is_accepting=lambda relation: root_pair in relation,
        )
        witness = lazy_product_witness(lazy, tau1, stats=counts)
        counts["relations"] = len(leaves) + len(steps)
        return witness

    with gov.phase("lazy-pairs"):
        witness = memoized(
            "routing.lazy-backward", (walking, tau1), search
        )

    stats: dict = {
        "seconds": time.perf_counter() - started,
        "product": walking.stats(),
    }
    if counts:
        stats["search"] = dict(counts)
    else:
        stats["search"] = {"cached": True}
    if governor is not None:
        stats["budget"] = {
            "steps": governor.steps,
            "states": governor.states,
            "elapsed": governor.elapsed(),
        }
    if witness is None:
        return TypecheckResult(ok=True, method=LAZY_BACKWARD, stats=stats)
    with gov.phase("witness"), tracer.span("witness"):
        bad_output = (
            output_language(transducer, witness)
            .intersection(tau2.complemented())
            .witness()
        )
    return TypecheckResult(
        ok=False,
        method=LAZY_BACKWARD,
        counterexample_input=witness,
        counterexample_output=bad_output,
        stats=stats,
    )
