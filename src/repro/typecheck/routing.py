"""Fast-path algorithm routing: pick the cheapest sound decision method.

The exact Theorem 4.4 pipeline is non-elementary (Theorem 4.8), but most
realistic transformations never need it.  This module implements the
grounded fast paths documented in ``docs/algorithms.md``:

* **stylesheet** — a compiled XSLT stylesheet checked between two DTDs
  is decided on the stylesheet itself, by a fixpoint over the DTDs'
  content models (:mod:`repro.typecheck.stylesheet`).

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

Every other machine takes **exact**, the Theorem 4.4 pipeline of
:func:`repro.typecheck.engine.typecheck`; for one pebble it explores
the walking summary of the Proposition 4.6 product against the input
type lazily, Frisch–Hosoya style ("Towards Practical Typechecking for
Macro Tree Transducers", PAPERS.md), and stops at the first offending
tree.

All routes are *exact*: an ``ok`` is a proof, a counterexample is
genuine, and the audit layer certifies the fast routes' verdicts
exactly like the Theorem 4.4 pipeline's.  Route selection lives in
:func:`repro.typecheck.engine.typecheck` (``method="auto"``); the
decision and its reasons are reported in ``stats["routing"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import TypecheckError
from repro.pebble.transducer import Emit0, Emit2, Move, PebbleTransducer
from repro.runtime.governor import ResourceGovernor, current_governor
from repro.runtime.trace import current_tracer
from repro.trees.ranked import BTree
from repro.typecheck.engine import (
    TypecheckResult,
    as_automaton,
    route_verdict,
)
from repro.typecheck.stylesheet import (
    STYLESHEET,
    decline_reasons,
    stylesheet_of,
    typecheck_stylesheet,
)

#: Route names, as reported in ``result.method`` and trace spans.
FAST_TD = "fast-td"
EXACT = "exact"

#: "This branch of the run is stuck / produces no output" — the bottom
#: value of the fast route's output evaluation.
_BOT = object()


@dataclass(frozen=True)
class RouteDecision:
    """The classifier's verdict on a transducer.

    ``route`` is the route ``method="auto"`` takes; ``reasons``
    explains, in order of detection, why the cheaper routes were
    declined: the stylesheet route for a compiled stylesheet, then the
    fast top-down fragment (empty when eligible).
    """

    route: str
    reasons: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        return {"route": self.route, "reasons": list(self.reasons)}


def classify(
    transducer: PebbleTransducer, input_type=None, output_type=None
) -> RouteDecision:
    """Classify ``transducer`` into the cheapest sound route.

    The decision tree (documented with complexity bounds in
    ``docs/algorithms.md``):

    1. a compiled stylesheet between the two DTDs ``input_type`` and
       ``output_type`` (:func:`~repro.typecheck.stylesheet.decline_reasons`
       lists the conditions) → ``stylesheet``;
    2. one pebble, deterministic, purely top-down and linear (the
       per-node expansion neither loops nor copies) → ``fast-td``;
    3. otherwise (more pebbles, nondeterminism, up-moves, a cyclic or
       copying expansion) → ``exact``, with the reasons ``fast-td``
       was declined.

    Without the types, step 1 is skipped.  Every step is syntactic:
    step 2 reads the rule table, O(rules), and step 1 the stylesheet's
    source key and the input DTD's content models.  No automaton is
    built, so it is safe to run on every ``method="auto"`` call.
    """
    declined: tuple[str, ...] = ()
    if stylesheet_of(transducer) is not None and input_type is not None:
        declined = tuple(
            f"stylesheet route: {reason}"
            for reason in decline_reasons(
                transducer, input_type, output_type
            )
        )
        if not declined:
            return RouteDecision(route=STYLESHEET)
    if transducer.k != 1:
        return RouteDecision(
            route=EXACT,
            reasons=(
                *declined,
                f"uses {transducer.k} pebbles; fast-td needs a single "
                "head",
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
        return RouteDecision(route=EXACT, reasons=(*declined, *reasons))
    return RouteDecision(route=FAST_TD, reasons=declined)


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


def _descent(
    transducer: PebbleTransducer, symbol: str, state, memo: dict
) -> tuple:
    """Where the expansion of ``state`` at ``symbol`` descends:
    ``(q_left, q_right, n_left, n_right)``, the child states it enters
    (each ``None`` when that side is not visited) and how many times it
    enters each side, capped at 2.  The child states are unique when
    both counts are at most 1 (linearity, checked by the classifier).
    Requires the expansion graph to be acyclic (checked first)."""
    key = (symbol, state)
    cached = memo.get(key)
    if cached is not None:
        return cached
    actions = transducer.rules.get((symbol, state, ()), ())
    descent: tuple = (None, None, 0, 0)
    if actions:
        action = actions[0]
        if isinstance(action, Move):
            if action.direction == "down-left":
                descent = (action.target, None, 1, 0)
            elif action.direction == "down-right":
                descent = (None, action.target, 0, 1)
            elif action.direction == "stay":
                descent = _descent(transducer, symbol, action.target, memo)
        elif isinstance(action, Emit2):
            left = _descent(transducer, symbol, action.left, memo)
            right = _descent(transducer, symbol, action.right, memo)
            descent = (
                left[0] if left[0] is not None else right[0],
                left[1] if left[1] is not None else right[1],
                min(2, left[2] + right[2]),
                min(2, left[3] + right[3]),
            )
    memo[key] = descent
    return descent


def _copy_violation(
    transducer: PebbleTransducer,
) -> Optional[tuple[str, object, str]]:
    """A ``(symbol, state, side)`` whose expansion copies a child subtree,
    or ``None`` when every expansion is linear."""
    memo: dict = {}
    for symbol in sorted(transducer.input_alphabet.symbols):
        for state in sorted(transducer.states, key=repr):
            _, _, left, right = _descent(transducer, symbol, state, memo)
            if left > 1:
                return symbol, state, "left"
            if right > 1:
                return symbol, state, "right"
    return None


# ---------------------------------------------------------------------------
# fast-td: polynomial triple fixpoint for the linear top-down fragment
# ---------------------------------------------------------------------------


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
    """A representative tree per reachable input-type state: the first
    derivation the fixpoint finds for it, not necessarily the smallest."""
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
) -> TypecheckResult:
    """Decide ``T(tau1) ⊆ tau2`` for the linear top-down fragment.

    Least fixpoint over triples ``(q, p, b)`` — "some tree with an input
    run reaching ``p`` makes the transducer, started in ``q``, emit an
    output the output DFA reads to ``b``" — with a representative input
    tree per triple.  A triple ``(q0, accepting p, rejecting b)`` is a
    genuine counterexample; absence of one is a proof (the fragment's
    determinism makes the output unique, linearity makes the two child
    triples independent).  Polynomial: at most ``|Q|·|P|·|B|`` triples.
    """
    started = time.perf_counter()
    gov = current_governor()
    tracer = current_tracer()
    decision = classify(transducer)
    if decision.route != FAST_TD:
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

    descent_memo: dict = {}
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
                    q_left, q_right, _, _ = _descent(
                        transducer, symbol, q, descent_memo
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
        "triples": sum(len(cell) for cell in triples.values()),
        "output_dfa_states": len(dfa.states),
        "inhabited_input_states": len(inhabited),
    }
    return route_verdict(
        FAST_TD, transducer, tau2, stats, started, governor, lambda: bad
    )
