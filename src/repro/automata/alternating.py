"""On-the-fly emptiness for implicitly presented tree automata.

Frisch–Hosoya ("Towards Practical Typechecking for Macro Tree
Transducers", PAPERS.md) observe that backward type inference need not
materialize the inferred automaton: the emptiness question only ever
touches the states that are *co-reachable from the error side*, so the
automaton can stay a lazily evaluated function and the search can stop
at the first accepting pair.

:class:`LazyTA` is that implicit presentation — a deterministic
bottom-up automaton given as callables (leaf value, binary step,
acceptance predicate) instead of materialized rule tables.  The states
may be arbitrarily expensive to compute (in the routing layer they are
the subsumption-minimal summary relations of
:mod:`repro.pebble.two_way`); :func:`lazy_product_witness` guarantees
each one is computed at most once, and only if some tree of the paired
explicit automaton actually reaches it.

:func:`lazy_product_witness` explores the product of a :class:`LazyTA`
with an explicit :class:`~repro.automata.bottom_up.BottomUpTA`
bottom-up, breadth-first over *pairs* ``(lazy state, explicit state)``,
carrying a representative tree per pair.  It returns the first tree
accepted by both sides, or ``None`` when the product language is empty
— without ever enumerating the unreachable part of either automaton.

:func:`deterministic_view` presents an explicit complete deterministic
automaton as a :class:`LazyTA`, so the same search decides
:meth:`~repro.automata.bottom_up.BottomUpTA.product_witness`.

:func:`materialize_product` explores the same pairs exhaustively and
returns them as an explicit automaton over pair ids: the product
language itself, still built only from pairs reachable from the
leaves.  The exact route decides ``R ∩ tau1`` with it.

:func:`materialize` is the eager counterpart of a :class:`LazyTA`
alone: every state reachable over an alphabet, as explicit rule tables.
The Theorem 4.7 summary construction is this applied to the walking
summary, so every route drives one automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.automata.bottom_up import BottomUpTA
from repro.errors import AutomatonError
from repro.runtime.governor import current_governor
from repro.trees.alphabet import RankedAlphabet
from repro.trees.ranked import BTree

#: A lazy automaton state — anything hashable (the routing layer uses
#: frozensets of packed summary pairs).
LazyState = Hashable


@dataclass(frozen=True)
class LazyTA:
    """A deterministic bottom-up tree automaton presented implicitly.

    ``leaf_state(a)`` is the state reached on the leaf ``a``;
    ``step(a, left, right)`` the state reached at an ``a``-node whose
    children reached ``left`` and ``right``; ``is_accepting(s)`` the
    acceptance predicate.  All three must be pure: the functions below
    evaluate each distinct transition once and reuse its state.
    Symbols outside the machine's alphabet must still return *some*
    state (typically a rejecting sink) — the search drives symbols from
    the paired explicit automaton's rules, not from this one's alphabet.
    """

    leaf_state: Callable[[str], LazyState]
    step: Callable[[str, LazyState, LazyState], LazyState]
    is_accepting: Callable[[LazyState], bool]


def deterministic_view(ta: BottomUpTA) -> LazyTA:
    """A complete deterministic ``ta`` as a :class:`LazyTA` over its own
    states; any other ``ta`` raises :class:`~repro.errors.AutomatonError`.
    """
    if not ta.is_complete_deterministic():
        raise AutomatonError("expected a complete deterministic automaton")
    leaf_rules, rules = ta.leaf_rules, ta.rules

    def leaf_state(symbol: str) -> LazyState:
        (state,) = leaf_rules[symbol]
        return state

    def step(symbol: str, left: LazyState, right: LazyState) -> LazyState:
        (state,) = rules[(symbol, left, right)]
        return state

    return LazyTA(leaf_state, step, ta.accepting.__contains__)


#: An explicit rule as the pair searches see it: the symbol, the other
#: child's state and the targets in ``repr`` order.
_IndexedRule = tuple[str, Hashable, tuple]


def _rule_index(
    explicit: BottomUpTA,
) -> tuple[dict[Hashable, list[_IndexedRule]],
           dict[Hashable, list[_IndexedRule]]]:
    """``explicit``'s internal rules indexed by their left child state
    (``by_left``) and by their right child state (``by_right``)."""
    by_left: dict[Hashable, list[_IndexedRule]] = {}
    by_right: dict[Hashable, list[_IndexedRule]] = {}
    for (symbol, p1, p2), targets in explicit.rules.items():
        if not targets:
            continue
        ordered = tuple(sorted(targets, key=repr))
        by_left.setdefault(p1, []).append((symbol, p2, ordered))
        by_right.setdefault(p2, []).append((symbol, p1, ordered))
    return by_left, by_right


def lazy_product_witness(
    lazy: LazyTA,
    explicit: BottomUpTA,
    stats: Optional[dict] = None,
) -> Optional[BTree]:
    """A tree accepted by both ``lazy`` and ``explicit``, else ``None``.

    Standard product reachability, kept on-the-fly: pairs ``(s, p)``
    are discovered bottom-up (BFS, so witnesses stay small-ish), the
    lazy side's ``step`` is only invoked for symbol/child combinations
    the explicit side's rules license, and the search returns as soon
    as an accepting pair appears.  When ``stats`` is given it is filled
    in place with ``pairs`` (pairs discovered), ``steps`` (lazy
    transitions taken) and ``transitions`` (distinct ones evaluated).

    The ambient governor is charged one state per pair and one step per
    transition evaluated, so budgets and deadlines apply.
    """
    governor = current_governor()
    accepting = explicit.accepting
    pairs: dict[tuple[LazyState, Hashable], BTree] = {}
    by_p: dict[Hashable, list[tuple[LazyState, BTree]]] = {}
    queue: deque[tuple[LazyState, Hashable]] = deque()
    transitions: dict[tuple, LazyState] = {}
    steps = 0
    leaves = 0

    def step(symbol: str, left: LazyState, right: LazyState) -> LazyState:
        key = (symbol, left, right)
        state = transitions.get(key)
        if state is None:
            state = transitions[key] = lazy.step(symbol, left, right)
        return state

    def offer(state: LazyState, p: Hashable, tree: BTree) -> Optional[BTree]:
        key = (state, p)
        if key in pairs:
            return None
        governor.add_states()
        pairs[key] = tree
        by_p.setdefault(p, []).append((state, tree))
        queue.append(key)
        if p in accepting and lazy.is_accepting(state):
            return tree
        return None

    def report() -> None:
        if stats is not None:
            stats["pairs"] = len(pairs)
            stats["steps"] = steps
            stats["transitions"] = leaves + len(transitions)

    # the explicit side's rules drive the exploration: symbols it has no
    # rules for cannot occur in any tree it accepts.
    for symbol in sorted(explicit.leaf_rules):
        targets = explicit.leaf_rules[symbol]
        if not targets:
            continue
        governor.tick()
        steps += 1
        leaves += 1
        state = lazy.leaf_state(symbol)
        for p in sorted(targets, key=repr):
            hit = offer(state, p, BTree(symbol))
            if hit is not None:
                report()
                return hit

    by_left, by_right = _rule_index(explicit)
    while queue:
        s1, p1 = queue.popleft()
        tree1 = pairs[(s1, p1)]
        # the popped pair as a left child against every known right pair
        for symbol, p2, targets in by_left.get(p1, ()):
            for s2, tree2 in list(by_p.get(p2, ())):
                governor.tick()
                steps += 1
                state = step(symbol, s1, s2)
                for p in targets:
                    hit = offer(state, p, BTree(symbol, tree1, tree2))
                    if hit is not None:
                        report()
                        return hit
        # ... and as a right child (offer dedups the symmetric overlap)
        for symbol, p0, targets in by_right.get(p1, ()):
            for s0, tree0 in list(by_p.get(p0, ())):
                governor.tick()
                steps += 1
                state = step(symbol, s0, s1)
                for p in targets:
                    hit = offer(state, p, BTree(symbol, tree0, tree1))
                    if hit is not None:
                        report()
                        return hit
    report()
    return None


def materialize_product(
    lazy: LazyTA, explicit: BottomUpTA, alphabet: RankedAlphabet
) -> BottomUpTA:
    """The product of ``lazy`` and ``explicit`` over ``alphabet``, on
    the pairs ``(lazy state, explicit state)`` reachable from the
    leaves, as an explicit automaton on pair ids ``0 .. n-1``.

    It accepts ``L(lazy) ∩ L(explicit)`` restricted to trees over
    ``alphabet``: rules of ``explicit`` on other symbols are not
    followed.  The pairs are those :func:`lazy_product_witness` would
    discover without stopping, numbered in discovery order: the leaf
    pairs in symbol order, then breadth-first, each newly found pair
    against every pair found before it (both ways round) under the
    explicit rules that license them.  Each distinct lazy transition is
    evaluated once.

    The ambient governor is charged one step per product transition and
    one state per pair.
    """
    governor = current_governor()
    lazy_ids: dict[LazyState, int] = {}
    lazy_states: list[LazyState] = []
    pair_ids: dict[tuple[int, Hashable], int] = {}
    pairs: list[tuple[int, Hashable]] = []
    queue: deque[int] = deque()
    transitions: dict[tuple[str, int, int], int] = {}

    def lazy_id(state: LazyState) -> int:
        state_id = lazy_ids.get(state)
        if state_id is None:
            state_id = lazy_ids[state] = len(lazy_states)
            lazy_states.append(state)
        return state_id

    def intern(state_id: int, p: Hashable) -> int:
        key = (state_id, p)
        pair_id = pair_ids.get(key)
        if pair_id is None:
            governor.add_states()
            pair_id = pair_ids[key] = len(pairs)
            pairs.append(key)
            queue.append(pair_id)
        return pair_id

    leaf_rules: dict[str, set[int]] = {}
    for symbol in sorted(explicit.leaf_rules):
        if symbol not in alphabet.leaves:
            continue
        governor.tick()
        state_id = lazy_id(lazy.leaf_state(symbol))
        leaf_rules[symbol] = {
            intern(state_id, p)
            for p in sorted(explicit.leaf_rules[symbol], key=repr)
        }

    rules: dict[tuple[str, int, int], set[int]] = {}

    def add(symbol: str, left: int, right: int, targets: tuple) -> None:
        governor.tick()
        s1, s2 = pairs[left][0], pairs[right][0]
        state_id = transitions.get((symbol, s1, s2))
        if state_id is None:
            state_id = transitions[(symbol, s1, s2)] = lazy_id(
                lazy.step(symbol, lazy_states[s1], lazy_states[s2])
            )
        rules[(symbol, left, right)] = {intern(state_id, p) for p in targets}

    internals = alphabet.internals
    by_left, by_right = _rule_index(explicit)
    processed: dict[Hashable, list[int]] = {}
    while queue:
        current = queue.popleft()
        p1 = pairs[current][1]
        processed.setdefault(p1, []).append(current)
        for symbol, p2, targets in by_left.get(p1, ()):
            if symbol in internals:
                for other in processed.get(p2, ()):
                    add(symbol, current, other, targets)
        for symbol, p0, targets in by_right.get(p1, ()):
            if symbol in internals:
                for other in processed.get(p0, ()):
                    if other != current:
                        add(symbol, other, current, targets)
    accepting = explicit.accepting
    return BottomUpTA(
        alphabet=alphabet,
        states=range(len(pairs)),
        leaf_rules=leaf_rules,
        rules=rules,
        accepting=[
            pair_id for pair_id, (state_id, p) in enumerate(pairs)
            if p in accepting and lazy.is_accepting(lazy_states[state_id])
        ],
    )


def materialize(lazy: LazyTA, alphabet: RankedAlphabet) -> BottomUpTA:
    """The part of ``lazy`` reachable over ``alphabet``, as an explicit
    deterministic automaton on states ``0 .. n-1``.

    States are numbered in discovery order: the leaf states in symbol
    order, then breadth-first, each newly found state against every
    state found before it (both ways round) under every internal symbol
    in order.  Each transition is evaluated once.

    The ambient governor is charged one step per transition and one
    state per state found.
    """
    governor = current_governor()
    ids: dict[LazyState, int] = {}
    states: list[LazyState] = []
    queue: deque[int] = deque()

    def intern(state: LazyState) -> int:
        state_id = ids.get(state)
        if state_id is None:
            governor.add_states()
            state_id = ids[state] = len(states)
            states.append(state)
            queue.append(state_id)
        return state_id

    def leaf(symbol: str) -> set[int]:
        governor.tick()
        return {intern(lazy.leaf_state(symbol))}

    leaf_rules = {symbol: leaf(symbol) for symbol in sorted(alphabet.leaves)}
    internals = sorted(alphabet.internals)
    step = lazy.step
    rules: dict[tuple[str, int, int], set[int]] = {}
    processed: list[int] = []
    while queue:
        current = queue.popleft()
        processed.append(current)
        for symbol in internals:
            for other in list(processed):
                for left, right in ((current, other), (other, current)):
                    key = (symbol, left, right)
                    if key not in rules:
                        governor.tick()
                        rules[key] = {intern(
                            step(symbol, states[left], states[right])
                        )}
    return BottomUpTA(
        alphabet=alphabet,
        states=range(len(states)),
        leaf_rules=leaf_rules,
        rules=rules,
        accepting=[
            state_id for state_id, state in enumerate(states)
            if lazy.is_accepting(state)
        ],
    )
