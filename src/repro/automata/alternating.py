"""Product emptiness against implicitly presented tree automata.

Frisch–Hosoya ("Towards Practical Typechecking for Macro Tree
Transducers", PAPERS.md) observe that backward type inference need not
materialize the inferred automaton: the emptiness question only ever
touches the states that are *co-reachable from the error side*, so the
automaton can stay a lazily evaluated function and the search can stop
at the first accepting pair.

:class:`LazyTA` is that implicit presentation — a deterministic
bottom-up automaton given as callables (leaf value, binary step,
acceptance predicate) instead of materialized rule tables.  The states
may be arbitrarily expensive to compute (in the exact route they are
the subsumption-minimal summary relations of
:mod:`repro.pebble.two_way`); :func:`explore_product` guarantees each
one is computed at most once, and only if some tree of the paired
explicit automaton actually reaches it.

:func:`explore_product` explores the product of a :class:`LazyTA` with
an explicit :class:`~repro.automata.bottom_up.BottomUpTA` bottom-up,
breadth-first over *pairs* ``(lazy state, explicit state)``, and stops
at the first pair both sides accept.  It returns the pairs it explored
as an explicit automaton whose ``witness()`` is a tree of the product
language, or ``None`` when that language is empty — without ever
enumerating the unreachable part of either automaton.  The exact route
decides ``R ∩ tau1`` with it.

:func:`deterministic_view` presents an explicit complete deterministic
automaton as a :class:`LazyTA`, so the same explorer decides
:meth:`~repro.automata.bottom_up.BottomUpTA.product_witness`.

:func:`materialize` is the eager counterpart of a :class:`LazyTA`
alone: every state reachable over an alphabet, as explicit rule tables.
The Theorem 4.7 summary construction is this applied to the walking
summary, so every route drives one automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.automata.bottom_up import BottomUpTA
from repro.errors import AutomatonError
from repro.runtime.governor import current_governor
from repro.trees.alphabet import RankedAlphabet

#: A lazy automaton state — anything hashable (the walking summary uses
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
    state (typically a rejecting sink) — :func:`explore_product` drives
    symbols from the paired explicit automaton's rules, not from this
    one's alphabet.
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


def explore_product(lazy: LazyTA, explicit: BottomUpTA) -> BottomUpTA:
    """The product of ``lazy`` and ``explicit`` on the pairs ``(lazy
    state, explicit state)`` reachable from the leaves, explored up to
    the first pair both sides accept, as an explicit automaton on pair
    ids ``0 .. n-1``.

    Its ``witness()`` is a tree of ``L(lazy) ∩ L(explicit)``, or
    ``None`` when that language is empty.  The exploration stops as
    soon as it interns a pair both sides accept; the accepting states
    are that pair and any other accepting target of the rule that
    reached it.  When there is no such pair, the automaton holds every
    reachable pair and accepts nothing.  ``explicit``'s rules drive the
    exploration on every symbol they use.  Pairs are numbered in
    discovery order: the leaf pairs in symbol order, then breadth-first,
    each newly found pair against every pair found before it (both ways
    round) under the explicit rules that license them.  Each distinct
    lazy transition is evaluated once.

    The ambient governor is charged one step per product transition and
    one state per pair.
    """
    governor = current_governor()
    accepting = explicit.accepting
    lazy_ids: dict[LazyState, int] = {}
    lazy_states: list[LazyState] = []
    pair_ids: dict[tuple[int, Hashable], int] = {}
    pairs: list[tuple[int, Hashable]] = []
    found: list[int] = []
    queue: deque[int] = deque()
    transitions: dict[tuple[str, int, int], int] = {}
    leaf_rules: dict[str, set[int]] = {}
    rules: dict[tuple[str, int, int], set[int]] = {}

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
            if p in accepting and lazy.is_accepting(lazy_states[state_id]):
                found.append(pair_id)
        return pair_id

    def add(symbol: str, left: int, right: int, targets: tuple) -> bool:
        """Record one product rule; ``True`` once a pair is accepted."""
        governor.tick()
        s1, s2 = pairs[left][0], pairs[right][0]
        state_id = transitions.get((symbol, s1, s2))
        if state_id is None:
            state_id = transitions[(symbol, s1, s2)] = lazy_id(
                lazy.step(symbol, lazy_states[s1], lazy_states[s2])
            )
        rules[(symbol, left, right)] = {intern(state_id, p) for p in targets}
        return bool(found)

    def explore() -> None:
        for symbol in sorted(explicit.leaf_rules):
            governor.tick()
            state_id = lazy_id(lazy.leaf_state(symbol))
            leaf_rules[symbol] = {
                intern(state_id, p)
                for p in sorted(explicit.leaf_rules[symbol], key=repr)
            }
            if found:
                return
        # the internal rules by left and by right child state, with
        # their targets in repr order
        by_left: dict[Hashable, list] = {}
        by_right: dict[Hashable, list] = {}
        for (symbol, p1, p2), targets in explicit.rules.items():
            ordered = tuple(sorted(targets, key=repr))
            by_left.setdefault(p1, []).append((symbol, p2, ordered))
            by_right.setdefault(p2, []).append((symbol, p1, ordered))
        processed: dict[Hashable, list[int]] = {}
        while queue:
            current = queue.popleft()
            p1 = pairs[current][1]
            processed.setdefault(p1, []).append(current)
            for symbol, p2, targets in by_left.get(p1, ()):
                for other in processed.get(p2, ()):
                    if add(symbol, current, other, targets):
                        return
            for symbol, p0, targets in by_right.get(p1, ()):
                for other in processed.get(p0, ()):
                    if other != current \
                            and add(symbol, other, current, targets):
                        return

    explore()
    return BottomUpTA(
        alphabet=explicit.alphabet,
        states=range(len(pairs)),
        leaf_rules=leaf_rules,
        rules=rules,
        accepting=found,
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
