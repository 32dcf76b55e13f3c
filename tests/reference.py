"""Frozenset reference implementations of the automata/regex algebra.

These are the original (pre-bitset) implementations of the `BottomUpTA`
boolean algebra and the DFA layer, kept verbatim as an *executable
oracle*: the differential test-suite runs every bitset-core operation
against these and asserts identical languages, verdicts and witnesses.

The test harness in ``switches.py`` substitutes these functions for the
public methods in ``bottom_up.py`` / ``regex/dfa.py``: inside
``switches.oracle_algebra()``, or for a whole session run with
``REPRO_REFERENCE_ALGEBRA=1``.  Oracle runs deliberately bypass the memo
tables so a cached bitset result can never masquerade as a reference
result; they are correspondingly slower.

Governor accounting (ticks / state charges) matches the original code,
so the oracle is still resource-bounded under a `ResourceGovernor`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Optional

from repro.errors import AutomatonError, RegexError
from repro.runtime.governor import current_governor
from repro.trees.ranked import BTree

State = Hashable

# -- BottomUpTA algebra (original frozenset implementations) -------------------


def ta_reachable_states(ta) -> frozenset:
    """States that label the root of at least one tree (fixpoint)."""
    governor = current_governor()
    reachable: set[State] = set()
    changed = True
    while changed:
        changed = False
        for targets in ta.leaf_rules.values():
            for state in targets:
                if state not in reachable:
                    reachable.add(state)
                    changed = True
        for (_, left, right), targets in ta.rules.items():
            governor.tick()
            if left in reachable and right in reachable:
                for state in targets:
                    if state not in reachable:
                        reachable.add(state)
                        changed = True
    return frozenset(reachable)


def ta_is_empty(ta) -> bool:
    """True when the language is empty."""
    return not (ta_reachable_states(ta) & ta.accepting)


def ta_witness(ta) -> Optional[BTree]:
    """A smallest-ish accepted tree via the cheapest-derivation fixpoint."""
    governor = current_governor()
    best: dict[State, BTree] = {}
    changed = True
    while changed:
        changed = False
        for symbol, targets in sorted(ta.leaf_rules.items()):
            for state in targets:
                if state not in best:
                    best[state] = BTree(symbol)
                    changed = True
        for (symbol, left, right), targets in sorted(
            ta.rules.items(), key=lambda item: repr(item[0])
        ):
            governor.tick()
            if left in best and right in best:
                candidate = BTree(symbol, best[left], best[right])
                for state in targets:
                    if state not in best or (
                        candidate.size() < best[state].size()
                    ):
                        best[state] = candidate
                        changed = True
    accepted = [best[q] for q in ta.accepting if q in best]
    if not accepted:
        return None
    return min(accepted, key=lambda tree: tree.size())


def ta_determinized(ta, keep_subsets: bool = False):
    """Subset construction (original frozenset-interning version)."""
    from repro.automata.bottom_up import BottomUpTA

    governor = current_governor()
    empty: frozenset[State] = frozenset()
    index: dict[frozenset[State], int] = {}
    leaf_rules: dict[str, set[int]] = {}
    rules: dict[tuple[str, int, int], set[int]] = {}
    queue: deque[frozenset[State]] = deque()

    def intern(states: frozenset[State]) -> int:
        if states not in index:
            index[states] = len(index)
            governor.add_states()
            queue.append(states)
        return index[states]

    for symbol in ta.alphabet.leaves:
        leaf_rules[symbol] = {intern(ta.leaf_rules.get(symbol, empty))}
    while queue:
        # NOTE: new subsets discovered below re-enter the queue, and the
        # symbol loops below must consider pairs with *all* known subsets.
        current = queue.popleft()
        current_id = index[current]
        for symbol in ta.alphabet.internals:
            for other in list(index):
                governor.tick()
                other_id = index[other]
                for left_set, right_set, lid, rid in (
                    (current, other, current_id, other_id),
                    (other, current, other_id, current_id),
                ):
                    key = (symbol, lid, rid)
                    if key in rules:
                        continue
                    gathered: set[State] = set()
                    for left in left_set:
                        for right in right_set:
                            gathered |= ta.rules.get(
                                (symbol, left, right), empty
                            )
                    rules[key] = {intern(frozenset(gathered))}
    accepting = {
        state_id
        for states, state_id in index.items()
        if states & ta.accepting
    }
    result = BottomUpTA(
        alphabet=ta.alphabet,
        states=index.values(),
        leaf_rules=leaf_rules,
        rules=rules,
        accepting=accepting,
    )
    if not keep_subsets:
        return result
    subset_of = {state_id: subset for subset, state_id in index.items()}

    def resolve(state_id: int) -> frozenset[State]:
        return subset_of[state_id]

    return BottomUpTA(
        alphabet=ta.alphabet,
        states=[resolve(s) for s in result.states],
        leaf_rules={
            symbol: {resolve(s) for s in targets}
            for symbol, targets in result.leaf_rules.items()
        },
        rules={
            (symbol, resolve(left), resolve(right)): {
                resolve(s) for s in targets
            }
            for (symbol, left, right), targets in result.rules.items()
        },
        accepting=[resolve(s) for s in result.accepting],
    )


def ta_is_complete_deterministic(ta) -> bool:
    """True when every symbol/state combination has exactly one target."""
    governor = current_governor()
    for symbol in ta.alphabet.leaves:
        if len(ta.leaf_rules.get(symbol, frozenset())) != 1:
            return False
    for symbol in ta.alphabet.internals:
        for left in ta.states:
            governor.tick()
            for right in ta.states:
                if len(ta.rules.get((symbol, left, right), frozenset())) != 1:
                    return False
    return True


def ta_complemented(ta):
    """The automaton for the complement language (over ``ta.alphabet``)."""
    from repro.automata.bottom_up import BottomUpTA

    det = ta if ta_is_complete_deterministic(ta) else ta_determinized(ta)
    return BottomUpTA(
        alphabet=det.alphabet,
        states=det.states,
        leaf_rules=det.leaf_rules,
        rules=det.rules,
        accepting=det.states - det.accepting,
    )


def ta_product(ta, other, combine: Callable[[bool, bool], bool]):
    """Reachable product automaton; ``combine`` decides acceptance."""
    from repro.automata.bottom_up import BottomUpTA

    if ta.alphabet.symbols != other.alphabet.symbols:
        raise AutomatonError("product requires identical alphabets")
    governor = current_governor()
    empty: frozenset[State] = frozenset()
    pairs: set[tuple[State, State]] = set()
    leaf_rules: dict[str, set[tuple[State, State]]] = {}
    for symbol in ta.alphabet.leaves:
        targets = {
            (mine, theirs)
            for mine in ta.leaf_rules.get(symbol, empty)
            for theirs in other.leaf_rules.get(symbol, empty)
        }
        leaf_rules[symbol] = targets
        pairs |= targets
    rules: dict[tuple[str, tuple[State, State], tuple[State, State]], set] = {}
    frontier = set(pairs)
    while frontier:
        new_pairs: set[tuple[State, State]] = set()
        for symbol in ta.alphabet.internals:
            known = list(pairs)
            for left_pair in known:
                for right_pair in known:
                    governor.tick()
                    if (
                        left_pair not in frontier
                        and right_pair not in frontier
                        and (symbol, left_pair, right_pair) in rules
                    ):
                        continue
                    mine = ta.rules.get(
                        (symbol, left_pair[0], right_pair[0]), empty
                    )
                    theirs = other.rules.get(
                        (symbol, left_pair[1], right_pair[1]), empty
                    )
                    targets = {(m, t) for m in mine for t in theirs}
                    if targets:
                        rules[(symbol, left_pair, right_pair)] = targets
                        new_pairs |= targets - pairs
        governor.add_states(len(new_pairs))
        pairs |= new_pairs
        frontier = new_pairs
    accepting = {
        (mine, theirs)
        for (mine, theirs) in pairs
        if combine(mine in ta.accepting, theirs in other.accepting)
    }
    return BottomUpTA(
        alphabet=ta.alphabet,
        states=pairs | {("_dead", "_dead")},
        leaf_rules=leaf_rules,
        rules=rules,
        accepting=accepting,
    )


def ta_union(ta, other):
    """Language union (via disjoint sum of automata)."""
    from repro.automata.bottom_up import BottomUpTA

    if ta.alphabet.symbols != other.alphabet.symbols:
        raise AutomatonError("union requires identical alphabets")
    tag = lambda side, q: (side, q)  # noqa: E731 - tiny local helper
    leaf_rules: dict[str, set[State]] = {}
    for symbol in ta.alphabet.leaves:
        leaf_rules[symbol] = {
            tag(0, q) for q in ta.leaf_rules.get(symbol, frozenset())
        } | {tag(1, q) for q in other.leaf_rules.get(symbol, frozenset())}
    rules: dict[tuple[str, State, State], set[State]] = {}
    for (symbol, left, right), targets in ta.rules.items():
        rules[(symbol, tag(0, left), tag(0, right))] = {
            tag(0, q) for q in targets
        }
    for (symbol, left, right), targets in other.rules.items():
        rules[(symbol, tag(1, left), tag(1, right))] = {
            tag(1, q) for q in targets
        }
    return BottomUpTA(
        alphabet=ta.alphabet,
        states={tag(0, q) for q in ta.states}
        | {tag(1, q) for q in other.states},
        leaf_rules=leaf_rules,
        rules=rules,
        accepting={tag(0, q) for q in ta.accepting}
        | {tag(1, q) for q in other.accepting},
    )


def ta_trimmed(ta):
    """Drop unreachable/useless states (original fixpoint version)."""
    from repro.automata.bottom_up import BottomUpTA

    governor = current_governor()
    reachable = ta_reachable_states(ta)
    # co-reachability: a state is useful if some context takes it to
    # acceptance; computed by a backward fixpoint.
    useful: set[State] = set(ta.accepting & reachable)
    changed = True
    while changed:
        changed = False
        for (symbol, left, right), targets in ta.rules.items():
            governor.tick()
            if left not in reachable or right not in reachable:
                continue
            if targets & useful:
                for state in (left, right):
                    if state not in useful:
                        useful.add(state)
                        changed = True
    keep = reachable & (useful | ta.accepting)
    leaf_rules = {
        symbol: targets & keep for symbol, targets in ta.leaf_rules.items()
    }
    rules = {
        key: targets & keep
        for key, targets in ta.rules.items()
        if key[1] in keep and key[2] in keep
    }
    return BottomUpTA(
        alphabet=ta.alphabet,
        states=keep or {"_dead"},
        leaf_rules=leaf_rules,
        rules=rules,
        accepting=ta.accepting & keep,
    )


def ta_refined(det):
    """Partition refinement on a complete deterministic automaton."""
    from repro.automata.bottom_up import BottomUpTA

    governor = current_governor()
    states = sorted(det.states, key=repr)
    block_of: dict[State, int] = {
        q: (1 if q in det.accepting else 0) for q in states
    }

    def the(targets: frozenset) -> State:
        (only,) = targets
        return only

    leaf_symbols = sorted(det.alphabet.leaves)
    internal_symbols = sorted(det.alphabet.internals)
    while True:
        signatures: dict[tuple, int] = {}
        new_block_of: dict[State, int] = {}
        for q in states:
            governor.tick()
            row = [block_of[q]]
            for symbol in internal_symbols:
                for other in states:
                    row.append(
                        block_of[the(det.rules[(symbol, q, other)])]
                    )
                    row.append(
                        block_of[the(det.rules[(symbol, other, q)])]
                    )
            signature = tuple(row)
            if signature not in signatures:
                signatures[signature] = len(signatures)
            new_block_of[q] = signatures[signature]
        if len(signatures) == len(set(block_of.values())):
            block_of = new_block_of
            break
        block_of = new_block_of
    leaf_rules = {
        symbol: {block_of[the(det.leaf_rules[symbol])]}
        for symbol in leaf_symbols
    }
    rules = {
        (symbol, block_of[left], block_of[right]): {
            block_of[the(det.rules[(symbol, left, right)])]
        }
        for symbol in internal_symbols
        for left in states
        for right in states
    }
    return BottomUpTA(
        alphabet=det.alphabet,
        states=set(block_of.values()),
        leaf_rules=leaf_rules,
        rules=rules,
        accepting={block_of[q] for q in det.accepting},
    )


def ta_minimized(ta):
    """Myhill-Nerode style minimization (determinize, then refine)."""
    det = ta if ta_is_complete_deterministic(ta) else ta_determinized(ta)
    return ta_refined(det)


# -- DFA layer (original frozenset implementations) ---------------------------


def dfa_determinize(nfa, alpha: frozenset):
    """Subset construction, producing a complete DFA over ``alpha``."""
    from repro.regex.dfa import DFA

    index: dict[frozenset[int], int] = {}
    delta: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    queue: deque[frozenset[int]] = deque()

    def intern(states: frozenset[int]) -> int:
        if states not in index:
            index[states] = len(index)
            queue.append(states)
            if states & nfa.accepting:
                accepting.add(index[states])
        return index[states]

    start = intern(nfa.initial_states())
    while queue:
        states = queue.popleft()
        state_id = index[states]
        for symbol in alpha:
            delta[(state_id, symbol)] = intern(nfa.step(states, symbol))
    return DFA(
        alphabet=alpha,
        n_states=len(index),
        start=start,
        accepting=frozenset(accepting),
        delta=delta,
    )


def dfa_product(dfa, other, combine: Callable[[bool, bool], bool]):
    """Product construction; ``combine`` decides acceptance."""
    from repro.regex.dfa import DFA

    if dfa.alphabet != other.alphabet:
        raise RegexError("product requires identical alphabets")
    index: dict[tuple[int, int], int] = {}
    delta: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    queue = deque()

    def intern(pair: tuple[int, int]) -> int:
        if pair not in index:
            index[pair] = len(index)
            queue.append(pair)
            if combine(pair[0] in dfa.accepting, pair[1] in other.accepting):
                accepting.add(index[pair])
        return index[pair]

    start = intern((dfa.start, other.start))
    while queue:
        pair = queue.popleft()
        state = index[pair]
        for symbol in dfa.alphabet:
            succ = (
                dfa.delta[(pair[0], symbol)],
                other.delta[(pair[1], symbol)],
            )
            delta[(state, symbol)] = intern(succ)
    return DFA(
        alphabet=dfa.alphabet,
        n_states=len(index),
        start=start,
        accepting=frozenset(accepting),
        delta=delta,
    )


def dfa_minimized(dfa):
    """Moore partition-refinement minimization (reachable part only)."""
    from repro.regex.dfa import DFA

    reachable = sorted(dfa.reachable_states())
    symbols = sorted(dfa.alphabet)
    # initial partition: accepting / non-accepting
    block_of = {
        state: (1 if state in dfa.accepting else 0) for state in reachable
    }
    while True:
        signatures: dict[tuple, int] = {}
        new_block_of: dict[int, int] = {}
        for state in reachable:
            signature = (
                block_of[state],
                tuple(block_of[dfa.delta[(state, s)]] for s in symbols),
            )
            if signature not in signatures:
                signatures[signature] = len(signatures)
            new_block_of[state] = signatures[signature]
        if len(signatures) == len(set(block_of.values())):
            block_of = new_block_of
            break
        block_of = new_block_of
    n_blocks = len(set(block_of.values()))
    delta = {
        (block_of[state], symbol): block_of[dfa.delta[(state, symbol)]]
        for state in reachable
        for symbol in symbols
    }
    accepting = frozenset(
        block_of[state] for state in reachable if state in dfa.accepting
    )
    return DFA(
        alphabet=dfa.alphabet,
        n_states=n_blocks,
        start=block_of[dfa.start],
        accepting=accepting,
        delta=delta,
    )
