"""Bottom-up (frontier-to-root) tree automata and the boolean algebra of
regular tree languages (paper, Section 2.3).

Bottom-up nondeterministic automata are equivalent to top-down ones and are
the convenient form for determinization, complementation, products,
emptiness and inclusion — everything the typechecking pipeline needs
("inclusion of regular tree languages is decidable", Section 4.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional

from repro.automata.bitset import (
    SubsetState,
    TAIndex,
    bit_indices,
    ta_index,
)
from repro.errors import AutomatonError
from repro.runtime.cache import memoized
from repro.runtime.governor import current_governor
from repro.runtime.trace import current_tracer
from repro.trees.alphabet import RankedAlphabet
from repro.trees.ranked import BTree, IndexedTree

State = Hashable


@dataclass(frozen=True)
class BottomUpTA:
    """A nondeterministic bottom-up tree automaton.

    Attributes:
        alphabet: the ranked alphabet.
        states: the finite state set.
        leaf_rules: ``a -> set of states`` for leaf symbols.
        rules: ``(a, q_left, q_right) -> set of states`` for internal symbols.
        accepting: root states that accept.
    """

    alphabet: RankedAlphabet
    states: frozenset[State]
    leaf_rules: dict[str, frozenset[State]]
    rules: dict[tuple[str, State, State], frozenset[State]]
    accepting: frozenset[State]

    def __init__(
        self,
        alphabet: RankedAlphabet,
        states: Iterable[State],
        leaf_rules: Mapping[str, Iterable[State]],
        rules: Mapping[tuple[str, State, State], Iterable[State]],
        accepting: Iterable[State],
    ) -> None:
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(
            self,
            "leaf_rules",
            {symbol: frozenset(qs) for symbol, qs in leaf_rules.items() if qs},
        )
        object.__setattr__(
            self,
            "rules",
            {key: frozenset(qs) for key, qs in rules.items() if qs},
        )
        object.__setattr__(self, "accepting", frozenset(accepting))
        self._validate()

    def _validate(self) -> None:
        if not self.accepting <= self.states:
            raise AutomatonError("accepting states must be states")
        for symbol, targets in self.leaf_rules.items():
            if symbol not in self.alphabet.leaves:
                raise AutomatonError(f"leaf rule on non-leaf symbol {symbol!r}")
            if not targets <= self.states:
                raise AutomatonError("leaf rule targets unknown state")
        for (symbol, left, right), targets in self.rules.items():
            if symbol not in self.alphabet.internals:
                raise AutomatonError(f"rule on non-internal symbol {symbol!r}")
            if left not in self.states or right not in self.states:
                raise AutomatonError("rule reads unknown state")
            if not targets <= self.states:
                raise AutomatonError("rule targets unknown state")

    def n_rules(self) -> int:
        """Total number of transition rules."""
        return sum(len(t) for t in self.leaf_rules.values()) + sum(
            len(t) for t in self.rules.values()
        )

    # -- running ---------------------------------------------------------------

    def states_at_root(self, tree: BTree) -> frozenset[State]:
        """The set of states the automaton can reach at the root."""
        indexed = IndexedTree(tree)
        reach: list[frozenset[State]] = [frozenset()] * indexed.n
        empty: frozenset[State] = frozenset()
        for node_id in range(indexed.n - 1, -1, -1):
            symbol = indexed.label(node_id)
            if indexed.is_leaf(node_id):
                reach[node_id] = self.leaf_rules.get(symbol, empty)
            else:
                gathered: set[State] = set()
                for left in reach[indexed.left[node_id]]:
                    for right in reach[indexed.right[node_id]]:
                        gathered |= self.rules.get((symbol, left, right), empty)
                reach[node_id] = frozenset(gathered)
        return reach[0]

    def accepts(self, tree: BTree) -> bool:
        """True when the automaton accepts ``tree``."""
        return bool(self.states_at_root(tree) & self.accepting)

    # -- emptiness and generation -----------------------------------------------

    def reachable_states(self) -> frozenset[State]:
        """States that label the root of at least one tree (fixpoint)."""
        return frozenset(ta_index(self).states_of(self._reachable_mask()))

    def _reachable_mask(
        self, rows: Optional[list[tuple[int, int, int]]] = None
    ) -> int:
        """Reachable states as a bitmask over the intern table (``rows``:
        the :meth:`_sweep_rows`, when the caller already has them)."""
        governor = current_governor()
        idx = ta_index(self)
        leaf_masks = list(idx.leaf.values())
        if rows is None:
            rows = self._sweep_rows(idx)
        reach = 0
        changed = True
        while changed:
            changed = False
            for mask in leaf_masks:
                if mask & ~reach:
                    reach |= mask
                    changed = True
            for li, ri, tmask in rows:
                governor.tick()
                if (reach >> li) & 1 and (reach >> ri) & 1 and tmask & ~reach:
                    reach |= tmask
                    changed = True
        return reach

    def _sweep_rows(self, idx: TAIndex) -> list[tuple[int, int, int]]:
        """``(left index, right index, target mask)`` per internal rule,
        sorted by intern index.

        The fixpoint sweeps charge one step per row per pass, and the
        number of passes depends on the row order.  ``rules`` order comes
        from set iteration upstream, so it varies with the hash seed; the
        intern order does not.
        """
        index = idx.index
        mask_cache: dict[frozenset[State], int] = {}
        rows = []
        for (_, left, right), targets in self.rules.items():
            tmask = mask_cache.get(targets)
            if tmask is None:
                tmask = 0
                for q in targets:
                    tmask |= 1 << index[q]
                mask_cache[targets] = tmask
            rows.append((index[left], index[right], tmask))
        rows.sort()
        return rows

    def is_empty(self) -> bool:
        """True when the language is empty."""
        return not (self._reachable_mask() & ta_index(self).accepting_mask)

    def witness(self) -> Optional[BTree]:
        """A smallest-ish accepted tree, or ``None`` if the language is empty.

        Computed by the standard "cheapest derivation" fixpoint: each state
        gets the smallest tree known to reach it.
        """
        with current_tracer().span("ta.witness"):
            return self._witness()

    def _witness(self) -> Optional[BTree]:
        if not self.accepting:
            return None
        governor = current_governor()
        idx = ta_index(self)
        index = idx.index
        best: list[Optional[BTree]] = [None] * idx.n
        size: list[int] = [0] * idx.n
        leaf_rows = [
            (symbol, [index[q] for q in targets])
            for symbol, targets in sorted(self.leaf_rules.items())
        ]
        rows = [
            (symbol, index[left], index[right], [index[q] for q in targets])
            for (symbol, left, right), targets in sorted(
                self.rules.items(), key=lambda item: repr(item[0])
            )
        ]
        changed = True
        while changed:
            changed = False
            for symbol, targets in leaf_rows:
                for ti in targets:
                    if best[ti] is None:
                        best[ti] = BTree(symbol)
                        size[ti] = 1
                        changed = True
            for symbol, li, ri, targets in rows:
                governor.tick()
                left_tree = best[li]
                if left_tree is None:
                    continue
                right_tree = best[ri]
                if right_tree is None:
                    continue
                candidate_size = size[li] + size[ri] + 1
                candidate: Optional[BTree] = None
                for ti in targets:
                    if best[ti] is None or candidate_size < size[ti]:
                        if candidate is None:
                            candidate = BTree(symbol, left_tree, right_tree)
                        best[ti] = candidate
                        size[ti] = candidate_size
                        changed = True
        winner: Optional[BTree] = None
        winner_size = 0
        for qi in bit_indices(idx.accepting_mask):
            tree = best[qi]
            if tree is not None and (winner is None or size[qi] < winner_size):
                winner = tree
                winner_size = size[qi]
        return winner

    # -- on-the-fly product emptiness (Frisch-Hosoya style) ----------------------

    def product_witness(self, other: "BottomUpTA") -> Optional[BTree]:
        """A tree in ``L(self) ∩ L(other)``, or ``None`` if there is none.

        The :meth:`witness` of :func:`~repro.automata.alternating.explore_product`
        over ``other`` as a :func:`~repro.automata.alternating.deterministic_view`:
        only reachable pairs are explored and the exploration stops at the
        first accepting one.  ``other`` must be complete deterministic (else
        :class:`AutomatonError`), as :meth:`complemented` always is, so
        ``a.product_witness(b.complemented())`` witnesses ``L(a) - L(b)``.
        """
        from repro.automata import alternating  # it imports this module

        if self.alphabet.symbols != other.alphabet.symbols:
            raise AutomatonError("product requires identical alphabets")

        def search() -> Optional[BTree]:
            lazy = alternating.deterministic_view(other)
            return alternating.explore_product(lazy, self).witness()

        with current_tracer().span("ta.product_witness"):
            return memoized("ta.product_witness", (self, other), search)

    def generate(
        self,
        limit: int,
        max_rounds: int = 12,
        report: Optional[dict] = None,
    ) -> Iterator[BTree]:
        """Yield up to ``limit`` distinct accepted trees, roughly smallest
        first (round-based bottom-up enumeration).

        When a ``report`` dict is supplied it is filled in as enumeration
        proceeds: ``emitted`` (trees yielded so far), ``rounds`` (rounds
        run) and — crucially for the bounded typechecker — ``exhausted``,
        which is True when enumeration stopped at ``max_rounds`` (or a
        per-state pool cap) while the language may still hold more trees,
        i.e. fewer than ``limit`` trees were produced *and* that is not
        proof the language was enumerated completely.
        """
        governor = current_governor()
        per_state: dict[State, list[BTree]] = {q: [] for q in self.states}
        seen_per_state: dict[State, set[BTree]] = {q: set() for q in self.states}
        emitted: set[BTree] = set()
        cap_per_state = max(4, limit)
        progressed = False
        ever_capped = False
        rounds_run = 0

        def note(exhausted: bool) -> None:
            if report is not None:
                report["emitted"] = len(emitted)
                report["rounds"] = rounds_run
                report["exhausted"] = exhausted

        def add(state: State, tree: BTree) -> None:
            nonlocal progressed, ever_capped
            if tree in seen_per_state[state]:
                return
            if len(per_state[state]) >= cap_per_state:
                ever_capped = True
                return
            seen_per_state[state].add(tree)
            per_state[state].append(tree)
            progressed = True

        for symbol, targets in sorted(self.leaf_rules.items()):
            for state in targets:
                add(state, BTree(symbol))
        saturated = False
        for _ in range(max_rounds):
            rounds_run += 1
            for state in self.accepting:
                for tree in list(per_state[state]):
                    if tree not in emitted:
                        emitted.add(tree)
                        note(False)
                        yield tree
                        if len(emitted) >= limit:
                            note(False)
                            return
            progressed = False
            snapshot = {q: list(ts) for q, ts in per_state.items()}
            for (symbol, left, right), targets in self.rules.items():
                for left_tree in snapshot[left]:
                    for right_tree in snapshot[right]:
                        governor.tick()
                        combined = BTree(symbol, left_tree, right_tree)
                        for state in targets:
                            add(state, combined)
            if not progressed:
                # fixpoint: no pool can ever grow again, stop early.
                saturated = True
                break
        for state in self.accepting:
            for tree in per_state[state]:
                if tree not in emitted:
                    emitted.add(tree)
                    note(False)
                    yield tree
                    if len(emitted) >= limit:
                        note(False)
                        return
        # fewer than ``limit`` trees: complete only if the fixpoint closed
        # without any pool hitting its cap.
        note(not (saturated and not ever_capped))

    # -- determinization and boolean algebra -------------------------------------

    def is_deterministic(self) -> bool:
        """True when every rule has at most one target state."""
        return all(len(t) <= 1 for t in self.leaf_rules.values()) and all(
            len(t) <= 1 for t in self.rules.values()
        )

    def determinized(self, keep_subsets: bool = False) -> "BottomUpTA":
        """Subset construction: an equivalent *complete deterministic*
        automaton whose states are reachable state sets.

        With ``keep_subsets=True`` the states of the result are the actual
        frozensets rather than opaque integers — the Theorem 4.7 pipeline
        uses this to derive several acceptance conditions from a single
        determinization.  (That variant's result embeds the input's state
        names, so it is memoized under the *exact* fingerprint.)  The
        subset states render their members in intern-table order, so the
        printed form is deterministic across processes.
        """
        return memoized(
            "ta.determinized",
            (self,),
            lambda: self._determinized(keep_subsets),
            extra=(keep_subsets,),
            exact=keep_subsets,
        )

    def _determinized(self, keep_subsets: bool) -> "BottomUpTA":
        governor = current_governor()
        idx = ta_index(self)
        n = idx.n
        index: dict[int, int] = {}
        subsets: list[int] = []
        leaf_rules: dict[str, set[int]] = {}
        rules: dict[tuple[str, int, int], set[int]] = {}
        queue: deque[int] = deque()

        def intern(mask: int) -> int:
            state_id = index.get(mask)
            if state_id is None:
                state_id = index[mask] = len(subsets)
                subsets.append(mask)
                governor.add_states()
                queue.append(mask)
            return state_id

        for symbol in sorted(self.alphabet.leaves):
            leaf_rules[symbol] = {intern(idx.leaf.get(symbol, 0))}
        internals = sorted(self.alphabet.internals)
        while queue:
            # NOTE: new subsets discovered below re-enter the queue, and the
            # symbol loops below must consider pairs with *all* known subsets.
            current = queue.popleft()
            current_id = index[current]
            for symbol in internals:
                row = idx.pair.get(symbol)
                get = row.get if row else None
                for other_id, other in enumerate(list(subsets)):
                    governor.tick()
                    for left_mask, right_mask, lid, rid in (
                        (current, other, current_id, other_id),
                        (other, current, other_id, current_id),
                    ):
                        key = (symbol, lid, rid)
                        if key in rules:
                            continue
                        gathered = 0
                        if get is not None:
                            remaining = left_mask
                            while remaining:
                                low = remaining & -remaining
                                remaining ^= low
                                base = (low.bit_length() - 1) * n
                                rmask = right_mask
                                while rmask:
                                    rlow = rmask & -rmask
                                    rmask ^= rlow
                                    tmask = get(
                                        base + rlow.bit_length() - 1
                                    )
                                    if tmask:
                                        gathered |= tmask
                        rules[key] = {intern(gathered)}
        accepting_mask = idx.accepting_mask
        accepting = [
            state_id
            for state_id, mask in enumerate(subsets)
            if mask & accepting_mask
        ]
        if not keep_subsets:
            return BottomUpTA(
                alphabet=self.alphabet,
                states=range(len(subsets)),
                leaf_rules=leaf_rules,
                rules=rules,
                accepting=accepting,
            )
        order = idx.order
        resolved = [
            SubsetState(order[i] for i in bit_indices(mask))
            for mask in subsets
        ]

        def resolve(state_id: int) -> SubsetState:
            return resolved[state_id]

        return BottomUpTA(
            alphabet=self.alphabet,
            states=resolved,
            leaf_rules={
                symbol: {resolve(s) for s in targets}
                for symbol, targets in leaf_rules.items()
            },
            rules={
                (symbol, resolve(left), resolve(right)): {
                    resolve(s) for s in targets
                }
                for (symbol, left, right), targets in rules.items()
            },
            accepting=[resolve(s) for s in accepting],
        )

    def complemented(self) -> "BottomUpTA":
        """The automaton for the complement language (over ``alphabet``)."""
        return memoized("ta.complemented", (self,), self._complemented)

    def _complemented(self) -> "BottomUpTA":
        det = self if self.is_complete_deterministic() else self.determinized()
        return BottomUpTA(
            alphabet=det.alphabet,
            states=det.states,
            leaf_rules=det.leaf_rules,
            rules=det.rules,
            accepting=det.states - det.accepting,
        )

    def is_complete_deterministic(self) -> bool:
        """True when every symbol/state combination has exactly one target."""
        governor = current_governor()
        for symbol in sorted(self.alphabet.leaves):
            if len(self.leaf_rules.get(symbol, frozenset())) != 1:
                return False
        idx = ta_index(self)
        n = idx.n
        for symbol in sorted(self.alphabet.internals):
            row = idx.pair.get(symbol)
            if row is None:
                row = {}
            get = row.get
            for left in range(n):
                governor.tick()
                base = left * n
                for right in range(n):
                    tmask = get(base + right, 0)
                    if tmask == 0 or tmask & (tmask - 1):
                        return False
        return True

    def product(
        self, other: "BottomUpTA", combine: Callable[[bool, bool], bool]
    ) -> "BottomUpTA":
        """Reachable product automaton; ``combine`` decides acceptance.

        For non-complete automata, ``combine`` must be monotone in the sense
        that ``combine(False, False)`` is ``False`` (intersection, union of
        runs that exist); use :meth:`complemented` + intersection for
        difference, which this module's :meth:`difference` does.
        """
        # ``combine`` is an arbitrary callable; its truth table is the
        # part of it the construction depends on, so that is what the
        # memo key carries.
        table = tuple(
            combine(a, b) for a in (False, True) for b in (False, True)
        )
        return memoized(
            "ta.product",
            (self, other),
            lambda: self._product(other, combine),
            extra=(table,),
        )

    def _product(
        self, other: "BottomUpTA", combine: Callable[[bool, bool], bool]
    ) -> "BottomUpTA":
        if self.alphabet.symbols != other.alphabet.symbols:
            raise AutomatonError("product requires identical alphabets")
        governor = current_governor()
        a, b = ta_index(self), ta_index(other)
        na, nb = a.n, b.n
        # pair (ai, bi) is encoded as the single integer ai * nb + bi and
        # interned to a dense id; a_of/b_of decode ids back to components.
        pair_ids: dict[int, int] = {}
        a_of: list[int] = []
        b_of: list[int] = []

        def intern(code: int) -> int:
            pid = pair_ids.get(code)
            if pid is None:
                pid = pair_ids[code] = len(a_of)
                ai, bi = divmod(code, nb)
                a_of.append(ai)
                b_of.append(bi)
            return pid

        leaf_rules_ids: dict[str, set[int]] = {}
        for symbol in sorted(self.alphabet.leaves):
            targets: set[int] = set()
            amask = a.leaf.get(symbol, 0)
            bmask = b.leaf.get(symbol, 0)
            if amask and bmask:
                for ai in bit_indices(amask):
                    base = ai * nb
                    for bi in bit_indices(bmask):
                        targets.add(intern(base + bi))
            leaf_rules_ids[symbol] = targets
        rules_ids: dict[tuple[str, int, int], set[int]] = {}
        internals = sorted(self.alphabet.internals)
        frontier = set(range(len(a_of)))
        while frontier:
            known_count = len(a_of)
            new_pairs: set[int] = set()
            for symbol in internals:
                arow = a.pair.get(symbol) or {}
                brow = b.pair.get(symbol) or {}
                aget, bget = arow.get, brow.get
                for left_id in range(known_count):
                    a1 = a_of[left_id] * na
                    b1 = b_of[left_id] * nb
                    left_new = left_id in frontier
                    for right_id in range(known_count):
                        governor.tick()
                        key = (symbol, left_id, right_id)
                        if (
                            not left_new
                            and right_id not in frontier
                            and key in rules_ids
                        ):
                            continue
                        amask = aget(a1 + a_of[right_id], 0)
                        if not amask:
                            continue
                        bmask = bget(b1 + b_of[right_id], 0)
                        if not bmask:
                            continue
                        targets = set()
                        for ai in bit_indices(amask):
                            base = ai * nb
                            for bi in bit_indices(bmask):
                                pid = intern(base + bi)
                                targets.add(pid)
                                if pid >= known_count:
                                    new_pairs.add(pid)
                        rules_ids[key] = targets
            governor.add_states(len(new_pairs))
            frontier = new_pairs
        a_acc, b_acc = a.accepting_mask, b.accepting_mask
        a_order, b_order = a.order, b.order
        pair_states = [
            (a_order[a_of[pid]], b_order[b_of[pid]])
            for pid in range(len(a_of))
        ]
        accepting = [
            pair_states[pid]
            for pid in range(len(a_of))
            if combine(
                bool((a_acc >> a_of[pid]) & 1), bool((b_acc >> b_of[pid]) & 1)
            )
        ]
        return BottomUpTA(
            alphabet=self.alphabet,
            states=set(pair_states) | {("_dead", "_dead")},
            leaf_rules={
                symbol: {pair_states[pid] for pid in targets}
                for symbol, targets in leaf_rules_ids.items()
            },
            rules={
                (symbol, pair_states[left], pair_states[right]): {
                    pair_states[pid] for pid in targets
                }
                for (symbol, left, right), targets in rules_ids.items()
            },
            accepting=accepting,
        )

    def intersection(self, other: "BottomUpTA") -> "BottomUpTA":
        """Language intersection."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other: "BottomUpTA") -> "BottomUpTA":
        """Language union (via disjoint sum of automata)."""
        return memoized("ta.union", (self, other), lambda: self._union(other))

    def _union(self, other: "BottomUpTA") -> "BottomUpTA":
        if self.alphabet.symbols != other.alphabet.symbols:
            raise AutomatonError("union requires identical alphabets")
        tag = lambda side, q: (side, q)  # noqa: E731 - tiny local helper
        leaf_rules: dict[str, set[State]] = {}
        for symbol in self.alphabet.leaves:
            leaf_rules[symbol] = {
                tag(0, q) for q in self.leaf_rules.get(symbol, frozenset())
            } | {tag(1, q) for q in other.leaf_rules.get(symbol, frozenset())}
        rules: dict[tuple[str, State, State], set[State]] = {}
        for (symbol, left, right), targets in self.rules.items():
            rules[(symbol, tag(0, left), tag(0, right))] = {
                tag(0, q) for q in targets
            }
        for (symbol, left, right), targets in other.rules.items():
            rules[(symbol, tag(1, left), tag(1, right))] = {
                tag(1, q) for q in targets
            }
        return BottomUpTA(
            alphabet=self.alphabet,
            states={tag(0, q) for q in self.states}
            | {tag(1, q) for q in other.states},
            leaf_rules=leaf_rules,
            rules=rules,
            accepting={tag(0, q) for q in self.accepting}
            | {tag(1, q) for q in other.accepting},
        )

    def difference(self, other: "BottomUpTA") -> "BottomUpTA":
        """Language difference ``L(self) - L(other)``."""
        return self.intersection(other.complemented())

    def includes(self, other: "BottomUpTA") -> bool:
        """True when ``L(other) ⊆ L(self)`` (decidable; Section 4.1)."""
        return other.difference(self).is_empty()

    def equivalent(self, other: "BottomUpTA") -> bool:
        """Language equality."""
        return self.includes(other) and other.includes(self)

    # -- normalization ------------------------------------------------------------

    def trimmed(self) -> "BottomUpTA":
        """Drop states that are unreachable or useless (cannot reach an
        accepting root context).  Keeps the language."""
        return memoized("ta.trimmed", (self,), self._trimmed)

    def _trimmed(self) -> "BottomUpTA":
        governor = current_governor()
        idx = ta_index(self)
        rows = self._sweep_rows(idx)
        reach = self._reachable_mask(rows)
        # co-reachability: a state is useful if some context takes it to
        # acceptance; computed by a backward fixpoint over bitmasks.
        useful = idx.accepting_mask & reach
        changed = True
        while changed:
            changed = False
            for li, ri, tmask in rows:
                governor.tick()
                if not ((reach >> li) & 1 and (reach >> ri) & 1):
                    continue
                if tmask & useful:
                    grown = useful | (1 << li) | (1 << ri)
                    if grown != useful:
                        useful = grown
                        changed = True
        reachable = frozenset(idx.states_of(reach))
        keep = reachable & frozenset(
            idx.states_of(useful | idx.accepting_mask)
        )
        leaf_rules = {
            symbol: targets & keep for symbol, targets in self.leaf_rules.items()
        }
        rules = {
            key: targets & keep
            for key, targets in self.rules.items()
            if key[1] in keep and key[2] in keep
        }
        return BottomUpTA(
            alphabet=self.alphabet,
            states=keep or {"_dead"},
            leaf_rules=leaf_rules,
            rules=rules,
            accepting=self.accepting & keep,
        )

    def minimized(self) -> "BottomUpTA":
        """Myhill–Nerode style minimization.

        Determinizes first if needed, then merges equivalent states by
        partition refinement.  The result is the canonical complete
        deterministic automaton (up to renaming) for the language.
        """
        return memoized("ta.minimized", (self,), self._minimized)

    def _minimized(self) -> "BottomUpTA":
        det = self if self.is_complete_deterministic() else self.determinized()
        with current_tracer().span("ta.refine"):
            return det._refined()

    def _refined(self) -> "BottomUpTA":
        det = self
        governor = current_governor()
        idx = ta_index(det)
        n = idx.n
        leaf_symbols = sorted(det.alphabet.leaves)
        internal_symbols = sorted(det.alphabet.internals)
        # dense successor tables: succ[s][l * n + r] is the single target
        # index of rule (internal_symbols[s], l, r); requires completeness.
        succ: list[list[int]] = []
        for symbol in internal_symbols:
            row = idx.pair.get(symbol) or {}
            if len(row) != n * n:
                raise AutomatonError(
                    "refinement requires a complete deterministic automaton"
                )
            arr = [0] * (n * n)
            for code, tmask in row.items():
                if tmask & (tmask - 1):
                    raise AutomatonError(
                        "refinement requires a deterministic automaton"
                    )
                arr[code] = tmask.bit_length() - 1
            succ.append(arr)
        accepting_mask = idx.accepting_mask
        block = [(accepting_mask >> i) & 1 for i in range(n)]
        while True:
            signatures: dict[tuple, int] = {}
            new_block = [0] * n
            for qi in range(n):
                governor.tick()
                row = [block[qi]]
                base = qi * n
                for arr in succ:
                    for other in range(n):
                        row.append(block[arr[base + other]])
                        row.append(block[arr[other * n + qi]])
                signature = tuple(row)
                block_id = signatures.get(signature)
                if block_id is None:
                    block_id = signatures[signature] = len(signatures)
                new_block[qi] = block_id
            if len(signatures) == len(set(block)):
                block = new_block
                break
            block = new_block

        def the_leaf(symbol: str) -> int:
            tmask = idx.leaf[symbol]
            if tmask == 0 or tmask & (tmask - 1):
                raise AutomatonError(
                    "refinement requires a complete deterministic automaton"
                )
            return tmask.bit_length() - 1

        leaf_rules = {
            symbol: {block[the_leaf(symbol)]} for symbol in leaf_symbols
        }
        rules = {
            (symbol, block[left], block[right]): {
                block[succ[si][left * n + right]]
            }
            for si, symbol in enumerate(internal_symbols)
            for left in range(n)
            for right in range(n)
        }
        return BottomUpTA(
            alphabet=det.alphabet,
            states=set(block),
            leaf_rules=leaf_rules,
            rules=rules,
            accepting={block[i] for i in bit_indices(accepting_mask)},
        )

    def renamed(self) -> "BottomUpTA":
        """Rename states to consecutive integers (canonical-ish form)."""
        mapping = {
            state: index
            for index, state in enumerate(sorted(self.states, key=repr))
        }
        return BottomUpTA(
            alphabet=self.alphabet,
            states=mapping.values(),
            leaf_rules={
                symbol: {mapping[q] for q in targets}
                for symbol, targets in self.leaf_rules.items()
            },
            rules={
                (symbol, mapping[left], mapping[right]): {
                    mapping[q] for q in targets
                }
                for (symbol, left, right), targets in self.rules.items()
            },
            accepting={mapping[q] for q in self.accepting},
        )

    def stats(self) -> dict[str, int]:
        """Size statistics (used by the complexity benchmarks)."""
        return {
            "states": len(self.states),
            "rules": self.n_rules(),
            "accepting": len(self.accepting),
        }
