"""Theorem 4.7 for one pebble: tree-walking automata with branching.

A 1-pebble automaton without place/pick is an *alternating two-way* tree
automaton (a tree-walking automaton with the paper's branch-AND).  For
these, the regular language can be computed by the classical subtree
*summary* construction, which scales to hundreds of states where the
generic quantifier-block construction of :mod:`repro.pebble.to_regular`
would be hyperexponential:

Every subtree ``s`` is summarized by the finite relation

    R(s) = { (q, d, E) }  with q a state, E ⊆ Q, d ∈ {left, right, none}

meaning: the configuration ``(q, root(s))`` has an AND/OR derivation that
stays inside ``s`` except for exit obligations — it assumes each ``(v,
parent(root(s)))`` with ``v ∈ E`` is accessible, and those exits used
up-``d`` moves (so ``root(s)`` must be a ``d``-side child; ``d = none``
iff ``E`` is empty).  Only subsumption-minimal pairs are kept, and
only pairs whose state ``q`` a parent can query: the initial state and
the targets of down-moves (the *entry projection*).

The summaries compose bottom-up: the relation at a node is a least
fixpoint combining the children's relations with the local transitions.
The tree is accepted iff ``(q0, none, ∅)`` is in the root's relation —
which is exactly AGAP accessibility of the initial configuration.

The deterministic bottom-up automaton whose states are the reachable
relations therefore recognizes ``inst(A)``.
"""

from __future__ import annotations

from collections import deque

from repro.automata.alternating import LazyTA, materialize
from repro.automata.bitset import bit_indices
from repro.automata.bottom_up import BottomUpTA
from repro.errors import PebbleMachineError
from repro.pebble.automaton import PebbleAutomaton
from repro.pebble.transducer import Branch0, Branch2, Move

#: Direction tags for exit obligations.
NONE, LEFT, RIGHT = -1, 0, 1

#: A summary pair (q, d, E) is packed into one integer: the exit-set
#: bitmask E shifted left, the interned state index q, and the direction
#: tag d+1 in the low bits.  Packing keeps relations (frozensets of pairs)
#: cheap to hash and compare in the closure's hot loop.
Pair = int

#: A relation: a frozenset of subsumption-minimal packed pairs.
Relation = frozenset


def is_walking(automaton: PebbleAutomaton) -> bool:
    """True when the automaton uses one pebble and no place/pick — i.e.
    it is an alternating tree-walking automaton.  One pebble is enough:
    validation refuses a place at k = 1 and a pick at level 1, and the
    level-preserving rewrites (product, trim, quotient) keep ``k``."""
    return automaton.k == 1


def _merge_dir(d1: int, d2: int) -> int | None:
    """Combine direction tags; ``None`` when incompatible."""
    if d1 == NONE:
        return d2
    if d2 == NONE or d1 == d2:
        return d1
    return None


class _StateTable:
    """Interns walking states to dense indices and packs summary pairs.

    ``pack(q_index, d, exits_mask)`` produces the integer
    ``(exits_mask << shift) | (q_index << 2) | (d + 1)`` where ``shift``
    is wide enough for every state index; masks are over state indices.
    """

    def __init__(self, automaton: PebbleAutomaton) -> None:
        order: list[object] = []
        index: dict[object, int] = {}

        def intern(state: object) -> int:
            state_id = index.get(state)
            if state_id is None:
                state_id = index[state] = len(order)
                order.append(state)
            return state_id

        intern(automaton.initial)
        for (_, state, _), actions in automaton.rules.items():
            intern(state)
            for action in actions:
                if isinstance(action, Branch2):
                    intern(action.left)
                    intern(action.right)
                elif isinstance(action, Move):
                    intern(action.target)
        self.order = order
        self.index = index
        self.shift = 2 + max(1, len(order)).bit_length()

    def pack(self, q_index: int, direction: int, exits_mask: int) -> int:
        return (exits_mask << self.shift) | (q_index << 2) | (direction + 1)

    def unpack(self, pair: int) -> tuple[int, int, int]:
        return (pair >> 2) & ((1 << (self.shift - 2)) - 1), (
            pair & 3
        ) - 1, pair >> self.shift


class _PairSet:
    """A set of packed pairs with subsumption-minimal insertion.

    ``(q, d, E)`` is subsumed by ``(q, d', E')`` when ``E' ⊆ E`` and
    ``d'`` is ``none`` or equal to ``d`` — the subsuming pair is usable
    wherever the subsumed one is.
    """

    def __init__(self) -> None:
        self.by_state: dict[int, list[tuple[int, int]]] = {}

    def add(self, state: int, direction: int, exits: int) -> bool:
        bucket = self.by_state.setdefault(state, [])
        for d2, e2 in bucket:
            if e2 & exits == e2 and (d2 == NONE or d2 == direction):
                return False  # subsumed by an existing pair
        bucket[:] = [
            (d2, e2)
            for d2, e2 in bucket
            if not (
                exits & e2 == exits
                and (direction == NONE or direction == d2)
            )
        ]
        bucket.append((direction, exits))
        return True


def _discharge(
    obligations: int, derived: _PairSet
) -> list[tuple[int, int]]:
    """All ways to derive every obligation at the current node, returning
    the combined (direction, exits mask) alternatives (pruned)."""
    options: list[tuple[int, int]] = [(NONE, 0)]
    for needed in bit_indices(obligations):
        bucket = derived.by_state.get(needed)
        if not bucket:
            return []
        new_options: list[tuple[int, int]] = []
        for d1, e1 in options:
            for d2, e2 in bucket:
                merged = _merge_dir(d1, d2)
                if merged is None:
                    continue
                candidate = (merged, e1 | e2)
                if candidate not in new_options:
                    new_options.append(candidate)
        options = new_options
        if not options:
            return []
    return options


class _SymbolOps:
    """Per-symbol transitions, indexed for semi-naive fixpoint evaluation.

    ``base`` holds the unconditional conclusions (Branch0 and up-moves);
    ``stay``/``branch2`` index the dependent rules by the state whose new
    pairs trigger them; ``down`` lists the child queries.
    """

    __slots__ = ("base", "stay", "branch2", "down", "closure")

    def __init__(self) -> None:
        self.base: list[tuple[int, int, int]] = []
        self.stay: dict[int, list[int]] = {}
        self.branch2: dict[int, list[tuple[int, int]]] = {}
        self.down: list[tuple[int, int, int]] = []
        #: lazily computed fixpoint of the base facts alone (no child
        #: contributions) — every node with this symbol starts from it.
        self.closure: _PairSet | None = None


def _prepare_rules(
    automaton: PebbleAutomaton, table: _StateTable
) -> dict[str, _SymbolOps]:
    """Pre-index the transitions by symbol over interned state indices."""
    index = table.index
    prepared: dict[str, _SymbolOps] = {}
    for (symbol, state, bits), actions in automaton.rules.items():
        if bits != ():  # pragma: no cover - guarded by is_walking
            raise PebbleMachineError("walking automata have no pebble guards")
        ops = prepared.get(symbol)
        if ops is None:
            ops = prepared[symbol] = _SymbolOps()
        state_id = index[state]
        for action in actions:
            if isinstance(action, Branch0):
                ops.base.append((state_id, NONE, 0))
            elif isinstance(action, Branch2):
                left, right = index[action.left], index[action.right]
                ops.branch2.setdefault(left, []).append((state_id, right))
                if right != left:
                    # merge/| are symmetric, so one registration suffices
                    # when both branches read the same state.
                    ops.branch2.setdefault(right, []).append((state_id, left))
            elif isinstance(action, Move):
                direction, target = action.direction, index[action.target]
                if direction == "stay":
                    ops.stay.setdefault(target, []).append(state_id)
                elif direction == "up-left":
                    ops.base.append((state_id, LEFT, 1 << target))
                elif direction == "up-right":
                    ops.base.append((state_id, RIGHT, 1 << target))
                else:  # down-left / down-right
                    side = 0 if direction == "down-left" else 1
                    ops.down.append((side, state_id, target))
            else:  # pragma: no cover - guarded by is_walking
                raise PebbleMachineError(
                    "summary construction requires a walking automaton"
                )
    return prepared


def _entry_mask(automaton: PebbleAutomaton, table: _StateTable) -> int:
    """States a *parent* node can query in a child's relation: down-move
    targets, plus the initial state (queried at the root).  Restricting
    relations to these entries collapses many otherwise-distinct summary
    states."""
    mask = 1 << table.index[automaton.initial]
    for actions in automaton.rules.values():
        for action in actions:
            if isinstance(action, Move) and action.direction.startswith("down"):
                mask |= 1 << table.index[action.target]
    return mask


def _node_relation(
    prepared: dict[str, _SymbolOps],
    table: _StateTable,
    symbol: str,
    children: tuple[dict, dict] | None,
    entry_mask: int,
) -> Relation:
    """The summary relation at a node (packed pairs), by least fixpoint.

    ``children`` is ``(left_down, right_down)``: the left child's side-0
    and the right child's side-1 grouping from :func:`_down_view` — or
    ``None`` at a leaf.

    Evaluated semi-naively: unconditional conclusions seed a worklist, and
    each new pair re-fires only the rules indexed on its state (the
    subsumption-minimal fixpoint is unique, so the evaluation order does
    not affect the result).
    """
    ops = prepared.get(symbol)
    if ops is None:
        return frozenset()

    # The closure of the base facts under stay/branch2 is the same at
    # every node with this symbol; compute it once and start each node's
    # fixpoint from a copy (semi-naive evaluation is insensitive to
    # whether those facts arrive pre-closed or through the worklist).
    closure = ops.closure
    if closure is None:
        closure = ops.closure = _PairSet()
        seed_pending: deque[tuple[int, int, int]] = deque()
        seed_add = closure.add
        for state, direction, exits in ops.base:
            if seed_add(state, direction, exits):
                seed_pending.append((state, direction, exits))
        _saturate(ops, closure, seed_pending, {})

    if children is None:
        derived = closure  # leaves add nothing; read-only below
    else:
        derived = _PairSet()
        derived.by_state = {
            state: bucket[:] for state, bucket in closure.by_state.items()
        }
        add = derived.add
        pending: deque[tuple[int, int, int]] = deque()

        # waiters[u]: down-rule instances blocked on state u being newly
        # derivable.  Obligations already dischargeable from the base
        # closure fire immediately (the worklist no longer replays the
        # base facts, so registration alone would miss them).
        waiters: dict[int, list[tuple[int, int]]] = {}
        for side, target, child_state in ops.down:
            for exits in children[side].get(child_state, ()):
                if exits:
                    instance = (target, exits)
                    for needed in bit_indices(exits):
                        waiters.setdefault(needed, []).append(instance)
                    for merged, combined in _discharge(exits, derived):
                        if add(target, merged, combined):
                            pending.append((target, merged, combined))
                elif add(target, NONE, 0):
                    pending.append((target, NONE, 0))
        _saturate(ops, derived, pending, waiters)

    by_state = derived.by_state
    pack = table.pack
    return frozenset(
        pack(state, direction, exits)
        for state, bucket in by_state.items()
        if (entry_mask >> state) & 1
        for direction, exits in bucket
    )


def _saturate(
    ops: _SymbolOps,
    derived: _PairSet,
    pending: deque,
    waiters: dict[int, list[tuple[int, int]]],
) -> None:
    """Run the semi-naive worklist to fixpoint (mutates ``derived``)."""
    stay, branch2 = ops.stay, ops.branch2
    by_state = derived.by_state
    add = derived.add
    while pending:
        state, direction, exits = pending.popleft()
        for target in stay.get(state, ()):
            if add(target, direction, exits):
                pending.append((target, direction, exits))
        for target, other in branch2.get(state, ()):
            for d2, e2 in list(by_state.get(other, ())):
                merged = _merge_dir(direction, d2)
                if merged is not None:
                    combined = exits | e2
                    if add(target, merged, combined):
                        pending.append((target, merged, combined))
        for target, obligations in waiters.get(state, ()):
            for merged, combined in _discharge(obligations, derived):
                if add(target, merged, combined):
                    pending.append((target, merged, combined))


def _down_view(relation: Relation, table: _StateTable) -> tuple[dict, dict]:
    """A relation's usable pairs grouped by entry state, per child side:
    side 0 keeps pairs with direction ``none`` or ``left``, side 1 those
    with ``none`` or ``right``."""
    grouped: tuple[dict, dict] = ({}, {})
    unpack = table.unpack
    for pair in relation:
        q, direction, exits = unpack(pair)
        if direction == NONE:
            grouped[0].setdefault(q, []).append(exits)
            grouped[1].setdefault(q, []).append(exits)
        else:
            grouped[direction].setdefault(q, []).append(exits)
    return grouped


def walking_summary(automaton: PebbleAutomaton) -> LazyTA:
    """The summary construction as an implicit deterministic automaton.

    Its states are the summary relations: ``leaf_state(a)`` is the
    relation at an ``a``-leaf, ``step(a, left, right)`` the relation at
    an ``a``-node whose children have the relations ``left`` and
    ``right``, and a relation accepts iff it holds ``(q0, none, ∅)``.
    A symbol without rules yields the empty relation.

    Relations keep only the pairs of states a parent can query
    (:func:`_entry_mask`): the projection collapses many summary states
    and is worth an order of magnitude on realistic machines — measured
    in ``benchmarks/bench_ablations.py``.
    """
    if not is_walking(automaton):
        raise PebbleMachineError(
            "the walking summary needs a 1-pebble automaton without "
            "place/pick"
        )
    table = _StateTable(automaton)
    prepared = _prepare_rules(automaton, table)
    entry_mask = _entry_mask(automaton, table)

    # The fixpoint at (symbol, left, right) only reads the children's exit
    # options for that symbol's down-move targets, so cells whose child
    # views agree on that projection yield the same relation.  shapes
    # caches each relation's per-side grouping and its per-symbol
    # projections, results the fixpoints.
    down_states = {
        symbol: (
            tuple(sorted({c for side, _, c in ops.down if side == 0})),
            tuple(sorted({c for side, _, c in ops.down if side == 1})),
        )
        for symbol, ops in prepared.items()
    }
    shapes: dict[Relation, tuple[tuple[dict, dict], dict]] = {}
    results: dict[tuple, Relation] = {}

    def shape(relation: Relation) -> tuple[tuple[dict, dict], dict]:
        shapes[relation] = found = (_down_view(relation, table), {})
        return found

    def project(view: tuple[dict, dict], keys: dict, symbol: str) -> tuple:
        keys[symbol] = key = tuple(
            tuple(
                (q, tuple(sorted(view[side].get(q, ()))))
                for q in down_states[symbol][side]
            )
            for side in (0, 1)
        )
        return key

    def leaf_state(symbol: str) -> Relation:
        return _node_relation(prepared, table, symbol, None, entry_mask)

    def step(symbol: str, left: Relation, right: Relation) -> Relation:
        if symbol not in down_states:
            return frozenset()
        lview, lkeys = shapes.get(left) or shape(left)
        rview, rkeys = shapes.get(right) or shape(right)
        shared = (
            symbol,
            (lkeys.get(symbol) or project(lview, lkeys, symbol))[0],
            (rkeys.get(symbol) or project(rview, rkeys, symbol))[1],
        )
        relation = results.get(shared)
        if relation is None:
            relation = results[shared] = _node_relation(
                prepared, table, symbol, (lview[0], rview[1]), entry_mask
            )
        return relation

    root_pair = table.pack(table.index[automaton.initial], NONE, 0)
    return LazyTA(
        leaf_state=leaf_state,
        step=step,
        is_accepting=lambda relation: root_pair in relation,
    )


def walking_automaton_to_ta(automaton: PebbleAutomaton) -> BottomUpTA:
    """The regular language of an alternating tree-walking automaton.

    Deterministic bottom-up automaton whose states are the summary
    relations reachable from the leaves (:func:`walking_summary`,
    materialized); acceptance is ``(q0, none, ∅)`` at the root.
    """
    summary = walking_summary(automaton)
    return materialize(summary, automaton.alphabet).renamed()
