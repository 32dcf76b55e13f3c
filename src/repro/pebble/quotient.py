"""Bisimulation quotients of k-pebble automata.

The product automata of Proposition 4.6 carry one copy of the type
automaton's state per transducer state; many of those copies are
behaviorally identical.  Since the Theorem 4.7 constructions are
(hyper)exponential in the state count per level, collapsing bisimilar
states first is the single most effective preprocessing step.

Two states are merged when they are on the same level and, under every
guard ``(symbol, pebble bits)``, offer the same abstract actions up to
the equivalence (the standard coarsest-partition refinement).  Bisimilar
configurations have identical accessibility in the AND/OR graph, so the
quotient accepts the same tree language; the tests cross-check against
AGAP on random trees.

Refinement runs on two-level signatures.  A *tuple signature* is the set
of (action kind, target blocks) of one action tuple; a *state signature*
is the set of (guard, tuple signature) pairs of the state's rules.  Two
states have equal state signatures exactly when they offer equal
(guard, abstract action) sets, so the partition is the flat refinement's.
Product guards share their action tuples (see
:mod:`repro.pebble.product`), so the per-action work is done once per
distinct tuple: a tuple's signature is recomputed only when one of its
targets changes block, a state's only when one of its tuples' signatures
changes, and only the blocks holding such a state are re-split.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.pebble.automaton import PebbleAutomaton
from repro.runtime.governor import current_governor
from repro.pebble.transducer import (
    Branch0,
    Branch2,
    Move,
    Pick,
    Place,
    State,
)


def quotient_pebble_automaton(automaton: PebbleAutomaton) -> PebbleAutomaton:
    """The bisimulation quotient (same language, possibly far fewer
    states)."""
    governor = current_governor()
    states = sorted(automaton.level_of, key=repr)
    n = len(states)
    index = {state: i for i, state in enumerate(states)}
    # initial partition: by level.
    block = [automaton.level_of[state] for state in states]

    # Block ids are kept *stable* across rounds: when a block splits, the
    # first-scanned part keeps the old id and the rest get fresh ids.  At
    # most n-1 splits can ever happen, so ids stay below
    # ``max(initial ids) + n + 1``; the packing base leaves room for that
    # (initial blocks are level indices, which can exceed n when some
    # levels are empty).
    base = max([n] + block) + n + 2
    next_fresh = max([n] + block) + 1
    # A missing reference points at the sentinel slot n, in block -1.
    block.append(-1)

    # Encode each distinct action tuple once (id-keyed: guards share
    # tuples, and the rule table pins them, so ids are stable).  An action
    # of kind k referencing blocks b1, b2 (-1 when absent) packs into the
    # integer ``k * base**2 + (b1 + 1) * base + b2 + 1``; its row keeps
    # the block-independent part as an addend and the referenced state
    # indices, so a round only re-maps references through ``block``.  A
    # state's rows are its (guard id, tuple index) pairs; guards with no
    # actions offer nothing.
    stride = base * base
    kinds: dict[tuple, int] = {}
    guard_ids: dict[tuple, int] = {}
    tuple_of_id: dict[int, int] = {}
    tuple_rows: list[list[tuple[int, int, int]]] = []
    users: list[list[int]] = []
    state_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # every guard in rule order: (state index, guard id, tuple index or -1)
    guards: list[tuple[int, int, int]] = []
    for (symbol, state, bits), actions in automaton.rules.items():
        i = index[state]
        guard = guard_ids.setdefault((symbol, bits), len(guard_ids))
        if not actions:
            guards.append((i, guard, -1))
            continue
        t = tuple_of_id.get(id(actions))
        if t is None:
            t = tuple_of_id[id(actions)] = len(tuple_rows)
            rows = []
            for action in actions:
                if isinstance(action, Move):
                    tag, ref1, ref2 = ("move", action.direction), action.target, None
                elif isinstance(action, Place):
                    tag, ref1, ref2 = ("place",), action.target, None
                elif isinstance(action, Pick):
                    tag, ref1, ref2 = ("pick",), action.target, None
                elif isinstance(action, Branch0):
                    tag, ref1, ref2 = ("branch0",), None, None
                else:
                    assert isinstance(action, Branch2)
                    tag, ref1, ref2 = ("branch2",), action.left, action.right
                rows.append((
                    kinds.setdefault(tag, len(kinds)) * stride + base + 1,
                    n if ref1 is None else index[ref1],
                    n if ref2 is None else index[ref2],
                ))
            tuple_rows.append(rows)
            users.append([])
        guards.append((i, guard, t))
        state_rows[i].append((guard, t))
        users[t].append(i)
    n_guards = len(guard_ids)

    # rdeps[j]: the tuples referencing state j, whose signatures must be
    # recomputed when j changes block.
    rdeps: list[list[int]] = [[] for _ in range(n)]
    for t, rows in enumerate(tuple_rows):
        refs = {ref for _, ref1, ref2 in rows for ref in (ref1, ref2)}
        refs.discard(n)
        for j in refs:
            rdeps[j].append(t)

    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(block[i], []).append(i)
    sig_ids: dict[frozenset[int], int] = {}
    tuple_sig = [-1] * len(tuple_rows)
    state_sig: list[frozenset[int]] = [frozenset()] * n
    # every tuple is dirty in the first round (nothing computed yet).
    dirty_tuples: Iterable[int] = range(len(tuple_rows))

    while True:
        governor.tick(n)
        changed: set[int] = set()
        for t in dirty_tuples:
            signature = frozenset([
                addend + block[ref1] * base + block[ref2]
                for addend, ref1, ref2 in tuple_rows[t]
            ])
            sig_id = sig_ids.setdefault(signature, len(sig_ids))
            if sig_id != tuple_sig[t]:
                tuple_sig[t] = sig_id
                changed.update(users[t])
        dirty_blocks: set[int] = set()
        for i in changed:
            state_sig[i] = frozenset([
                tuple_sig[t] * n_guards + guard for guard, t in state_rows[i]
            ])
            dirty_blocks.add(block[i])
        # Only a block holding a state whose signature changed can split;
        # scanning those states in index order hands out fresh ids in the
        # order a scan over every state would.
        signatures: dict[tuple, int] = {}
        claimed: set[int] = set()
        moved: list[tuple[int, int]] = []
        for i in sorted(i for b in dirty_blocks for i in members[b]):
            old = block[i]
            key = (old, state_sig[i])
            block_id = signatures.get(key)
            if block_id is None:
                if old not in claimed:
                    claimed.add(old)
                    block_id = old
                else:
                    block_id = next_fresh
                    next_fresh += 1
                signatures[key] = block_id
            if block_id != old:
                moved.append((i, block_id))
        if not moved:
            break
        for i, block_id in moved:
            block[i] = block_id
            members.setdefault(block_id, []).append(i)
        for b in dirty_blocks:
            members[b] = [i for i in members[b] if block[i] == b]
        dirty_tuples = {t for i, _ in moved for t in rdeps[i]}

    # representatives: the repr-least state of each block
    representative: dict[int, State] = {}
    for i, state in enumerate(states):
        representative.setdefault(block[i], state)
    if len(representative) == n:
        return automaton  # nothing merged
    rep_of = [representative[block[i]] for i in range(n)]

    def rep(state: State) -> State:
        return rep_of[index[state]]

    levels = [
        sorted(
            {rep(state) for state in level},
            key=repr,
        )
        for level in automaton.levels
    ]
    # The partition is stable, so the states of a block offer equal
    # rewritten action sets under every guard: the first guard of each
    # quotient key (guard id, block) in rule order gives its actions, and
    # each tuple is rewritten once.  An action's packed code under the
    # final blocks determines its rewrite (kind and representative
    # targets), so rewrites are shared by code and each tuple dedups on
    # codes.
    by_code: dict[int, Hashable] = {}
    rewritten_tuples: list[Optional[tuple]] = [None] * len(tuple_rows)
    seen: set[int] = set()
    rules: dict = {}
    for ((symbol, _, bits), actions), (i, guard, t) in zip(
        automaton.rules.items(), guards
    ):
        slot = guard * base + block[i]
        if slot in seen:
            continue
        seen.add(slot)
        if t >= 0:
            rewritten = rewritten_tuples[t]
            if rewritten is None:
                codes: dict[int, Hashable] = {}
                for action, (addend, ref1, ref2) in zip(actions, tuple_rows[t]):
                    code = addend + block[ref1] * base + block[ref2]
                    if code not in codes:
                        new = by_code.get(code)
                        if new is None:
                            new = by_code[code] = _rewrite(action, rep)
                        codes[code] = new
                rewritten = rewritten_tuples[t] = tuple(codes.values())
            actions = rewritten
        rules[(symbol, rep_of[i], bits)] = actions
    return PebbleAutomaton._trusted(
        alphabet=automaton.alphabet,
        levels=levels,
        initial=rep(automaton.initial),
        rules=rules,
    )


def _rewrite(action, rep):
    """``action`` with every target replaced by its block's
    representative."""
    if isinstance(action, Move):
        return Move(action.direction, rep(action.target))
    if isinstance(action, Place):
        return Place(rep(action.target))
    if isinstance(action, Pick):
        return Pick(rep(action.target))
    if isinstance(action, Branch2):
        return Branch2(rep(action.left), rep(action.right))
    return action
