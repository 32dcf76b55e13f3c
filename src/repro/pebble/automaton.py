"""The k-pebble tree automaton (paper, Definition 4.5) and its AND/OR-graph
acceptance semantics.

A k-pebble automaton is the acceptor variant of the transducer: output
transitions are replaced by ``branch0`` (halt and accept this branch) and
``branch2`` (spawn two obligations).  A tree is accepted when the initial
configuration can rewrite to the empty word of configurations.

Acceptance on a *concrete* tree is decided here by exactly the object the
proof of Theorem 4.7 quantifies over: the alternating graph ``G_{A,t}``
whose or-nodes are configurations and whose and-nodes are branch pairs.
The Alternating Graph Accessibility Problem (AGAP) is solved by the
standard linear-time counter-based least fixpoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import PebbleMachineError
from repro.pebble.stepping import Config, guard_bits, move_successor
from repro.pebble.transducer import (
    Action,
    Branch0,
    Branch2,
    Emit0,
    Emit2,
    GuardKey,
    Move,
    PebbleMachine,
    Pick,
    Place,
    RuleSet,
    State,
)
from repro.trees.alphabet import RankedAlphabet
from repro.trees.ranked import BTree, IndexedTree


@dataclass(frozen=True)
class PebbleAutomaton(PebbleMachine):
    """A k-pebble tree automaton (Definition 4.5)."""

    alphabet: RankedAlphabet
    levels: tuple[frozenset[State], ...]
    initial: State
    rules: dict[GuardKey, tuple[Action, ...]]
    level_of: dict[State, int] = field(compare=False)

    def __init__(
        self,
        alphabet: RankedAlphabet,
        levels: Sequence[Iterable[State]],
        initial: State,
        rules: RuleSet | Mapping[GuardKey, Iterable[Action]],
    ) -> None:
        object.__setattr__(self, "alphabet", alphabet)
        super().__init__(alphabet, levels, initial, rules)

    @classmethod
    def _trusted(
        cls,
        alphabet: RankedAlphabet,
        levels: Sequence[Iterable[State]],
        initial: State,
        rules: Mapping[GuardKey, tuple[Action, ...]],
    ) -> "PebbleAutomaton":
        """Internal constructor that skips per-action validation.

        Only for callers rewriting an *already validated* automaton in a
        level-preserving way (trim, quotient, the Prop. 4.6 product) —
        validation is linear in the rule table and dominates construction
        for large products.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "alphabet", alphabet)
        self._set_levels(levels, initial)
        object.__setattr__(self, "rules", dict(rules))
        return self

    def _validate_terminal(self, level: int, action: Action) -> None:
        if isinstance(action, Branch2):
            if not self._branches_in_level(level, action):
                raise PebbleMachineError(
                    "branch2 states must stay in the same level"
                )
        elif isinstance(action, (Emit0, Emit2)):
            raise PebbleMachineError(
                "output actions belong to transducers, not pebble automata"
            )
        elif not isinstance(action, Branch0):
            raise PebbleMachineError(f"unknown action {action!r}")

    def has_branching(self) -> bool:
        """True when the automaton uses ``branch2`` (Corollary 4.9
        distinguishes automata *without* branching)."""
        return any(
            isinstance(action, Branch2)
            for actions in self.rules.values()
            for action in actions
        )

    # -- AGAP acceptance (proof of Theorem 4.7) ------------------------------

    def accepts(self, tree: BTree, max_configs: int | None = None) -> bool:
        """Decide acceptance on a concrete tree via the AND/OR graph."""
        return self.accessible_configs(tree, max_configs) is not None

    def accessible_configs(
        self, tree: BTree, max_configs: int | None = None
    ) -> frozenset[Config] | None:
        """The accessible configurations if the tree is accepted, else
        ``None``.

        Forward-explores the configurations reachable from the initial one,
        then solves AGAP backwards with requirement counters.  The number
        of configurations is ``O(|Q| * n^k)``; ``max_configs`` guards
        against accidental blow-ups.
        """
        indexed = IndexedTree(tree)
        initial: Config = (self.initial, (indexed.root,))

        # Forward reachability: configurations and their transition
        # instances.  An instance is (config, requirements-tuple).
        instances: list[tuple[Config, tuple[Config, ...]]] = []
        seen: set[Config] = {initial}
        queue: deque[Config] = deque([initial])
        while queue:
            if max_configs is not None and len(seen) > max_configs:
                raise PebbleMachineError(
                    f"configuration budget exceeded ({max_configs})"
                )
            config = queue.popleft()
            state, positions = config
            symbol = indexed.label(positions[-1])
            bits = guard_bits(positions)
            for action in self.actions_for(symbol, state, bits):
                if isinstance(action, (Move, Place, Pick)):
                    new_positions = move_successor(indexed, positions, action)
                    if new_positions is None:
                        continue
                    successor: Config = (action.target, new_positions)
                    instances.append((config, (successor,)))
                    if successor not in seen:
                        seen.add(successor)
                        queue.append(successor)
                elif isinstance(action, Branch0):
                    instances.append((config, ()))
                elif isinstance(action, Branch2):
                    left: Config = (action.left, positions)
                    right: Config = (action.right, positions)
                    instances.append((config, (left, right)))
                    for successor in (left, right):
                        if successor not in seen:
                            seen.add(successor)
                            queue.append(successor)

        # Backward AGAP: counter per instance, dependents per configuration.
        counters = [len(reqs) for _, reqs in instances]
        dependents: dict[Config, list[int]] = {}
        for idx, (_, reqs) in enumerate(instances):
            for req in reqs:
                dependents.setdefault(req, []).append(idx)
        accessible: set[Config] = set()
        work: deque[Config] = deque()
        for idx, (owner, reqs) in enumerate(instances):
            if counters[idx] == 0 and owner not in accessible:
                accessible.add(owner)
                work.append(owner)
        while work:
            config = work.popleft()
            for idx in dependents.get(config, ()):
                counters[idx] -= 1
                if counters[idx] == 0:
                    owner = instances[idx][0]
                    if owner not in accessible:
                        accessible.add(owner)
                        work.append(owner)
        if initial in accessible:
            return frozenset(accessible)
        return None
