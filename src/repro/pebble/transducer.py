"""The k-pebble tree transducer (paper, Definition 3.1).

A transducer ``T = (Sigma, Sigma', Q, q0, P)`` walks an input tree with up
to ``k`` pebbles under a stack discipline (only the highest-numbered pebble
moves; pebble ``i+1`` may be placed only when pebbles ``1..i`` are down)
and emits an output tree top-down, spawning an independent computation
branch per emitted child.

States are partitioned into levels ``Q = Q1 ∪ ... ∪ Qk``; a state in
``Qi`` "controls" pebble ``i``.  A transition is guarded by the symbol
under the current pebble, the presence/absence vector ``b ∈ {0,1}^{i-1}``
of the lower pebbles on the current node, and the current state.

Actions (the paper's transition forms)::

    Move(direction, q')      stay / down-left / down-right / up-left / up-right
    Place(q'')               place-new-pebble (on the root)
    Pick(q'')                pick-current-pebble
    Emit0(a0)                output0: emit a leaf, halt this branch
    Emit2(a2, q1, q2)        output2: emit an internal node, spawn branches

:class:`PebbleAutomaton` (the acceptor variant of Definition 4.5) replaces
the output actions with ``Branch0`` / ``Branch2`` and lives in
:mod:`repro.pebble.automaton`; both are :class:`PebbleMachine` subclasses,
which owns the levels, the guard table and its validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.errors import PebbleMachineError
from repro.trees.alphabet import RankedAlphabet

State = Hashable

#: The five move directions of Definition 3.1.
DIRECTIONS = ("stay", "down-left", "down-right", "up-left", "up-right")


@dataclass(frozen=True)
class Move:
    """A move transition: change the current pebble's position and state."""

    direction: str
    target: State

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise PebbleMachineError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class Place:
    """Place pebble ``i+1`` on the root; enter ``target ∈ Q_{i+1}``."""

    target: State


@dataclass(frozen=True)
class Pick:
    """Remove pebble ``i``; enter ``target ∈ Q_{i-1}``."""

    target: State


@dataclass(frozen=True)
class Emit0:
    """Output a leaf symbol and halt this computation branch."""

    symbol: str


@dataclass(frozen=True)
class Emit2:
    """Output an internal symbol; spawn branches for the two children."""

    symbol: str
    left: State
    right: State


@dataclass(frozen=True)
class Branch0:
    """(Automaton only) Halt this branch, accepting."""


@dataclass(frozen=True)
class Branch2:
    """(Automaton only) Spawn two accepting obligations; head stays put."""

    left: State
    right: State


Action = Move | Place | Pick | Emit0 | Emit2 | Branch0 | Branch2

#: A fully instantiated guard: (symbol, state, lower-pebble presence bits).
GuardKey = tuple[str, State, tuple[int, ...]]


class RuleSet:
    """Convenience builder for pebble-machine rules.

    ``add`` accepts wildcards: ``symbols=None`` means every input symbol,
    ``pebbles=None`` means any presence vector.  ``build_rules`` expands to
    the concrete guard table.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[object, State, object, Action]] = []

    def add(
        self,
        symbols: str | Iterable[str] | None,
        state: State,
        action: Action,
        pebbles: Sequence[int] | Mapping[int, int] | None = None,
    ) -> "RuleSet":
        """Register a rule; returns ``self`` for chaining.

        ``pebbles`` is either ``None`` (any presence vector), a full
        vector, or a *partial* guard ``{pebble_number: bit}`` (1-based)
        constraining only the listed pebbles.
        """
        if isinstance(symbols, str):
            symbols = [symbols]
        symbol_set = None if symbols is None else tuple(symbols)
        if pebbles is None:
            pebble_bits: object = None
        elif isinstance(pebbles, Mapping):
            pebble_bits = dict(pebbles)
        else:
            pebble_bits = tuple(pebbles)
        self._entries.append((symbol_set, state, pebble_bits, action))
        return self

    def build_rules(
        self,
        input_alphabet: RankedAlphabet,
        level_of: Mapping[State, int],
    ) -> dict[GuardKey, tuple[Action, ...]]:
        """Expand wildcards into the concrete guard table."""
        rules: dict[GuardKey, list[Action]] = {}
        for symbol_set, state, pebble_bits, action in self._entries:
            if state not in level_of:
                raise PebbleMachineError(f"rule uses unknown state {state!r}")
            level = level_of[state]
            symbols = (
                sorted(input_alphabet.symbols)
                if symbol_set is None
                else list(symbol_set)
            )
            if pebble_bits is None:
                vectors = [
                    tuple(bits)
                    for bits in itertools.product((0, 1), repeat=level - 1)
                ]
            elif isinstance(pebble_bits, dict):
                for index in pebble_bits:
                    if not 1 <= index <= level - 1:
                        raise PebbleMachineError(
                            f"partial guard on pebble {index} is out of "
                            f"range for a level-{level} state {state!r}"
                        )
                vectors = [
                    tuple(bits)
                    for bits in itertools.product((0, 1), repeat=level - 1)
                    if all(
                        bits[index - 1] == value
                        for index, value in pebble_bits.items()
                    )
                ]
            else:
                if len(pebble_bits) != level - 1:
                    raise PebbleMachineError(
                        f"guard for level-{level} state {state!r} needs "
                        f"{level - 1} pebble bits, got {len(pebble_bits)}"
                    )
                vectors = [tuple(pebble_bits)]
            for symbol in symbols:
                if symbol not in input_alphabet:
                    raise PebbleMachineError(
                        f"rule guard uses unknown symbol {symbol!r}"
                    )
                for bits in vectors:
                    actions = rules.setdefault((symbol, state, bits), [])
                    if action not in actions:  # registering twice is benign
                        actions.append(action)
        return {key: tuple(actions) for key, actions in rules.items()}


class PebbleMachine:
    """What the k-pebble transducer (Definition 3.1) and the k-pebble
    automaton (Definition 4.5) share: the state levels, the guard table
    and its validation.  The two differ only in their terminal actions.

    Subclasses are frozen dataclasses that declare their alphabet fields
    before ``levels``, ``initial``, ``rules`` and ``level_of`` (the
    constructor sets them in that order too), and check their terminal
    actions in :meth:`_validate_terminal`.
    """

    def __init__(
        self,
        guard_alphabet: RankedAlphabet,
        levels: Sequence[Iterable[State]],
        initial: State,
        rules: RuleSet | Mapping[GuardKey, Iterable[Action]],
    ) -> None:
        level_of = self._set_levels(levels, initial)
        if isinstance(rules, RuleSet):
            table = rules.build_rules(guard_alphabet, level_of)
        else:
            table = {key: tuple(actions) for key, actions in rules.items()}
        object.__setattr__(self, "rules", table)
        self._validate(guard_alphabet)

    def _set_levels(
        self, levels: Sequence[Iterable[State]], initial: State
    ) -> dict[State, int]:
        frozen = tuple(frozenset(level) for level in levels)
        if not frozen:
            raise PebbleMachineError(
                "a pebble machine needs at least one level"
            )
        level_of: dict[State, int] = {}
        for index, level in enumerate(frozen, start=1):
            for state in level:
                if state in level_of:
                    raise PebbleMachineError(
                        f"state {state!r} appears in two levels"
                    )
                level_of[state] = index
        object.__setattr__(self, "levels", frozen)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "level_of", level_of)
        return level_of

    @property
    def k(self) -> int:
        """The number of pebbles."""
        return len(self.levels)

    @property
    def states(self) -> frozenset[State]:
        """All states."""
        return frozenset(self.level_of)

    def _validate(self, guard_alphabet: RankedAlphabet) -> None:
        if self.level_of.get(self.initial) != 1:
            raise PebbleMachineError("the initial state must be in Q1")
        # An action's checks read only its level, and a wildcard rule
        # shares one action object among every guard it expands to, so
        # each (level, action object) is checked once, at its first
        # guard in table order: the first error is the same.  Identity,
        # not equality: hashing an action costs more than checking it.
        checked: set[tuple[int, int]] = set()
        for (symbol, state, bits), actions in self.rules.items():
            if symbol not in guard_alphabet:
                raise PebbleMachineError(f"guard symbol {symbol!r} unknown")
            level = self.level_of.get(state)
            if level is None:
                raise PebbleMachineError(f"guard state {state!r} unknown")
            if len(bits) != level - 1:
                raise PebbleMachineError(
                    f"guard for level-{level} state {state!r} has "
                    f"{len(bits)} pebble bits"
                )
            for action in actions:
                key = (level, id(action))
                if key not in checked:
                    checked.add(key)
                    self._validate_action(state, level, action)

    def _validate_action(self, state: State, level: int, action: Action) -> None:
        if isinstance(action, Move):
            if self.level_of.get(action.target) != level:
                raise PebbleMachineError(
                    f"move from {state!r} must stay in level {level}"
                )
        elif isinstance(action, Place):
            if level + 1 > self.k:
                raise PebbleMachineError(
                    f"cannot place pebble {level + 1}: only {self.k} pebbles"
                )
            if self.level_of.get(action.target) != level + 1:
                raise PebbleMachineError(
                    f"place from level {level} must target level {level + 1}"
                )
        elif isinstance(action, Pick):
            if level == 1:
                raise PebbleMachineError("cannot pick pebble 1")
            if self.level_of.get(action.target) != level - 1:
                raise PebbleMachineError(
                    f"pick from level {level} must target level {level - 1}"
                )
        else:
            self._validate_terminal(level, action)

    def _validate_terminal(self, level: int, action: Action) -> None:
        """Check an action that is not a move, place or pick."""
        raise NotImplementedError

    def _branches_in_level(self, level: int, action: Emit2 | Branch2) -> bool:
        level_of = self.level_of
        return level_of.get(action.left) == level == level_of.get(action.right)

    def actions_for(
        self, symbol: str, state: State, bits: tuple[int, ...]
    ) -> tuple[Action, ...]:
        """The actions applicable under a concrete guard."""
        return self.rules.get((symbol, state, bits), ())

    def is_deterministic(self) -> bool:
        """True when no guard has more than one applicable action."""
        return all(len(actions) <= 1 for actions in self.rules.values())

    def stats(self) -> dict[str, int]:
        """Size statistics (used by the complexity benchmarks)."""
        return {
            "pebbles": self.k,
            "states": len(self.level_of),
            "rules": sum(len(a) for a in self.rules.values()),
        }


@dataclass(frozen=True)
class PebbleTransducer(PebbleMachine):
    """A k-pebble tree transducer (Definition 3.1).

    Attributes:
        input_alphabet: the ranked input alphabet ``Sigma``.
        output_alphabet: the ranked output alphabet ``Sigma'``.
        levels: the state partition ``(Q1, ..., Qk)``.
        initial: the initial state ``q0 ∈ Q1``.
        rules: the expanded guard table; each guard maps to the tuple of
            applicable actions (nondeterminism = several actions).
    """

    input_alphabet: RankedAlphabet
    output_alphabet: RankedAlphabet
    levels: tuple[frozenset[State], ...]
    initial: State
    rules: dict[GuardKey, tuple[Action, ...]]
    level_of: dict[State, int] = field(compare=False)

    def __init__(
        self,
        input_alphabet: RankedAlphabet,
        output_alphabet: RankedAlphabet,
        levels: Sequence[Iterable[State]],
        initial: State,
        rules: RuleSet | Mapping[GuardKey, Iterable[Action]],
    ) -> None:
        object.__setattr__(self, "input_alphabet", input_alphabet)
        object.__setattr__(self, "output_alphabet", output_alphabet)
        super().__init__(input_alphabet, levels, initial, rules)

    @classmethod
    def _deferred(
        cls, build: Callable[[], "PebbleTransducer"]
    ) -> "PebbleTransducer":
        """A transducer whose fields ``build()`` makes on their first
        read, so a caller that never reads the machine never builds it.
        Every reader builds it: a field, a method or property reading
        one, ``==``, ``repr``, a fingerprint and pickling (which sends
        the built machine).  ``build`` must be deterministic, and it
        runs once unless it raises."""
        machine = object.__new__(cls)
        object.__setattr__(machine, "_build", build)
        return machine

    def __getattr__(self, name: str):
        # reached only when ``name`` is not set on the instance yet
        build = self.__dict__.get("_build")
        if build is None or name not in self.__dataclass_fields__:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self.__dict__.update(vars(build()))
        self.__dict__.pop("_build", None)
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        if "_build" in self.__dict__:  # a deferred machine pickles built
            self.__getattr__("rules")
        return self.__dict__

    def _validate_terminal(self, level: int, action: Action) -> None:
        if isinstance(action, Emit0):
            self.output_alphabet.check_leaf(action.symbol)
        elif isinstance(action, Emit2):
            self.output_alphabet.check_internal(action.symbol)
            if not self._branches_in_level(level, action):
                raise PebbleMachineError(
                    "output2 branch states must stay in the same level"
                )
        elif isinstance(action, (Branch0, Branch2)):
            raise PebbleMachineError(
                "branch actions belong to pebble automata, not transducers"
            )
        else:
            raise PebbleMachineError(f"unknown action {action!r}")
