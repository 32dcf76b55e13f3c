"""Randomized stress test of Theorem 4.7: random tree-walking automata
(with branching) against AGAP acceptance."""

import random

import pytest

from repro.pebble import (
    Branch0,
    Branch2,
    Move,
    PebbleAutomaton,
    RuleSet,
    is_walking,
    two_way,
    walking_automaton_to_ta,
)
from repro.trees import RankedAlphabet, random_btree

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})

DIRECTIONS = ["stay", "down-left", "down-right", "up-left", "up-right"]


def random_walking_automaton(seed: int) -> PebbleAutomaton:
    rng = random.Random(seed)
    n_states = rng.randint(1, 4)
    states = [f"q{i}" for i in range(n_states)]
    rules = RuleSet()
    symbols = sorted(ALPHA.symbols)
    for state in states:
        for symbol in symbols:
            roll = rng.random()
            if roll < 0.25:
                continue  # no rule: this guard is stuck
            if roll < 0.45:
                rules.add(symbol, state, Branch0())
            elif roll < 0.65 and n_states > 1:
                rules.add(symbol, state,
                          Branch2(rng.choice(states), rng.choice(states)))
            else:
                for _ in range(rng.randint(1, 2)):
                    rules.add(symbol, state,
                              Move(rng.choice(DIRECTIONS),
                                   rng.choice(states)))
    return PebbleAutomaton(ALPHA, [states], states[0], rules)


@pytest.mark.parametrize("seed", range(24))
def test_summary_matches_agap(seed):
    automaton = random_walking_automaton(seed)
    assert is_walking(automaton)
    regular = walking_automaton_to_ta(automaton)
    rng = random.Random(seed * 977 + 1)
    for _ in range(25):
        tree = random_btree(ALPHA, rng.randint(1, 8), rng)
        assert regular.accepts(tree) == automaton.accepts(tree), (
            seed, str(tree)
        )


def every_state(automaton, table):
    """An entry mask that keeps every state: no projection."""
    return (1 << len(table.order)) - 1


@pytest.mark.parametrize("seed", range(8))
def test_entry_filter_is_semantically_invisible(seed, monkeypatch):
    automaton = random_walking_automaton(seed)
    fast = walking_automaton_to_ta(automaton)
    # the unprojected arm: every state is an entry
    monkeypatch.setattr(two_way, "_entry_mask", every_state)
    slow = walking_automaton_to_ta(automaton)
    rng = random.Random(seed + 5000)
    for _ in range(20):
        tree = random_btree(ALPHA, rng.randint(1, 8), rng)
        assert fast.accepts(tree) == slow.accepts(tree)
