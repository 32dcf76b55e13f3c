"""Tests for the k-pebble transducer model itself (Definition 3.1)."""

import pytest

from repro.errors import PebbleMachineError, TransducerRuntimeError
from repro.pebble import (
    Branch0,
    Emit0,
    Emit2,
    Move,
    PebbleTransducer,
    Pick,
    Place,
    RuleSet,
    copy_transducer,
    evaluate,
)
from repro.trees import RankedAlphabet, leaf, node

ALPHA = RankedAlphabet(leaves={"a"}, internals={"f"})


def tiny(rules: RuleSet, levels=None, initial="q") -> PebbleTransducer:
    return PebbleTransducer(
        input_alphabet=ALPHA,
        output_alphabet=ALPHA,
        levels=levels or [["q", "p"]],
        initial=initial,
        rules=rules,
    )


class TestValidation:
    def test_initial_must_be_level_one(self):
        rules = RuleSet().add("a", "q2", Emit0("a"))
        with pytest.raises(PebbleMachineError):
            PebbleTransducer(ALPHA, ALPHA, [["q1"], ["q2"]], "q2", rules)

    def test_move_stays_in_level(self):
        rules = RuleSet().add("f", "q1", Move("down-left", "q2"))
        with pytest.raises(PebbleMachineError):
            PebbleTransducer(ALPHA, ALPHA, [["q1"], ["q2"]], "q1", rules)

    def test_place_targets_next_level(self):
        rules = RuleSet().add("a", "q", Place("q"))
        with pytest.raises(PebbleMachineError):
            tiny(rules)

    def test_pick_forbidden_at_level_one(self):
        rules = RuleSet().add("a", "q", Pick("q"))
        with pytest.raises(PebbleMachineError):
            tiny(rules)

    def test_emit_symbol_rank_checked(self):
        from repro.errors import AlphabetError

        with pytest.raises(AlphabetError):
            tiny(RuleSet().add("a", "q", Emit0("f")))
        with pytest.raises(AlphabetError):
            tiny(RuleSet().add("a", "q", Emit2("a", "q", "q")))

    def test_branch_actions_rejected_in_transducer(self):
        with pytest.raises(PebbleMachineError):
            tiny(RuleSet().add("a", "q", Branch0()))

    def test_duplicate_state_across_levels(self):
        rules = RuleSet().add("a", "q", Emit0("a"))
        with pytest.raises(PebbleMachineError):
            PebbleTransducer(ALPHA, ALPHA, [["q"], ["q"]], "q", rules)

    def test_unknown_direction(self):
        with pytest.raises(PebbleMachineError):
            Move("sideways", "q")

    def test_guard_bits_length(self):
        rules = RuleSet().add("a", "q", Emit0("a"), pebbles=(1,))
        with pytest.raises(PebbleMachineError):
            tiny(rules)  # level-1 state takes no pebble bits

    def test_partial_pebble_guard_expansion(self):
        rules = RuleSet()
        rules.add("a", "p2", Emit0("a"), pebbles={1: 1})
        machine = PebbleTransducer(
            ALPHA, ALPHA, [["q"], ["p2"]], "q",
            rules.add("a", "q", Place("p2")),
        )
        assert machine.actions_for("a", "p2", (1,))
        assert not machine.actions_for("a", "p2", (0,))

    def test_partial_guard_out_of_range(self):
        rules = RuleSet().add("a", "q", Emit0("a"), pebbles={3: 1})
        with pytest.raises(PebbleMachineError):
            tiny(rules)

    def test_a_shared_action_is_checked_once_per_level(self):
        # one action object under several guards: the first error names
        # the first guard's state, and a level it was not checked at
        # yet checks it again
        bad = Move("stay", "r")
        with pytest.raises(PebbleMachineError,
                           match="move from 'q' must stay in level 1"):
            PebbleTransducer(ALPHA, ALPHA, [["q", "p"], ["r"]], "q", {
                ("a", "q", ()): (bad,), ("f", "p", ()): (bad,),
            })
        shared = Move("stay", "p")
        with pytest.raises(PebbleMachineError,
                           match="move from 'r' must stay in level 2"):
            PebbleTransducer(ALPHA, ALPHA, [["q", "p"], ["r"]], "q", {
                ("a", "q", ()): (shared,), ("a", "r", (0,)): (shared,),
            })

    def test_stats_and_determinism(self):
        machine = copy_transducer(
            RankedAlphabet(leaves={"a", "b"}, internals={"f"})
        )
        stats = machine.stats()
        assert stats["pebbles"] == 1
        assert stats["states"] == 3
        assert machine.is_deterministic()


class TestEvaluation:
    def test_stuck_branch_means_no_output(self):
        # no rule for leaves: the machine gets stuck on any leaf
        rules = RuleSet().add("f", "q", Emit2("f", "p", "p"))
        rules.add("f", "p", Move("down-left", "q"))
        machine = tiny(rules)
        assert evaluate(machine, node("f", leaf("a"), leaf("a"))) is None

    def test_move_loop_means_no_output(self):
        rules = RuleSet().add("a", "q", Move("stay", "p"))
        rules.add("a", "p", Move("stay", "q"))
        machine = tiny(rules)
        assert evaluate(machine, leaf("a")) is None

    def test_genuine_nondeterminism_raises(self):
        rules = RuleSet()
        rules.add("a", "q", Emit0("a"))
        rules.add("a", "q", Move("stay", "p"))
        machine = tiny(rules)
        with pytest.raises(TransducerRuntimeError):
            evaluate(machine, leaf("a"))

    def test_effective_determinism_allowed(self):
        """Example 3.4 style: up-left/up-right under one guard."""
        rules = RuleSet()
        rules.add("f", "q", Move("down-left", "p"))
        rules.add("a", "p", Move("up-left", "p2"))
        rules.add("a", "p", Move("up-right", "p3"))  # never applies here
        rules.add("f", "p2", Emit0("a"))
        rules.add("f", "p3", Emit0("a"))
        machine = PebbleTransducer(
            ALPHA, ALPHA, [["q", "p", "p2", "p3"]], "q", rules
        )
        assert evaluate(machine, node("f", leaf("a"), leaf("a"))) == leaf("a")

    def test_step_budget(self):
        from repro.errors import ResourceExhausted
        from repro.pebble.builders import exponential_transducer
        from repro.data.generators import full_binary_tree

        machine = exponential_transducer(ALPHA)
        tree = full_binary_tree(ALPHA, 3, "f", "a")
        with pytest.raises(ResourceExhausted) as info:
            evaluate(machine, tree, max_steps=5)
        assert info.value.reason == "steps"
        assert info.value.phase == "evaluate"
        assert info.value.steps > 5
