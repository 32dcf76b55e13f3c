"""k-pebble tree transducers and automata (paper, Sections 3-4)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pebble.automaton": ("PebbleAutomaton",),
    "repro.pebble.builders": (
        "add_preorder_next", "copy_transducer", "exponential_transducer",
        "rotation_transducer",
    ),
    "repro.pebble.classic": (
        "BottomUpTransducer", "Call", "Frag", "TopDownTransducer",
        "run_top_down", "to_pebble",
    ),
    "repro.pebble.output_automaton": (
        "enumerate_outputs", "has_output", "output_automaton",
        "output_contains", "output_language", "some_output",
    ),
    "repro.pebble.product": ("transducer_times_automaton",),
    "repro.pebble.quotient": ("quotient_pebble_automaton",),
    "repro.pebble.run": ("evaluate", "replay_output"),
    "repro.pebble.starfree": (
        "decide_membership", "encode_string", "pebbles_needed",
        "singleton_b_type", "starfree_to_automaton",
        "starfree_to_transducer", "string_alphabet", "string_encodings_type",
    ),
    "repro.pebble.to_mso": ("pebble_automaton_to_mso",),
    "repro.pebble.to_regular": (
        "pebble_automaton_to_ta", "trim_pebble_automaton",
    ),
    "repro.pebble.two_way": ("is_walking", "walking_automaton_to_ta"),
    "repro.pebble.transducer": (
        "Branch0", "Branch2", "Emit0", "Emit2", "Move", "PebbleTransducer",
        "Pick", "Place", "RuleSet",
    ),
})

# bound eagerly: the function is named like its submodule, which would
# replace a lazy binding once anything imported it (DESIGN.md §4)
from repro.pebble.output_automaton import output_automaton  # noqa: E402
