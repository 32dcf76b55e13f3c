"""The validator the k-pebble transducer (Definition 3.1) and the k-pebble
automaton (Definition 4.5) share, and the one-pebble test the walking
summary relies on.

Both machines are :class:`~repro.pebble.transducer.PebbleMachine`
subclasses: a malformed guard, move, place or pick fails with one
message whichever machine carries it, and each machine rejects the
other's terminal actions.  ``is_walking`` reads only ``k``, which is
sound because validation refuses a place at k = 1 and a pick at level 1,
and product, trim and quotient keep the levels.
"""

import pytest

from repro.automata import BottomUpTA
from repro.data import q1_input_dtd, q1_output_even_dtd, q2_tight_output_dtd
from repro.errors import PebbleMachineError
from repro.lang import q1_transducer, q2_stylesheet, xslt_to_transducer
from repro.pebble import (
    Branch0,
    Branch2,
    Emit0,
    Emit2,
    Move,
    PebbleAutomaton,
    PebbleTransducer,
    Pick,
    Place,
    copy_transducer,
    exponential_transducer,
    is_walking,
    rotation_transducer,
    singleton_b_type,
    starfree_to_transducer,
    string_alphabet,
    transducer_times_automaton,
)
from repro.pebble.to_regular import trim_quotient
from repro.regex import parse_regex
from repro.trees import RankedAlphabet
from repro.typecheck.engine import complement_output_type

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})
LEVELS = [["p", "p2"], ["r", "r2"]]


def _build(kind: str, levels, rules):
    if kind == "transducer":
        return PebbleTransducer(ALPHA, ALPHA, levels, levels[0][0], rules)
    return PebbleAutomaton(ALPHA, levels, levels[0][0], rules)


#: name -> (levels, one malformed rule, the message both machines give)
MALFORMED = {
    "guard symbol": (
        LEVELS, (("z", "p", ()), Move("stay", "p")),
        "guard symbol 'z' unknown",
    ),
    "guard state": (
        LEVELS, (("a", "s", ()), Move("stay", "p")),
        "guard state 's' unknown",
    ),
    "guard bits": (
        LEVELS, (("a", "r", ()), Move("stay", "r")),
        "guard for level-2 state 'r' has 0 pebble bits",
    ),
    "move": (
        LEVELS, (("a", "p", ()), Move("down-left", "r")),
        "move from 'p' must stay in level 1",
    ),
    "place beyond k": (
        [["p"]], (("a", "p", ()), Place("p")),
        "cannot place pebble 2: only 1 pebbles",
    ),
    "place level": (
        LEVELS, (("a", "p", ()), Place("p2")),
        "place from level 1 must target level 2",
    ),
    "pick pebble 1": (
        LEVELS, (("a", "p", ()), Pick("p")),
        "cannot pick pebble 1",
    ),
    "pick level": (
        LEVELS, (("a", "r", (1,)), Pick("r2")),
        "pick from level 2 must target level 1",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("kind", ["transducer", "automaton"])
def test_malformed_rule_fails_alike_on_both_machines(kind, name):
    levels, (guard, action), message = MALFORMED[name]
    with pytest.raises(PebbleMachineError) as info:
        _build(kind, levels, {guard: (action,)})
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("kind", "action", "message"),
    [
        ("transducer", Branch0(),
         "branch actions belong to pebble automata, not transducers"),
        ("transducer", Branch2("p", "p2"),
         "branch actions belong to pebble automata, not transducers"),
        ("automaton", Emit0("a"),
         "output actions belong to transducers, not pebble automata"),
        ("automaton", Emit2("f", "p", "p2"),
         "output actions belong to transducers, not pebble automata"),
    ],
)
def test_each_machine_rejects_the_others_terminal_actions(
    kind, action, message
):
    with pytest.raises(PebbleMachineError) as info:
        _build(kind, LEVELS, {("a", "p", ()): (action,)})
    assert str(info.value) == message
    # the same action is the other machine's own
    other = "automaton" if kind == "transducer" else "transducer"
    assert _build(other, LEVELS, {("a", "p", ()): (action,)}).k == 2


def _leaves_in(alphabet: RankedAlphabet, allowed) -> BottomUpTA:
    return BottomUpTA(
        alphabet=alphabet,
        states={"ok"},
        leaf_rules={symbol: {"ok"} for symbol in sorted(allowed)},
        rules={(s, "ok", "ok"): {"ok"} for s in sorted(alphabet.internals)},
        accepting={"ok"},
    )


def _product(name: str):
    """A transducer times the complement of its output type, as the
    Thm 4.4 pipeline builds it (k = 1 unless the name says otherwise)."""
    if name == "copy":
        machine = copy_transducer(ALPHA)
        output_type = _leaves_in(machine.output_alphabet, {"a"})
    elif name == "exponential":
        machine = exponential_transducer(ALPHA)
        output_type = _leaves_in(machine.output_alphabet, {"a"})
    elif name == "rotation":
        machine = rotation_transducer(
            RankedAlphabet(leaves={"s", "a"}, internals={"r", "f"}),
        )
        output_type = _leaves_in(machine.output_alphabet, {"a"})
    elif name == "q2":
        machine = xslt_to_transducer(
            q2_stylesheet(), tags=q1_input_dtd().symbols, root_tag="root"
        )
        output_type = q2_tight_output_dtd()
    elif name == "q1 (k=2)":
        machine, output_type = q1_transducer(), q1_output_even_dtd()
    else:
        assert name == "star-free (k=4)"
        machine = starfree_to_transducer(
            parse_regex("~(a.~(a.b))"), string_alphabet({"a", "b"})
        )
        output_type = singleton_b_type()
    _, not_tau2 = complement_output_type(machine, output_type)
    return transducer_times_automaton(machine, not_tau2)


@pytest.mark.parametrize(
    "name",
    ["copy", "exponential", "rotation", "q2", "q1 (k=2)", "star-free (k=4)"],
)
def test_is_walking_is_one_pebble(name):
    automaton = trim_quotient(_product(name))
    places_or_picks = any(
        isinstance(action, (Place, Pick))
        for actions in automaton.rules.values()
        for action in actions
    )
    assert is_walking(automaton) == (not places_or_picks)
