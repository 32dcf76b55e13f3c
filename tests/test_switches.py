"""The test-only switches reach what they switch (``switches.py``).

CI runs this file under ``REPRO_REFERENCE_ALGEBRA=1`` and under
``REPRO_VALIDATE_TRUSTED=1``; each test fails there if ``conftest.py``
no longer installs the harness for the session, and fails in a plain
session if the harness leaks into it.
"""

import pytest

import reference
import switches
from repro.automata import BottomUpTA
from repro.errors import PebbleMachineError
from repro.lang import xmlql
from repro.pebble import Move, PebbleAutomaton
from repro.regex import compile_regex, dfa, nfa_from_regex, parse_regex
from repro.runtime import clear_cache
from repro.trees import RankedAlphabet

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


def _automaton(accept: str) -> BottomUpTA:
    return BottomUpTA(
        alphabet=ALPHA, states={"x", "y"},
        leaf_rules={"a": {"x"}, "b": {"y"}},
        rules={(s, l, r): {accept} for s in ("f", "g")
               for l in ("x", "y") for r in ("x", "y")},
        accepting={accept},
    )


def _word_dfa(text: str):
    return compile_regex(parse_regex(text), alphabet={"a", "b"})


def _nfa():
    return nfa_from_regex(parse_regex("a*.b"))


#: One call of each substituted operation, by the oracle function that
#: must run it in an oracle session.
OPERATIONS = {
    "ta_reachable_states": lambda: _automaton("x").reachable_states(),
    "ta_is_empty": lambda: _automaton("x").is_empty(),
    "ta_witness": lambda: _automaton("y").witness(),
    "ta_determinized": lambda: _automaton("x").determinized(),
    "ta_complemented": lambda: _automaton("x").complemented(),
    "ta_product": lambda: _automaton("x").intersection(_automaton("y")),
    "ta_union": lambda: _automaton("x").union(_automaton("y")),
    "ta_trimmed": lambda: _automaton("x").trimmed(),
    "ta_minimized": lambda: _automaton("x").minimized(),
    "dfa_product": lambda: _word_dfa("a*").difference(_word_dfa("b*")),
    "dfa_minimized": lambda: _word_dfa("a*.a*").minimized(),
    "dfa_determinize": lambda: dfa.determinize(_nfa(), {"a", "b"}),
}


def test_every_substitute_names_an_operation_and_its_oracle():
    names = {oracle for *_, oracle in switches.SUBSTITUTES}
    assert names == set(OPERATIONS)
    for owner, name, _, oracle in switches.SUBSTITUTES:
        assert callable(getattr(owner, name))
        assert callable(getattr(reference, oracle))


@pytest.mark.parametrize("oracle", sorted(OPERATIONS))
def test_each_operation_reaches_the_oracle_in_an_oracle_session(
    oracle, monkeypatch
):
    calls = []
    target = getattr(reference, oracle)

    def spy(*args):
        calls.append(oracle)
        return target(*args)

    monkeypatch.setattr(reference, oracle, spy)
    clear_cache()
    OPERATIONS[oracle]()
    assert bool(calls) is switches.oracle_requested()


def test_a_module_that_imported_determinize_reaches_the_oracle(
    monkeypatch
):
    calls = []
    target = reference.dfa_determinize
    monkeypatch.setattr(
        reference, "dfa_determinize",
        lambda *args: calls.append(args) or target(*args),
    )
    clear_cache()
    xmlql.determinize(_nfa(), {"a", "b"})
    assert bool(calls) is switches.oracle_requested()


def test_the_oracle_can_be_suspended_and_restored(monkeypatch):
    calls = []
    target = reference.ta_is_empty
    monkeypatch.setattr(
        reference, "ta_is_empty",
        lambda ta: calls.append(ta) or target(ta),
    )
    before = switches.oracle_active()
    with switches.oracle_algebra(False):
        assert _automaton("x").is_empty() is False
        assert xmlql.determinize is dfa.determinize
    assert calls == []
    with switches.oracle_algebra(True):
        assert _automaton("x").is_empty() is False
        assert xmlql.determinize is dfa.determinize
    assert len(calls) == 1
    assert switches.oracle_active() is before


def _ill_levelled() -> PebbleAutomaton:
    """A level-1 state that moves into a level-2 state."""
    return PebbleAutomaton._trusted(
        alphabet=ALPHA, levels=[{"p"}, {"q"}], initial="p",
        rules={("a", "p", ()): (Move("stay", "q"),)},
    )


def test_a_trusted_construction_validates_in_a_validating_session():
    if switches.validation_requested():
        with pytest.raises(PebbleMachineError, match="must stay in level 1"):
            _ill_levelled()
    else:
        # the product skips the check: its rewrites preserve levels
        assert _ill_levelled().k == 2
