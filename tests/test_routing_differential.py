"""Differential evidence that every route returns the same verdicts.

The exact-class routes — the Theorem 4.4 pipeline and the fast-td
triple fixpoint — implement one decision problem.  This suite drives all applicable routes over random
transducer/type pairs and the worked example machines and asserts:

* the boolean verdicts agree (``method="auto"`` included), and equal
  the emptiness of ``bad_input_language(m, tau2) ∩ tau1``: the eager
  Theorem 4.7 language, kept as a reference the routes do not build;
* every counterexample is *valid* evidence, not just agreement: the
  input belongs to the input type, the transducer can produce the
  recorded output on it, and that output violates the output type;
* agreement survives the representation switches: the frozenset
  reference algebra (``switches.oracle_algebra``) and a disabled memo
  cache (``REPRO_CACHE=0``) — the CI routing job additionally runs the
  whole suite under ``REPRO_REFERENCE_ALGEBRA=1`` and ``REPRO_CACHE=0``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.bottom_up import BottomUpTA
from repro.lang import Apply, Out, Stylesheet, Template, xslt_to_transducer
from repro.pebble.builders import (
    copy_transducer,
    exponential_transducer,
    rotation_transducer,
)
from repro.pebble.output_automaton import output_language
from repro.pebble.transducer import Emit0, Emit2, Move, PebbleTransducer
from repro.runtime.cache import cache_disabled
from repro.trees.alphabet import RankedAlphabet
from repro.typecheck import (
    bad_input_language,
    classify,
    typecheck,
    typecheck_fast,
)
from repro.typecheck.engine import as_automaton
from repro.xmlio import parse_dtd
from switches import oracle_algebra

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})
STATES = ["q0", "q1", "q2"]


def _type(name: str) -> BottomUpTA:
    """A small pool of types over ``ALPHA`` (usable on either side)."""
    if name == "universal":
        return BottomUpTA(
            alphabet=ALPHA, states={"x"},
            leaf_rules={"a": {"x"}, "b": {"x"}},
            rules={(s, "x", "x"): {"x"} for s in ("f", "g")},
            accepting={"x"},
        )
    if name == "all-a":
        return BottomUpTA(
            alphabet=ALPHA, states={"ok"},
            leaf_rules={"a": {"ok"}},
            rules={(s, "ok", "ok"): {"ok"} for s in ("f", "g")},
            accepting={"ok"},
        )
    if name == "no-g":
        return BottomUpTA(
            alphabet=ALPHA, states={"x"},
            leaf_rules={"a": {"x"}, "b": {"x"}},
            rules={("f", "x", "x"): {"x"}},
            accepting={"x"},
        )
    if name == "root-f":
        return BottomUpTA(
            alphabet=ALPHA, states={"x", "top"},
            leaf_rules={"a": {"x"}, "b": {"x"}},
            rules={
                ("f", "x", "x"): {"x", "top"},
                ("g", "x", "x"): {"x"},
            },
            accepting={"top"},
        )
    raise AssertionError(name)


TYPE_NAMES = ["universal", "all-a", "no-g", "root-f"]


@st.composite
def walking_transducers(draw) -> PebbleTransducer:
    """Random one-pebble transducers over ``ALPHA``.

    Same-node expansions are acyclic by construction (stay/Emit2 only
    reach higher-numbered states), but copying, stuck branches, up-moves
    and cross-node loops are all allowed — so the sample straddles the
    fast-td fragment boundary and both fast routes get exercised.
    """
    rules: dict = {}
    any_state = st.sampled_from(STATES)
    allow_up = draw(st.booleans())
    for symbol in ("f", "g"):
        for position, state in enumerate(STATES):
            higher = STATES[position + 1:]
            kinds = ["halt", "down-left", "down-right", "leaf"]
            if higher:
                kinds += ["stay", "emit2", "emit2"]
            if allow_up:
                kinds.append("up")
            kind = draw(st.sampled_from(kinds))
            if kind == "halt":
                continue
            if kind == "leaf":
                action = Emit0(draw(st.sampled_from(["a", "b"])))
            elif kind == "stay":
                action = Move("stay", draw(st.sampled_from(higher)))
            elif kind == "emit2":
                action = Emit2(
                    draw(st.sampled_from(["f", "g"])),
                    draw(st.sampled_from(higher)),
                    draw(st.sampled_from(higher)),
                )
            elif kind == "up":
                action = Move(
                    draw(st.sampled_from(["up-left", "up-right"])),
                    draw(any_state),
                )
            else:
                action = Move(kind, draw(any_state))
            rules[(symbol, state, ())] = (action,)
    for symbol in ("a", "b"):
        for state in STATES:
            kind = draw(st.sampled_from(["halt", "leaf", "leaf"]))
            if kind == "leaf":
                rules[(symbol, state, ())] = (
                    Emit0(draw(st.sampled_from(["a", "b"]))),
                )
    return PebbleTransducer(
        input_alphabet=ALPHA,
        output_alphabet=ALPHA,
        levels=[STATES],
        initial="q0",
        rules=rules,
    )


def assert_valid_counterexample(transducer, result, input_type, output_type):
    """A failing verdict must carry genuine, replayable evidence."""
    tree = result.counterexample_input
    output = result.counterexample_output
    assert tree is not None and output is not None, result.method
    tau1 = as_automaton(input_type, transducer.input_alphabet)
    tau2 = as_automaton(output_type, transducer.output_alphabet)
    assert tau1.accepts(tree), result.method
    assert output_language(transducer, tree).accepts(output), result.method
    assert not tau2.accepts(output), result.method


def run_all_routes(transducer, input_type, output_type):
    """Every applicable route's result: ``exact`` and ``auto`` by method,
    and ``fast`` (the fast-td fragment) by calling the route directly."""
    decision = classify(transducer)
    results = {
        "exact": typecheck(
            transducer, input_type, output_type, method="exact"
        ),
        "auto": typecheck(transducer, input_type, output_type, method="auto"),
    }
    if decision.route == "fast-td":
        results["fast"] = typecheck_fast(transducer, input_type, output_type)
    return decision, results


def eager_verdict(transducer, input_type, output_type) -> bool:
    """Theorem 4.4 on the eager language: ``True`` when no input of
    ``input_type`` is in ``bad_input_language``."""
    bad = bad_input_language(transducer, output_type)
    tau1 = as_automaton(input_type, bad.alphabet)
    return as_automaton(bad, tau1.alphabet).intersection(tau1).is_empty()


def assert_routes_agree(transducer, input_type, output_type):
    decision, results = run_all_routes(transducer, input_type, output_type)
    verdicts = {name: result.ok for name, result in results.items()}
    verdicts["eager"] = eager_verdict(transducer, input_type, output_type)
    assert len(set(verdicts.values())) == 1, (decision, verdicts)
    for result in results.values():
        if not result.ok:
            assert_valid_counterexample(
                transducer, result, input_type, output_type
            )
    return decision, results


class TestRandomPairs:
    @settings(max_examples=40, deadline=None)
    @given(
        transducer=walking_transducers(),
        input_name=st.sampled_from(TYPE_NAMES),
        output_name=st.sampled_from(TYPE_NAMES),
    )
    def test_routes_agree(self, transducer, input_name, output_name):
        assert_routes_agree(
            transducer, _type(input_name), _type(output_name)
        )

    @settings(max_examples=15, deadline=None)
    @given(
        transducer=walking_transducers(),
        output_name=st.sampled_from(TYPE_NAMES),
    )
    def test_routes_agree_without_cache(self, transducer, output_name):
        with cache_disabled():
            assert_routes_agree(
                transducer, _type("universal"), _type(output_name)
            )


WRAP_SHEET = Stylesheet([
    Template("doc", [Out("D", [Apply()])]),
    Template("sec", [Out("S", [Apply()])]),
    Template("par", [Out("P")]),
])

IN_DTD = parse_dtd("doc := sec*\nsec := par*\npar := ")
OUT_GOOD = parse_dtd("D := S*\nS := P*\nP := ")
OUT_BAD = parse_dtd("D := S.S*\nS := P*\nP := ")


def worked_examples():
    """(name, transducer, input type, output type, expected auto route,
    expected verdict)."""
    rot_alpha = RankedAlphabet(leaves={"s", "a"}, internals={"r", "f"})
    rot = rotation_transducer(rot_alpha, pivot="s", root_symbol="r")
    rot_universal_in = BottomUpTA(
        alphabet=rot_alpha, states={"x"},
        leaf_rules={s: {"x"} for s in sorted(rot_alpha.leaves)},
        rules={
            (s, "x", "x"): {"x"} for s in sorted(rot_alpha.internals)
        },
        accepting={"x"},
    )
    rot_universal_out = BottomUpTA(
        alphabet=rot.output_alphabet, states={"x"},
        leaf_rules={s: {"x"} for s in sorted(rot.output_alphabet.leaves)},
        rules={
            (s, "x", "x"): {"x"}
            for s in sorted(rot.output_alphabet.internals)
        },
        accepting={"x"},
    )
    expo = exponential_transducer(ALPHA)
    expo_universal_out = BottomUpTA(
        alphabet=expo.output_alphabet, states={"x"},
        leaf_rules={s: {"x"} for s in sorted(expo.output_alphabet.leaves)},
        rules={
            (s, "x", "x"): {"x"}
            for s in sorted(expo.output_alphabet.internals)
        },
        accepting={"x"},
    )
    xslt = xslt_to_transducer(WRAP_SHEET, tags=IN_DTD.symbols, root_tag="doc")
    return [
        ("copy-ok", copy_transducer(ALPHA), _type("universal"),
         _type("universal"), "fast-td", True),
        ("copy-bad", copy_transducer(ALPHA), _type("universal"),
         _type("all-a"), "fast-td", False),
        ("exponential-ok", expo, _type("all-a"), expo_universal_out,
         "exact", True),
        ("rotation-ok", rot, rot_universal_in, rot_universal_out,
         "exact", True),
        ("xslt-wrap-ok", xslt, IN_DTD, OUT_GOOD, None, True),
        ("xslt-wrap-bad", xslt, IN_DTD, OUT_BAD, None, False),
    ]


class TestWorkedExamples:
    @pytest.mark.parametrize(
        "name,transducer,input_type,output_type,route,expected",
        worked_examples(),
        ids=[case[0] for case in worked_examples()],
    )
    def test_routes_agree(
        self, name, transducer, input_type, output_type, route, expected
    ):
        decision, results = assert_routes_agree(
            transducer, input_type, output_type
        )
        assert results["exact"].ok is expected
        if route is not None:
            assert decision.route == route
            assert results["auto"].method == route

    def test_at_least_two_examples_route_off_the_exact_pipeline(self):
        routed = [
            name
            for name, transducer, *_ in worked_examples()
            if classify(transducer).route != "exact"
        ]
        assert len(routed) >= 2

    @pytest.mark.parametrize("switch", ["reference-algebra", "no-cache"])
    def test_agreement_survives_representation_switches(self, switch):
        context = (
            oracle_algebra()
            if switch == "reference-algebra"
            else cache_disabled()
        )
        with context:
            for name, transducer, tau1, tau2, _, expected in \
                    worked_examples():
                _, results = assert_routes_agree(transducer, tau1, tau2)
                assert results["exact"].ok is expected, name
