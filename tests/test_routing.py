"""Route selection: the classifier, the method flag, and the wiring.

The differential evidence that the three exact-class routes agree lives
in ``tests/test_routing_differential.py``; this module pins the routing
*mechanics* — which machines classify where, what ``method=`` values
do, what lands in stats and trace spans, and how degradation and audit
compose with the fast routes.  Each route is reached through
``method="auto"``: the copy transducer takes ``fast-td``, and the
exponential transducer and a 2-pebble machine take ``exact``.
"""

import pytest

from repro.automata.bottom_up import BottomUpTA
from repro.errors import TypecheckError
from repro.pebble.builders import (
    copy_transducer,
    exponential_transducer,
    rotation_transducer,
)
from repro.pebble.transducer import (
    Emit0,
    Emit2,
    Move,
    PebbleTransducer,
    Place,
)
from repro.runtime.cache import GLOBAL_CACHE, cache_disabled, clear_cache
from repro.runtime.trace import Tracer, tracing
from repro.trees.alphabet import RankedAlphabet
from repro.trees.ranked import BTree
from repro.typecheck import classify, typecheck, typecheck_fast
from repro.typecheck.engine import DEGRADED_SUFFIX, EXACT_METHODS

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})
#: the exponential transducer's output alphabet adds its marker ``z``
EXPO_OUT = exponential_transducer(ALPHA).output_alphabet


def universal(alphabet=ALPHA) -> BottomUpTA:
    return BottomUpTA(
        alphabet=alphabet,
        states={"x"},
        leaf_rules={s: {"x"} for s in sorted(alphabet.leaves)},
        rules={(s, "x", "x"): {"x"} for s in sorted(alphabet.internals)},
        accepting={"x"},
    )


def leaves_all_a(alphabet=ALPHA) -> BottomUpTA:
    return BottomUpTA(
        alphabet=alphabet,
        states={"ok"},
        leaf_rules={"a": {"ok"}},
        rules={(s, "ok", "ok"): {"ok"} for s in sorted(alphabet.internals)},
        accepting={"ok"},
    )


def two_pebble_machine() -> PebbleTransducer:
    """A trivial 2-pebble transducer (never runs; classification only)."""
    rules = {
        ("a", "q", ()): (Place("r"),),
        ("a", "r", (0,)): (Emit0("a"),),
    }
    return PebbleTransducer(
        input_alphabet=ALPHA,
        output_alphabet=ALPHA,
        levels=[["q"], ["r"]],
        initial="q",
        rules=rules,
    )


class TestClassifier:
    def test_copy_is_fast(self):
        decision = classify(copy_transducer(ALPHA))
        assert decision.route == "fast-td"
        assert decision.reasons == ()

    def test_exponential_declined_for_copying(self):
        decision = classify(exponential_transducer(ALPHA))
        assert decision.route == "exact"
        assert any("non-linear" in reason for reason in decision.reasons)

    def test_rotation_declined_for_up_moves(self):
        alpha = RankedAlphabet(leaves={"s", "a"}, internals={"r", "f"})
        decision = classify(
            rotation_transducer(alpha, pivot="s", root_symbol="r")
        )
        assert decision.route == "exact"
        reasons = " ".join(decision.reasons)
        assert "up" in reasons and "nondeterministic" in reasons

    def test_extra_pebbles_force_exact(self):
        decision = classify(two_pebble_machine())
        assert decision.route == "exact"
        assert any("2 pebbles" in reason for reason in decision.reasons)

    def test_stay_loop_declined(self):
        rules = {
            ("a", "q", ()): (Move("stay", "q"),),
        }
        machine = PebbleTransducer(
            input_alphabet=ALPHA, output_alphabet=ALPHA,
            levels=[["q"]], initial="q", rules=rules,
        )
        decision = classify(machine)
        assert decision.route == "exact"
        assert any("loop" in reason for reason in decision.reasons)

    def test_double_descent_same_side_declined(self):
        # f(q) -> f(q1, q2) with *both* branches reading the left child
        rules = {
            ("f", "q", ()): (Emit2("f", "q1", "q2"),),
            ("f", "q1", ()): (Move("down-left", "q"),),
            ("f", "q2", ()): (Move("down-left", "q"),),
            ("a", "q", ()): (Emit0("a"),),
        }
        machine = PebbleTransducer(
            input_alphabet=ALPHA, output_alphabet=ALPHA,
            levels=[["q", "q1", "q2"]], initial="q", rules=rules,
        )
        decision = classify(machine)
        assert decision.route == "exact"
        assert any("non-linear" in reason for reason in decision.reasons)

    def test_classifier_is_pure_syntax(self):
        # same machine, same answer — no automata are built
        machine = copy_transducer(ALPHA)
        assert classify(machine) == classify(machine)


class TestMethodFlag:
    def test_auto_reports_route_in_stats(self):
        result = typecheck(
            copy_transducer(ALPHA), universal(), universal(), method="auto"
        )
        assert result.ok and result.method == "fast-td"
        routing = result.stats["routing"]
        assert routing["requested"] == "auto"
        assert routing["route"] == "fast-td"
        assert set(routing) == {"requested", "route", "reasons"}

    def test_exact_method_bypasses_classifier(self):
        result = typecheck(
            copy_transducer(ALPHA), universal(), universal(), method="exact"
        )
        assert result.method == "exact"
        assert "routing" not in result.stats

    def test_forced_fast_on_ineligible_machine_raises(self):
        with pytest.raises(TypecheckError, match="fast top-down fragment"):
            typecheck_fast(
                exponential_transducer(ALPHA), universal(),
                universal(EXPO_OUT),
            )

    @pytest.mark.parametrize("method", ["fast", "lazy", "lazy-backward"])
    def test_route_names_are_not_methods(self, method):
        # a route is forced by calling its function, not through method=
        with pytest.raises(TypecheckError, match="unknown method"):
            typecheck(
                copy_transducer(ALPHA), universal(), universal(),
                method=method,
            )

    def test_unknown_method_still_rejected(self):
        with pytest.raises(TypecheckError, match="telepathy"):
            typecheck(
                copy_transducer(ALPHA), universal(), universal(),
                method="telepathy",
            )

    def test_auto_on_multi_pebble_machine_falls_back_to_exact(self):
        machine = two_pebble_machine()
        result = typecheck(machine, universal(), universal(), method="auto")
        assert result.method == "exact"
        assert result.stats["routing"]["route"] == "exact"


class TestTraceSpans:
    def span_names(self, method, machine=None, output_type=None):
        tracer = Tracer()
        with tracing(tracer):
            typecheck(
                machine or copy_transducer(ALPHA), universal(),
                output_type or universal(), method=method,
            )
        names = set()
        stack = [tracer.root]
        while stack:
            span = stack.pop()
            names.add(span.name)
            stack.extend(span.children)
        return names

    def test_auto_emits_routing_spans(self):
        names = self.span_names("auto")
        assert "route:classify" in names
        assert "route:fast-td" in names
        assert "exact" not in names

    def test_lazy_emits_its_span(self):
        names = self.span_names(
            "auto", exponential_transducer(ALPHA), universal(EXPO_OUT)
        )
        assert "route:classify" in names
        assert {"exact", "walking-summary"} <= names

    def test_exact_trace_is_unchanged(self):
        names = self.span_names("exact")
        assert "exact" in names
        assert "route:classify" not in names


class TestDegradation:
    def test_fast_route_degrades_to_bounded(self):
        result = typecheck(
            copy_transducer(ALPHA), universal(), universal(),
            method="auto", max_steps=1, fallback=True,
        )
        assert result.method == "fast-td" + DEGRADED_SUFFIX
        assert result.stats["degraded"] is True
        assert result.stats["exact_exhausted"]["reason"] == "steps"
        assert result.method not in EXACT_METHODS

    def test_lazy_route_degrades_to_bounded(self):
        result = typecheck(
            exponential_transducer(ALPHA), universal(), universal(EXPO_OUT),
            method="auto", max_steps=1, fallback=True,
        )
        assert result.method == "exact" + DEGRADED_SUFFIX
        assert result.stats["routing"]["route"] == "exact"


class TestAuditComposition:
    def test_fast_ok_is_certifiable_in_full_mode(self):
        result = typecheck(
            copy_transducer(ALPHA), universal(), universal(),
            method="auto", audit="full",
        )
        assert result.ok and result.method == "fast-td"
        assert result.stats["audit"]["status"] == "certified"

    def test_lazy_type_error_witness_is_certified(self):
        result = typecheck(
            exponential_transducer(ALPHA), universal(),
            leaves_all_a(EXPO_OUT), method="auto", audit="witness",
        )
        assert not result.ok and result.method == "exact"
        assert result.stats["audit"]["status"] == "certified"

    def test_degraded_fast_ok_is_unproven(self):
        result = typecheck(
            copy_transducer(ALPHA), universal(), universal(),
            method="auto", max_steps=1, fallback=True, audit="witness",
        )
        report = result.stats["audit"]
        assert report["status"] == "unproven"
        assert "fast-td" in report["reason"]


def _spans(span, name):
    if span.name == name:
        yield span
    for child in span.children:
        yield from _spans(child, name)


class TestOnePebbleExactRoute:
    def test_cold_warm_and_uncached_runs_give_one_counterexample(
        self, monkeypatch
    ):
        monkeypatch.setattr(GLOBAL_CACHE, "enabled", True)
        check = (exponential_transducer(ALPHA), universal(),
                 leaves_all_a(EXPO_OUT))
        clear_cache()
        try:
            cold = typecheck(*check)
            tracer = Tracer()
            with tracing(tracer):
                warm = typecheck(*check)
            with cache_disabled():
                uncached = typecheck(*check)
        finally:
            clear_cache()
        (stored,) = _spans(tracer.root, "pebble.summary-product")
        assert stored.attrs["cache"] == "hit"
        assert not cold.ok and cold.method == "exact"
        for result in (warm, uncached):
            assert (result.ok, result.method, result.counterexample_input,
                    result.counterexample_output) \
                == (cold.ok, cold.method, cold.counterexample_input,
                    cold.counterexample_output)


#: The machines below read only ``f`` and ``a``; the input type's trees
#: are all ``f(z,z)``.
READS = RankedAlphabet(leaves={"a"}, internals={"f"})
EMITS = RankedAlphabet(leaves={"b", "c"}, internals=())


def emit_b_at_root(pebbles: int) -> PebbleTransducer:
    """Emits ``b`` at an ``f`` root without reading its children; with
    two pebbles, after placing the second one there."""
    if pebbles == 1:
        rules = {("f", "q", ()): (Emit0("b"),)}
    else:
        rules = {
            ("f", "q", ()): (Place("r"),),
            ("f", "r", (1,)): (Emit0("b"),),
        }
    return PebbleTransducer(
        input_alphabet=READS, output_alphabet=EMITS,
        levels=[["q"], ["r"]][:pebbles], initial="q", rules=rules,
    )


class TestInputTypeBeyondTheMachine:
    """The input type may use symbols the machine has no rules for.  The
    machine still runs on such trees, stuck only at a node it cannot
    read, so every method sees the ``b`` it emits at the root."""

    TAU1 = BottomUpTA(
        alphabet=RankedAlphabet(leaves={"z"}, internals={"f"}),
        states={"x", "top"},
        leaf_rules={"z": {"x"}},
        rules={("f", "x", "x"): {"top"}},
        accepting={"top"},
    )
    TAU2 = BottomUpTA(
        alphabet=EMITS, states={"ok"}, leaf_rules={"c": {"ok"}}, rules={},
        accepting={"ok"},
    )

    @pytest.mark.parametrize("pebbles", [1, 2])
    @pytest.mark.parametrize("method", ["auto", "exact", "bounded"])
    def test_every_method_finds_the_type_error(self, method, pebbles):
        result = typecheck(
            emit_b_at_root(pebbles), self.TAU1, self.TAU2, method=method
        )
        assert not result.ok, result.method
        assert result.counterexample_input \
            == BTree("f", BTree("z"), BTree("z"))
        assert result.counterexample_output == BTree("b")
