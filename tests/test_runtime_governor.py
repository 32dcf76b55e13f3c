"""The resource governor and the exact→bounded degradation policy.

Covers the :mod:`repro.runtime` primitives (budgets, deadlines,
cancellation, phases, the ambient installation), the governed pipeline
(exact typechecking under tiny budgets raises
:class:`~repro.errors.ResourceExhausted` with phase metadata — the
non-elementary blow-up of Theorem 4.8 made survivable), and the
``fallback=True`` degradation of :func:`repro.typecheck.typecheck`.
"""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.automata import BottomUpTA
from repro.errors import ResourceExhausted
from repro.pebble import (
    copy_transducer,
    evaluate,
    transducer_times_automaton,
    walking_automaton_to_ta,
)
from repro.pebble.builders import exponential_transducer
from repro.pebble.to_regular import trim_quotient
from repro.runtime import (
    Budget,
    Deadline,
    NULL_GOVERNOR,
    ResourceGovernor,
    current_governor,
    governed,
    make_governor,
)
from repro.trees import BTree, RankedAlphabet
from repro.typecheck import typecheck
from repro.typecheck.engine import (
    DEGRADED_METHOD,
    as_automaton,
    complement_output_type,
)
from switches import oracle_algebra

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


@pytest.fixture(autouse=True)
def _uncached():
    """These tests pin the budget-exhaustion behaviour of the *uncached*
    pipeline; a warm process-wide memo table would absorb exactly the work
    the tiny budgets here are sized to interrupt."""
    from repro.runtime import cache_disabled

    with cache_disabled():
        yield


def _child_env() -> dict:
    """The environment of a child interpreter that imports this tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    }


def leaves_all_a(alphabet=ALPHA) -> BottomUpTA:
    return BottomUpTA(
        alphabet=alphabet,
        states={"ok"},
        leaf_rules={"a": {"ok"}},
        rules={(s, "ok", "ok"): {"ok"} for s in sorted(alphabet.internals)},
        accepting={"ok"},
    )


def left_chains() -> BottomUpTA:
    """Infinitely many trees, but only ~1 new one per enumeration round."""
    alphabet = RankedAlphabet(leaves={"a"}, internals={"f"})
    return BottomUpTA(
        alphabet=alphabet,
        states={"leaf", "chain"},
        leaf_rules={"a": {"leaf"}},
        rules={
            ("f", "leaf", "leaf"): {"chain"},
            ("f", "chain", "leaf"): {"chain"},
        },
        accepting={"chain"},
    )


class TestBudgetAndDeadline:
    def test_budget_validates(self):
        with pytest.raises(ValueError):
            Budget(max_steps=-1)
        with pytest.raises(ValueError):
            Budget(max_states=-5)

    def test_budget_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_steps=10).unlimited

    def test_deadline_after(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0
        assert deadline.seconds == 60.0

    def test_deadline_expired(self):
        deadline = Deadline(time.monotonic() - 1.0)
        assert deadline.expired()
        assert deadline.remaining() < 0


class TestResourceGovernor:
    def test_step_budget(self):
        governor = ResourceGovernor(budget=Budget(max_steps=3))
        governor.tick()
        governor.tick(2)
        with pytest.raises(ResourceExhausted) as info:
            governor.tick()
        assert info.value.reason == "steps"
        assert info.value.steps == 4
        assert info.value.limit == 3

    def test_state_budget(self):
        governor = ResourceGovernor(budget=Budget(max_states=10))
        governor.add_states(10)
        with pytest.raises(ResourceExhausted) as info:
            governor.add_states()
        assert info.value.reason == "states"
        assert info.value.states == 11

    def test_deadline_is_checked_amortized(self):
        governor = ResourceGovernor(
            deadline=Deadline(time.monotonic() - 1.0), check_interval=4
        )
        governor.tick(3)  # below the check interval: no clock read
        with pytest.raises(ResourceExhausted) as info:
            governor.tick()
        assert info.value.reason == "deadline"

    def test_cancel(self):
        governor = ResourceGovernor()
        governor.cancel()
        assert governor.cancelled
        with pytest.raises(ResourceExhausted) as info:
            governor.check()
        assert info.value.reason == "cancelled"

    def test_phase_stack_and_metadata(self):
        governor = ResourceGovernor(budget=Budget(max_steps=0))
        assert governor.current_phase == ""
        with governor.phase("outer"):
            assert governor.current_phase == "outer"
            with governor.phase("inner"):
                with pytest.raises(ResourceExhausted) as info:
                    governor.tick()
                assert info.value.phase == "inner"
            assert governor.current_phase == "outer"
        assert governor.current_phase == ""
        progress = info.value.progress()
        assert progress["reason"] == "steps"
        assert progress["phase"] == "inner"

    def test_stats(self):
        governor = ResourceGovernor()
        governor.tick(7)
        governor.add_states(2)
        stats = governor.stats()
        assert stats["steps"] == 7
        assert stats["states"] == 2
        assert stats["elapsed"] >= 0


class TestAmbientGovernor:
    def test_default_is_null(self):
        governor = current_governor()
        assert governor is NULL_GOVERNOR
        assert not governor.active
        governor.tick(10 ** 9)  # no-ops, never raises
        governor.add_states(10 ** 9)
        governor.check()

    def test_governed_installs_and_restores(self):
        mine = ResourceGovernor()
        with governed(mine):
            assert current_governor() is mine
            other = ResourceGovernor()
            with governed(other):
                assert current_governor() is other
            assert current_governor() is mine
        assert current_governor() is NULL_GOVERNOR

    def test_make_governor(self):
        assert make_governor() is None
        governor = make_governor(timeout=5.0, max_steps=10, max_states=20)
        assert governor.deadline is not None
        assert governor.budget.max_steps == 10
        assert governor.budget.max_states == 20


class TestGovernedPipeline:
    def test_exact_typecheck_exhausts_steps_with_phase(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_all_a()
        with pytest.raises(ResourceExhausted) as info:
            typecheck(machine, tau, tau, method="exact", max_steps=10)
        assert info.value.reason == "steps"
        assert info.value.phase != ""
        assert info.value.steps > 10

    def test_exponential_instance_exhausts_with_phase_metadata(self):
        # Example 3.6: the output doubles per input level; the exact
        # pipeline on this machine hits any tiny budget immediately.
        machine = exponential_transducer(ALPHA)
        tau1 = leaves_all_a()
        tau2 = leaves_all_a(
            RankedAlphabet(leaves={"a", "b"}, internals={"f", "g", "z"})
        )
        with pytest.raises(ResourceExhausted) as info:
            typecheck(machine, tau1, tau2, method="exact", max_steps=25)
        assert info.value.reason == "steps"
        # the budget must die inside a named pipeline stage
        assert info.value.phase in {
            "exact",
            "complement-output-type",
            "transducer-product",
            "pebble-to-regular",
            "walking-summary",
            "intersect-input-type",
            "witness",
        } or info.value.phase.startswith("regularize:level")

    def test_walking_summary_charges_the_governor(self):
        """The eager summary construction (``inverse_type``,
        ``bad_input_language``) stops at a budget like the exact route's
        pair explorer."""
        machine = exponential_transducer(ALPHA)
        _, not_tau2 = complement_output_type(machine, leaves_all_a(
            RankedAlphabet(leaves={"a", "b"}, internals={"f", "g", "z"})
        ))
        walking = trim_quotient(transducer_times_automaton(machine, not_tau2))
        governor = ResourceGovernor()
        with governed(governor):
            language = walking_automaton_to_ta(walking)
        transitions = len(language.leaf_rules) + len(language.rules)
        assert governor.steps >= transitions
        assert governor.states >= len(language.states)
        budgeted = ResourceGovernor(budget=Budget(max_steps=transitions - 1))
        with governed(budgeted), pytest.raises(ResourceExhausted) as info:
            walking_automaton_to_ta(walking)
        assert info.value.reason == "steps"

    def test_witness_without_accepting_states_takes_no_step(self):
        """A stored ``ok`` pair automaton has rules but no accepting
        state, and a warm check asks it for a witness again."""
        automaton = BottomUpTA(
            alphabet=ALPHA, states={"x"}, leaf_rules={"a": {"x"}},
            rules={(s, "x", "x"): {"x"} for s in ("f", "g")},
            accepting=(),
        )
        governor = ResourceGovernor()
        with oracle_algebra(False), governed(governor):
            assert automaton.witness() is None
        assert governor.steps == 0

    def test_determinization_respects_state_budget(self):
        tau = leaves_all_a()
        governor = ResourceGovernor(budget=Budget(max_states=1))
        with governed(governor):
            with pytest.raises(ResourceExhausted) as info:
                as_automaton(tau).complemented()
        assert info.value.reason == "states"

    def test_evaluate_honours_ambient_governor(self):
        machine = copy_transducer(ALPHA)
        tree = BTree("f", BTree("a"), BTree("a"))
        governor = ResourceGovernor(budget=Budget(max_steps=2))
        with governed(governor):
            with pytest.raises(ResourceExhausted) as info:
                evaluate(machine, tree)
        assert info.value.phase == "evaluate"

    def test_no_budget_means_no_behaviour_change(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_all_a()
        plain = typecheck(machine, tau, tau, method="exact")
        assert plain.ok
        assert plain.method == "exact"
        assert "budget" not in plain.stats


class TestDegradation:
    def test_fallback_off_raises(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_all_a()
        with pytest.raises(ResourceExhausted):
            typecheck(
                machine, tau, tau, method="exact",
                max_steps=10, fallback=False,
            )

    def test_fallback_finds_known_counterexample(self):
        machine = copy_transducer(ALPHA)
        tau1 = as_automaton(leaves_all_a()).complemented()  # some b leaf
        tau2 = leaves_all_a()
        result = typecheck(
            machine, tau1, tau2, method="exact",
            max_steps=10, fallback=True,
        )
        assert result.method == DEGRADED_METHOD
        assert not result.ok
        assert tau1.accepts(result.counterexample_input)
        assert not tau2.accepts(result.counterexample_output)
        assert result.stats["degraded"] is True
        exhausted = result.stats["exact_exhausted"]
        assert exhausted["reason"] == "steps"
        assert exhausted["phase"] != ""

    def test_fallback_ok_carries_caveat(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_all_a()
        result = typecheck(
            machine, tau, tau, method="exact",
            max_steps=10, fallback=True,
        )
        assert result.method == DEGRADED_METHOD
        assert result.ok
        assert "caveat" in result.stats
        assert result.stats["inputs_checked"] > 0

    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_outer_governor_exhaustion_is_not_degraded(self, method):
        # a call with no budget of its own runs under the caller's
        # governor, whose exhaustion is the caller's to handle: fallback
        # covers only a governor the call built or was given
        tau = leaves_all_a()
        outer = make_governor(max_steps=10)
        with governed(outer), pytest.raises(ResourceExhausted):
            typecheck(
                copy_transducer(ALPHA), tau, tau, method=method,
                fallback=True,
            )
        assert outer.steps > 10

    def test_own_budget_degrades_under_an_outer_governor(self):
        tau = leaves_all_a()
        outer = make_governor(max_steps=10**9)
        with governed(outer):
            result = typecheck(
                copy_transducer(ALPHA), tau, tau, method="exact",
                max_steps=10, fallback=True,
            )
        assert result.method == DEGRADED_METHOD
        assert result.stats["exact_exhausted"]["reason"] == "steps"

    def test_deadline_degradation(self):
        # an already-started governor whose deadline lapses mid-pipeline
        machine = copy_transducer(ALPHA)
        tau = leaves_all_a()
        governor = ResourceGovernor(
            deadline=Deadline.after(0.0005), check_interval=1
        )
        result = typecheck(
            machine, tau, tau, method="exact",
            fallback=True, governor=governor,
        )
        assert result.method == DEGRADED_METHOD
        assert result.stats["exact_exhausted"]["reason"] == "deadline"

    def test_nonelementary_wall_degrades_under_deadline(self):
        # Theorem 4.8 made survivable: the k=2 star-free decider blows up
        # the exact pipeline (bench_e11 used to kill it from a separate
        # process); under a deadline it degrades to the bounded falsifier,
        # which still finds the genuine counterexample (the language of
        # ~(a.~(a.b)) is non-empty, so the machine does NOT typecheck
        # against {b}).
        from repro.pebble import (
            singleton_b_type,
            starfree_to_transducer,
            string_alphabet,
            string_encodings_type,
        )
        from repro.regex import parse_regex

        alpha = string_alphabet({"a", "b"})
        machine = starfree_to_transducer(parse_regex("~(a.~(a.b))"), alpha)
        started = time.perf_counter()
        result = typecheck(
            machine, string_encodings_type(alpha), singleton_b_type(),
            method="exact", timeout=0.5, fallback=True, max_inputs=20,
        )
        elapsed = time.perf_counter() - started
        assert result.method == DEGRADED_METHOD
        assert not result.ok
        assert result.stats["exact_exhausted"]["reason"] == "deadline"
        assert elapsed < 30  # ungoverned, this runs essentially forever

    def test_two_pebble_budget_degrades_instead_of_running_out_of_memory(
        self,
    ):
        # Example 4.2's Q1 has 25 set variables at level 2.  Listing all
        # 2^25 bit vectors before the first budget step raised
        # MemoryError, which no fallback catches; the child's address
        # space is capped so that failure stays inside it.
        script = """
            import resource
            cap = 512 << 20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            from repro.data.samples import q1_inverse_dtd, q1_output_even_dtd
            from repro.lang.xmlql import q1_transducer
            from repro.typecheck import typecheck

            result = typecheck(
                q1_transducer(), q1_inverse_dtd(), q1_output_even_dtd(),
                max_steps=5000, fallback=True,
            )
            print(ascii(result.method), result.ok)
            """
        process = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert process.returncode == 0, process.stderr[-2000:]
        assert process.stdout.split() == [ascii(DEGRADED_METHOD), "True"]

    def test_timeout_keyword_degrades_and_finishes_quickly(self):
        machine = exponential_transducer(ALPHA)
        tau1 = leaves_all_a()
        tau2 = leaves_all_a(
            RankedAlphabet(leaves={"a", "b"}, internals={"f", "g", "z"})
        )
        started = time.perf_counter()
        # 0.2 ms: far below the cold pipeline's wall time (~1 ms), so
        # the deadline reliably lapses mid-pipeline rather than racing
        # completion.
        result = typecheck(
            machine, tau1, tau2, method="exact",
            timeout=0.0002, fallback=True,
        )
        elapsed = time.perf_counter() - started
        assert result.method == DEGRADED_METHOD
        assert result.stats["exact_exhausted"]["reason"] == "deadline"
        assert elapsed < 30  # a loose sanity bound; typical runs are ~ms


class TestGenerateReport:
    def test_truncated_enumeration_is_flagged(self):
        report: dict = {}
        emitted = list(leaves_all_a().generate(10 ** 6, max_rounds=2,
                                               report=report))
        assert emitted
        assert report["emitted"] == len(emitted)
        assert report["rounds"] <= 2
        assert report["exhausted"] is True

    def test_complete_enumeration_is_not_flagged(self):
        single = BottomUpTA(
            alphabet=RankedAlphabet(leaves={"a"}, internals={"f"}),
            states={"ok"},
            leaf_rules={"a": {"ok"}},
            rules={},
            accepting={"ok"},
        )
        report: dict = {}
        emitted = list(single.generate(10, report=report))
        assert emitted == [BTree("a")]
        assert report["emitted"] == 1
        assert report["exhausted"] is False

    def test_limit_reached_is_not_exhaustion(self):
        report: dict = {}
        emitted = list(leaves_all_a().generate(3, report=report))
        assert len(emitted) == 3
        assert report["exhausted"] is False


class TestBoundedEnumerationStats:
    def test_exhausted_enumeration_surfaces_in_stats(self):
        # left_chains has one new accepted tree per round, so the default
        # 12 rounds cannot satisfy 50 inputs: the truncation must be
        # reported, not silently ignored (the pre-fix behaviour).
        chain_alpha = RankedAlphabet(leaves={"a"}, internals={"f"})
        machine = copy_transducer(chain_alpha)
        tau = left_chains()
        result = typecheck(machine, tau, tau, method="bounded",
                           max_inputs=50)
        assert result.ok
        assert result.stats["inputs_requested"] == 50
        assert 0 < result.stats["inputs_checked"] < 50
        assert result.stats["enumeration_exhausted"] is True

    def test_satisfied_enumeration_reports_complete(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_all_a()
        result = typecheck(machine, tau, tau, method="bounded",
                           max_inputs=5)
        assert result.ok
        assert result.stats["inputs_checked"] == 5
        assert result.stats["enumeration_exhausted"] is False


#: Scripts printing the governor steps of one construction whose loop
#: order used to follow set iteration: ``ta.trimmed`` on Section 5's
#: join-view output language (E12's database with four workers), and
#: selection typechecking on the bibliography DTD (E04).
_STEP_SCRIPTS = {
    "output-language-trim": """
        from repro.automata import td_to_bu
        from repro.ext import (
            Database, Dept, Person, WorksIn, abstract_view_transducer,
            database_document,
        )
        from repro.pebble import output_automaton
        from repro.runtime import ResourceGovernor, governed
        from repro.trees import encode

        database = Database(
            persons=[Person(f"p{i}", f"name{i}") for i in range(4)],
            worksin=[WorksIn(f"p{i}", f"d{i % 3}") for i in range(4)]
            + [WorksIn("ghost", "d0")],
            depts=[Dept(f"d{i}", f"dept{i}") for i in range(3)],
        )
        automaton = td_to_bu(output_automaton(
            abstract_view_transducer(), encode(database_document(database))
        ))
        governor = ResourceGovernor()
        with governed(governor):
            automaton.trimmed()
        print(governor.steps)
        """,
    "selection": """
        from repro.data import bibliography_dtd
        from repro.runtime import ResourceGovernor, governed
        from repro.typecheck import typecheck_selection
        from repro.xmlio import parse_dtd

        governor = ResourceGovernor()
        with governed(governor):
            typecheck_selection(
                "bib.book.author", bibliography_dtd(), parse_dtd("author :=")
            )
        print(governor.steps)
        """,
}


class TestStepsAcrossHashSeeds:
    """Step counts are the deterministic gate of the benchmark sweep, so
    they must not follow the per-process string hash seed."""

    @pytest.mark.parametrize("name", sorted(_STEP_SCRIPTS))
    def test_equal_steps_under_two_hash_seeds(self, name):
        env = _child_env()
        steps = []
        for seed in ("1", "2"):
            process = subprocess.run(
                [sys.executable, "-c", textwrap.dedent(_STEP_SCRIPTS[name])],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=120,
            )
            assert process.returncode == 0, process.stderr
            steps.append(int(process.stdout))
        assert steps[0] == steps[1] > 0
