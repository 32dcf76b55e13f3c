"""PR 9 — verdict certification (:mod:`repro.audit`).

Covers the audit taxonomy (certified/failed/unproven/skipped), the
trusted-interpreter witness replay, seeded falsification, the
``audit:flip-verdict`` chaos hook, the quarantine primitives in the
memo cache, offline record re-certification, and the satellite
property: every ``type-error`` verdict — across worked examples and
randomized machine/type combinations — carries a witness that
independently certifies.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AUDIT_MODES,
    CERTIFIED,
    FAILED,
    SKIPPED,
    UNPROVEN,
    audit_record,
    audit_result,
    resolve_audit_mode,
)
from repro.automata import BottomUpTA
from repro.data import q1_input_dtd, q2_tight_output_dtd
from repro.errors import TypecheckError
from repro.lang import q1_transducer, q2_stylesheet, xslt_to_transducer
from repro.runtime.cache import (
    GLOBAL_CACHE,
    clear_cache,
    quarantine_keys,
    tracked_keys,
)
from repro.runtime.diskcache import _poison_value
from repro.runtime.faults import FaultPlan, FaultSpec, injected_faults
from repro.runtime.jobs import execute_classified, execute_job
from repro.pebble import copy_transducer, exponential_transducer
from repro.trees import BTree, RankedAlphabet
from repro.typecheck import typecheck
from repro.typecheck.engine import DEGRADED_METHOD, TypecheckResult

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})

TINY_DTD = "doc := item*\nitem :="
BAD_DTD = "doc := item.item\nitem :="
IDENTITY_SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="item"><item/></xsl:template>'
)

FLIP_PLAN = FaultPlan(points={
    "audit:flip-verdict": FaultSpec(action="exception"),
})


def leaves_in(allowed, alphabet=ALPHA) -> BottomUpTA:
    """Trees whose every leaf label lies in ``allowed``."""
    return BottomUpTA(
        alphabet=alphabet,
        states={"ok"},
        leaf_rules={leaf: {"ok"} for leaf in sorted(allowed)},
        rules={
            (s, "ok", "ok"): {"ok"} for s in sorted(alphabet.internals)
        },
        accepting={"ok"},
    )


def type_error_result() -> tuple:
    """A genuine exact type-error over the copy machine."""
    machine = copy_transducer(ALPHA)
    tau1 = leaves_in({"a", "b"})
    tau2 = leaves_in({"a"})
    result = typecheck(machine, tau1, tau2, method="exact")
    assert not result.ok
    return machine, tau1, tau2, result


def ok_result() -> tuple:
    machine = copy_transducer(ALPHA)
    tau = leaves_in({"a"})
    result = typecheck(machine, tau, tau, method="exact")
    assert result.ok
    return machine, tau, tau, result


class TestResolveMode:
    def test_explicit_modes_pass_through(self):
        for mode in AUDIT_MODES:
            assert resolve_audit_mode(mode) == mode

    def test_off_spellings(self):
        for spelling in ("", "0", "no", "false", "OFF"):
            assert resolve_audit_mode(spelling) == "off"

    def test_one_means_witness(self):
        assert resolve_audit_mode("1") == "witness"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "full")
        assert resolve_audit_mode(None) == "full"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "full")
        assert resolve_audit_mode("witness") == "witness"

    def test_unknown_mode_fails_loudly(self):
        with pytest.raises(TypecheckError):
            resolve_audit_mode("telepathy")


class TestWitnessCertification:
    def test_genuine_type_error_certifies(self):
        machine, tau1, tau2, result = type_error_result()
        report = audit_result(machine, tau1, tau2, result, mode="witness")
        assert report.status == CERTIFIED
        assert report.ok
        assert [c["check"] for c in report.checks] == [
            "witness-present",
            "input-in-input-type",
            "output-reproduced",
            "output-outside-output-type",
        ]
        assert all(c["ok"] for c in report.checks)
        assert report.replay_steps > 0

    def test_tampered_output_fails_replay(self):
        machine, tau1, tau2, result = type_error_result()
        # strictly larger than any copy of the witness, so the replay
        # can never reproduce it
        witness = result.counterexample_input
        tampered = dataclasses.replace(
            result, counterexample_output=BTree("f", witness, witness)
        )
        report = audit_result(machine, tau1, tau2, tampered, mode="witness")
        assert report.status == FAILED
        assert not report.ok
        assert report.checks[-1]["check"] == "output-reproduced"
        assert not report.checks[-1]["ok"]

    def test_witness_outside_input_type_fails(self):
        machine, tau1, tau2, result = type_error_result()
        # a tree the input type rejects cannot witness anything
        outside = BTree("f", BTree("a"), BTree("a"))
        tampered = dataclasses.replace(
            result,
            counterexample_input=outside,
            counterexample_output=outside,
        )
        report = audit_result(
            machine, leaves_in({"b"}), tau2, tampered, mode="witness"
        )
        assert report.status == FAILED
        assert report.checks[-1]["check"] == "input-in-input-type"

    def test_well_typed_output_fails_last_check(self):
        # claim a type error whose recorded output the output type accepts
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        fake = TypecheckResult(
            ok=False, method="exact",
            counterexample_input=BTree("a"),
            counterexample_output=BTree("a"),
        )
        report = audit_result(machine, tau, tau, fake, mode="witness")
        assert report.status == FAILED
        assert report.checks[-1]["check"] == "output-outside-output-type"

    def test_missing_witness_fails(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        fake = TypecheckResult(ok=False, method="exact")
        report = audit_result(machine, tau, tau, fake, mode="witness")
        assert report.status == FAILED
        assert report.checks == (
            {
                "check": "witness-present", "ok": False,
                "detail": "type-error verdict carries no counterexample "
                          "input",
            },
        )


class TestOkVerdicts:
    def test_exact_ok_witness_mode_skips(self):
        machine, tau1, tau2, result = ok_result()
        report = audit_result(machine, tau1, tau2, result, mode="witness")
        assert report.status == SKIPPED
        assert "audit=full" in report.reason

    def test_exact_ok_full_mode_falsifies_and_certifies(self):
        machine, tau1, tau2, result = ok_result()
        report = audit_result(machine, tau1, tau2, result, mode="full")
        assert report.status == CERTIFIED
        assert report.seed is not None
        assert report.inputs_tried > 0
        assert report.replay_steps > 0

    def test_miscompiled_ok_is_refuted_by_falsification(self):
        # an engine that *claimed* ok for a machine that actually
        # violates the output type: full-mode falsification must catch it
        machine = copy_transducer(ALPHA)
        tau1 = leaves_in({"a", "b"})
        tau2 = leaves_in({"a"})
        lie = TypecheckResult(ok=True, method="exact")
        report = audit_result(machine, tau1, tau2, lie, mode="full")
        assert report.status == FAILED
        assert report.counterexample_input is not None
        assert report.counterexample_output is not None
        payload = report.to_jsonable()
        assert "counterexample_input" in payload

    def test_bounded_ok_is_unproven(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        result = typecheck(machine, tau, tau, method="bounded",
                           max_inputs=5)
        for mode in ("witness", "full"):
            report = audit_result(machine, tau, tau, result, mode=mode)
            assert report.status == UNPROVEN
            assert "not a proof" in report.reason

    def test_degraded_ok_is_unproven_with_caveat(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        degraded = TypecheckResult(ok=True, method=DEGRADED_METHOD)
        report = audit_result(machine, tau, tau, degraded, mode="full")
        assert report.status == UNPROVEN
        assert "degraded" in report.reason

    def test_mode_off_skips(self):
        machine, tau1, tau2, result = ok_result()
        report = audit_result(machine, tau1, tau2, result, mode="off")
        assert report.status == SKIPPED
        assert report.reason == "audit disabled"

    def test_budget_exhaustion_skips_never_raises(self):
        machine, tau1, tau2, result = type_error_result()
        report = audit_result(
            machine, tau1, tau2, result, mode="witness", max_steps=0
        )
        assert report.status == SKIPPED
        assert "exhausted" in report.reason


class TestEngineWiring:
    def test_stats_carry_the_report(self):
        machine = copy_transducer(ALPHA)
        tau1, tau2 = leaves_in({"a", "b"}), leaves_in({"a"})
        result = typecheck(machine, tau1, tau2, method="exact",
                           audit="witness")
        audit = result.stats["audit"]
        assert audit["status"] == CERTIFIED
        assert audit["mode"] == "witness"
        assert audit["method"] == "exact"

    def test_audit_off_leaves_stats_untouched(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        result = typecheck(machine, tau, tau)
        assert "audit" not in result.stats

    def test_env_var_arms_the_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "witness")
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        result = typecheck(machine, tau, tau)
        assert result.stats["audit"]["status"] == SKIPPED

    def test_flip_fault_records_quarantine_lineage(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        with injected_faults(FLIP_PLAN):
            result = typecheck(machine, tau, tau, audit="witness")
        audit = result.stats["audit"]
        assert audit["status"] == FAILED
        assert audit["flipped"] is True
        keys = audit["quarantine_keys"]
        assert keys == sorted(keys)
        if GLOBAL_CACHE.enabled:
            assert keys


class TestFlipFaultEscalation:
    def payload(self) -> dict:
        return {
            "kind": "typecheck",
            "params": {
                "stylesheet_text": IDENTITY_SHEET,
                "input_dtd_text": TINY_DTD,
                "output_dtd_text": TINY_DTD,
                "audit": "witness",
            },
        }

    def test_worker_escalates_to_miscompiled_and_purges(self):
        with injected_faults(FLIP_PLAN):
            outcome = execute_job(self.payload())
        assert outcome["status"] == "miscompiled"
        quarantine = outcome["quarantine"]
        assert quarantine["purged"] is True
        assert quarantine["keys"] == quarantine["memory_evicted"] or \
            quarantine["memory_evicted"] >= quarantine["keys"] or \
            not GLOBAL_CACHE.enabled

    def test_refuted_undecodable_counterexample_is_miscompiled(
        self, monkeypatch
    ):
        """A refuted witness need not be a document encoding: the job is
        still escalated and quarantined, not ended by the serializer."""
        def refuted(*args, **kwargs):
            return TypecheckResult(
                ok=False, method="exact",
                counterexample_input=BTree("|"),
                stats={"audit": {"status": FAILED,
                                 "quarantine_keys": ["audit-undecodable"]}},
            )

        # the package ``repro`` exports the function under the module's
        # name, so the module is looked up by its full name
        monkeypatch.setattr(
            importlib.import_module("repro.typecheck"), "typecheck", refuted
        )
        outcome = execute_classified(self.payload())
        assert outcome["status"] == "miscompiled"
        assert outcome["quarantine"]["purged"] is True
        assert outcome["counterexample_input"] == str(BTree("|"))
        assert "does not decode" in outcome["counterexample_error"]

    def test_without_fault_the_same_job_is_ok(self):
        outcome = execute_job(self.payload())
        assert outcome["status"] == "ok"
        assert outcome["stats"]["audit"]["status"] == SKIPPED
        assert "quarantine" not in outcome


class TestPoisonedSummaryProduct:
    """A one-pebble machine outside the fast routes is checked on the
    pair automaton ``pebble.summary-product`` stores, so a poisoned entry
    flips its verdict and the witness audit must refute it."""

    def test_flipped_ok_is_refuted_and_its_key_quarantined(
        self, monkeypatch
    ):
        monkeypatch.setattr(GLOBAL_CACHE, "enabled", True)
        machine = exponential_transducer(ALPHA)
        output = machine.output_alphabet
        check = (machine, leaves_in({"a"}), leaves_in({"a"}, output))
        clear_cache()
        try:
            with tracked_keys() as keys:
                first = typecheck(*check, audit="off")
            (key,) = [
                key for key in keys
                if key.startswith("pebble.summary-product|")
            ]
            # what the cache:poison-entry fault writes to the disk tier
            GLOBAL_CACHE.store(key, _poison_value(GLOBAL_CACHE.lookup(key)))
            second = typecheck(*check, audit="witness")
        finally:
            clear_cache()
        assert first.ok and first.method == "exact"
        assert not second.ok and second.method == "exact"
        audit = second.stats["audit"]
        assert audit["status"] == FAILED
        assert key in audit["quarantine_keys"]


class TestQuarantinePrimitives:
    def test_tracked_keys_collects_and_nests(self):
        machine = copy_transducer(ALPHA)
        tau = leaves_in({"a"})
        with tracked_keys() as outer:
            with tracked_keys() as inner:
                # audit off: an armed audit installs its own (innermost)
                # tracker inside the engine, which would starve ours
                typecheck(machine, tau, tau, audit="off")
            touched_outer_only = set(outer)
        if GLOBAL_CACHE.enabled:
            assert inner
        assert touched_outer_only == set()  # innermost tracker wins

    def test_quarantine_purge_clears_everything(self):
        GLOBAL_CACHE.store("audit-purge-a", 1)
        GLOBAL_CACHE.store("audit-purge-b", 2)
        counts = quarantine_keys(["audit-purge-a"])
        assert counts["purged"] is True
        assert counts["memory_evicted"] >= 2
        assert GLOBAL_CACHE.stats()["entries"] == 0


class TestAuditRecord:
    PARAMS = {
        "stylesheet_text": IDENTITY_SHEET,
        "input_dtd_text": TINY_DTD,
        "output_dtd_text": BAD_DTD,
    }

    def record(self, params=None) -> dict:
        outcome = execute_job(
            {"kind": "typecheck", "params": params or self.PARAMS}
        )
        return {"id": "j1", "status": outcome["status"], "detail": outcome}

    def test_type_error_record_recertifies(self):
        report = audit_record(self.record(), self.PARAMS, mode="witness")
        assert report.status == CERTIFIED

    def test_ok_record_full_mode(self):
        params = dict(self.PARAMS, output_dtd_text=TINY_DTD)
        report = audit_record(self.record(params), params, mode="full")
        assert report.status == CERTIFIED
        assert report.inputs_tried > 0

    def test_tampered_record_fails(self):
        record = self.record()
        record["detail"]["counterexample_output"] = "<doc><item/></doc>"
        report = audit_record(record, self.PARAMS, mode="witness")
        assert report.status == FAILED

    def test_non_verdict_record_skips(self):
        report = audit_record(
            {"id": "v", "status": "crashed", "detail": {"error": "boom"}},
            self.PARAMS,
        )
        assert report.status == SKIPPED

    def test_validate_record_skips(self):
        outcome = execute_job({
            "kind": "validate",
            "params": {"dtd_text": TINY_DTD,
                       "document_text": "<doc><item/></doc>"},
        })
        record = {"id": "v1", "status": outcome["status"],
                  "detail": outcome}
        report = audit_record(record, self.PARAMS)
        assert report.status == SKIPPED
        assert "no typecheck verdict" in report.reason


class TestWitnessProperty:
    """Satellite: every type-error verdict certifies independently."""

    def certify(self, machine, tau1, tau2, result):
        report = audit_result(machine, tau1, tau2, result, mode="witness")
        assert report.status == CERTIFIED, report.checks
        return report

    def test_q2_against_tight_dtd(self):
        machine = xslt_to_transducer(
            q2_stylesheet(), tags={"root", "a"}, root_tag="root"
        )
        tau1, tau2 = q1_input_dtd(), q2_tight_output_dtd()
        result = typecheck(machine, tau1, tau2, method="exact")
        assert not result.ok
        self.certify(machine, tau1, tau2, result)

    def test_q1_bounded_witness(self):
        from repro.data import q1_output_even_dtd

        machine = q1_transducer()
        tau1, tau2 = q1_input_dtd(), q1_output_even_dtd()
        result = typecheck(machine, tau1, tau2, method="bounded",
                           max_inputs=6)
        assert not result.ok
        self.certify(machine, tau1, tau2, result)

    def test_identity_sheet_against_shrunk_dtd(self):
        from repro.xmlio import parse_dtd

        machine = xslt_to_transducer(
            xslt_sheet(), tags={"doc", "item"}, root_tag="doc"
        )
        tau1 = parse_dtd(TINY_DTD)
        tau2 = parse_dtd(BAD_DTD)
        result = typecheck(machine, tau1, tau2, method="exact")
        assert not result.ok
        self.certify(machine, tau1, tau2, result)

    @settings(max_examples=30, deadline=None)
    @given(
        allowed1=st.sets(st.sampled_from(["a", "b"]), min_size=1),
        allowed2=st.sets(st.sampled_from(["a", "b"]), min_size=1),
        method=st.sampled_from(["exact", "bounded"]),
    )
    def test_random_type_pairs_over_copy(self, allowed1, allowed2, method):
        machine = copy_transducer(ALPHA)
        tau1 = leaves_in(allowed1)
        tau2 = leaves_in(allowed2)
        result = typecheck(machine, tau1, tau2, method=method,
                           max_inputs=8)
        if result.ok:
            assert allowed1 <= allowed2 or method == "bounded"
            return
        self.certify(machine, tau1, tau2, result)


def xslt_sheet():
    from repro.lang import parse_stylesheet

    return parse_stylesheet(IDENTITY_SHEET)
