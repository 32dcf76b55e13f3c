"""Chaos tests for verdict certification (PR 9 acceptance bar).

The scripted proof: a poisoned persistent-cache segment — corrupted
*behind a valid checksum* via the ``cache:poison-entry`` fault, so every
integrity check passes — is detected by the audit replay, journaled as
``miscompiled``, quarantined from both memo tiers (tombstones on disk
plus a ``quarantine.jsonl`` line), and the resubmitted job is recomputed
from first principles and re-certified.  No operator intervention at any
step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.errors import ServiceError
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.service import ServiceClient
from repro.runtime.supervisor import MISCOMPILED, OK, JobSpec

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

TINY_DTD = "doc := item*\nitem :="
IDENTITY_SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="item"><item/></xsl:template>'
)


def typecheck_job(job_id: str) -> JobSpec:
    return JobSpec(
        id=job_id, kind="typecheck",
        params={"stylesheet_text": IDENTITY_SHEET,
                "input_dtd_text": TINY_DTD,
                "output_dtd_text": TINY_DTD,
                "method": "exact"},
    )


def start_serve(state_dir, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(state_dir),
         "--workers", "1", *extra],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])
             )},
    )


def wait_for_daemon(socket_path, timeout: float = 30.0) -> ServiceClient:
    client = ServiceClient(str(socket_path))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.ping()
            return client
        except ServiceError:
            time.sleep(0.05)
    raise AssertionError("daemon never answered ping")


@pytest.fixture
def reaper():
    processes: list[subprocess.Popen] = []
    yield processes.append
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_poisoned_cache_is_detected_quarantined_and_recovered(
    tmp_path, reaper
):
    """The full acceptance loop, across two daemon generations."""
    plan = FaultPlan(points={
        "cache:poison-entry": FaultSpec(action="exception"),
    })
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    state = tmp_path / "state"

    # Generation 1: audits off, poison armed.  The job computes its
    # (correct) answer from fresh in-memory constructions, but every
    # automaton persisted to the disk tier is silently corrupted —
    # accepting sets complemented behind perfectly valid checksums.
    first = start_serve(state, "--faults", str(plan_path))
    reaper(first)
    client = wait_for_daemon(state / "service.sock")
    seeded = client.submit(typecheck_job("gen1-seed"), timeout=120.0)
    assert seeded["result"]["status"] == OK
    assert client.shutdown()["ok"]
    assert first.wait(timeout=30) == 0

    # Generation 2: no faults, audits on.  The fresh worker's memo
    # lookups hit the poisoned disk tier, the engine miscompiles, and
    # the audit replay — cache-blind by construction — catches it.
    second = start_serve(state, "--audit", "full")
    reaper(second)
    client = wait_for_daemon(state / "service.sock")

    poisoned = client.submit(typecheck_job("gen2-poisoned"), timeout=120.0)
    result = poisoned["result"]
    assert result["status"] == MISCOMPILED
    audit = result["detail"]["stats"]["audit"]
    assert audit["status"] == "failed"
    assert audit["quarantine_keys"]
    quarantine = result["detail"]["quarantine"]
    assert quarantine["purged"] is True
    assert quarantine["disk_quarantined"] > 0

    # the quarantine is journaled durably, with the lineage
    journal = state / "cache" / "quarantine.jsonl"
    assert journal.exists()
    entry = json.loads(journal.read_text().splitlines()[0])
    assert entry["schema"] == "repro-quarantine/v1"
    assert entry["evicted"] == quarantine["disk_quarantined"]
    assert "refuted" in entry["reason"]

    # ...and the miscompile is first-class in the daemon's telemetry
    stats = client.stats()["stats"]
    assert stats["audit"]["mode"] == "full"
    assert stats["audit"]["miscompiled"] == 1
    assert stats["audit"]["outcomes"]["failed"] == 1
    assert stats["audit"]["quarantined_keys"] > 0
    assert client.health()["audit"]["miscompiled"] == 1

    # Resubmission: the purged tiers force recomputation from first
    # principles; the fresh verdict survives full falsification.
    recovered = client.submit(typecheck_job("gen2-recovered"),
                              timeout=120.0)
    result = recovered["result"]
    assert result["status"] == OK
    assert result["detail"]["stats"]["audit"]["status"] == "certified"
    assert client.stats()["stats"]["audit"]["outcomes"]["certified"] >= 1

    # the results journal records the miscompile honestly
    lines = [json.loads(line) for line in
             (state / "results.jsonl").read_text().splitlines()]
    by_id = {line["id"]: line["status"] for line in lines}
    assert by_id["gen2-poisoned"] == MISCOMPILED
    assert by_id["gen2-recovered"] == OK

    assert client.shutdown()["ok"]
    assert second.wait(timeout=30) == 0


def test_flip_verdict_fault_escalates_through_the_daemon(tmp_path, reaper):
    """``audit:flip-verdict`` forces a correct answer to fail its own
    audit: the daemon must serve ``miscompiled`` and count it."""
    plan = FaultPlan(points={
        "audit:flip-verdict": FaultSpec(action="exception"),
    })
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    state = tmp_path / "state"

    daemon = start_serve(state, "--faults", str(plan_path),
                         "--audit", "witness")
    reaper(daemon)
    client = wait_for_daemon(state / "service.sock")
    flipped = client.submit(typecheck_job("flip-1"), timeout=120.0)
    result = flipped["result"]
    assert result["status"] == MISCOMPILED
    audit = result["detail"]["stats"]["audit"]
    assert audit["status"] == "failed"
    assert audit["flipped"] is True
    assert client.stats()["stats"]["audit"]["outcomes"]["failed"] == 1
    assert client.shutdown()["ok"]
    assert daemon.wait(timeout=30) == 0


def test_audit_witness_mode_is_invisible_on_healthy_answers(
    tmp_path, reaper
):
    """A healthy daemon with ``--audit witness``: ok verdicts skip the
    falsifier, type-error verdicts certify, nothing is quarantined."""
    state = tmp_path / "state"
    daemon = start_serve(state, "--audit", "witness")
    reaper(daemon)
    client = wait_for_daemon(state / "service.sock")

    good = client.submit(typecheck_job("ok-1"), timeout=120.0)
    assert good["result"]["status"] == OK
    assert good["result"]["detail"]["stats"]["audit"]["status"] == "skipped"

    bad = JobSpec(
        id="err-1", kind="typecheck",
        params={"stylesheet_text": IDENTITY_SHEET,
                "input_dtd_text": TINY_DTD,
                "output_dtd_text": "doc := item.item\nitem :=",
                "method": "exact"},
    )
    error = client.submit(bad, timeout=120.0)
    assert error["result"]["status"] == "type-error"
    detail = error["result"]["detail"]
    assert detail["stats"]["audit"]["status"] == "certified"

    stats = client.stats()["stats"]
    assert stats["audit"]["mode"] == "witness"
    assert stats["audit"]["miscompiled"] == 0
    assert stats["audit"]["quarantined_keys"] == 0
    assert not (state / "cache" / "quarantine.jsonl").exists()
    assert client.shutdown()["ok"]
    assert daemon.wait(timeout=30) == 0
