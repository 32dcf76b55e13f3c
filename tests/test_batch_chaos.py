"""Chaos tests: the batch executor under injected faults and hard kills.

The ISSUE 3 acceptance criteria, verbatim:

* with worker crashes injected on 30% of jobs, a 50-job batch completes
  with every job reported exactly once and verdicts identical to a
  fault-free run;
* SIGKILLing the batch *driver* midway and re-running with ``--resume``
  continues from the checkpoint without re-executing completed jobs;
* a deliberately pathological job (exponential-DTD exact typecheck with
  no cooperative budget) is SIGKILLed at its hard limit and reported
  ``timeout``/``oom`` while the rest of its batch finishes normally.

Everything here is deterministic: fault decisions are pure functions of
``(seed, point, job id, attempt)`` — seed 22 was chosen so that exactly
15/50 jobs (30%) crash on their first attempt and all recover within 4.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.errors import EXIT_CRASHED
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.supervisor import (
    OK,
    OOM,
    TIMEOUT,
    JobLimits,
    JobSpec,
    RetryPolicy,
    Supervisor,
    completed_job_ids,
    completed_results,
)

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

TINY_DTD = "doc := item*\nitem :="
IDENTITY_SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="item"><item/></xsl:template>'
)
BROKEN_SHEET = (
    '<xsl:template match="doc"><doc><doc/></doc></xsl:template>'
    '<xsl:template match="item"><item/></xsl:template>'
)


def fifty_jobs() -> list[JobSpec]:
    """50 fast jobs with a deliberate mix of verdicts."""
    specs: list[JobSpec] = []
    for i in range(50):
        job_id = f"job-{i:02d}"
        bucket = i % 5
        if bucket == 0:
            specs.append(JobSpec(
                id=job_id, kind="typecheck",
                params={"stylesheet_text": IDENTITY_SHEET,
                        "input_dtd_text": TINY_DTD,
                        "output_dtd_text": TINY_DTD,
                        "method": "bounded", "max_inputs": 5},
            ))
        elif bucket == 1:
            specs.append(JobSpec(
                id=job_id, kind="typecheck",
                params={"stylesheet_text": BROKEN_SHEET,
                        "input_dtd_text": TINY_DTD,
                        "output_dtd_text": TINY_DTD,
                        "method": "bounded", "max_inputs": 5},
            ))
        elif bucket == 2:
            specs.append(JobSpec(
                id=job_id, kind="validate",
                params={"dtd_text": TINY_DTD,
                        "document_text": "<doc><bad/></doc>"},
            ))
        else:
            specs.append(JobSpec(
                id=job_id, kind="validate",
                params={"dtd_text": TINY_DTD,
                        "document_text": "<doc><item/><item/></doc>"},
            ))
    return specs


def results_by_id(path) -> dict:
    lines = [json.loads(line) for line in open(path) if line.strip()]
    return {line["id"]: line for line in lines}


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (its parent is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def survivors(pids, timeout: float = 5.0) -> set:
    """The processes among ``pids`` still running after ``timeout``."""
    deadline = time.monotonic() + timeout
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        alive = {pid for pid in alive if _running(pid)}
        time.sleep(0.05)
    return {pid for pid in alive if _running(pid)}


def test_chaos_batch_reports_every_job_exactly_once(tmp_path):
    specs = fifty_jobs()

    # ground truth: the same batch with no faults armed
    clean = Supervisor().run_batch(specs, workers=4)
    clean_verdicts = {result.id: result.status for result in clean.results}
    assert len(clean_verdicts) == 50

    plan = FaultPlan(
        seed=22,
        points={"worker:result": FaultSpec(action="crash", rate=0.3)},
    )
    chaos_path = tmp_path / "chaos.jsonl"
    chaos = Supervisor(
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.1),
    ).run_batch(specs, workers=4, results_path=str(chaos_path))

    # exactly once: 50 results, 50 distinct ids, one log line each
    assert chaos.executed == 50
    logged = [json.loads(line) for line in open(chaos_path)]
    id_counts = Counter(line["id"] for line in logged)
    assert len(id_counts) == 50
    assert set(id_counts.values()) == {1}

    # the supervisor healed every injected crash: verdicts identical
    chaos_verdicts = {result.id: result.status for result in chaos.results}
    assert chaos_verdicts == clean_verdicts

    # and the chaos was real: 15/50 first attempts crashed (seed 22)
    first_attempt_crashes = sum(
        1 for result in chaos.results
        if result.history[0]["status"] == "crashed"
    )
    assert first_attempt_crashes == 15
    assert all(result.attempts <= 4 for result in chaos.results)


def test_killed_batch_resumes_without_recomputing(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    results = tmp_path / "results.jsonl"
    plan_path = tmp_path / "faults.json"
    specs = [
        JobSpec(
            id=f"slow-{i:02d}", kind="validate",
            params={"dtd_text": TINY_DTD,
                    "document_text": "<doc><item/></doc>"},
        )
        for i in range(12)
    ]
    manifest.write_text(
        "".join(json.dumps(spec.to_dict()) + "\n" for spec in specs)
    )
    # every job sleeps 0.25s so the driver dies with the batch mid-flight
    plan = FaultPlan(
        points={"worker:compute": FaultSpec(action="delay", seconds=0.25)}
    )
    plan_path.write_text(json.dumps(plan.to_dict()))

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "batch", str(manifest),
            "--results", str(results), "--workers", "2",
            "--faults", str(plan_path),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])
             )},
    )
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if len(completed_job_ids(str(results))) >= 3:
                break
            if process.poll() is not None:
                pytest.fail("batch finished before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("batch produced no results to checkpoint")
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
            process.wait(timeout=10)

    snapshot = results.read_bytes()
    done_before = completed_job_ids(str(results))
    assert 0 < len(done_before) < 12

    report = Supervisor(fault_plan=plan).run_batch(
        specs, workers=2, results_path=str(results), resume=True
    )
    # checkpointed jobs were skipped, not re-executed...
    assert report.skipped == len(done_before)
    assert report.executed == 12 - len(done_before)
    assert {result.id for result in report.results}.isdisjoint(done_before)
    # ...their records were not rewritten...
    assert results.read_bytes().startswith(snapshot)
    # ...and after resume every job is recorded exactly once
    final = results_by_id(results)
    assert set(final) == {spec.id for spec in specs}
    assert all(line["status"] == OK for line in final.values())
    # a third run has nothing left to do
    again = Supervisor().run_batch(
        specs, workers=2, results_path=str(results), resume=True
    )
    assert again.executed == 0
    assert again.skipped == 12


def test_pathological_job_is_killed_while_batch_survives(
    tmp_path, pathological_typecheck
):
    """Theorem 4.8 in production: the blow-up dies, the batch does not."""
    specs = [pathological_typecheck("patho")] + [
        JobSpec(
            id=f"normal-{i}", kind="validate",
            params={"dtd_text": TINY_DTD,
                    "document_text": "<doc><item/></doc>"},
        )
        for i in range(4)
    ]
    results = tmp_path / "results.jsonl"
    report = Supervisor(
        limits=JobLimits(wall_seconds=2.0, rss_bytes=512 * 1024 * 1024),
        retry=RetryPolicy(max_attempts=1),
    ).run_batch(specs, workers=2, results_path=str(results))

    by_id = {result.id: result for result in report.results}
    assert by_id["patho"].status in (TIMEOUT, OOM)
    assert by_id["patho"].history[0]["killed_by"] in (
        "wall-limit", "rss-limit"
    )
    for i in range(4):
        assert by_id[f"normal-{i}"].status == OK
    assert report.exit_code() == EXIT_CRASHED
    # the log carries all five outcomes despite the kill
    assert set(results_by_id(results)) == {spec.id for spec in specs}


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc to tell live processes from zombies")
def test_sigkilled_batch_driver_leaves_no_worker_behind(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    results = tmp_path / "results.jsonl"
    plan_path = tmp_path / "faults.json"
    specs = [
        JobSpec(id=f"busy-{i:02d}", kind="validate",
                params={"dtd_text": TINY_DTD,
                        "document_text": "<doc><item/></doc>"})
        for i in range(20)
    ]
    manifest.write_text(
        "".join(json.dumps(spec.to_dict()) + "\n" for spec in specs)
    )
    plan = FaultPlan(
        points={"worker:compute": FaultSpec(action="delay", seconds=0.5)}
    )
    plan_path.write_text(json.dumps(plan.to_dict()))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "batch", str(manifest),
            "--results", str(results), "--workers", "2",
            "--faults", str(plan_path),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])
             )},
    )
    try:
        deadline = time.monotonic() + 30.0
        pids: set = set()
        while len(pids) < 2 and time.monotonic() < deadline:
            if process.poll() is not None:
                pytest.fail("batch finished before it could be killed")
            pids = {
                line["detail"]["worker"]["pid"]
                for line in completed_results(str(results)).values()
            }
            time.sleep(0.02)
        assert len(pids) == 2, "both pool workers should have reported"
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
            process.wait(timeout=10)
    # both workers were mid-job: they must not finish the batch orphaned
    assert survivors(pids) == set()
