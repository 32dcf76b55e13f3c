"""Chaos tests: ``kill -9`` the daemon and assert clean recovery.

The acceptance bar from ISSUE 6: a SIGKILL at any injected fault point
loses no completed results and no committed cache segments — a restarted
daemon recovers from the on-disk state alone, replays the queue
exactly-once, and a repeated typecheck job reports a *persistent-tier*
cache hit: a fresh worker reads its warmth from disk on demand.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ServiceError
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.service import ServiceClient
from repro.runtime.supervisor import CRASHED, OK, JobSpec, completed_results

import repro
from test_batch_chaos import survivors

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

TINY_DTD = "doc := item*\nitem :="
IDENTITY_SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="item"><item/></xsl:template>'
)


def validate_job(job_id: str) -> JobSpec:
    return JobSpec(
        id=job_id, kind="validate",
        params={"dtd_text": TINY_DTD,
                "document_text": "<doc><item/></doc>"},
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
    client = ServiceClient(socket_path)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.ping()
            return client
        except ServiceError:
            time.sleep(0.05)
    raise AssertionError("daemon never answered ping")


def wait_for_results(results_path, wanted: set, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done = completed_results(str(results_path))
        if wanted <= set(done):
            return done
        time.sleep(0.05)
    raise AssertionError(
        f"jobs never finished: wanted {wanted}, have "
        f"{set(completed_results(str(results_path)))}"
    )


@pytest.fixture
def reaper():
    processes: list[subprocess.Popen] = []
    yield processes.append
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_kill9_with_jobs_in_flight_replays_exactly_once(tmp_path, reaper):
    plan = FaultPlan(seed=11, points={
        "pool:worker-wedge": FaultSpec(action="delay", seconds=60.0,
                                       rate=0.5),
    })
    wedged = next(f"job-{i}" for i in range(100)
                  if plan.decide("pool:worker-wedge", f"job-{i}#1"))
    # the job finished before the crash must not wedge either
    clean, finished = itertools.islice(
        (f"job-{i}" for i in range(100)
         if not plan.decide("pool:worker-wedge", f"job-{i}#1")), 2)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    state = tmp_path / "state"

    first = start_serve(state, "--faults", str(plan_path))
    reaper(first)
    client = wait_for_daemon(state / "service.sock")
    # a completed job before the crash: its result line must survive
    done_before = client.submit(validate_job(finished))
    assert done_before["result"]["status"] == OK
    # one job wedges in-flight, one sits queued behind it
    assert client.submit(validate_job(wedged), wait=False)["ok"]
    assert client.submit(validate_job(clean), wait=False)["ok"]
    time.sleep(0.3)  # let the worker pick up the wedged job

    os.kill(first.pid, signal.SIGKILL)
    first.wait(timeout=10)

    # recovery is from on-disk state alone: journals + lock + segments
    second = start_serve(state)
    reaper(second)
    client = wait_for_daemon(state / "service.sock")
    done = wait_for_results(state / "results.jsonl",
                            {finished, wedged, clean})
    assert done[finished]["status"] == OK
    assert done[wedged]["status"] == OK
    assert done[clean]["status"] == OK
    assert client.stats()["stats"]["replayed"] == 2

    # exactly-once: one result line per job id, no duplicate replays
    ids = [json.loads(line)["id"] for line in
           (state / "results.jsonl").read_text().splitlines()
           if line.strip()]
    assert sorted(ids) == sorted([finished, wedged, clean])

    assert client.shutdown()["ok"]
    assert second.wait(timeout=30) == 0


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc to tell live processes from zombies")
def test_sigkilled_daemon_leaves_no_worker_behind(tmp_path, reaper):
    # one worker idles, the other is wedged mid-job: neither may outlive
    # the daemon that forked it
    plan = FaultPlan(seed=11, points={
        "pool:worker-wedge": FaultSpec(action="delay", seconds=60.0,
                                       rate=0.5),
    })
    wedged = next(f"job-{i}" for i in range(100)
                  if plan.decide("pool:worker-wedge", f"job-{i}#1"))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    state = tmp_path / "state"
    # a repeated --workers overrides start_serve's (argparse: last wins)
    daemon = start_serve(state, "--workers", "2", "--faults", str(plan_path))
    reaper(daemon)
    client = wait_for_daemon(state / "service.sock")
    pids = {worker["pid"] for worker in client.stats()["stats"]["workers"]}
    assert len(pids) == 2
    assert client.submit(validate_job(wedged), wait=False)["ok"]
    time.sleep(0.3)  # let a worker pick up the wedged job

    os.kill(daemon.pid, signal.SIGKILL)
    daemon.wait(timeout=10)
    assert survivors(pids) == set()


def test_persistent_cache_stays_warm_across_kill9(tmp_path, reaper):
    state = tmp_path / "state"
    first = start_serve(state)
    reaper(first)
    client = wait_for_daemon(state / "service.sock")

    cold = client.submit(typecheck_job("tc-cold"), timeout=120.0)
    assert cold["result"]["status"] == OK
    cold_cache = cold["result"]["detail"]["stats"]["cache"]
    assert cold_cache["persistent"]["stores"] > 0
    assert cold_cache["persistent"]["hits"] == 0

    os.kill(first.pid, signal.SIGKILL)
    first.wait(timeout=10)

    second = start_serve(state)
    reaper(second)
    client = wait_for_daemon(state / "service.sock")
    warm = client.submit(typecheck_job("tc-warm"), timeout=120.0)
    assert warm["result"]["status"] == OK
    warm_cache = warm["result"]["detail"]["stats"]["cache"]
    assert warm_cache["persistent"]["hits"] > 0  # served from disk tier
    assert client.shutdown()["ok"]
    assert second.wait(timeout=30) == 0


def test_worker_killed_mid_cache_write_leaves_a_recoverable_cache(
    tmp_path, reaper
):
    # ``cache:torn-write`` crash: the pool worker SIGKILLs *itself*
    # between the fsynced first half of a record and its tail, leaving a
    # genuinely torn segment on disk.  The daemon classifies the job
    # crashed; the next daemon (and its fresh workers) must open the
    # cache cleanly, dropping only the torn tail.
    plan = FaultPlan(points={
        "cache:torn-write": FaultSpec(action="crash", rate=1.0),
    })
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    state = tmp_path / "state"

    first = start_serve(state, "--faults", str(plan_path))
    reaper(first)
    client = wait_for_daemon(state / "service.sock")
    torn = client.submit(typecheck_job("tc-torn"), timeout=120.0)
    assert torn["result"]["status"] == CRASHED
    assert "signal" in torn["result"]["detail"]["error"]
    assert client.shutdown()["ok"]
    assert first.wait(timeout=30) == 0

    second = start_serve(state)
    reaper(second)
    client = wait_for_daemon(state / "service.sock")
    healthy = client.submit(typecheck_job("tc-after"), timeout=120.0)
    assert healthy["result"]["status"] == OK
    stats = client.stats()["stats"]
    assert stats["cache"]["entries"] > 0  # cache is clean and writable
    assert client.shutdown()["ok"]
    assert second.wait(timeout=30) == 0
