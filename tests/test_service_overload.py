"""Overload robustness: admission control, deadlines, brownout (ISSUE 8).

In-process daemons against real forked pool workers, like
``test_service.py``, but driven past capacity on purpose: bounded
backlogs shedding instead of queueing, ``deadline_ms`` propagation
(predicted-overrun at admission, expiry in queue, the cooperative
deadline inside the worker), the brownout pressure ladder and the
``health`` verb, slow-client socket timeouts, and the acceptance chaos
test — a 10× capacity burst that must crash nothing, journal every
admitted job exactly once, shed the rest explicitly, and recover to
``ready``.  The ``_CircuitBreaker`` half-open property test (hypothesis)
and the ``_LoadController`` / ``_CostEstimator`` unit tests live here
too, on virtual clocks.
"""

from __future__ import annotations

import json
import os
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EXIT_SHED
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.governor import clamp_timeout
from repro.runtime.jobs import affinity_key
from repro.runtime.service import (
    PRESSURE_LEVELS,
    QUEUE_SCHEMA,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    _CircuitBreaker,
    _CostEstimator,
    _LoadController,
)
from repro.runtime.supervisor import (
    OK,
    SHED,
    USAGE_ERROR,
    JobSpec,
    RetryPolicy,
    Supervisor,
    completed_results,
)
from repro.runtime.trace import Histogram

from test_service import (  # noqa: F401
    TINY_DTD,
    make_daemon,
    typecheck_job,
    validate_job,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def submit_burst(daemon: ServiceDaemon, count: int, *,
                 prefix: str = "burst") -> tuple[list[str], list[str]]:
    """Fire ``count`` non-waiting submissions; (admitted ids, shed ids)."""
    admitted, shed = [], []
    for index in range(count):
        spec = validate_job(f"{prefix}-{index}")
        response = daemon.submit(spec, wait=False)
        assert response["ok"]
        if response.get("queued"):
            admitted.append(spec.id)
        else:
            assert response["result"]["status"] == SHED
            shed.append(spec.id)
    return admitted, shed


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


# -- admission control -------------------------------------------------------


def test_zero_backlog_sheds_everything(make_daemon):
    daemon = make_daemon(workers=1, max_backlog=0, brownout=False)
    response = daemon.submit(validate_job("refused"))
    assert response["ok"] and response["shed"] == "backlog"
    result = response["result"]
    assert result["status"] == SHED
    assert result["attempts"] == 0
    assert result["detail"]["shed"] == "backlog"
    # the shed is journaled (results log), but never queued for replay
    assert "refused" in completed_results(str(daemon.results_path))
    assert daemon.queue_path.read_text() == ""
    assert daemon.stats()["shed"] == {"backlog": 1}


def test_backlog_cap_sheds_beyond_capacity_under_a_storm(make_daemon):
    # a delay at pool:backlog-storm stalls the single slot, so the
    # burst piles up against max_backlog deterministically
    plan = FaultPlan(points={
        "pool:backlog-storm": FaultSpec(action="delay", seconds=0.2),
    })
    daemon = make_daemon(workers=1, max_backlog=2, brownout=False,
                         fault_plan=plan)
    admitted, shed = submit_burst(daemon, 8)
    assert shed, "a 4x-capacity burst must shed"
    # bounded memory by construction: never more than the cap in queue
    assert daemon._queues[0].qsize() <= 2
    wait_until(lambda: set(admitted) <= set(
        completed_results(str(daemon.results_path))))
    done = completed_results(str(daemon.results_path))
    for job_id in admitted:
        assert done[job_id]["status"] == OK
    for job_id in shed:
        assert done[job_id]["status"] == SHED


def test_replay_is_never_shed_by_the_backlog_cap(make_daemon, tmp_path):
    # admitted-and-journaled work survives a restart even when the new
    # daemon's cap is smaller than the replayed backlog
    directory = tmp_path / "replay-state"
    directory.mkdir()
    with open(directory / "queue.jsonl", "w", encoding="utf-8") as handle:
        for index in range(4):
            spec = validate_job(f"replay-{index}")
            handle.write(json.dumps(
                {"schema": QUEUE_SCHEMA, "spec": spec.to_dict()}
            ) + "\n")
    daemon = make_daemon(directory=str(directory), workers=1, max_backlog=1,
                         brownout=False)
    assert daemon.replayed == 4
    wait_until(lambda: len(
        completed_results(str(daemon.results_path))) == 4)


# -- deadline propagation ----------------------------------------------------


def test_predicted_overrun_sheds_without_touching_a_worker(make_daemon):
    daemon = make_daemon(workers=1, brownout=False)
    # teach the cost model that this affinity key costs ~100ms
    spec = validate_job("teacher")
    assert daemon.submit(spec)["result"]["status"] == OK
    daemon._costs.record(affinity_key(spec.to_dict()), 0.1)
    jobs_before = [w["jobs_done"] for w in daemon.stats()["workers"]]
    response = daemon.submit(JobSpec(
        id="hopeless", kind="validate",
        params={"dtd_text": TINY_DTD, "document_text": "<doc><item/></doc>"},
        deadline_ms=1.0,
    ))
    assert response["shed"] == "predicted-overrun"
    assert response["result"]["status"] == SHED
    assert response["result"]["attempts"] == 0
    # no worker ran anything for it
    assert [w["jobs_done"] for w in daemon.stats()["workers"]] == jobs_before
    assert daemon.stats()["shed"] == {"predicted-overrun": 1}


def test_deadline_expires_in_queue_without_burning_a_worker(make_daemon):
    # the job:deadline-expired delay makes the queue wait outlive the
    # deadline after admission but before execution
    plan = FaultPlan(points={
        "job:deadline-expired": FaultSpec(action="delay", seconds=0.3),
    })
    daemon = make_daemon(workers=1, brownout=False, fault_plan=plan)
    response = daemon.submit(JobSpec(
        id="expired", kind="validate",
        params={"dtd_text": TINY_DTD, "document_text": "<doc><item/></doc>"},
        deadline_ms=50.0,
    ))
    result = response["result"]
    assert result["status"] == SHED
    assert result["detail"]["shed"] == "deadline-expired"
    assert result["attempts"] == 0
    # journaled exactly once, with the shed outcome
    assert completed_results(
        str(daemon.results_path))["expired"]["status"] == SHED


def test_generous_deadline_still_serves(make_daemon):
    daemon = make_daemon(workers=1, brownout=False)
    response = daemon.submit(JobSpec(
        id="roomy", kind="validate",
        params={"dtd_text": TINY_DTD, "document_text": "<doc><item/></doc>"},
        deadline_ms=30_000.0,
    ))
    assert response["result"]["status"] == OK


def test_supervisor_sheds_expired_deadline_without_forking():
    supervisor = Supervisor(retry=RetryPolicy(max_attempts=1))
    spec = JobSpec(
        id="instant", kind="validate",
        params={"dtd_text": TINY_DTD, "document_text": "<doc/>"},
        deadline_ms=0.001,  # a microsecond: expired before the attempt
    )
    time.sleep(0.01)
    result = supervisor.run_job(spec)
    assert result.status == SHED
    assert result.detail["shed"] == "deadline-expired"


def test_jobspec_deadline_round_trips_and_validates():
    spec = JobSpec(id="j", kind="validate", params={"dtd_text": "a :="},
                   deadline_ms=250.0)
    assert JobSpec.from_dict(spec.to_dict()).deadline_ms == 250.0
    # flat manifests must not absorb deadline_ms into params
    flat = {"id": "j", "kind": "validate", "dtd_text": "a :=",
            "deadline_ms": 125.0}
    parsed = JobSpec.from_dict(flat)
    assert parsed.deadline_ms == 125.0
    assert "deadline_ms" not in parsed.params
    with pytest.raises(Exception):
        JobSpec(id="j", kind="validate", deadline_ms=-1.0)


def test_clamp_timeout_keeps_cooperative_headroom():
    assert clamp_timeout(None, None) is None
    assert clamp_timeout(5.0, None) == 5.0
    assert clamp_timeout(None, 1.0) == pytest.approx(0.8)
    assert clamp_timeout(0.5, 1.0) == 0.5
    assert clamp_timeout(5.0, 1.0) == pytest.approx(0.8)
    assert clamp_timeout(5.0, -2.0) == 0.0


# -- brownout ----------------------------------------------------------------


def test_load_controller_escalates_fast_and_relaxes_slowly():
    clock = [0.0]
    controller = _LoadController(
        capacity=10, latency_budget=1.0, dwell=3, clock=lambda: clock[0]
    )
    assert controller.evaluate(0) == 0
    assert controller.evaluate(7) == 2       # 70% utilization: bounded-only
    assert controller.evaluate(10) == 3      # saturated: shed-new
    # stepping down needs `dwell` consecutive calm samples, one level
    # at a time — no flapping
    for _ in range(2):
        assert controller.evaluate(0) == 3
    assert controller.evaluate(0) == 2
    for _ in range(2):
        assert controller.evaluate(0) == 2
    assert controller.evaluate(0) == 1
    names = [t["to"] for t in controller.transitions]
    assert names == ["bounded-only", "shed-new", "bounded-only", "tightened"]
    assert all(t["to"] in PRESSURE_LEVELS for t in controller.transitions)


def test_load_controller_latency_signal_decays_with_the_window():
    clock = [0.0]
    controller = _LoadController(
        capacity=100, latency_budget=0.5, window=5.0, dwell=1,
        clock=lambda: clock[0],
    )
    controller.observe_wait(3.0)             # p95 >> 2x budget
    assert controller.evaluate(0) == 2
    clock[0] = 10.0                          # the sample ages out
    assert controller.p95_wait() == 0.0
    assert controller.evaluate(0) == 1       # one calm sample: step down
    assert controller.evaluate(0) == 0


def test_brownout_reaches_shed_new_and_health_recovers(make_daemon):
    plan = FaultPlan(points={
        "pool:backlog-storm": FaultSpec(action="delay", seconds=0.1),
    })
    daemon = make_daemon(
        workers=1, max_backlog=4, brownout=False, fault_plan=plan,
    )
    # drive the controller synchronously (no sampling thread) so the
    # pressure path is deterministic
    daemon._controller = _LoadController(
        capacity=4, latency_budget=0.05, interval=0.05, dwell=1,
    )
    assert daemon.health()["health"] == "ready"
    daemon._controller.evaluate(4)           # saturated: shed-new
    assert daemon.health()["health"] == "overloaded"
    response = daemon.submit(validate_job("browned-out"))
    assert response["shed"] == "overload"
    assert response["result"]["status"] == SHED
    daemon._controller.evaluate(0)           # calm: one step down
    assert daemon.health()["health"] == "degraded"
    daemon._controller.evaluate(0)
    daemon._controller.evaluate(0)
    assert daemon.health()["health"] == "ready"
    assert daemon.submit(validate_job("served-again"))[
        "result"]["status"] == OK


def test_a_malformed_timeout_under_brownout_is_a_usage_error(make_daemon):
    # at pressure >= 1 the slot thread clamps each job's timeout to the
    # latency budget; a malformed one must reach the worker (which
    # answers usage-error) instead of ending the slot thread
    daemon = make_daemon(workers=1, brownout=False)
    daemon._controller = _LoadController(
        capacity=10, latency_budget=2.0, dwell=100,
    )
    assert daemon._controller.evaluate(3) == 1  # tightened, held
    bad = typecheck_job("bad-timeout")
    bad = JobSpec(id=bad.id, kind=bad.kind,
                  params={**bad.params, "timeout": "abc"})
    response = daemon.submit(bad, timeout=30.0)
    assert response["ok"], response
    assert response["result"]["status"] == USAGE_ERROR
    assert "timeout must be a finite number" in (
        response["result"]["detail"]["error"])
    # the slot thread lives on: the next job on the one slot is answered
    after = daemon.submit(validate_job("after-bad-timeout"), timeout=30.0)
    assert after["ok"], after
    assert after["result"]["status"] == OK


def test_health_verb_over_the_socket(make_daemon):
    daemon = make_daemon(workers=1)
    client = ServiceClient(daemon.socket_path)
    response = client.health()
    assert response["ok"]
    assert response["health"] == "ready"
    assert response["pressure"]["level"] == "ready"
    assert response["pressure"]["transitions"] == []


# -- the acceptance chaos test -----------------------------------------------


def test_overload_burst_10x_no_crash_exactly_once_and_recovery(make_daemon):
    """ISSUE 8 acceptance: 10x capacity burst against a 2-worker daemon."""
    plan = FaultPlan(points={
        "pool:backlog-storm": FaultSpec(action="delay", seconds=0.05),
    })
    daemon = make_daemon(
        workers=2, max_backlog=4, brownout=True, latency_budget=0.2,
        controller_interval=0.05, fault_plan=plan,
    )
    capacity = 2 * 4
    admitted, shed = submit_burst(daemon, 10 * capacity)
    assert len(admitted) + len(shed) == 10 * capacity
    assert shed, "a 10x burst must shed"
    assert admitted, "admission control must still admit up to capacity"
    # bounded memory: the queues never hold more than the caps allow
    assert all(q.qsize() <= 4 for q in daemon._queues)
    # the daemon survives and keeps answering while loaded
    client = ServiceClient(daemon.socket_path)
    assert client.ping()["ok"]
    assert client.health()["health"] in ("ready", "degraded", "overloaded")
    # every admitted job drains to a journaled result
    wait_until(lambda: set(admitted) <= set(
        completed_results(str(daemon.results_path))), timeout=60.0)
    raw = daemon.results_path.read_text().splitlines()
    by_id: dict[str, int] = {}
    for line in raw:
        record = json.loads(line)
        by_id[record["id"]] = by_id.get(record["id"], 0) + 1
    for job_id in admitted:
        assert by_id[job_id] == 1, f"{job_id} journaled {by_id[job_id]}x"
    done = completed_results(str(daemon.results_path))
    for job_id in admitted:
        assert done[job_id]["status"] != SHED
    for job_id in shed:
        assert done[job_id]["status"] == SHED
    # and health returns to ready once the burst has drained
    wait_until(lambda: client.health()["health"] == "ready", timeout=30.0)
    stats = daemon.stats()
    assert stats["shed"].get("backlog", 0) + stats["shed"].get(
        "overload", 0) == len(shed)
    # no worker crashed: both slots alive, zero respawns
    assert all(w["alive"] for w in stats["workers"])
    assert sum(w["respawns"] for w in stats["workers"]) == 0


# -- slow clients ------------------------------------------------------------


def test_slow_client_is_disconnected_by_the_socket_timeout(make_daemon):
    daemon = make_daemon(workers=1, client_timeout=0.3)
    slow = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    slow.connect(str(daemon.socket_path))
    slow.settimeout(5.0)
    started = time.monotonic()
    # send nothing: the daemon must cut us off, not wait forever
    assert slow.recv(1) == b""
    assert time.monotonic() - started < 3.0
    slow.close()
    # and the daemon still serves the next, well-behaved client
    client = ServiceClient(daemon.socket_path)
    assert client.ping()["ok"]


def test_client_slow_read_fault_point_delays_one_handler(make_daemon):
    plan = FaultPlan(points={
        "client:slow-read": FaultSpec(action="delay", seconds=0.2),
    })
    daemon = make_daemon(workers=1, fault_plan=plan)
    client = ServiceClient(daemon.socket_path)
    started = time.monotonic()
    assert client.ping()["ok"]
    assert time.monotonic() - started >= 0.2


# -- the cost model ----------------------------------------------------------


def test_cost_estimator_ewma_and_persistence(tmp_path):
    path = tmp_path / "costs.json"
    estimator = _CostEstimator(path)
    assert estimator.estimate("k") is None
    estimator.record("k", 1.0)
    assert estimator.estimate("k") == 1.0
    estimator.record("k", 2.0)
    assert estimator.estimate("k") == pytest.approx(1.3)
    estimator.save()
    reloaded = _CostEstimator(path)
    assert reloaded.estimate("k") == pytest.approx(1.3)
    # a torn/garbage file starts cold instead of crashing the daemon
    path.write_text("{not json")
    assert _CostEstimator(path).estimate("k") is None


def test_cost_estimator_table_stays_bounded(tmp_path):
    estimator = _CostEstimator(tmp_path / "costs.json")
    for index in range(_CostEstimator.MAX_KEYS + 10):
        estimator.record(f"key-{index}", 0.5)
    assert len(estimator) <= _CostEstimator.MAX_KEYS
    # the most recently used keys survive the prune
    assert estimator.estimate(f"key-{_CostEstimator.MAX_KEYS + 9}") == 0.5


def test_daemon_persists_costs_across_restart(make_daemon, tmp_path):
    directory = str(tmp_path / "cost-state")
    first = make_daemon(directory=directory, workers=1, brownout=False)
    assert first.submit(validate_job("warm"))["result"]["status"] == OK
    assert len(first._costs) == 1
    first.drain()
    second = make_daemon(directory=directory, workers=1, brownout=False)
    assert len(second._costs) == 1


# -- the circuit breaker half-open property (hypothesis) ---------------------


@given(
    events=st.lists(
        st.sampled_from(["fail", "ok", "allow", "tick"]),
        min_size=1, max_size=60,
    ),
    threshold=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_breaker_never_stays_open_past_cooldown_plus_success(
        events, threshold):
    """Whatever interleaving got the breaker open: once the cooldown has
    elapsed, allow() admits a half-open trial, and recording a success
    closes the circuit — the breaker is never permanently open."""
    clock = [0.0]
    breaker = _CircuitBreaker(threshold, cooldown=10.0,
                              clock=lambda: clock[0])
    for event in events:
        if event == "fail":
            breaker.record("key", "crashed")
        elif event == "ok":
            breaker.record("key", "ok")
        elif event == "allow":
            breaker.allow("key")
        else:
            clock[0] += 3.0
    # cooldown elapses, the half-open trial runs and succeeds...
    clock[0] += breaker.cooldown + 1.0
    assert breaker.allow("key"), "half-open must admit a trial"
    breaker.record("key", "ok")
    # ...and the circuit is closed for good until new failures accrue
    for _ in range(3):
        assert breaker.allow("key")


@given(fails=st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_breaker_reopens_on_half_open_failure(fails):
    clock = [0.0]
    breaker = _CircuitBreaker(2, cooldown=5.0, clock=lambda: clock[0])
    for _ in range(max(2, fails)):
        breaker.record("key", "timeout")
    assert not breaker.allow("key")
    clock[0] += 6.0
    assert breaker.allow("key")              # half-open trial
    breaker.record("key", "oom")             # trial fails...
    assert not breaker.allow("key")          # ...re-open immediately


# -- the CLI: retryable exit code and the health verb ------------------------


def test_cli_submit_exits_retryable_on_shed(make_daemon, tmp_path, capsys):
    from repro.cli import main

    daemon = make_daemon(workers=1, max_backlog=0, brownout=False)
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        json.dumps(validate_job("cli-shed").to_dict()) + "\n"
    )
    code = main(["submit", str(manifest),
                 "--socket", str(daemon.socket_path)])
    assert code == EXIT_SHED
    out = capsys.readouterr()
    assert '"status": "shed"' in out.out
    assert "shed=1" in out.err


def test_cli_submit_deadline_ms_flag_round_trips(make_daemon, tmp_path,
                                                 capsys):
    from repro.cli import main

    daemon = make_daemon(workers=1, brownout=False)
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        json.dumps(validate_job("cli-roomy").to_dict()) + "\n"
    )
    code = main(["submit", str(manifest), "--deadline-ms", "30000",
                 "--socket", str(daemon.socket_path)])
    assert code == 0
    assert '"status": "ok"' in capsys.readouterr().out


def test_cli_health_exit_codes(make_daemon, capsys):
    from repro.cli import main

    daemon = make_daemon(workers=1, brownout=False)
    daemon._controller = _LoadController(capacity=4, latency_budget=1.0)
    assert main(["submit", "--socket", str(daemon.socket_path),
                 "--health"]) == 0
    assert '"health": "ready"' in capsys.readouterr().out
    daemon._controller.evaluate(4)  # saturate: shed-new / overloaded
    assert main(["submit", "--socket", str(daemon.socket_path),
                 "--health"]) == EXIT_SHED
    assert '"health": "overloaded"' in capsys.readouterr().out


# -- metrics -----------------------------------------------------------------


def test_histogram_percentiles_are_windowed():
    histogram = Histogram()
    assert histogram.percentile(95) is None
    for value in range(1, 101):
        histogram.observe(float(value))
    assert histogram.percentile(50) == pytest.approx(50.0)
    assert histogram.percentile(95) == pytest.approx(95.0)
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0
    snapshot = histogram.to_jsonable()
    assert snapshot["p50"] == pytest.approx(50.0)
    assert snapshot["p95"] == pytest.approx(95.0)
    # the window slides: old observations stop influencing percentiles
    for _ in range(Histogram.WINDOW):
        histogram.observe(1000.0)
    assert histogram.percentile(50) == 1000.0
    assert histogram.min == 1.0 and histogram.count == 100 + Histogram.WINDOW
