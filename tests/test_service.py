"""The typecheck service: pool lifecycle, routing, recycling, drain.

In-process daemons against real forked pool workers, covering the ISSUE
6 satellite explicitly — worker recycling on both triggers (N jobs and
the RSS watermark) and SIGTERM/``shutdown`` drain semantics (in-flight
jobs finish, queued jobs defer to the next daemon, exit is clean) — plus
cache-affinity routing, the per-affinity circuit breaker, the wall-limit
kill of a wedged worker (``pool:worker-wedge``), and the persistent tier
reporting disk hits in a served job's ``stats["cache"]``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.service import (
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
)
from repro.runtime.supervisor import (
    CRASHED,
    OK,
    TIMEOUT,
    TYPE_ERROR,
    USAGE_ERROR,
    JobLimits,
    JobSpec,
    RetryPolicy,
    Supervisor,
    completed_results,
)

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

TINY_DTD = "doc := item*\nitem :="
OTHER_DTD = "doc := leaf*\nleaf :="
IDENTITY_SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="item"><item/></xsl:template>'
)


def validate_job(job_id: str, dtd: str = TINY_DTD,
                 document: str = "<doc><item/></doc>") -> JobSpec:
    return JobSpec(
        id=job_id, kind="validate",
        params={"dtd_text": dtd, "document_text": document},
    )


def typecheck_job(job_id: str) -> JobSpec:
    return JobSpec(
        id=job_id, kind="typecheck",
        params={"stylesheet_text": IDENTITY_SHEET,
                "input_dtd_text": TINY_DTD,
                "output_dtd_text": TINY_DTD,
                "method": "exact"},
    )


@pytest.fixture
def make_daemon(tmp_path):
    daemons = []

    def factory(**kwargs) -> ServiceDaemon:
        kwargs.setdefault("directory", str(tmp_path / "state"))
        daemon = ServiceDaemon(ServiceConfig(**kwargs))
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        if not daemon._stopped.is_set():
            daemon.drain()


def worker_pid(response: dict) -> int:
    return response["result"]["detail"]["worker"]["pid"]


# -- the basic serve loop ----------------------------------------------------


def test_submit_roundtrip_over_the_socket(make_daemon):
    daemon = make_daemon(workers=2)
    client = ServiceClient(daemon.socket_path)

    pong = client.ping()
    assert pong["ok"] and pong["pid"] == os.getpid()

    good = client.submit(validate_job("good"))
    assert good["ok"]
    assert good["result"]["status"] == OK
    assert good["result"]["schema"] == "repro-job-result/v2"

    bad = client.submit(
        validate_job("bad", document="<doc><wrong/></doc>")
    )
    assert bad["result"]["status"] == TYPE_ERROR

    stats = client.stats()["stats"]
    assert stats["served"] == {OK: 1, TYPE_ERROR: 1}
    assert len(stats["workers"]) == 2

    # both results are journaled, exactly once each
    done = completed_results(str(daemon.results_path))
    assert set(done) == {"good", "bad"}


def test_malformed_requests_get_clean_errors(make_daemon):
    daemon = make_daemon(workers=1)
    client = ServiceClient(daemon.socket_path)
    assert not client.request({"op": "nonsense"})["ok"]
    response = client.request({"op": "submit", "job": {"id": "x",
                                                       "kind": "wat"}})
    assert not response["ok"]
    assert "unknown kind" in response["error"]


def test_malformed_submits_are_refused_and_journal_nothing(make_daemon):
    daemon = make_daemon(workers=1)
    # a connection thread that dies holds its socket open until a
    # garbage collection, so the client must not wait forever
    client = ServiceClient(daemon.socket_path, timeout=10)
    job = validate_job("j").to_dict()
    for request in (
        {"job": {**job, "params": ["dtd_text", TINY_DTD]}},
        {"job": {**job, "limits": "x"}},
        {"job": {**job, "limits": {"wall_seconds": "abc"}}},
        {"job": {**job, "retry": "x"}},
        {"job": {**job, "deadline_ms": "soon"}},
        {"job": job, "timeout": "abc"},
        {"job": job, "timeout": [1]},
    ):
        response = client.request({"op": "submit", **request})
        assert response["ok"] is False, request
        assert response["error"], request
        if "timeout" in request:
            assert response["error"].startswith("bad request: timeout")
    # an unhashable status used to crash the request handler
    response = client.request({"op": "submit", "job": {
        **job, "retry": {"retry_on": [["crashed"]]}}})
    assert response["ok"] is False
    assert "retry.retry_on must be a list of statuses" in response["error"]
    assert not daemon.queue_path.exists() \
        or not daemon.queue_path.read_text()
    assert client.ping()["ok"]
    assert client.submit(validate_job("j"))["result"]["status"] == OK


def test_a_string_wait_is_refused_and_journals_nothing(make_daemon):
    daemon = make_daemon(workers=1)
    client = ServiceClient(daemon.socket_path, timeout=10)
    response = client.request({"op": "submit", "wait": "false",
                               "job": validate_job("j").to_dict()})
    assert response["ok"] is False
    assert response["error"] == (
        "bad request: wait must be true or false, got 'false'")
    assert not daemon.queue_path.exists() \
        or not daemon.queue_path.read_text()


def test_malformed_params_leave_the_breaker_closed(make_daemon):
    daemon = make_daemon(workers=1)
    client = ServiceClient(daemon.socket_path, timeout=30)
    bad = typecheck_job("bad").to_dict()
    bad["params"]["max_steps"] = "abc"
    for attempt in range(daemon.config.breaker_threshold):
        response = client.submit({**bad, "id": f"bad-{attempt}"})
        assert response["result"]["status"] == USAGE_ERROR, response
        assert "max_steps" in response["result"]["detail"]["error"]
    assert daemon._breaker.snapshot()["open"] == []
    good = client.submit(typecheck_job("good"))
    assert good["result"]["status"] == OK, good
    assert "fast_failed" not in good


def test_an_unexpected_handler_error_is_answered(make_daemon, capsys):
    daemon = make_daemon(workers=1)

    def broken(request):
        raise RuntimeError("handler bug")

    daemon._dispatch = broken
    client = ServiceClient(daemon.socket_path, timeout=5)
    started = time.monotonic()
    try:
        response = client.ping()
    finally:
        del daemon._dispatch
    assert time.monotonic() - started < 2.0
    assert response["ok"] is False
    assert response["error"] == "internal error: RuntimeError('handler bug')"
    assert "RuntimeError: handler bug" in capsys.readouterr().err
    assert client.ping()["ok"]


def test_client_raises_service_error_when_no_daemon(tmp_path):
    client = ServiceClient(tmp_path / "nothing.sock")
    with pytest.raises(ServiceError):
        client.ping()


def test_second_daemon_on_same_directory_is_refused(make_daemon, tmp_path):
    make_daemon(workers=1)
    contender = ServiceDaemon(ServiceConfig(
        directory=str(tmp_path / "state"),
        socket_path=str(tmp_path / "other.sock"),
    ))
    with pytest.raises(ServiceError, match="another daemon"):
        contender.start()


# -- affinity routing --------------------------------------------------------


def test_same_affinity_jobs_land_on_the_same_worker(make_daemon):
    daemon = make_daemon(workers=4)
    client = ServiceClient(daemon.socket_path)
    pids = {
        worker_pid(client.submit(validate_job(f"same-{i}")))
        for i in range(6)
    }
    assert len(pids) == 1  # every job found the warm worker


def test_affinity_key_depends_on_input_content(make_daemon):
    daemon = make_daemon(workers=2)
    slot_a = daemon._slot_for("typecheck:aaaa")
    assert slot_a == daemon._slot_for("typecheck:aaaa")  # deterministic
    jobs = [validate_job("a", dtd=TINY_DTD),
            validate_job("b", dtd=OTHER_DTD)]
    from repro.runtime.jobs import affinity_key
    keys = {affinity_key(spec.to_dict()) for spec in jobs}
    assert len(keys) == 2


def test_one_affinity_key_per_admitted_job(make_daemon, monkeypatch,
                                           tmp_path):
    from repro.runtime import service

    keys: list[str] = []

    def numbered(payload):
        # numbered per call, so a key derived again after admission
        # (from path inputs that may have changed) would show
        keys.append(f"{affinity_key(payload)}#{len(keys)}")
        return keys[-1]

    affinity_key = service.affinity_key
    monkeypatch.setattr(service, "affinity_key", numbered)
    daemon = make_daemon(workers=1)
    filed: list[tuple] = []
    for name in ("_costs", "_breaker"):
        table = getattr(daemon, name)

        def spy(key, value, name=name, record=table.record):
            filed.append((name, key))
            record(key, value)

        monkeypatch.setattr(table, "record", spy)
    sheet, dtd = tmp_path / "identity.xsl", tmp_path / "tiny.dtd"
    sheet.write_text(IDENTITY_SHEET)
    dtd.write_text(TINY_DTD)
    client = ServiceClient(daemon.socket_path)
    for i in range(2):
        spec = JobSpec(id=f"paths-{i}", kind="typecheck",
                       params={"stylesheet": str(sheet),
                               "input_dtd": str(dtd),
                               "output_dtd": str(dtd)})
        assert client.submit(spec)["result"]["status"] == OK
    assert len(keys) == 2
    assert filed == [("_costs", keys[0]), ("_breaker", keys[0]),
                     ("_costs", keys[1]), ("_breaker", keys[1])]


# -- worker recycling --------------------------------------------------------


def test_worker_recycled_after_n_jobs(make_daemon):
    daemon = make_daemon(workers=1, recycle_jobs=2)
    client = ServiceClient(daemon.socket_path)
    pids = [worker_pid(client.submit(validate_job(f"n-{i}")))
            for i in range(4)]
    # jobs 1-2 on the first incarnation, 3-4 on its replacement
    assert pids[0] == pids[1]
    assert pids[2] == pids[3]
    assert pids[1] != pids[2]
    stats = client.stats()["stats"]
    assert stats["workers"][0]["recycles"] == 2


def test_worker_recycled_at_rss_watermark(make_daemon):
    # a 1-byte watermark: every job's worker exceeds it immediately
    daemon = make_daemon(workers=1, recycle_rss_bytes=1)
    client = ServiceClient(daemon.socket_path)
    first = worker_pid(client.submit(validate_job("w-1")))
    second = worker_pid(client.submit(validate_job("w-2")))
    assert first != second
    assert client.stats()["stats"]["workers"][0]["recycles"] >= 1


# -- supervision: wedge, crash, breaker --------------------------------------


def test_wall_limit_kills_wedged_worker_and_pool_recovers(make_daemon):
    plan = FaultPlan(seed=3, points={
        "pool:worker-wedge": FaultSpec(action="delay", seconds=30.0,
                                       rate=0.5),
    })
    wedged = next(f"wedge-{i}" for i in range(100)
                  if plan.decide("pool:worker-wedge", f"wedge-{i}#1"))
    clean = next(f"wedge-{i}" for i in range(100)
                 if not plan.decide("pool:worker-wedge", f"wedge-{i}#1"))
    daemon = make_daemon(workers=1, fault_plan=plan,
                         limits=JobLimits(wall_seconds=0.5))
    client = ServiceClient(daemon.socket_path)

    stuck = client.submit(JobSpec(id=wedged, **_valid_params()))
    assert stuck["result"]["status"] == TIMEOUT
    assert stuck["result"]["history"][0]["killed_by"] == "wall-limit"

    healthy = client.submit(JobSpec(id=clean, **_valid_params()))
    assert healthy["result"]["status"] == OK  # respawned and serving
    assert client.stats()["stats"]["workers"][0]["respawns"] >= 1


def _valid_params() -> dict:
    return {
        "kind": "validate",
        "params": {"dtd_text": TINY_DTD,
                   "document_text": "<doc><item/></doc>"},
    }


def test_breaker_fast_fails_a_repeatedly_lethal_input(make_daemon):
    plan = FaultPlan(points={
        "pool:worker-wedge": FaultSpec(action="crash", rate=1.0),
    })
    daemon = make_daemon(workers=1, fault_plan=plan, breaker_threshold=2,
                         backoff_base=0.01)
    client = ServiceClient(daemon.socket_path)

    first = client.submit(validate_job("lethal-1"))
    assert first["result"]["status"] == CRASHED
    assert "signal" in first["result"]["detail"]["error"]
    second = client.submit(validate_job("lethal-2"))
    assert second["result"]["status"] == CRASHED

    # the third identical input never reaches a worker
    third = client.submit(validate_job("lethal-3"))
    assert third.get("fast_failed")
    assert third["result"]["status"] == CRASHED
    assert third["result"]["attempts"] == 0
    assert "circuit breaker" in third["result"]["detail"]["error"]
    stats = client.stats()["stats"]
    assert stats["breaker"]["fast_failed"] == 1
    assert len(stats["breaker"]["open"]) == 1
    # fast-fails are final: journaled like any other outcome
    assert completed_results(str(daemon.results_path))[
        "lethal-3"]["status"] == CRASHED


# -- one executor, one retry loop --------------------------------------------

#: ``worker:result`` crashes about half the attempts under this plan.
FLAKY = FaultPlan(seed=5, points={
    "worker:result": FaultSpec(action="crash", rate=0.5),
})


def flaky_job(retry: RetryPolicy) -> JobSpec:
    """A validate job whose first attempt crashes and whose second
    does not, under :data:`FLAKY`."""
    job_id = next(
        f"flaky-{i}" for i in range(200)
        if FLAKY.decide("worker:result", f"flaky-{i}#1")
        and not FLAKY.decide("worker:result", f"flaky-{i}#2")
    )
    return JobSpec(id=job_id, kind="validate",
                   params=validate_job(job_id).params, retry=retry)


def test_same_job_same_outcome_through_serve_and_batch(make_daemon):
    spec = flaky_job(RetryPolicy(max_attempts=3))
    daemon = make_daemon(workers=1, fault_plan=FLAKY)
    served = ServiceClient(daemon.socket_path).submit(spec)["result"]
    batched = Supervisor(fault_plan=FLAKY).run_batch([spec]).results[0]
    for result in (served, batched.to_jsonable()):
        assert result["status"] == OK
        assert result["attempts"] == 2
        assert [entry["status"] for entry in result["history"]] == [
            CRASHED, OK]

    # the jobs of one batch slot all run on that slot's one worker
    report = Supervisor().run_batch(
        [validate_job(f"steady-{i}") for i in range(8)], workers=1
    )
    assert report.by_status == {OK: 8}
    assert len({result.detail["worker"]["pid"]
                for result in report.results}) == 1


def test_retry_delay_and_respawn_backoff_overlap(make_daemon):
    # both waits are 1s: the retry must pause once, not for 1s + 1s
    spec = flaky_job(RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0))
    daemon = make_daemon(workers=1, fault_plan=FLAKY, backoff_base=1.0,
                         backoff_cap=1.0)
    result = daemon.submit(spec)["result"]
    assert result["status"] == OK and result["attempts"] == 2
    assert 1.0 <= result["wall_seconds"] < 1.8


def _address_space_limit(pid: int) -> str:
    with open(f"/proc/{pid}/limits", encoding="ascii") as handle:
        line = next(row for row in handle if row.startswith(
            "Max address space"))
    return line.split()[3]  # the soft limit


@pytest.mark.skipif(not os.path.exists("/proc/self/limits"),
                    reason="needs /proc/<pid>/limits")
def test_pool_worker_arms_its_backstop_per_job(make_daemon):
    plan = FaultPlan(points={
        "pool:worker-wedge": FaultSpec(action="delay", seconds=0.6),
    })
    daemon = make_daemon(workers=1, fault_plan=plan)
    (worker,) = daemon.stats()["workers"]
    unarmed = _address_space_limit(worker["pid"])
    rss = 1024 * 1024 * 1024  # far above any worker's real footprint
    for limits, expected in ((JobLimits(rss_bytes=rss),
                              str(rss * 4 + 256 * 1024 * 1024)),
                             (None, unarmed)):
        spec = JobSpec(id=f"backstop-{expected}", kind="validate",
                       params=validate_job("x").params, limits=limits)
        assert daemon.submit(spec, wait=False)["ok"]
        time.sleep(0.3)  # the job is wedged with its limit armed
        assert _address_space_limit(worker["pid"]) == expected
        deadline = time.monotonic() + 20.0
        while spec.id not in completed_results(str(daemon.results_path)):
            assert time.monotonic() < deadline
            time.sleep(0.05)


# -- drain semantics ---------------------------------------------------------


def test_drain_finishes_in_flight_and_defers_queued(make_daemon, tmp_path):
    plan = FaultPlan(points={
        "pool:worker-wedge": FaultSpec(action="delay", seconds=0.6,
                                       rate=1.0),
    })
    daemon = make_daemon(workers=1, fault_plan=plan)
    in_flight = daemon.submit(validate_job("in-flight"), wait=False)
    queued = daemon.submit(validate_job("queued"), wait=False)
    assert in_flight == {"ok": True, "queued": "in-flight"}
    assert queued == {"ok": True, "queued": "queued"}

    time.sleep(0.15)  # let the worker pick up the first job
    daemon.drain()
    assert daemon._stopped.is_set()

    done = completed_results(str(daemon.results_path))
    assert done["in-flight"]["status"] == OK  # finished, not abandoned
    assert "queued" not in done  # deferred, not silently dropped

    # a submission *during* drain is journaled and acknowledged deferred
    late = daemon.submit(validate_job("late"))
    assert late == {"ok": True, "deferred": True, "id": "late"}

    # the next daemon replays exactly the deferred jobs
    second = ServiceDaemon(ServiceConfig(directory=str(tmp_path / "state")))
    info = second.start()
    try:
        assert info["replayed"] == 2
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            done = completed_results(str(second.results_path))
            if {"queued", "late"} <= set(done):
                break
            time.sleep(0.05)
        assert done["queued"]["status"] == OK
        assert done["late"]["status"] == OK
    finally:
        second.drain()
    # exactly-once: one result line per job across both daemon lives —
    # the replay did not re-execute the already-completed in-flight job
    lines = [line for line in
             second.results_path.read_text().splitlines() if line.strip()]
    assert len(lines) == 3


def test_sigterm_drains_the_daemon_to_a_clean_exit(tmp_path):
    state = tmp_path / "state"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(state),
         "--workers", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])
             )},
    )
    try:
        client = ServiceClient(state / "service.sock")
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            try:
                client.ping()
                break
            except ServiceError:
                time.sleep(0.05)
        else:
            pytest.fail("daemon never came up")
        assert client.submit(validate_job("before-term"))[
            "result"]["status"] == OK
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=20) == 0  # graceful drain exits 0
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
            process.wait(timeout=10)
    assert not (state / "service.sock").exists()  # socket tidied away
    done = completed_results(str(state / "results.jsonl"))
    assert done["before-term"]["status"] == OK


# -- the persistent tier, as seen by served jobs -----------------------------


def test_recycled_worker_reports_disk_cache_hits(make_daemon):
    # a fresh worker starts with an empty memo table, so the second
    # job's lookups fall through to the persistent tier and are counted
    # there
    daemon = make_daemon(workers=1, recycle_jobs=1)
    client = ServiceClient(daemon.socket_path)

    cold = client.submit(typecheck_job("tc-cold"), timeout=120.0)
    assert cold["result"]["status"] == OK
    cold_cache = cold["result"]["detail"]["stats"]["cache"]
    assert cold_cache["persistent"]["stores"] > 0

    warm = client.submit(typecheck_job("tc-warm"), timeout=120.0)
    assert warm["result"]["status"] == OK
    warm_cache = warm["result"]["detail"]["stats"]["cache"]
    assert worker_pid(cold) != worker_pid(warm)  # really a fresh fork
    assert warm_cache["persistent"]["hits"] > 0

    stats = client.stats()["stats"]
    assert stats["cache"]["entries"] > 0
