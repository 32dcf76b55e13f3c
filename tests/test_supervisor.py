"""Supervised execution: isolation, hard limits, classification, retry.

Covers the :mod:`repro.runtime.supervisor` contract attempt by attempt:
every outcome lands in exactly one taxonomy bucket, hard limits SIGKILL
(they do not cooperate), retries follow the declarative policy, and
degradation rewrites resource-killed jobs into bounded, budgeted ones.
Fault injection (:mod:`repro.runtime.faults`) provides the failures.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    EXIT_CRASHED,
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_TYPE_ERROR,
    EXIT_USAGE,
    SupervisorError,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.supervisor import (
    CRASHED,
    EXHAUSTED,
    OK,
    OOM,
    TIMEOUT,
    TYPE_ERROR,
    USAGE_ERROR,
    BatchReport,
    JobLimits,
    JobResult,
    JobSpec,
    RetryPolicy,
    Supervisor,
    _degraded,
    completed_job_ids,
    completed_results,
    load_manifest,
)

TINY_DTD = "doc := item*\nitem :="
VALID_PARAMS = {"dtd_text": TINY_DTD, "document_text": "<doc><item/></doc>"}
INVALID_PARAMS = {"dtd_text": TINY_DTD, "document_text": "<doc><bad/></doc>"}

IDENTITY_SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="item"><item/></xsl:template>'
)


def validate_spec(job_id: str, params=None) -> JobSpec:
    return JobSpec(id=job_id, kind="validate",
                   params=dict(params or VALID_PARAMS))


# -- classification ----------------------------------------------------------


def test_ok_job_classified_ok():
    result = Supervisor().run_job(validate_spec("v-ok"))
    assert result.status == OK
    assert result.ok
    assert result.attempts == 1
    assert result.history[0]["kind"] == "validate"


def test_validation_failure_is_type_error_not_crash():
    result = Supervisor().run_job(validate_spec("v-bad", INVALID_PARAMS))
    assert result.status == TYPE_ERROR
    assert result.detail["errors"][0]["message"].startswith(
        "undeclared element"
    )


def test_malformed_input_is_usage_error():
    spec = JobSpec(
        id="v-usage",
        kind="validate",
        params={"dtd_text": ":= nonsense", "document_text": "<a/>"},
    )
    result = Supervisor().run_job(spec)
    assert result.status == USAGE_ERROR
    assert result.detail["error_type"] == "DTDError"


def test_unreadable_input_is_usage_error_not_retried(tmp_path):
    # a path that cannot be read is the caller's mistake, not a crash:
    # it is not retried and does not count against the worker
    missing = str(tmp_path / "missing.xsl")
    params = {"stylesheet": missing, "input_dtd_text": TINY_DTD,
              "output_dtd_text": TINY_DTD}
    spec = JobSpec(id="tc-missing", kind="typecheck", params=params)
    supervisor = Supervisor(retry=RetryPolicy(max_attempts=3))
    report = supervisor.run_batch(
        [spec], results_path=str(tmp_path / "results.jsonl")
    )
    (result,) = report.results
    assert result.status == USAGE_ERROR
    assert result.attempts == 1
    assert "'stylesheet'" in result.detail["error"]
    assert missing in result.detail["error"]
    assert report.exit_code() == EXIT_USAGE

    from repro.cli import main

    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(spec.to_dict()) + "\n")
    assert main(["batch", str(manifest),
                 "--results", str(tmp_path / "cli.jsonl"),
                 "--max-attempts", "3"]) == EXIT_USAGE


def test_affinity_key_hashes_an_unreadable_path_as_given(tmp_path):
    from repro.runtime.jobs import affinity_key

    def key(path):
        return affinity_key({"kind": "validate", "params": {"dtd": path}})

    missing = str(tmp_path / "missing.dtd")
    assert key(missing) == key(missing)
    assert key(missing) != key(str(tmp_path / "other.dtd"))


def test_typecheck_job_roundtrips_verdict_and_stats():
    spec = JobSpec(
        id="tc-ok",
        kind="typecheck",
        params={
            "stylesheet_text": IDENTITY_SHEET,
            "input_dtd_text": TINY_DTD,
            "output_dtd_text": TINY_DTD,
            "method": "exact",
        },
    )
    result = Supervisor().run_job(spec)
    assert result.status == OK
    assert result.detail["method"] == "exact"
    assert "cache" in result.detail["stats"]
    # the wire format is JSON all the way down
    json.dumps(result.to_jsonable())


def test_typecheck_counterexample_survives_the_wire():
    spec = JobSpec(
        id="tc-bad",
        kind="typecheck",
        params={
            "stylesheet_text": (
                '<xsl:template match="doc"><doc><doc/></doc>'
                "</xsl:template>"
                '<xsl:template match="item"><item/></xsl:template>'
            ),
            "input_dtd_text": TINY_DTD,
            "output_dtd_text": TINY_DTD,
            "method": "exact",
        },
    )
    result = Supervisor().run_job(spec)
    assert result.status == TYPE_ERROR
    assert result.detail["counterexample_input"].startswith("<doc")
    assert "<doc>" in result.detail["counterexample_output"]


def test_cooperative_budget_reports_exhausted_with_diagnostics():
    spec = JobSpec(
        id="tc-exhaust",
        kind="typecheck",
        params={
            "stylesheet_text": IDENTITY_SHEET,
            "input_dtd_text": TINY_DTD,
            "output_dtd_text": TINY_DTD,
            "method": "exact",
            "max_steps": 3,
            "fallback": False,
        },
    )
    result = Supervisor().run_job(spec)
    assert result.status == EXHAUSTED
    assert result.detail["exhausted"]["reason"] == "steps"


def test_unexpected_worker_exception_is_crashed():
    plan = FaultPlan(points={"worker:compute": FaultSpec(action="exception")})
    result = Supervisor(fault_plan=plan).run_job(validate_spec("v-exc"))
    assert result.status == CRASHED
    assert result.detail["error_type"] == "FaultInjected"


def test_sigkilled_worker_is_crashed_with_signal_forensics():
    plan = FaultPlan(points={"worker:result": FaultSpec(action="crash")})
    result = Supervisor(fault_plan=plan).run_job(validate_spec("v-crash"))
    assert result.status == CRASHED
    assert result.history[0]["exitcode"] == -9
    assert "signal 9" in result.detail["error"]


# -- hard limits -------------------------------------------------------------


def test_wall_limit_sigkills_and_classifies_timeout():
    plan = FaultPlan(
        points={"worker:compute": FaultSpec(action="delay", seconds=30.0)}
    )
    supervisor = Supervisor(
        fault_plan=plan, limits=JobLimits(wall_seconds=0.4)
    )
    result = supervisor.run_job(validate_spec("v-slow"))
    assert result.status == TIMEOUT
    assert result.history[0]["killed_by"] == "wall-limit"
    # killed promptly, not after the 30s the worker wanted
    assert result.wall_seconds < 5.0


def test_rss_limit_sigkills_and_classifies_oom():
    plan = FaultPlan(
        points={
            "worker:compute": FaultSpec(
                action="oom", rss_bytes=512 * 1024 * 1024, seconds=30.0
            )
        }
    )
    supervisor = Supervisor(
        fault_plan=plan,
        limits=JobLimits(rss_bytes=96 * 1024 * 1024, wall_seconds=30.0),
    )
    result = supervisor.run_job(validate_spec("v-fat"))
    assert result.status == OOM
    assert result.history[0]["killed_by"] == "rss-limit"
    # killed on the way up, long before 512 MiB
    assert result.wall_seconds < 10.0


# -- retry policy ------------------------------------------------------------


def test_crash_is_retried_until_success():
    # seed 1: job "a" crashes once then succeeds (verified deterministic)
    plan = FaultPlan(
        seed=1,
        points={"worker:result": FaultSpec(action="crash", rate=0.5)},
    )
    supervisor = Supervisor(
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=5, base_delay=0.01),
    )
    result = supervisor.run_job(validate_spec("a"))
    assert result.status == OK
    assert result.attempts == 2
    assert [entry["status"] for entry in result.history] == [CRASHED, OK]


def test_retry_stops_at_max_attempts():
    plan = FaultPlan(points={"worker:result": FaultSpec(action="crash")})
    supervisor = Supervisor(
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
    )
    result = supervisor.run_job(validate_spec("always-dies"))
    assert result.status == CRASHED
    assert result.attempts == 3


def test_type_error_is_final_never_retried():
    supervisor = Supervisor(
        retry=RetryPolicy(max_attempts=4, base_delay=0.01)
    )
    result = supervisor.run_job(validate_spec("v-bad2", INVALID_PARAMS))
    assert result.status == TYPE_ERROR
    assert result.attempts == 1


def test_backoff_is_exponential_with_deterministic_jitter():
    policy = RetryPolicy(
        max_attempts=4, base_delay=0.5, factor=2.0, jitter=0.1, seed=7
    )
    first = policy.delay(1, "job-x")
    second = policy.delay(2, "job-x")
    third = policy.delay(3, "job-x")
    assert 0.5 <= first <= 0.55
    assert 1.0 <= second <= 1.1
    assert 2.0 <= third <= 2.2
    # deterministic: the same (seed, job, attempt) — the same pause
    assert policy.delay(2, "job-x") == second
    # but distinct jobs draw distinct jitter
    assert policy.delay(2, "job-x") != policy.delay(2, "job-y")


def test_policy_validation():
    with pytest.raises(SupervisorError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(SupervisorError):
        RetryPolicy(budget_scale=0.0)
    with pytest.raises(SupervisorError):
        RetryPolicy(retry_on=("nonsense",))
    with pytest.raises(SupervisorError):
        JobLimits(wall_seconds=-1)


# -- degradation -------------------------------------------------------------


@pytest.mark.parametrize("method", ["exact", "auto", None],
                         ids=["exact", "auto", "no-method"])
def test_degradation_rewrites_exact_to_bounded_with_budgets(method):
    params = {"stylesheet_text": "s", "input_dtd_text": "i",
              "output_dtd_text": "o", "max_inputs": 40}
    if method is not None:
        params["method"] = method
    spec = JobSpec(id="d1", kind="typecheck", params=params)
    policy = RetryPolicy(max_attempts=3, budget_scale=0.5)
    limits = JobLimits(wall_seconds=10.0)
    degraded = _degraded(spec, limits, policy, resource_failures=1)
    assert degraded.params["method"] == "bounded"
    assert degraded.params["max_inputs"] == 20
    # cooperative timeout installed with headroom under the hard wall
    assert degraded.params["timeout"] == pytest.approx(4.0)
    # a second resource failure tightens further
    again = _degraded(degraded, limits, policy, resource_failures=2)
    assert again.params["max_inputs"] == 10
    assert again.params["timeout"] == pytest.approx(2.0)


def test_degradation_scales_explicit_budgets():
    spec = JobSpec(
        id="d2", kind="run",
        params={"stylesheet_text": "s", "document_text": "d",
                "timeout": 8.0, "max_steps": 1000},
    )
    degraded = _degraded(
        spec, JobLimits(), RetryPolicy(budget_scale=0.5), 1
    )
    assert degraded.params["timeout"] == pytest.approx(4.0)
    assert degraded.params["max_steps"] == 500


def test_degraded_retry_of_resource_killed_typecheck(pathological_typecheck):
    """A wall-killed exact job retries as bounded and reaches a verdict."""
    supervisor = Supervisor(
        limits=JobLimits(wall_seconds=3.0),
        retry=RetryPolicy(
            max_attempts=2, base_delay=0.01, retry_on=(CRASHED, TIMEOUT, OOM)
        ),
    )
    result = supervisor.run_job(pathological_typecheck("patho-degrade"))
    assert [entry["status"] for entry in result.history][0] == TIMEOUT
    assert result.attempts == 2
    # the retry ran degraded: bounded method, cooperative budget — it
    # either finished (ok) or exhausted cooperatively with diagnostics,
    # but it was not silently SIGKILLed a second time.
    assert result.status in (OK, EXHAUSTED)
    if result.status == OK:
        assert result.detail["method"] == "bounded"


# -- spec/manifest plumbing --------------------------------------------------


def test_job_spec_validation():
    with pytest.raises(SupervisorError):
        JobSpec(id="", kind="validate")
    with pytest.raises(SupervisorError):
        JobSpec(id="x", kind="transmogrify")


def test_manifest_roundtrip_and_errors(tmp_path):
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        "# comment\n"
        + json.dumps({"id": "j1", "kind": "validate",
                      "params": VALID_PARAMS}) + "\n"
        + json.dumps({"id": "j2", "kind": "validate",
                      "dtd_text": TINY_DTD,
                      "document_text": "<doc/>"}) + "\n"
    )
    specs = load_manifest(str(manifest))
    assert [spec.id for spec in specs] == ["j1", "j2"]
    # flat manifests fold unknown keys into params
    assert specs[1].params["dtd_text"] == TINY_DTD

    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(SupervisorError, match="line is not valid JSON"):
        load_manifest(str(bad))
    bad.write_text(json.dumps({"id": "j", "kind": "nope"}) + "\n")
    with pytest.raises(SupervisorError, match="unknown kind"):
        load_manifest(str(bad))


MALFORMED_SPECS = [
    ({"limits": "x"}, "limits must be an object"),
    ({"limits": {"wall_seconds": "abc"}}, "limits.wall_seconds"),
    ({"limits": {"rss_mb": float("inf")}}, "limits.rss_mb"),
    ({"retry": "x"}, "retry must be an object"),
    ({"retry": {"max_attempts": [2]}}, "retry.max_attempts"),
    ({"retry": {"jitter": float("nan")}}, "retry.jitter"),
    ({"retry": {"retry_on": 3}}, "retry.retry_on"),
    ({"params": [["stylesheet_text", "x"]]}, "params must be an object"),
    ({"deadline_ms": "soon"}, "deadline_ms"),
    ({"deadline_ms": float("inf")}, "deadline_ms"),
]


@pytest.mark.parametrize("fields,message", MALFORMED_SPECS)
def test_a_malformed_spec_field_is_a_usage_error(tmp_path, fields,
                                                 message):
    from repro.cli import main

    manifest = tmp_path / "jobs.jsonl"
    good = {"id": "j1", "kind": "validate", "params": VALID_PARAMS}
    manifest.write_text(
        json.dumps(good) + "\n"
        + json.dumps({"id": "j2", "kind": "validate", **fields}) + "\n"
    )
    with pytest.raises(SupervisorError, match=f":2: .*{message}"):
        load_manifest(str(manifest))
    results = tmp_path / "results.jsonl"
    assert main(["batch", str(manifest),
                 "--results", str(results)]) == EXIT_USAGE
    assert not results.exists() or not results.read_text()


#: Malformed typecheck parameters: each used to crash its job (exit 4),
#: a status the daemon's circuit breaker counts against the input.
MALFORMED_PARAMS = [
    ("max_inputs", "abc", "max_inputs must be an integer"),
    ("max_depth", "x", "max_depth must be an integer"),
    ("max_steps", "abc", "max_steps must be an integer"),
    ("max_states", [1], "max_states must be an integer"),
    ("timeout", "abc", "timeout must be a finite number"),
    ("fallback", "false", "fallback must be true or false"),
]


@pytest.mark.parametrize("name,value,message", MALFORMED_PARAMS)
def test_a_malformed_typecheck_param_is_a_usage_error(tmp_path, name, value,
                                                      message):
    from repro.cli import main
    from repro.runtime.jobs import execute_classified

    params = {"stylesheet_text": IDENTITY_SHEET, "input_dtd_text": TINY_DTD,
              "output_dtd_text": TINY_DTD, name: value}
    outcome = execute_classified({"kind": "typecheck", "params": params})
    assert outcome["status"] == USAGE_ERROR, outcome
    assert message in outcome["error"]
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps(
        {"id": "j1", "kind": "typecheck", "params": params}) + "\n")
    results = tmp_path / "results.jsonl"
    assert main(["batch", str(manifest),
                 "--results", str(results)]) == EXIT_USAGE
    (record,) = [json.loads(line) for line in results.read_text().splitlines()]
    assert record["status"] == USAGE_ERROR


def test_a_malformed_run_budget_is_a_usage_error():
    from repro.runtime.jobs import execute_classified

    for name, value in (("timeout", "abc"), ("max_steps", "x")):
        outcome = execute_classified({"kind": "run", "params": {
            "stylesheet_text": IDENTITY_SHEET,
            "document_text": "<doc><item/></doc>", name: value,
        }})
        assert outcome["status"] == USAGE_ERROR, outcome
        assert outcome["error"].startswith(name)


def test_degrade_accepts_only_a_json_boolean():
    assert RetryPolicy.from_dict({"degrade": False}).degrade is False
    with pytest.raises(SupervisorError, match="retry.degrade must be true"):
        RetryPolicy.from_dict({"degrade": "false"})


def test_duplicate_job_ids_rejected():
    specs = [validate_spec("dup"), validate_spec("dup")]
    with pytest.raises(SupervisorError, match="duplicate job id"):
        Supervisor().run_batch(specs)


def test_checkpoint_reader_tolerates_truncated_tail(tmp_path):
    log = tmp_path / "results.jsonl"
    log.write_text(
        json.dumps({"id": "done-1", "status": "ok"}) + "\n"
        + json.dumps({"id": "done-2", "status": "ok"}) + "\n"
        + '{"id": "half-wr'  # a SIGKILL mid-write leaves this behind
    )
    assert completed_job_ids(str(log)) == {"done-1", "done-2"}
    assert completed_job_ids(str(tmp_path / "missing.jsonl")) == set()


def test_completed_results_deduplicates_repeated_ids_last_wins(tmp_path):
    # a resumed-then-crashed-then-resumed batch legitimately writes the
    # same job id more than once; the *last* record is the truth
    log = tmp_path / "results.jsonl"
    log.write_text(
        json.dumps({"id": "flip", "status": "crashed"}) + "\n"
        + json.dumps({"id": "steady", "status": "ok"}) + "\n"
        + json.dumps({"id": "flip", "status": "ok", "attempts": 2}) + "\n"
    )
    done = completed_results(str(log))
    assert set(done) == {"flip", "steady"}
    assert done["flip"]["status"] == "ok"
    assert done["flip"]["attempts"] == 2
    assert completed_job_ids(str(log)) == {"flip", "steady"}


def test_resume_counts_duplicated_checkpoint_lines_once(tmp_path):
    # the resume rollup must not double-count a job that appears twice
    # in the checkpoint: 3 specs, 4 checkpoint lines, 1 job left to run
    log = tmp_path / "results.jsonl"
    log.write_text(
        json.dumps({"id": "done-1", "status": "crashed"}) + "\n"
        + json.dumps({"id": "done-2", "status": "ok"}) + "\n"
        + json.dumps({"id": "done-1", "status": "ok"}) + "\n"
        + '{"id": "torn'  # SIGKILL mid-write
    )
    specs = [validate_spec("done-1"), validate_spec("done-2"),
             validate_spec("fresh")]
    report = Supervisor().run_batch(
        specs, results_path=str(log), resume=True
    )
    assert report.skipped == 2
    assert report.executed == 1
    assert report.by_status == {OK: 1}  # executed-only, as documented
    # last-wins: done-1's final status is ok, so nothing resumed failed
    assert report.resumed_by_status == {OK: 2}
    assert report.exit_code() == EXIT_OK


def test_resumed_failures_still_fail_the_batch(tmp_path):
    log = tmp_path / "results.jsonl"
    log.write_text(
        json.dumps({"id": "bad", "status": "type-error"}) + "\n"
    )
    report = Supervisor().run_batch(
        [validate_spec("bad"), validate_spec("fresh")],
        results_path=str(log), resume=True,
    )
    assert report.by_status == {OK: 1}
    assert report.resumed_by_status == {TYPE_ERROR: 1}
    # the pre-crash failure survives into the resumed run's exit code
    assert report.exit_code() == EXIT_TYPE_ERROR


def test_batch_exit_code_severity():
    def report(*statuses):
        return BatchReport(
            total=len(statuses), executed=len(statuses), skipped=0,
            results=[
                JobResult(id=str(i), status=status, attempts=1,
                          wall_seconds=0.0)
                for i, status in enumerate(statuses)
            ],
        )

    assert report(OK, OK).exit_code() == EXIT_OK
    assert report(OK, TYPE_ERROR).exit_code() == EXIT_TYPE_ERROR
    assert report(TYPE_ERROR, USAGE_ERROR).exit_code() == EXIT_USAGE
    assert report(TYPE_ERROR, EXHAUSTED).exit_code() == EXIT_EXHAUSTED
    assert report(EXHAUSTED, TIMEOUT).exit_code() == EXIT_CRASHED
    assert report(OK, OOM, TYPE_ERROR).exit_code() == EXIT_CRASHED
    assert report(CRASHED).exit_code() == EXIT_CRASHED
