"""One job, one outcome, however it comes in.

Every job below goes through the three ways into the typechecker:
``repro typecheck`` (``main``, in this process), ``Supervisor.run_batch``
(a pool worker, as ``repro batch``) and an in-process ``ServiceDaemon``
(its pool worker, as ``repro serve``).  Each must end with the same
status, ``ok``, ``method`` and exit code on all three, and a type error
with the same located diagnosis.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.service import ServiceConfig, ServiceDaemon
from repro.runtime.supervisor import (
    _STATUS_EXIT,
    EXHAUSTED,
    OK,
    TYPE_ERROR,
    USAGE_ERROR,
    JobSpec,
    Supervisor,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
FILTER = {
    "stylesheet": str(EXAMPLES / "filter.xsl"),
    "input_dtd": str(EXAMPLES / "filter_input.dtd"),
    "output_dtd": str(EXAMPLES / "filter_output.dtd"),
}
#: The filter sheet can emit no ``thing`` at all (a ``doc`` without items).
BAD_OUTPUT_DTD = "out := thing+\nthing :=\n"
#: The same, declaring an element the filter sheet never emits.
WIDER_OUTPUT_DTD = BAD_OUTPUT_DTD + "extra :=\n"
#: Example 4.3's Q2 against the output DTD it violates.
Q2 = {
    "stylesheet_text": (
        '<xsl:template match="root"><result><b/><xsl:apply-patterns/><b/>'
        "<xsl:apply-patterns/><b/><xsl:apply-patterns/></result>"
        "</xsl:template>"
        '<xsl:template match="a"><a/></xsl:template>'
    ),
    "input_dtd_text": "root := a*\na :=\n",
    "output_dtd_text": "result := b.a*.b.a*.b\na :=\nb :=\n",
}


def _jobs(tmp: Path) -> dict[str, dict]:
    bad_dtd = tmp / "bad.dtd"
    bad_dtd.write_text(BAD_OUTPUT_DTD)
    bad = {**FILTER, "output_dtd": str(bad_dtd)}
    wider_dtd = tmp / "wider.dtd"
    wider_dtd.write_text(WIDER_OUTPUT_DTD)
    q2 = {}
    for name, text in Q2.items():
        path = tmp / name.replace("_text", ".txt")
        path.write_text(text)
        q2[name.replace("_text", "")] = str(path)
    return {
        "ok": {**FILTER, "method": "exact"},
        "type-error": {**bad, "method": "exact"},
        "exhausted": {**bad, "method": "exact", "max_steps": 1},
        "no-method": dict(FILTER),
        "missing-file": {**FILTER, "stylesheet": str(tmp / "missing.xsl")},
        "wider-output-exact": {
            **FILTER, "output_dtd": str(wider_dtd), "method": "exact",
        },
        "filter-bad": bad,
        "q2-tight": q2,
    }


#: What each job must end as (status, method) on every door.
EXPECTED = {
    "ok": (OK, "exact"),
    "type-error": (TYPE_ERROR, "exact"),
    "exhausted": (EXHAUSTED, None),
    "no-method": (OK, "stylesheet"),
    "missing-file": (USAGE_ERROR, None),
    "wider-output-exact": (TYPE_ERROR, "exact"),
    "filter-bad": (TYPE_ERROR, "stylesheet"),
    "q2-tight": (TYPE_ERROR, "stylesheet"),
}

#: Where each type error is located: (output path, element, children).
DIAGNOSES = {
    "filter-bad": ("/out", "out", ""),
    "q2-tight": ("/result", "result", "b.a.b.a.b.a"),
}

#: Exit code -> status, for reading the CLI's outcome back.
_EXIT_STATUS = {
    code: status for status, code in _STATUS_EXIT.items()
    if status in (OK, TYPE_ERROR, USAGE_ERROR, EXHAUSTED)
}


def _outcome(status: str, detail: dict) -> tuple:
    """``(status, ok, method, exit code)`` of a job result."""
    return status, detail.get("ok"), detail.get("method"), _STATUS_EXIT[status]


def _diagnosis(detail: dict):
    return (detail.get("stats") or {}).get("diagnosis")


def _cli_argv(params: dict) -> list[str]:
    argv = ["typecheck", "--input-dtd", params["input_dtd"],
            "--output-dtd", params["output_dtd"]]
    if "method" in params:
        argv += ["--method", params["method"]]
    if "max_steps" in params:
        argv += ["--max-steps", str(params["max_steps"])]
    # the job wire's default; the CLI's is --fallback
    return argv + ["--no-fallback", params["stylesheet"]]


def _cli_door(params: dict, capsys) -> tuple:
    code = main(_cli_argv(params))
    captured = capsys.readouterr()
    status = _EXIT_STATUS[code]
    ok = method = None
    if status in (OK, TYPE_ERROR):
        ok = status == OK
        # the CLI names the route only when it routed; otherwise the
        # method asked for is the method that ran
        routed = re.search(r"^method: (\S+) \(auto\)$", captured.err, re.M)
        method = routed.group(1) if routed else params.get("method")
    return status, ok, method, code


@pytest.fixture(scope="module")
def doors(tmp_path_factory):
    """Every job's outcome through the batch and service doors."""
    tmp = tmp_path_factory.mktemp("doors")
    jobs = _jobs(tmp)
    specs = [JobSpec(id=name, kind="typecheck", params=params)
             for name, params in jobs.items()]
    report = Supervisor().run_batch(
        specs, results_path=str(tmp / "results.jsonl")
    )
    batched = {result.id: _outcome(result.status, result.detail)
               for result in report.results}
    diagnoses = {"batch": {result.id: _diagnosis(result.detail)
                           for result in report.results}, "serve": {}}
    daemon = ServiceDaemon(ServiceConfig(
        directory=str(tmp / "serve"), workers=1, brownout=False,
    ))
    daemon.start()
    try:
        served = {}
        for spec in specs:
            response = daemon.submit(spec, wait=True, timeout=120.0)
            result = response["result"]
            served[spec.id] = _outcome(result["status"], result["detail"])
            diagnoses["serve"][spec.id] = _diagnosis(result["detail"])
    finally:
        daemon.drain()
    return jobs, batched, served, diagnoses


@pytest.mark.parametrize("job", sorted(EXPECTED))
def test_same_outcome_through_every_door(job, doors, capsys):
    jobs, batched, served, _ = doors
    cli = _cli_door(jobs[job], capsys)
    assert cli == batched[job] == served[job]
    status, _, method, _ = cli
    assert (status, method) == EXPECTED[job]


@pytest.mark.parametrize("job", sorted(DIAGNOSES))
def test_type_errors_are_located_through_every_door(job, doors, capsys):
    jobs, _, _, diagnoses = doors
    path, element, children = DIAGNOSES[job]
    batched, served = diagnoses["batch"][job], diagnoses["serve"][job]
    assert batched == served
    assert (batched["path"], batched["element"], batched["children"]) \
        == (path, element, children)
    main(_cli_argv(jobs[job]))
    printed = capsys.readouterr().out
    assert f"    at {path}: {batched['message']}" in printed
