"""Command-line interface: validate documents and typecheck stylesheets.

Usage::

    python -m repro validate  --dtd schema.dtd document.xml
    python -m repro typecheck --input-dtd in.dtd --output-dtd out.dtd \
                              stylesheet.xsl [--method auto|exact|bounded]
                              [--timeout S] [--max-steps N]
                              [--max-states N] [--no-fallback]
                              [--no-cache] [--cache-stats]
                              [--audit off|witness|full]
    python -m repro run       --stylesheet sheet.xsl document.xml
                              [--timeout S] [--max-steps N]
    python -m repro batch     manifest.jsonl --results results.jsonl
                              [--workers N] [--resume]
                              [--wall-limit S] [--rss-limit-mb M]
                              [--max-attempts K] [--retry-delay S]
                              [--no-degrade] [--faults plan.json]
                              [--audit off|witness|full]
    python -m repro serve     --dir state/ [--socket PATH] [--workers N]
                              [--recycle-jobs N] [--recycle-rss-mb M]
                              [--wall-limit S] [--rss-limit-mb M]
                              [--faults plan.json] [--max-backlog N]
                              [--no-brownout] [--latency-budget S]
                              [--client-timeout S]
                              [--audit off|witness|full]
    python -m repro submit    [manifest.jsonl] --socket PATH
                              [--no-wait] [--timeout S] [--deadline-ms MS]
                              [--ping | --stats | --health | --shutdown]
    python -m repro audit     results.jsonl --manifest manifest.jsonl
                              [--mode witness|full] [--max-steps N]

DTD files use either the paper's rule notation (``a := b*.c.e``) or
classic ``<!ELEMENT ...>`` declarations (auto-detected); stylesheets use
the XSLT fragment of :mod:`repro.lang.xslt`.

``validate``, ``run`` and ``typecheck`` turn their flags into a job (the
file paths as its params) and run it in this process through
:func:`repro.runtime.jobs.execute_classified`, the function every pool
worker runs, so a job gets the same outcome and exit code here as in
``batch`` or ``serve``.

``batch`` consumes a JSONL manifest (one job object per line — see
:mod:`repro.runtime.supervisor` and the README schema), runs every job
in a supervised worker subprocess with hard wall/RSS limits, streams one
JSON result line per job to ``--results``, and — with ``--resume`` —
skips jobs already recorded there, so a killed batch picks up where it
left off.

``serve`` runs the long-lived typecheck daemon (see docs/service.md and
:mod:`repro.runtime.service`): a pre-forked worker pool sharing one
crash-safe on-disk memo cache under ``--dir`` (compacted at every start,
read by each worker entry by entry on a memo miss), listening on a unix
socket, with admission control (``--max-backlog``) and a brownout load
controller that degrades exact→bounded→shed under pressure.  ``submit``
sends manifest jobs to a running daemon (or, with ``--ping`` /
``--stats`` / ``--health`` / ``--shutdown``, manages it) and exits with
the most severe job status, like ``batch``; ``--deadline-ms`` attaches a
per-job end-to-end deadline the daemon enforces at admission and in
queue.

Audit & certification (see docs/architecture.md and :mod:`repro.audit`):
``--audit witness`` re-certifies every ``type-error`` verdict's evidence
with the trusted interpreters before reporting it; ``--audit full``
additionally runs seeded randomized falsification against exact ``ok``
verdicts.  The ``REPRO_AUDIT`` environment variable is the ambient form
(an explicit flag or job param wins).  ``repro audit`` re-certifies a
results/checkpoint JSONL offline, cross-referencing job inputs from the
manifest.  A refuted verdict is reported ``miscompiled`` and exits 6.

Exit codes (see :mod:`repro.errors`): 0 on success, 1 when
typechecking/validation rejects, 2 on usage or input errors, 3 when a
resource budget (``--timeout`` / ``--max-steps`` / ``--max-states``) was
exhausted with no fallback, 4 when a job crashed (an unexpected error,
or a worker killed at a hard limit), 5 when an overloaded daemon shed
the job without running it (retryable — back off and resubmit), 6 when
the audit refuted a verdict (``miscompiled`` — the answer cannot be
trusted).  ``batch`` exits with the most severe job status.

Observability (see docs/observability.md): ``--trace`` on ``run`` /
``typecheck`` / ``batch`` prints a span tree on stderr; ``--trace=FILE``
additionally writes one JSONL record per span (schema ``repro-trace/v1``)
to FILE.  The ``REPRO_TRACE`` environment variable is the flag's
ambient form (``1``/``stderr`` for the tree, a path for tree + JSONL;
an explicit ``--trace`` wins).  ``batch --metrics-out FILE`` writes the
aggregated metrics registry (schema ``repro-metrics/v1``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from repro.errors import EXIT_MISCOMPILED, ReproError, exit_code_for
from repro.runtime import (
    Tracer,
    cache_disabled,
    render_tree,
    trace_env_setting,
    tracing,
    write_jsonl,
)
from repro.runtime.jobs import (
    EXHAUSTED,
    MISCOMPILED,
    OK,
    TYPE_ERROR,
    execute_classified,
    exit_code_for_statuses,
)
from repro.typecheck.engine import (
    DEFAULT_METHOD,
    DEGRADED_SUFFIX,
    EXACT_METHODS,
    METHODS,
)
from repro.xmlio import parse_xml, to_xml

#: ``--trace`` with no FILE operand (tree on stderr, no JSONL).
_TRACE_STDERR = ""


#: The flags each job-running command hands its job, as params: the
#: argparse names are the job wire's parameter names.
_JOB_PARAMS = {
    "validate": ("dtd", "document"),
    "run": ("stylesheet", "document", "timeout", "max_steps"),
    "typecheck": ("stylesheet", "input_dtd", "output_dtd", "method",
                  "max_inputs", "timeout", "max_steps", "max_states",
                  "fallback", "audit"),
}


def _run_job(args: argparse.Namespace) -> int:
    """``validate`` / ``run`` / ``typecheck``: run the command's job in
    this process, down the path every pool worker takes, and exit like
    ``repro batch`` would for it.

    ``args.report`` prints an outcome that carries a verdict; any other
    outcome is reported on stderr here.
    """
    params = {name: getattr(args, name) for name in _JOB_PARAMS[args.command]}
    no_cache = getattr(args, "no_cache", False)
    with cache_disabled() if no_cache else contextlib.nullcontext():
        outcome = execute_classified({"kind": args.command, "params": params})
    status = outcome["status"]
    if status in (OK, TYPE_ERROR, MISCOMPILED):
        args.report(args, outcome)
    else:
        if outcome.get("traceback"):
            print(outcome["traceback"], end="", file=sys.stderr)
        budget = "resource budget exhausted: " if status == EXHAUSTED else ""
        print(f"error: {budget}{outcome.get('error')}", file=sys.stderr)
    return exit_code_for_statuses([status])


def _report_validate(args: argparse.Namespace, outcome: dict) -> None:
    if outcome["status"] == OK:
        print(f"{args.document}: valid")
    for error in outcome.get("errors", ()):
        print(f"{args.document}:{error['address']}: {error['message']}")


def _report_run(args: argparse.Namespace, outcome: dict) -> None:
    # the job wire carries the output compact; the CLI prints it indented
    print(to_xml(parse_xml(outcome["output"]), indent=2))


def _report_typecheck(args: argparse.Namespace, outcome: dict) -> None:
    stats = outcome["stats"]
    if args.cache_stats:
        counters = stats.get("cache", {})
        print(
            "cache: "
            + " ".join(
                f"{name}={counters.get(name, 0)}"
                for name in ("hits", "misses", "stores", "evictions",
                             "entries", "bytes")
            )
            + f" enabled={'yes' if counters.get('enabled') else 'no'}",
            file=sys.stderr,
        )
    method = outcome["method"]
    if method.endswith(DEGRADED_SUFFIX):
        exhausted = stats.get("exact_exhausted", {})
        print(
            f"note: {method[: -len(DEGRADED_SUFFIX)]} engine ran out of "
            f"{exhausted.get('reason', 'budget')} in phase "
            f"{exhausted.get('phase', '?')!r}; "
            "degraded to the bounded falsifier",
            file=sys.stderr,
        )
    routing = stats.get("routing")
    if routing is not None and routing.get("requested") == "auto":
        print(f"method: {method} (auto)", file=sys.stderr)
    if outcome["ok"]:
        if method in EXACT_METHODS:
            qualifier = ""
            confidence = "exact proof"
        else:
            qualifier = (
                f" (on {stats.get('inputs_checked', '?')} sample inputs)"
            )
            confidence = "bounded — not a proof"
        print(f"typechecks{qualifier}")
        print(f"verdict: ok ({confidence})")
    else:
        print("DOES NOT typecheck")
        print("  counterexample input: ", outcome["counterexample_input"])
        if "counterexample_output" in outcome:
            print("  ill-typed output:     ",
                  outcome["counterexample_output"])
        diagnosis = stats.get("diagnosis")
        if diagnosis:
            print(f"    at {diagnosis['path']}: {diagnosis['message']}")
    _report_audit(stats.get("audit"))


def _report_audit(report) -> None:
    """Print the audit line, when one ran; a ``failed`` audit (the job
    ends ``miscompiled``) also warns on stderr."""
    if not report:
        return
    line = f"audit: {report.get('status')} (mode={report.get('mode')}"
    if report.get("replay_steps"):
        line += f", replay_steps={report['replay_steps']}"
    if report.get("seed") is not None:
        line += (f", seed={report['seed']}, "
                 f"inputs_tried={report.get('inputs_tried', 0)}")
    line += ")"
    print(line)
    if report.get("reason"):
        print(f"  {report['reason']}")
    if report.get("status") == "failed":
        print("MISCOMPILED: the audit refuted this verdict; "
              "do not trust it", file=sys.stderr)


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.runtime.faults import FaultPlan
    from repro.runtime.supervisor import (
        JobLimits,
        RetryPolicy,
        Supervisor,
        load_manifest,
    )

    specs = load_manifest(args.manifest)
    if not specs:
        print("error: empty manifest", file=sys.stderr)
        return 2
    if args.audit and args.audit != "off":
        from dataclasses import replace as _replace

        specs = [
            _replace(spec, params={**spec.params, "audit": args.audit})
            if spec.kind == "typecheck" and "audit" not in spec.params
            else spec
            for spec in specs
        ]
    fault_plan = None
    if args.faults:
        fault_plan = FaultPlan.from_dict(
            json.loads(Path(args.faults).read_text())
        )
    limits = JobLimits(
        wall_seconds=args.wall_limit,
        rss_bytes=(
            int(args.rss_limit_mb * 1024 * 1024)
            if args.rss_limit_mb is not None
            else None
        ),
    )
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        base_delay=args.retry_delay,
        degrade=args.degrade,
    )
    supervisor = Supervisor(
        limits=limits, retry=retry, fault_plan=fault_plan
    )
    report = supervisor.run_batch(
        specs,
        workers=args.workers,
        results_path=args.results,
        resume=args.resume,
    )
    counts = " ".join(
        f"{status}={count}"
        for status, count in sorted(report.by_status.items())
    )
    resumed = " ".join(
        f"{status}={count}"
        for status, count in sorted(report.resumed_by_status.items())
    )
    print(
        f"batch: {report.total} job(s), {report.executed} executed, "
        f"{report.skipped} resumed from checkpoint"
        + (f" [{counts}]" if counts else "")
        + (f" (resumed {resumed})" if resumed else ""),
        file=sys.stderr,
    )
    return report.exit_code()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime.faults import FaultPlan
    from repro.runtime.service import ServiceConfig, ServiceDaemon
    from repro.runtime.supervisor import JobLimits

    fault_plan = None
    if args.faults:
        fault_plan = FaultPlan.from_dict(
            json.loads(Path(args.faults).read_text())
        )
    config = ServiceConfig(
        directory=args.dir,
        socket_path=args.socket,
        workers=args.workers,
        recycle_jobs=args.recycle_jobs,
        recycle_rss_bytes=(
            int(args.recycle_rss_mb * 1024 * 1024)
            if args.recycle_rss_mb is not None
            else None
        ),
        limits=JobLimits(
            wall_seconds=args.wall_limit,
            rss_bytes=(
                int(args.rss_limit_mb * 1024 * 1024)
                if args.rss_limit_mb is not None
                else None
            ),
        ),
        fault_plan=fault_plan,
        max_backlog=args.max_backlog,
        brownout=args.brownout,
        latency_budget=args.latency_budget,
        client_timeout=args.client_timeout,
        audit=args.audit,
    )
    daemon = ServiceDaemon(config)
    info = daemon.start()
    daemon.install_signal_handlers()
    cache = info["cache"]
    print(
        f"serve: pid {info['pid']} listening on {info['socket']}, "
        f"{info['workers']} worker(s), cache {cache['entries']} entr"
        f"{'y' if cache['entries'] == 1 else 'ies'} recovered"
        + (
            f" ({cache['torn_segments_truncated']} torn tail(s) truncated)"
            if cache["torn_segments_truncated"]
            else ""
        )
        + (f", {info['replayed']} queued job(s) replayed"
           if info["replayed"] else ""),
        file=sys.stderr,
    )
    return daemon.serve_forever()


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.runtime.service import ServiceClient
    from repro.runtime.supervisor import load_manifest

    client = ServiceClient(args.socket, timeout=args.timeout)
    if args.ping:
        print(json.dumps(client.ping(), sort_keys=True))
        return 0
    if args.stats:
        response = client.stats()
        print(json.dumps(response.get("stats", response), indent=2,
                         sort_keys=True))
        return 0
    if args.health:
        from repro.errors import EXIT_SHED

        response = client.health()
        print(json.dumps(response, sort_keys=True))
        # ready/degraded still serve; overloaded is the retryable signal
        return EXIT_SHED if response.get("health") == "overloaded" else 0
    if args.shutdown:
        client.shutdown()
        print("submit: daemon draining", file=sys.stderr)
        return 0
    if not args.manifest:
        print("error: a manifest is required unless --ping/--stats/"
              "--health/--shutdown is given", file=sys.stderr)
        return 2
    specs = load_manifest(args.manifest)
    if not specs:
        print("error: empty manifest", file=sys.stderr)
        return 2
    if args.deadline_ms is not None:
        from dataclasses import replace as _replace

        specs = [
            _replace(spec, deadline_ms=args.deadline_ms) for spec in specs
        ]
    statuses: list[str] = []
    deferred = 0
    for spec in specs:
        response = client.submit(
            spec, wait=not args.no_wait, timeout=args.timeout
        )
        if not response.get("ok"):
            print(f"error: {spec.id}: {response.get('error')}",
                  file=sys.stderr)
            statuses.append("crashed")
            continue
        if response.get("deferred"):
            deferred += 1
            print(json.dumps({"id": spec.id, "deferred": True},
                             sort_keys=True))
            continue
        if "result" in response:
            result = response["result"]
            print(json.dumps(result, sort_keys=True))
            statuses.append(str(result.get("status", "crashed")))
        else:
            print(json.dumps({"id": spec.id, "queued": True},
                             sort_keys=True))
    summary = " ".join(
        f"{status}={statuses.count(status)}"
        for status in sorted(set(statuses))
    )
    print(
        f"submit: {len(specs)} job(s), {deferred} deferred"
        + (f" [{summary}]" if summary else ""),
        file=sys.stderr,
    )
    return exit_code_for_statuses(statuses)


def _cmd_audit(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.audit import FAILED, audit_record
    from repro.runtime.supervisor import load_manifest

    params_by_id = {
        spec.id: spec.params for spec in load_manifest(args.manifest)
    }
    counts: Counter = Counter()
    failed: list[str] = []
    total = 0
    for raw in Path(args.results).read_text().splitlines():
        raw = raw.strip()
        if not raw:
            continue
        total += 1
        record = json.loads(raw)
        job_id = str(record.get("id") or record.get("job_id")
                     or f"line-{total}")
        params = params_by_id.get(job_id)
        if params is None:
            # a result line with no manifest entry cannot be replayed —
            # report it, never silently pass it
            counts["unmatched"] += 1
            print(json.dumps(
                {"id": job_id, "audit": {"status": "unmatched"}},
                sort_keys=True,
            ))
            continue
        report = audit_record(
            record, params, mode=args.mode, max_steps=args.max_steps
        )
        counts[report.status] += 1
        if report.status == FAILED:
            failed.append(job_id)
        print(json.dumps({"id": job_id, "audit": report.to_jsonable()},
                         sort_keys=True))
    summary = " ".join(
        f"{status}={count}" for status, count in sorted(counts.items())
    )
    print(
        f"audit: {total} record(s)" + (f" [{summary}]" if summary else ""),
        file=sys.stderr,
    )
    if failed:
        print("MISCOMPILED: " + ", ".join(sorted(failed)), file=sys.stderr)
        return EXIT_MISCOMPILED
    return 0


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


# argparse uses the converter's __name__ in its error messages
_nonnegative_float.__name__ = "seconds"
_nonnegative_int.__name__ = "count"
_positive_float.__name__ = "seconds"


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", nargs="?", const=_TRACE_STDERR, default=None,
        metavar="FILE",
        help="print the span tree on stderr; with FILE, also write one "
             "JSONL record per span (schema repro-trace/v1) to FILE "
             "(env: REPRO_TRACE)",
    )


def _add_budget_arguments(parser: argparse.ArgumentParser,
                          states: bool = False) -> None:
    parser.add_argument(
        "--timeout", type=_nonnegative_float, default=None,
        metavar="SECONDS", help="wall-clock deadline for the run",
    )
    parser.add_argument(
        "--max-steps", type=_nonnegative_int, default=None, metavar="N",
        help="abort after N units of work",
    )
    if states:
        parser.add_argument(
            "--max-states", type=_nonnegative_int, default=None, metavar="N",
            help="abort after constructing N automaton states",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Typechecking for XML transformers (PODS 2000).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate",
                                   help="validate a document against a DTD")
    validate.add_argument("--dtd", required=True)
    validate.add_argument("document")
    validate.set_defaults(func=_run_job, report=_report_validate)

    run = commands.add_parser("run", help="apply a stylesheet to a document")
    run.add_argument("--stylesheet", required=True)
    run.add_argument("document")
    _add_budget_arguments(run)
    _add_trace_argument(run)
    run.set_defaults(func=_run_job, report=_report_run)

    check = commands.add_parser(
        "typecheck", help="statically typecheck a stylesheet (Theorem 4.4)"
    )
    check.add_argument("--input-dtd", required=True)
    check.add_argument("--output-dtd", required=True)
    check.add_argument("--method", choices=METHODS, default=DEFAULT_METHOD,
                       help="decision procedure: auto routes to the "
                            "cheapest exact method (docs/algorithms.md)")
    check.add_argument("--max-inputs", type=int, default=50,
                       help="input budget for the bounded engine")
    _add_budget_arguments(check, states=True)
    check.add_argument(
        "--fallback", action=argparse.BooleanOptionalAction, default=True,
        help="degrade to the bounded falsifier when the exact engine "
             "exhausts its budget (--no-fallback to fail instead)",
    )
    check.add_argument(
        "--no-cache", action="store_true",
        help="disable the automata memo table for this run "
             "(every construction is recomputed from scratch)",
    )
    check.add_argument(
        "--cache-stats", action="store_true",
        help="report the memo table's hit/miss/eviction counters for "
             "this run on stderr",
    )
    check.add_argument(
        "--audit", choices=["off", "witness", "full"], default=None,
        help="certify the verdict with the trusted interpreters before "
             "reporting it: 'witness' replays type-error evidence, "
             "'full' also falsification-tests exact ok verdicts; a "
             "refuted verdict exits 6 (env: REPRO_AUDIT)",
    )
    _add_trace_argument(check)
    check.add_argument("stylesheet")
    check.set_defaults(func=_run_job, report=_report_typecheck)

    batch = commands.add_parser(
        "batch",
        help="run a JSONL manifest of jobs under process supervision",
    )
    batch.add_argument("manifest", help="JSONL file, one job object per line")
    batch.add_argument(
        "--results", required=True, metavar="PATH",
        help="JSONL result log (also the --resume checkpoint)",
    )
    batch.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="pool size: long-lived worker processes, one job each at a "
             "time",
    )
    batch.add_argument(
        "--resume", action="store_true",
        help="skip jobs already recorded in --results",
    )
    batch.add_argument(
        "--wall-limit", type=_nonnegative_float, default=None,
        metavar="SECONDS",
        help="hard per-job wall-clock limit (SIGKILL on breach)",
    )
    batch.add_argument(
        "--rss-limit-mb", type=_nonnegative_float, default=None, metavar="MB",
        help="hard per-job resident-set limit (SIGKILL on breach)",
    )
    batch.add_argument(
        "--max-attempts", type=int, default=1, metavar="K",
        help="attempts per job (crashed/killed jobs are retried)",
    )
    batch.add_argument(
        "--retry-delay", type=_nonnegative_float, default=0.5,
        metavar="SECONDS", help="base backoff before a retry (doubles "
        "per attempt, with jitter)",
    )
    batch.add_argument(
        "--degrade", action=argparse.BooleanOptionalAction, default=True,
        help="degrade retries after a resource kill (exact typechecking "
             "falls back to the bounded engine with tighter budgets; "
             "--no-degrade retries the job unchanged)",
    )
    batch.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="arm a fault-injection plan in every worker (chaos testing)",
    )
    batch.add_argument(
        "--audit", choices=["off", "witness", "full"], default=None,
        help="audit every typecheck job's verdict in the worker; a "
             "refuted verdict is reported 'miscompiled' (exit 6) and "
             "its memo lineage quarantined",
    )
    _add_trace_argument(batch)
    batch.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the aggregated metrics registry (schema "
             "repro-metrics/v1) to FILE as JSON",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = commands.add_parser(
        "serve",
        help="run the typecheck daemon: pre-forked worker pool plus a "
             "persistent shared memo cache",
    )
    serve.add_argument(
        "--dir", required=True, metavar="PATH",
        help="state directory: cache segments, journals, lock, socket",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket to listen on (default: <dir>/service.sock)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="pool size (pre-forked, long-lived worker processes)",
    )
    serve.add_argument(
        "--recycle-jobs", type=int, default=64, metavar="N",
        help="retire and re-fork a worker after N jobs",
    )
    serve.add_argument(
        "--recycle-rss-mb", type=_nonnegative_float, default=512.0,
        metavar="MB",
        help="retire and re-fork a worker whose resident set exceeds MB",
    )
    serve.add_argument(
        "--wall-limit", type=_nonnegative_float, default=None,
        metavar="SECONDS",
        help="default hard per-job wall-clock limit (SIGKILL on breach)",
    )
    serve.add_argument(
        "--rss-limit-mb", type=_nonnegative_float, default=None, metavar="MB",
        help="default hard per-job resident-set limit (SIGKILL on breach)",
    )
    serve.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="arm a fault-injection plan in the daemon and its workers "
             "(chaos testing)",
    )
    serve.add_argument(
        "--max-backlog", type=_nonnegative_int, default=64, metavar="N",
        help="per-worker queue cap: submissions beyond it are answered "
             "'shed' instead of queued (admission control)",
    )
    serve.add_argument(
        "--brownout", action=argparse.BooleanOptionalAction, default=True,
        help="enable the brownout load controller (pressure levels "
             "ready/tightened/bounded-only/shed-new; --no-brownout for "
             "the fixed-budget behaviour)",
    )
    serve.add_argument(
        "--latency-budget", type=_positive_float, default=2.0,
        metavar="SECONDS",
        help="p95 queue-latency budget the brownout controller defends",
    )
    serve.add_argument(
        "--client-timeout", type=_positive_float, default=10.0,
        metavar="SECONDS",
        help="socket timeout for client connections (slow clients are "
             "disconnected instead of pinning handler threads)",
    )
    serve.add_argument(
        "--audit", choices=["off", "witness", "full"], default="off",
        help="certify every typecheck verdict before journaling it; a "
             "refuted verdict is served 'miscompiled' and its memo "
             "lineage quarantined from both cache tiers",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = commands.add_parser(
        "submit",
        help="send jobs to a running repro serve daemon",
    )
    submit.add_argument(
        "manifest", nargs="?", default=None,
        help="JSONL file, one job object per line (same schema as batch)",
    )
    submit.add_argument(
        "--socket", required=True, metavar="PATH",
        help="the daemon's unix socket",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="enqueue and return immediately instead of waiting for "
             "each result",
    )
    submit.add_argument(
        "--timeout", type=_nonnegative_float, default=None,
        metavar="SECONDS", help="per-request client timeout",
    )
    submit.add_argument(
        "--ping", action="store_true",
        help="check the daemon is alive and exit",
    )
    submit.add_argument(
        "--stats", action="store_true",
        help="print the daemon's pool/cache/queue statistics and exit",
    )
    submit.add_argument(
        "--health", action="store_true",
        help="print the daemon's health (ready/degraded/overloaded) and "
             "exit: 0 while serving, 5 when overloaded",
    )
    submit.add_argument(
        "--deadline-ms", type=_positive_float, default=None, metavar="MS",
        help="end-to-end deadline per job: the daemon sheds jobs it "
             "cannot finish in time instead of starting them",
    )
    submit.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain gracefully and exit",
    )
    submit.set_defaults(func=_cmd_submit)

    audit = commands.add_parser(
        "audit",
        help="re-certify a results/checkpoint JSONL offline against "
             "its manifest (one audit line per record; exit 6 if any "
             "verdict is refuted)",
    )
    audit.add_argument(
        "results", help="JSONL results log from batch/submit/serve",
    )
    audit.add_argument(
        "--manifest", required=True, metavar="PATH",
        help="the manifest the results were computed from (supplies "
             "the stylesheet and DTDs for replay)",
    )
    audit.add_argument(
        "--mode", choices=["witness", "full"], default="witness",
        help="'witness' replays type-error evidence; 'full' also "
             "falsification-tests exact ok verdicts",
    )
    audit.add_argument(
        "--max-steps", type=_nonnegative_int, default=500_000, metavar="N",
        help="audit step budget per record (exhaustion yields "
             "'skipped', never a hang)",
    )
    audit.set_defaults(func=_cmd_audit)
    return parser


def _trace_setup(args: argparse.Namespace):
    """Resolve ``--trace`` / ``REPRO_TRACE`` / ``--metrics-out`` into
    ``(tracer, show_tree, jsonl_path, metrics_path)``; tracer is None
    when nothing asked for observability."""
    flag = getattr(args, "trace", None)
    if flag is not None:
        show_tree = True
        jsonl_path = None if flag == _TRACE_STDERR else flag
    else:
        show_tree, jsonl_path = trace_env_setting(
            os.environ.get("REPRO_TRACE")
        )
    metrics_path = getattr(args, "metrics_out", None)
    if not show_tree and not jsonl_path and not metrics_path:
        return None, False, None, None
    return Tracer(), show_tree or bool(jsonl_path), jsonl_path, metrics_path


def _trace_emit(tracer: Tracer, command: str, show_tree: bool,
                jsonl_path, metrics_path) -> None:
    if show_tree:
        render_tree(tracer, sys.stderr)
    if jsonl_path:
        count = write_jsonl(tracer, jsonl_path, trace_id=command)
        print(f"trace: wrote {count} span(s) to {jsonl_path}",
              file=sys.stderr)
    if metrics_path:
        Path(metrics_path).write_text(
            json.dumps(tracer.metrics.snapshot(), indent=2, sort_keys=True)
            + "\n"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer, show_tree, jsonl_path, metrics_path = _trace_setup(args)
    try:
        if tracer is None:
            return args.func(args)
        with tracing(tracer), tracer.span(f"cli:{args.command}"):
            return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)
    finally:
        if tracer is not None:
            _trace_emit(tracer, args.command, show_tree, jsonl_path,
                        metrics_path)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
