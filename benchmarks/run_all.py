#!/usr/bin/env python
"""Regression driver for the E01-E16 benchmark suite.

Runs every ``benchmarks/bench_e*.py`` file in-process under a counting
resource governor **and a tracer**, collects wall time, governor
steps/states, memo-table counters, a per-phase span breakdown (wall time
and span counts per pipeline phase — the ``phases`` key of each
experiment record) and pass/fail totals per experiment, then measures
the E10 typechecking suite cached vs. uncached plus the overhead of
tracing itself (traced vs. untraced warm runs, the ``trace_overhead``
section) and of verdict certification (the same warm suite under
``REPRO_AUDIT`` off/witness/full, the ``audit_overhead`` section —
witness mode is gated at ≤10% overhead) and the fast typechecking
routes against the exact pipeline (the ``routing`` section — verdict
agreement is a hard gate), then writes everything to one
schema-versioned JSON file (``BENCH_<revision>.json`` by default)::

    PYTHONPATH=src python benchmarks/run_all.py --quick

``--quick`` skips the tests marked ``slow`` (the multi-minute tail of
E05/E08/E11) via ``REPRO_BENCH_QUICK=1`` so the whole sweep fits in CI;
the JSON records which mode produced it.  Exit status is non-zero when
any experiment fails, so CI can gate on regressions.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

sys.path.insert(0, str(REPO_ROOT / "src"))

import pytest  # noqa: E402

from repro.runtime import (  # noqa: E402
    GLOBAL_CACHE,
    ResourceGovernor,
    Tracer,
    cache_stats,
    clear_cache,
    governed,
    tracing,
)

SCHEMA = "repro-bench/v2"
CACHE_COUNTERS = ("hits", "misses", "stores", "evictions")


class _Recorder:
    """Minimal pytest plugin: count outcomes without touching output."""

    def __init__(self) -> None:
        self.passed = self.failed = self.skipped = 0

    def pytest_runtest_logreport(self, report) -> None:
        if report.when == "call":
            if report.passed:
                self.passed += 1
            elif report.failed:
                self.failed += 1
            elif report.skipped:
                self.skipped += 1
        elif report.when == "setup" and report.skipped:
            self.skipped += 1
        elif report.when in ("setup", "teardown") and report.failed:
            self.failed += 1


def _revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


#: Span cap for a whole benchmark file traced end to end.
_BENCH_MAX_SPANS = 500_000


def _phase_breakdown(tracer: Tracer) -> dict:
    """Aggregate a benchmark run's span tree per phase name: the
    ``{name: {count, wall, steps}}`` map of each experiment record."""
    from repro.runtime import summarize

    summary = summarize(tracer.root, dropped=tracer.dropped)
    return {
        "spans": summary["spans"],
        "dropped": summary["dropped"],
        "by_name": summary["phases"],
    }


def run_experiment(path: Path, name: str, trace: bool = True) -> dict:
    """One in-process pytest session over ``path``, fully instrumented.

    With ``trace=True`` (the default) the session runs under an ambient
    :class:`Tracer` and the record carries a per-phase breakdown
    (``phases``); ``trace=False`` measures the disabled-instrumentation
    path (used by the trace-overhead comparison).
    """
    recorder = _Recorder()
    governor = ResourceGovernor()
    tracer = Tracer(max_spans=_BENCH_MAX_SPANS) if trace else None
    cache_before = cache_stats()
    pytest_args = [str(path), "-q", "--no-header",
                   "-p", "no:cacheprovider", "--benchmark-disable"]
    start = time.perf_counter()
    if tracer is None:
        with governed(governor):
            exit_code = int(pytest.main(pytest_args, plugins=[recorder]))
    else:
        with governed(governor), tracing(tracer):
            exit_code = int(pytest.main(pytest_args, plugins=[recorder]))
    seconds = time.perf_counter() - start
    cache_after = cache_stats()
    record = {
        "name": name,
        "file": str(path.relative_to(REPO_ROOT)),
        "ok": exit_code == 0,
        "exit_code": exit_code,
        "passed": recorder.passed,
        "failed": recorder.failed,
        "skipped": recorder.skipped,
        "seconds": round(seconds, 4),
        "traced": trace,
        "steps": governor.steps,
        "states": governor.states,
        "cache": {
            key: cache_after[key] - cache_before[key]
            for key in CACHE_COUNTERS
        },
    }
    if tracer is not None:
        record["phases"] = _phase_breakdown(tracer)
    return record


def _prior_bench(output: Path) -> dict | None:
    """The most recent committed ``BENCH_*.json`` other than ``output``
    (the cross-revision reference for step drift and trace overhead).

    Recency is the ``generated`` time each file records: a checkout
    gives every committed file the same mtime, which then only tells
    directory order.  A file without a readable ``generated`` time
    falls back to its mtime."""
    latest, latest_at = None, None
    for path in REPO_ROOT.glob("BENCH_*.json"):
        if path == output:
            continue
        try:
            report = json.loads(path.read_text())
            generated = datetime.strptime(
                report["generated"], "%Y-%m-%dT%H:%M:%S%z"
            ).timestamp()
        except (OSError, json.JSONDecodeError):
            continue
        except (KeyError, TypeError, ValueError):
            generated = path.stat().st_mtime
        if latest_at is None or generated > latest_at:
            latest, latest_at = report, generated
    return latest


#: Experiments whose governor step counts the bitset-core rewrite must
#: not change (the step-neutrality contract of the representation swap).
STEP_GUARDED = ("e05_exponential", "e10_typecheck", "e11_lower_bound")

#: Allowed |drift| on a guarded experiment's step count, in percent.
#: Measured step counts depend on memo-table warmth from earlier
#: experiments in the sweep, which historically oscillates a little
#: between otherwise identical revisions (e.g. e10 across committed
#: baselines: 46467 / 46515 / 46691 — a ±0.5% band).  Within the band
#: drift is flagged and printed; beyond it the run *fails*: a >1%
#: jump has so far always meant a real change in the automata
#: constructions, not warmth noise.
STEP_TOLERANCE_PCT = 1.0


def step_drift(experiments: list[dict], prior: dict | None) -> dict:
    """Per-experiment step comparison against the previous committed
    ``BENCH_*.json``.

    Non-zero drift on a guarded experiment within ``STEP_TOLERANCE_PCT``
    is *flagged* (and printed) — the committed JSON keeps the numbers so
    a slow trend stays visible.  Drift beyond the band lands in
    ``failed`` and makes the sweep exit non-zero.
    """
    if not prior:
        return {"prior_revision": None, "tolerance_pct": STEP_TOLERANCE_PCT,
                "experiments": {}, "flagged": [], "failed": []}
    prior_steps = {
        rec["name"]: rec.get("steps")
        for rec in prior.get("experiments", [])
    }
    drift: dict = {}
    flagged: list[str] = []
    failed: list[str] = []
    for rec in experiments:
        before = prior_steps.get(rec["name"])
        if before is None:
            continue
        now = rec["steps"]
        pct = ((now - before) / before * 100.0) if before else 0.0
        drift[rec["name"]] = {
            "prior": before,
            "current": now,
            "drift_pct": round(pct, 4),
        }
        if rec["name"] in STEP_GUARDED and now != before:
            if abs(pct) > STEP_TOLERANCE_PCT:
                failed.append(rec["name"])
            else:
                flagged.append(rec["name"])
    return {
        "prior_revision": prior.get("revision"),
        "tolerance_pct": STEP_TOLERANCE_PCT,
        "experiments": drift,
        "flagged": flagged,
        "failed": failed,
    }


def run_e10_baseline(path: Path, output: Path) -> dict:
    """Measure the E10 typechecking suite uncached, cold and warm —
    and the cost of tracing itself.

    The committed baseline must show the warm cached run beating the
    uncached one on the *same* file — that delta is the whole point of
    the memo table.  The ``trace_overhead`` section compares a warm run
    with tracing enabled against one with tracing disabled (the ambient
    null tracer), and — when a previous revision's ``BENCH_*.json`` is
    present — the disabled-path run against that revision's warm run,
    which bounds what the *disabled* instrumentation costs.
    """
    previous = GLOBAL_CACHE.enabled

    GLOBAL_CACHE.enabled = False
    uncached = run_experiment(path, "e10_typecheck[uncached]")

    GLOBAL_CACHE.enabled = True
    clear_cache()
    cold = run_experiment(path, "e10_typecheck[cached-cold]")
    warm = run_experiment(path, "e10_typecheck[cached-warm]")
    warm_untraced = run_experiment(
        path, "e10_typecheck[cached-warm-untraced]", trace=False
    )

    GLOBAL_CACHE.enabled = previous
    speedup = (
        uncached["seconds"] / warm["seconds"]
        if warm["seconds"] > 0 else None
    )
    overhead = (
        (warm["seconds"] - warm_untraced["seconds"])
        / warm_untraced["seconds"] * 100.0
        if warm_untraced["seconds"] > 0 else None
    )
    prior = _prior_bench(output)
    disabled_overhead = None
    prior_warm = None
    prior_revision = None
    if prior:
        prior_warm = (prior.get("baseline_e10") or {}).get(
            "cached_warm_seconds"
        )
        prior_revision = prior.get("revision")
        if prior_warm:
            disabled_overhead = (
                (warm_untraced["seconds"] - prior_warm) / prior_warm * 100.0
            )
    return {
        "runs": [uncached, cold, warm, warm_untraced],
        "uncached_seconds": uncached["seconds"],
        "cached_cold_seconds": cold["seconds"],
        "cached_warm_seconds": warm["seconds"],
        "warm_hits": warm["cache"]["hits"],
        "speedup_warm_vs_uncached": round(speedup, 3) if speedup else None,
        "trace_overhead": {
            "warm_traced_seconds": warm["seconds"],
            "warm_untraced_seconds": warm_untraced["seconds"],
            "enabled_overhead_pct": (
                round(overhead, 2) if overhead is not None else None
            ),
            "prior_revision": prior_revision,
            "prior_warm_seconds": prior_warm,
            "disabled_overhead_pct": (
                round(disabled_overhead, 2)
                if disabled_overhead is not None else None
            ),
        },
    }


#: Ceiling on what witness-mode certification may add to the warm E10
#: wall.  Witness mode replays type-error evidence only and skips
#: healthy ``ok`` verdicts entirely, so it must be close to free; the
#: sweep fails if it is not.  ``full`` mode pays for its randomized
#: falsification of exact-ok verdicts and is reported without a gate.
AUDIT_WITNESS_MAX_OVERHEAD_PCT = 10.0


def run_audit_baseline(path: Path) -> dict:
    """The warm E10 suite under ``REPRO_AUDIT`` off/witness/full — the
    ``audit_overhead`` section.

    Runs after :func:`run_e10_baseline`, so the memo table is warm and
    the deltas isolate the certification work itself.  Each mode is
    measured twice and the faster wall kept (same best-of-N idea the
    timing modules use: the minimum is the least noisy estimator of the
    true cost).  Witness overhead beyond
    ``AUDIT_WITNESS_MAX_OVERHEAD_PCT`` fails the sweep.
    """
    previous = os.environ.get("REPRO_AUDIT")
    runs: dict[str, dict] = {}
    try:
        for mode in ("off", "witness", "full"):
            os.environ["REPRO_AUDIT"] = mode
            first = run_experiment(
                path, f"e10_typecheck[audit-{mode}]", trace=False
            )
            second = run_experiment(
                path, f"e10_typecheck[audit-{mode}-rerun]", trace=False
            )
            best = first if first["seconds"] <= second["seconds"] else second
            best = dict(best, name=f"e10_typecheck[audit-{mode}]")
            best["ok"] = first["ok"] and second["ok"]
            runs[mode] = best
    finally:
        if previous is None:
            os.environ.pop("REPRO_AUDIT", None)
        else:
            os.environ["REPRO_AUDIT"] = previous

    off = runs["off"]["seconds"]

    def overhead_pct(mode: str) -> float | None:
        if off <= 0:
            return None
        return round((runs[mode]["seconds"] - off) / off * 100.0, 2)

    witness_overhead = overhead_pct("witness")
    return {
        "runs": [runs["off"], runs["witness"], runs["full"]],
        "off_seconds": off,
        "witness_seconds": runs["witness"]["seconds"],
        "full_seconds": runs["full"]["seconds"],
        "witness_overhead_pct": witness_overhead,
        "full_overhead_pct": overhead_pct("full"),
        "witness_max_overhead_pct": AUDIT_WITNESS_MAX_OVERHEAD_PCT,
        "witness_within_budget": (
            witness_overhead is not None
            and witness_overhead <= AUDIT_WITNESS_MAX_OVERHEAD_PCT
        ),
    }


def run_service_baseline() -> dict:
    """Cold vs restart-warm daemon on a small E10-style suite (E16).

    Two full daemon lifetimes over one state directory: the first
    populates the persistent cache, the second — a fresh process with
    fresh workers, nothing preloaded — must beat it by serving from the
    disk tier.  The committed numbers let a revision diff
    show when persistent warmth regresses.
    """
    import tempfile

    from repro.runtime.service import (
        ServiceClient,
        ServiceConfig,
        ServiceDaemon,
    )
    from repro.runtime.supervisor import JobSpec

    dtd = "doc := sec*\nsec := par*\npar :="
    sheet = (
        '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
        "</xsl:template>"
        '<xsl:template match="sec"><sec><xsl:apply-templates/></sec>'
        "</xsl:template>"
        '<xsl:template match="par"><par/></xsl:template>'
    )

    def generation(directory, gen: str) -> tuple[float, list]:
        daemon = ServiceDaemon(ServiceConfig(
            directory=str(directory), workers=1,
        ))
        daemon.start()
        try:
            client = ServiceClient(daemon.socket_path)
            deltas = []
            start = time.perf_counter()
            for i in range(4):
                response = client.submit(JobSpec(
                    id=f"svc-{gen}-{i}", kind="typecheck",
                    params={"stylesheet_text": sheet,
                            "input_dtd_text": dtd,
                            "output_dtd_text": dtd,
                            "method": "exact"},
                ), timeout=300.0)
                assert response["ok"], response
                assert response["result"]["status"] == "ok", response
                deltas.append(
                    response["result"]["detail"]["stats"]["cache"]
                    ["persistent"]
                )
            return time.perf_counter() - start, deltas
        finally:
            daemon.drain()

    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        state = Path(tmp) / "state"
        cold_wall, cold = generation(state, "cold")
        warm_wall, warm = generation(state, "warm")
    return {
        "jobs": 4,
        "cold_seconds": round(cold_wall, 4),
        "warm_seconds": round(warm_wall, 4),
        "speedup_warm_vs_cold": (
            round(cold_wall / warm_wall, 3) if warm_wall > 0 else None
        ),
        "cold_persistent_stores": sum(d["stores"] for d in cold),
        "warm_persistent_hits": sum(d["hits"] for d in warm),
    }


def run_overload_baseline() -> dict:
    """A 10x-capacity burst against a one-worker daemon (E17).

    The committed numbers pin the overload contract: the shed rate
    under a burst the backlog cannot hold, the p95 execution wall of
    the jobs that *were* admitted (admission must shield them), and
    the brownout transitions the controller records on the way up and
    back down to ``ready``.
    """
    import tempfile

    from repro.runtime.faults import FaultPlan, FaultSpec
    from repro.runtime.service import ServiceConfig, ServiceDaemon
    from repro.runtime.supervisor import (
        SHED,
        JobSpec,
        completed_results,
    )

    workers, backlog = 1, 4
    burst = 10 * workers * backlog
    plan = FaultPlan(points={
        "pool:backlog-storm": FaultSpec(action="delay", seconds=0.02),
    })
    with tempfile.TemporaryDirectory(prefix="repro-bench-ovl-") as tmp:
        daemon = ServiceDaemon(ServiceConfig(
            directory=str(Path(tmp) / "state"), workers=workers,
            max_backlog=backlog, brownout=True, latency_budget=0.2,
            controller_interval=0.05, fault_plan=plan,
        ))
        daemon.start()
        try:
            admitted, shed = [], []
            for index in range(burst):
                spec = JobSpec(
                    id=f"e17-{index}", kind="validate",
                    params={"dtd_text": "doc := item*\nitem :=",
                            "document_text": "<doc><item/></doc>"},
                )
                response = daemon.submit(spec, wait=False)
                assert response["ok"], response
                target = admitted if response.get("queued") else shed
                target.append(spec.id)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done = completed_results(str(daemon.results_path))
                if set(admitted) <= set(done):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("admitted jobs did not drain")
            while daemon.health()["health"] != "ready":
                if time.monotonic() >= deadline:
                    raise AssertionError("health never recovered")
                time.sleep(0.05)
            walls = sorted(done[j]["wall_seconds"] for j in admitted)
            rank = min(len(walls) - 1,
                       max(0, round(0.95 * len(walls)) - 1))
            stats = daemon.stats()
        finally:
            daemon.drain()
    assert all(done[j]["status"] != SHED for j in admitted)
    return {
        "burst": burst,
        "workers": workers,
        "max_backlog": backlog,
        "admitted": len(admitted),
        "shed": len(shed),
        "shed_rate_pct": round(len(shed) / burst * 100.0, 2),
        "admitted_p95_wall_seconds": round(walls[rank], 4),
        "brownout_transitions": [
            t["to"] for t in stats["pressure"]["transitions"]
        ],
        "recovered_to_ready": True,
    }


def run_routing_baseline() -> dict:
    """The fast route against the exact pipeline on the example
    machines — the ``routing`` section.

    Every applicable route (``exact`` always; ``fast`` through
    ``typecheck_fast`` when the classifier picks ``fast-td``) runs cold
    (cache cleared first, best of two) on each case.  Verdict agreement
    across routes is a hard gate — the sweep fails on any disagreement
    — and the committed per-route walls let a revision diff show when a
    fast route stops beating the pipeline it exists to avoid.
    """
    from repro.automata.bottom_up import BottomUpTA
    from repro.pebble.builders import (
        copy_transducer,
        exponential_transducer,
        rotation_transducer,
    )
    from repro.trees.alphabet import RankedAlphabet
    from repro.typecheck import classify, typecheck, typecheck_fast

    def universal(alphabet) -> BottomUpTA:
        return BottomUpTA(
            alphabet=alphabet, states={"x"},
            leaf_rules={s: {"x"} for s in sorted(alphabet.leaves)},
            rules={(s, "x", "x"): {"x"}
                   for s in sorted(alphabet.internals)},
            accepting={"x"},
        )

    alpha = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})
    rot_alpha = RankedAlphabet(leaves={"s", "a"}, internals={"r", "f"})
    all_a = BottomUpTA(
        alphabet=alpha, states={"ok"},
        leaf_rules={"a": {"ok"}},
        rules={(s, "ok", "ok"): {"ok"} for s in ("f", "g")},
        accepting={"ok"},
    )
    expo = exponential_transducer(alpha)
    rot = rotation_transducer(rot_alpha, pivot="s", root_symbol="r")
    cases = [
        ("copy-ok", copy_transducer(alpha), universal(alpha),
         universal(alpha)),
        ("copy-type-error", copy_transducer(alpha), universal(alpha),
         all_a),
        ("exponential-ok", expo, all_a, universal(expo.output_alphabet)),
        ("rotation-ok", rot, universal(rot_alpha),
         universal(rot.output_alphabet)),
    ]

    previous = GLOBAL_CACHE.enabled
    GLOBAL_CACHE.enabled = True
    records = []
    agreements = []
    try:
        for name, machine, tau1, tau2 in cases:
            decision = classify(machine)
            routes = {"exact": functools.partial(typecheck, method="exact")}
            if decision.route == "fast-td":
                routes["fast"] = typecheck_fast
            runs = {}
            for method, check in routes.items():
                walls = []
                for _ in range(2):
                    clear_cache()
                    start = time.perf_counter()
                    result = check(machine, tau1, tau2)
                    walls.append(time.perf_counter() - start)
                runs[method] = {
                    "ok": result.ok,
                    "method": result.method,
                    "seconds": round(min(walls), 4),
                }
            verdicts = {run["ok"] for run in runs.values()}
            agree = len(verdicts) == 1
            agreements.append(agree)
            routed = "fast" if decision.route == "fast-td" else None
            routed_wall = runs[routed]["seconds"] if routed else None
            records.append({
                "name": name,
                "route": decision.route,
                "verdicts_agree": agree,
                "runs": runs,
                "speedup_route_vs_exact": (
                    round(runs["exact"]["seconds"] / routed_wall, 3)
                    if routed_wall else None
                ),
            })
    finally:
        GLOBAL_CACHE.enabled = previous
        clear_cache()
    return {
        "cases": records,
        "verdicts_agree": all(agreements),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="skip tests marked slow (sets REPRO_BENCH_QUICK=1)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="where to write the JSON (default: BENCH_<revision>.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        os.environ["REPRO_BENCH_QUICK"] = "1"

    revision = _revision()
    output = args.output or REPO_ROOT / f"BENCH_{revision}.json"
    bench_files = sorted(BENCH_DIR.glob("bench_e*.py"))
    if not bench_files:
        print("error: no benchmark files found", file=sys.stderr)
        return 2

    experiments = []
    for path in bench_files:
        name = path.stem.removeprefix("bench_")
        print(f"== {name} ==", flush=True)
        experiments.append(run_experiment(path, name))

    print("== e10 cached-vs-uncached baseline ==", flush=True)
    baseline = run_e10_baseline(BENCH_DIR / "bench_e10_typecheck.py", output)

    print("== e10 audit-overhead baseline ==", flush=True)
    audit = run_audit_baseline(BENCH_DIR / "bench_e10_typecheck.py")

    print("== e16 service cold-vs-restart-warm baseline ==", flush=True)
    service = run_service_baseline()

    print("== e17 overload burst baseline ==", flush=True)
    overload = run_overload_baseline()

    print("== routing fast-paths-vs-exact baseline ==", flush=True)
    routing = run_routing_baseline()

    drift = step_drift(experiments, _prior_bench(output))

    report = {
        "schema": SCHEMA,
        "revision": revision,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": args.quick,
        "python": sys.version.split()[0],
        "experiments": experiments,
        "step_drift": drift,
        "baseline_e10": baseline,
        "audit_overhead": audit,
        "baseline_e16_service": service,
        "baseline_e17_overload": overload,
        "routing": routing,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")

    failures = [rec for rec in experiments + baseline["runs"] + audit["runs"]
                if not rec["ok"]]
    total = sum(rec["seconds"] for rec in experiments)
    print(f"\nwrote {output}")
    for name in drift["flagged"]:
        rec = drift["experiments"][name]
        print(f"WARNING: step drift on {name}: {rec['prior']} -> "
              f"{rec['current']} ({rec['drift_pct']:+.2f}% vs "
              f"{drift['prior_revision']}, within the "
              f"{drift['tolerance_pct']}% band)", file=sys.stderr)
    for name in drift.get("failed", []):
        rec = drift["experiments"][name]
        print(f"ERROR: step drift on {name}: {rec['prior']} -> "
              f"{rec['current']} ({rec['drift_pct']:+.2f}% vs "
              f"{drift['prior_revision']}) exceeds the "
              f"{drift['tolerance_pct']}% band", file=sys.stderr)
    print(f"{len(experiments)} experiments in {total:.1f}s, "
          f"{len(failures)} failed; e10 uncached "
          f"{baseline['uncached_seconds']:.3f}s vs warm cached "
          f"{baseline['cached_warm_seconds']:.3f}s "
          f"(speedup {baseline['speedup_warm_vs_uncached']}x)")
    overhead = baseline["trace_overhead"]
    print(f"trace overhead on e10 warm: enabled "
          f"{overhead['enabled_overhead_pct']}% "
          f"(traced {overhead['warm_traced_seconds']:.3f}s vs untraced "
          f"{overhead['warm_untraced_seconds']:.3f}s); disabled vs "
          f"{overhead['prior_revision']}: "
          f"{overhead['disabled_overhead_pct']}%")
    print(f"audit overhead on e10 warm: witness "
          f"{audit['witness_overhead_pct']}% "
          f"(≤{audit['witness_max_overhead_pct']}% required), full "
          f"{audit['full_overhead_pct']}% "
          f"(off {audit['off_seconds']:.3f}s, witness "
          f"{audit['witness_seconds']:.3f}s, full "
          f"{audit['full_seconds']:.3f}s)")
    print(f"e16 service: cold {service['cold_seconds']:.3f}s vs "
          f"restart-warm {service['warm_seconds']:.3f}s "
          f"(speedup {service['speedup_warm_vs_cold']}x, "
          f"{service['warm_persistent_hits']} persistent hit(s))")
    print(f"e17 overload: {overload['burst']}-job burst, "
          f"{overload['shed_rate_pct']}% shed, admitted p95 "
          f"{overload['admitted_p95_wall_seconds']}s, brownout "
          f"{' -> '.join(overload['brownout_transitions']) or '(flat)'}")
    for case in routing["cases"]:
        speedup = case["speedup_route_vs_exact"]
        note = f"{speedup}x vs exact" if speedup else "exact only"
        print(f"routing {case['name']}: route {case['route']} ({note}, "
              f"agree={case['verdicts_agree']})")
    if failures:
        for rec in failures:
            print(f"FAILED: {rec['name']} (exit {rec['exit_code']})",
                  file=sys.stderr)
        return 1
    if not audit["witness_within_budget"]:
        print(f"ERROR: witness-mode audit overhead "
              f"{audit['witness_overhead_pct']}% exceeds the "
              f"{audit['witness_max_overhead_pct']}% budget",
              file=sys.stderr)
        return 1
    if not routing["verdicts_agree"]:
        print("ERROR: typechecking routes disagree on a routing "
              "baseline case", file=sys.stderr)
        return 1
    if drift.get("failed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
