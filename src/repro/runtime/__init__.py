"""Resource-governed execution (budgets, deadlines, cancellation).

See :mod:`repro.runtime.governor` for the design; the headline entry
points are::

    from repro.runtime import Budget, Deadline, ResourceGovernor, governed

    governor = ResourceGovernor(deadline=Deadline.after(5.0),
                                budget=Budget(max_states=50_000))
    with governed(governor):
        result = typecheck(machine, tau1, tau2)   # raises ResourceExhausted

or, more conveniently, the ``timeout=`` / ``max_steps=`` / ``max_states=``
keywords of :func:`repro.typecheck.typecheck` itself.

The sibling :mod:`repro.runtime.cache` memoizes the hot automata algebra
(determinize/complement/product/minimize/..., regex compilation, pebble
level compilation) in a process-wide bounded LRU keyed on structural
fingerprints; see ``cache_stats()`` / ``configure_cache()`` /
``cache_disabled()`` below and the DESIGN.md section on memoization.

Above the cooperative governor sits the *supervised* runtime
(:mod:`repro.runtime.supervisor`): isolated worker subprocesses with
hard wall/RSS limits (SIGKILL, not cooperation), a seven-way outcome
taxonomy, declarative retry with backoff and exact→bounded degradation,
and checkpointed JSONL batches (the ``repro batch`` CLI).  Its chaos
harness is :mod:`repro.runtime.faults` — deterministic seeded fault
points in the worker path.

Topmost is the long-lived service (:mod:`repro.runtime.service`, the
``repro serve`` CLI): a crash-safe daemon whose pre-forked worker pool
shares a persistent on-disk memo cache
(:mod:`repro.runtime.diskcache` — append-only checksummed segments,
torn-tail recovery, fcntl-locked compaction), with cache-affinity
routing, worker recycling, a per-input circuit breaker, and journaled
exactly-once queue replay across restarts; see docs/service.md.

Cutting across all of the above is the observability layer
(:mod:`repro.runtime.trace`): an ambient :class:`Tracer` of nested spans
(wall time + governor steps + memo-table deltas per pipeline phase), a
:class:`MetricsRegistry`, and schema-versioned JSONL output — enabled by
``repro ... --trace`` or ``REPRO_TRACE``; see docs/observability.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ("ResourceExhausted",),
    "repro.runtime.governor": (
        "Budget", "Deadline", "ResourceGovernor", "NULL_GOVERNOR",
        "current_governor", "governed", "make_governor",
    ),
    "repro.runtime.cache": (
        "MemoCache", "GLOBAL_CACHE", "fingerprint", "memoized",
        "cache_stats", "clear_cache", "configure_cache", "cache_disabled",
        "stable_repr", "memo_key", "install_persistent", "persistent_tier",
    ),
    "repro.runtime.diskcache": ("DiskCache",),
    "repro.runtime.faults": (
        "FaultPlan", "FaultSpec", "fault_point", "injected_faults",
        "install_plan",
    ),
    "repro.runtime.trace": (
        "TRACE_SCHEMA", "METRICS_SCHEMA", "Tracer", "Span", "NULL_TRACER",
        "MetricsRegistry", "current_tracer", "tracing", "trace_env_setting",
        "iter_jsonl_records", "render_tree", "summarize", "write_jsonl",
    ),
    "repro.runtime.jobs": (
        "JOB_KINDS", "execute_job", "affinity_key", "execute_classified",
    ),
    "repro.runtime.service": ("ServiceClient", "ServiceConfig", "ServiceDaemon"),
    "repro.runtime.supervisor": (
        "BatchReport", "JobLimits", "JobResult", "JobSpec", "RetryPolicy",
        "Supervisor", "completed_job_ids", "completed_results",
        "load_manifest",
    ),
})
