"""The observability layer: span trees, metrics, stitching, statuses.

Four contracts from the tracing design are pinned here:

* **Structure** — nested ``span()`` blocks produce exactly the tree the
  nesting describes (hypothesis drives random shapes), siblings stay in
  completion order, and timing is consistent (a parent's window covers
  its children's).
* **Differential** — tracing is observation only: the same typecheck run
  with and without an ambient tracer returns identical verdicts and
  identical ``stats`` modulo the ``trace`` key.
* **Stitching** — a supervised batch run under a tracer grafts every
  worker subprocess's span tree under the right ``job:<id>`` span, across
  the result pipe and the fork boundary.
* **Exhaustion** — a governor blow-up mid-span closes the enclosing
  spans with ``status="exhausted"`` on its way out.

Plus the PR's result-log bugfix: batch result lines are schema-tagged
(``repro-job-result/v2``), carry ``job_id`` inside each cache-delta
block, and the resume reader stays tolerant of v1 lines.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResourceExhausted
from repro.pebble import copy_transducer
from repro.runtime import (
    GLOBAL_CACHE,
    METRICS_SCHEMA,
    NULL_TRACER,
    TRACE_SCHEMA,
    MetricsRegistry,
    Span,
    Tracer,
    clear_cache,
    completed_job_ids,
    current_tracer,
    governed,
    iter_jsonl_records,
    make_governor,
    memoized,
    summarize,
    trace_env_setting,
    tracing,
)
from repro.runtime.supervisor import (
    RESULT_SCHEMA,
    JobSpec,
    Supervisor,
)
from repro.trees import RankedAlphabet
from repro.typecheck import typecheck
from repro.xmlio import parse_dtd

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


def _leaves_all_a():
    from repro.automata import BottomUpTA

    return BottomUpTA(
        alphabet=ALPHA,
        states={"ok"},
        leaf_rules={"a": {"ok"}},
        rules={(s, "ok", "ok"): {"ok"} for s in ("f", "g")},
        accepting={"ok"},
    )


# ---------------------------------------------------------------------------
# structure (hypothesis)
# ---------------------------------------------------------------------------

#: Random span-tree shapes: each node is (name, children).
_shapes = st.recursive(
    st.sampled_from("abcd").map(lambda name: (name, [])),
    lambda children: st.tuples(
        st.sampled_from("abcd"), st.lists(children, max_size=3)
    ),
    max_leaves=12,
)


def _record(tracer, shape):
    name, children = shape
    with tracer.span(name):
        for child in children:
            _record(tracer, child)


def _assert_mirrors(span, shape):
    name, children = shape
    assert span.name == name
    assert len(span.children) == len(children)
    for child_span, child_shape in zip(span.children, children):
        _assert_mirrors(child_span, child_shape)


def _count(shape):
    name, children = shape
    return 1 + sum(_count(child) for child in children)


@given(shape=_shapes)
@settings(max_examples=60, deadline=None)
def test_span_tree_mirrors_nesting(shape):
    tracer = Tracer()
    with tracing(tracer):
        _record(tracer, shape)
    assert tracer.root is not None
    _assert_mirrors(tracer.root, shape)
    assert tracer.n_spans == _count(shape)
    assert tracer.dropped == 0


@given(shape=_shapes)
@settings(max_examples=40, deadline=None)
def test_span_timing_and_ordering(shape):
    tracer = Tracer()
    with tracing(tracer):
        _record(tracer, shape)

    def check(span):
        end = span.start + span.wall
        previous_start = None
        for child in span.children:
            # a child runs inside its parent's window ...
            assert child.start >= span.start
            assert child.start + child.wall <= end + 1e-6
            # ... and siblings are recorded in execution order
            if previous_start is not None:
                assert child.start >= previous_start
            previous_start = child.start
            check(child)
        assert span.status == "ok"

    check(tracer.root)


@given(shape=_shapes)
@settings(max_examples=40, deadline=None)
def test_jsonl_records_reference_valid_parents(shape):
    tracer = Tracer()
    with tracing(tracer):
        _record(tracer, shape)
    records = list(iter_jsonl_records(tracer, "t"))
    assert len(records) == _count(shape)
    seen = set()
    for record in records:
        assert record["schema"] == TRACE_SCHEMA
        # pre-order: every parent id was emitted before its children
        assert record["parent_id"] is None or record["parent_id"] in seen
        seen.add(record["span_id"])
    assert records[0]["parent_id"] is None


@given(shape=_shapes)
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip(shape):
    tracer = Tracer()
    with tracing(tracer):
        _record(tracer, shape)
    rebuilt = Span.from_jsonable(tracer.root.to_jsonable())
    _assert_mirrors(rebuilt, shape)
    # wall times round during serialization; the shape-level summary
    # (span counts per phase) must survive exactly
    before, after = summarize(tracer.root), summarize(rebuilt)
    assert after["spans"] == before["spans"]
    assert set(after["phases"]) == set(before["phases"])
    for name, phase in after["phases"].items():
        assert phase["count"] == before["phases"][name]["count"]
        assert phase["wall"] == pytest.approx(
            before["phases"][name]["wall"], abs=1e-5
        )


def test_null_tracer_is_ambient_default():
    assert current_tracer() is NULL_TRACER
    assert not NULL_TRACER.active
    with NULL_TRACER.span("anything") as span:
        span.set(ignored=True)  # must be a harmless no-op
    tracer = Tracer()
    with tracing(tracer):
        assert current_tracer() is tracer
    assert current_tracer() is NULL_TRACER


def test_span_cap_drops_instead_of_growing():
    tracer = Tracer(max_spans=5)
    with tracing(tracer):
        with tracer.span("root"):
            for _ in range(20):
                with tracer.span("child"):
                    pass
    assert tracer.n_spans == 5
    assert tracer.dropped == 16
    assert len(tracer.root.children) == 4
    assert summarize(tracer.root, dropped=tracer.dropped)["dropped"] == 16


def test_trace_env_setting():
    assert trace_env_setting(None) == (False, None)
    assert trace_env_setting("0") == (False, None)
    assert trace_env_setting("off") == (False, None)
    assert trace_env_setting("") == (False, None)
    assert trace_env_setting("1") == (True, None)
    assert trace_env_setting("stderr") == (True, None)
    assert trace_env_setting("/tmp/x.jsonl") == (True, "/tmp/x.jsonl")


def test_metrics_registry():
    registry = MetricsRegistry()
    registry.counter("jobs").inc()
    registry.counter("jobs").inc(2)
    for value in (1.0, 3.0, 2.0):
        registry.histogram("wall").observe(value)
    with pytest.raises(TypeError):
        registry.histogram("jobs")
    snapshot = registry.snapshot()
    assert snapshot["schema"] == METRICS_SCHEMA
    assert snapshot["metrics"]["jobs"]["value"] == 3
    wall = snapshot["metrics"]["wall"]
    assert (wall["count"], wall["min"], wall["max"]) == (3, 1.0, 3.0)


# ---------------------------------------------------------------------------
# differential: tracing observes, never changes
# ---------------------------------------------------------------------------


def _strip_trace(stats):
    return {key: value for key, value in stats.items() if key != "trace"}


def test_typecheck_identical_with_and_without_tracing():
    machine = copy_transducer(ALPHA)
    tau = _leaves_all_a()

    clear_cache()
    plain = typecheck(machine, tau, tau, method="exact")

    clear_cache()
    tracer = Tracer()
    with tracing(tracer):
        traced = typecheck(machine, tau, tau, method="exact")

    assert traced.ok == plain.ok
    assert traced.method == plain.method
    assert "trace" not in plain.stats
    assert "trace" in traced.stats
    # stats must agree modulo the trace key (seconds jitter excepted)
    plain_stats = _strip_trace(plain.stats)
    traced_stats = _strip_trace(traced.stats)
    plain_stats.pop("seconds"), traced_stats.pop("seconds")
    # cache bytes/entries are table-global, not per-run: compare deltas
    for stats in (plain_stats, traced_stats):
        stats["cache"] = {
            key: value for key, value in stats["cache"].items()
            if key in ("enabled", "hits", "misses", "stores", "evictions")
        }
    assert traced_stats == plain_stats

    summary = traced.stats["trace"]
    assert summary["spans"] > 0
    assert "typecheck" in summary["phases"]
    assert "exact" in summary["phases"]


def test_trace_records_cache_hit_miss_deltas():
    clear_cache()
    previous = GLOBAL_CACHE.enabled
    GLOBAL_CACHE.enabled = True
    try:
        tracer = Tracer()
        with tracing(tracer):
            with tracer.span("outer"):
                memoized("demo.op", (), lambda: 1, extra=("k",))
                memoized("demo.op", (), lambda: 1, extra=("k",))
    finally:
        GLOBAL_CACHE.enabled = previous
        clear_cache()
    outer = tracer.root
    first, second = (
        child for child in outer.children if child.name == "demo.op"
    )
    assert first.attrs["cache"] == "miss"
    assert second.attrs["cache"] == "hit"
    assert first.cache["misses"] == 1 and first.cache["stores"] == 1
    assert second.cache["hits"] == 1 and second.cache["misses"] == 0
    assert outer.cache["hits"] == 1 and outer.cache["misses"] == 1


# ---------------------------------------------------------------------------
# exhaustion mid-span
# ---------------------------------------------------------------------------


def test_spans_close_exhausted_when_governor_fires():
    governor = make_governor(max_steps=1)
    tracer = Tracer()
    with tracing(tracer), governed(governor):
        with pytest.raises(ResourceExhausted):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    governor.tick()
                    governor.tick()  # budget is 1: this raises
    outer = tracer.root
    assert outer.name == "outer"
    assert outer.status == "exhausted"
    assert outer.children[0].status == "exhausted"
    assert outer.children[0].attrs["exhausted_reason"] == "steps"
    # and the governor steps consumed inside the span were recorded
    assert outer.steps >= 1


def test_exhausted_typecheck_closes_spans_exhausted():
    machine = copy_transducer(ALPHA)
    tau = _leaves_all_a()
    clear_cache()
    tracer = Tracer()
    with tracing(tracer):
        with pytest.raises(ResourceExhausted):
            typecheck(machine, tau, tau, method="exact", max_steps=5)
    assert tracer.root is not None
    assert tracer.root.name == "typecheck"
    assert tracer.root.status == "exhausted"
    statuses = {span.status for span in _walk(tracer.root)}
    assert "exhausted" in statuses


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def test_error_status_on_other_exceptions():
    tracer = Tracer()
    with tracing(tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
    assert tracer.root.status == "error"
    assert tracer.root.attrs["error_type"] == "ValueError"


# ---------------------------------------------------------------------------
# fork-stitching across a supervised batch
# ---------------------------------------------------------------------------

_INPUT_DTD = "root := a*\na := #PCDATA\n"


def _typecheck_spec(job_id):
    return JobSpec(
        id=job_id,
        kind="typecheck",
        params={
            "stylesheet_text": (
                '<xsl:template match="root"><out>'
                "<xsl:apply-templates/></out></xsl:template>"
                '<xsl:template match="a"><item/></xsl:template>'
            ),
            "input_dtd_text": _INPUT_DTD,
            "output_dtd_text": "out := item*\nitem := #PCDATA\n",
        },
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_stitches_worker_traces(tmp_path, workers):
    specs = [_typecheck_spec(f"job-{i}") for i in range(3)]
    tracer = Tracer()
    supervisor = Supervisor()
    with tracing(tracer):
        report = supervisor.run_batch(
            specs,
            workers=workers,
            results_path=str(tmp_path / "results.jsonl"),
        )
    assert report.by_status == {"ok": 3}

    root = tracer.root
    assert root.name == "batch"
    job_spans = {span.name: span for span in root.children}
    assert set(job_spans) == {f"job:job-{i}" for i in range(3)}
    for name, job_span in job_spans.items():
        names = [span.name for span in _walk(job_span)]
        # the worker subprocess's subtree was grafted under the attempt:
        # worker → typecheck → exact came over the result pipe
        assert "attempt" in names
        assert "worker" in names
        assert "typecheck" in names
        worker = next(s for s in _walk(job_span) if s.name == "worker")
        assert worker.attrs["job"] == name.removeprefix("job:")
    # grafted spans feed the metrics registry too
    snapshot = tracer.metrics.snapshot()
    assert snapshot["metrics"]["span.worker.wall"]["count"] == 3
    assert snapshot["metrics"]["job.status.ok"]["value"] == 3


def test_untraced_batch_ships_no_trace_payload(tmp_path):
    results = tmp_path / "results.jsonl"
    report = Supervisor().run_batch(
        [_typecheck_spec("solo")], results_path=str(results)
    )
    assert report.by_status == {"ok": 1}
    (line,) = results.read_text().splitlines()
    assert "\"trace\"" not in line


# ---------------------------------------------------------------------------
# result-log schema bump + job_id labeling (the PR's bugfix)
# ---------------------------------------------------------------------------


def test_result_lines_are_schema_tagged_with_job_id(tmp_path):
    results = tmp_path / "results.jsonl"
    report = Supervisor().run_batch(
        [_typecheck_spec("labelled")], results_path=str(results)
    )
    assert report.by_status == {"ok": 1}
    (line,) = results.read_text().splitlines()
    data = json.loads(line)
    assert data["schema"] == RESULT_SCHEMA
    cache = data["detail"]["stats"]["cache"]
    assert cache["job_id"] == "labelled"
    for attempt in data["history"]:
        attempt_cache = attempt.get("detail", {}).get("stats", {}).get(
            "cache"
        )
        if attempt_cache is not None:
            assert attempt_cache["job_id"] == "labelled"


def test_resume_reader_tolerates_v1_and_v2_lines(tmp_path):
    log = tmp_path / "results.jsonl"
    log.write_text(
        json.dumps({"id": "old-job", "status": "ok"}) + "\n"  # v1: no schema
        + json.dumps({"schema": RESULT_SCHEMA, "id": "new-job",
                      "status": "ok"}) + "\n"
        + "{truncated"  # torn final line from a SIGKILL mid-write
    )
    assert completed_job_ids(str(log)) == {"old-job", "new-job"}
