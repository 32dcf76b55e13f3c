"""Structured tracing + metrics for the typechecking pipeline.

Exact typechecking is non-elementary (Theorem 4.8).  The repo already has
three layers that fight that blowup — the cooperative resource governor
(:mod:`repro.runtime.governor`), the memoized automata algebra
(:mod:`repro.runtime.cache`) and the supervised job runtime
(:mod:`repro.runtime.supervisor`) — but none of them *shows* where a
run's time, steps or states actually went.  This module is that
observability layer, with zero dependencies beyond the stdlib:

* :class:`Span` — one timed, named piece of work.  A span records wall
  time, the governor steps/states consumed while it was open, the
  memo-table hit/miss/store deltas, free-form attributes, and its child
  spans; a span closed by :class:`~repro.errors.ResourceExhausted`
  carries ``status="exhausted"`` (other exceptions: ``"error"``).
* :class:`Tracer` — builds the span tree.  Like the governor it is
  *ambient*: :func:`tracing` installs a tracer in a ``contextvars``
  ContextVar and every instrumented call site picks it up via
  :func:`current_tracer`; when nothing is installed the singleton
  :data:`NULL_TRACER` hands out a no-op span, so untraced runs pay one
  ContextVar read and a method call per instrumented operation (the
  operations instrumented are whole automata constructions, never inner
  loop iterations — the disabled overhead on the E10 suite is < 2%,
  measured in ``BENCH_*.json``'s ``trace_overhead`` section).
* :class:`MetricsRegistry` — named counters and histograms.  The
  tracer feeds every closed span into per-name histograms, which back
  ``typecheck()``'s ``stats["trace"]`` summary and ``repro batch
  --metrics-out``.

Serialization is schema-versioned like the bench reports:

* ``Tracer.to_jsonable()`` — the nested span tree (the wire format the
  supervised workers ship over the result pipe; the driver stitches the
  worker tree under its batch span with :meth:`Tracer.graft`, which is
  how one trace survives process boundaries).
* :func:`iter_jsonl_records` — one flat record per span
  (``{"schema": "repro-trace/v1", "span_id": ..., "parent_id": ...}``),
  the ``--trace FILE`` / ``REPRO_TRACE=<path>`` output.
* :func:`render_tree` — the human-readable stderr span tree.

Survival across supervisor forks: pool workers reset the ambient tracer
when they start (fork hygiene, like the governor and the memo table)
and install a fresh one for each job the driver traces; the finished
tree rides the result pipe as plain JSON, so stitching works for both
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from threading import RLock
from typing import Any, Iterator, Mapping, Optional, TextIO

from repro.errors import ResourceExhausted
from repro.runtime.governor import current_governor as _current_governor

__all__ = [
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "current_tracer",
    "tracing",
    "trace_env_setting",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "iter_jsonl_records",
    "render_tree",
    "summarize",
    "write_jsonl",
]

#: Schema tag on every span JSONL record / shipped span tree.
TRACE_SCHEMA = "repro-trace/v1"
#: Schema tag on a metrics snapshot (``repro batch --metrics-out``).
METRICS_SCHEMA = "repro-metrics/v1"

#: Span statuses (exactly one per closed span).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_EXHAUSTED = "exhausted"
#: A span that was never closed (tracer snapshotted mid-flight).
STATUS_OPEN = "open"

#: Memo-table counters a span records deltas of.
_CACHE_COUNTERS = ("hits", "misses", "stores")

#: Lazily bound :data:`repro.runtime.cache.GLOBAL_CACHE` (cache.py
#: imports this module, so the reference cannot be taken at import time).
_CACHE = None


def _global_cache():
    global _CACHE
    if _CACHE is None:
        from repro.runtime.cache import GLOBAL_CACHE

        _CACHE = GLOBAL_CACHE
    return _CACHE


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_jsonable(self) -> dict:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Streaming count/sum/min/max plus recent-window percentiles.

    No buckets: the pipeline's distributions are heavy-tailed across many
    orders of magnitude (Theorem 4.8), so fixed buckets would mislead;
    count + sum + extremes are what the span-tree summaries need.  A
    bounded window of the most recent observations is kept besides, so
    :meth:`percentile` (and the ``p50``/``p95`` of a snapshot) reflects
    *current* behaviour, stays O(window) in memory forever, and decays
    once a burst has drained.
    """

    __slots__ = ("count", "total", "min", "max", "_recent")

    #: observations retained for :meth:`percentile` (memory bound).
    WINDOW = 256

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._recent: deque = deque(maxlen=self.WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._recent.append(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile (0–100) of the recent window.

        Nearest-rank over the last :data:`WINDOW` observations; ``None``
        when nothing has been observed yet.
        """
        if not self._recent:
            return None
        ordered = sorted(self._recent)
        rank = max(0, min(len(ordered) - 1,
                          int(round(p / 100.0 * len(ordered))) - 1))
        if p <= 0:
            rank = 0
        return ordered[rank]

    def to_jsonable(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """A thread-safe, named registry of counters and histograms.

    ``counter(name)`` / ``histogram(name)`` get-or-create;
    asking for an existing name with a different kind raises ``TypeError``
    (a registry is a schema, not a grab bag).  :meth:`snapshot` returns a
    plain JSON-able dict tagged :data:`METRICS_SCHEMA`.
    """

    def __init__(self) -> None:
        self._lock = RLock()
        self._metrics: dict[str, Any] = {}

    def _get(self, name: str, cls: type) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls()
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """All metrics as one JSON-able dict (safe to mutate)."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "metrics": {
                    name: metric.to_jsonable()
                    for name, metric in sorted(self._metrics.items())
                },
            }


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Span:
    """One timed, named piece of work in the trace tree."""

    __slots__ = (
        "name",
        "start",
        "wall",
        "status",
        "attrs",
        "children",
        "steps",
        "states",
        "cache",
        "_t0",
        "_gov0",
        "_cache0",
    )

    def __init__(self, name: str, start: float, attrs: Optional[dict] = None
                 ) -> None:
        self.name = name
        #: seconds since the tracer's epoch (comparable within one trace).
        self.start = start
        self.wall: float = 0.0
        self.status = STATUS_OPEN
        self.attrs: dict = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        #: governor steps / automaton states consumed while open.
        self.steps = 0
        self.states = 0
        #: memo-table counter deltas while open.
        self.cache: dict[str, int] = {}
        self._t0 = 0.0
        self._gov0 = (0, 0)
        self._cache0 = (0, 0, 0)

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (last write per key wins)."""
        self.attrs.update(attrs)

    def to_jsonable(self) -> dict:
        """The span subtree as a plain nested dict (the pipe wire format)."""
        payload: dict = {
            "name": self.name,
            "start": round(self.start, 6),
            "wall": round(self.wall, 6),
            "status": self.status,
        }
        if self.steps:
            payload["steps"] = self.steps
        if self.states:
            payload["states"] = self.states
        if any(self.cache.values()):
            payload["cache"] = dict(self.cache)
        if self.attrs:
            payload["attrs"] = _jsonable_attrs(self.attrs)
        if self.children:
            payload["children"] = [c.to_jsonable() for c in self.children]
        return payload

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "Span":
        """Rebuild a span subtree from :meth:`to_jsonable` output.

        Tolerant: unknown keys are ignored, missing ones default, so a
        newer worker's tree still stitches into an older driver.
        """
        span = cls(str(data.get("name", "?")), float(data.get("start", 0.0)))
        span.wall = float(data.get("wall", 0.0))
        span.status = str(data.get("status", STATUS_OK))
        span.steps = int(data.get("steps", 0))
        span.states = int(data.get("states", 0))
        cache = data.get("cache")
        if isinstance(cache, Mapping):
            span.cache = {str(k): int(v) for k, v in cache.items()}
        attrs = data.get("attrs")
        if isinstance(attrs, Mapping):
            span.attrs = dict(attrs)
        for child in data.get("children", ()) or ():
            if isinstance(child, Mapping):
                span.children.append(cls.from_jsonable(child))
        return span


def _jsonable_attrs(attrs: Mapping) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = str(value)
    return out


class _SpanHandle:
    """The context manager a live :class:`Tracer` hands out per span."""

    __slots__ = ("_tracer", "_span", "_parent", "_token")

    def __init__(self, tracer: "Tracer", span: Optional[Span],
                 parent: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span  # None when the tracer hit its span cap
        self._parent = parent
        self._token = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        if span is None:
            return _NULL_SPAN
        cache = _global_cache()
        governor = _current_governor()
        if self._parent is None:
            self._parent = tracer._current.get()
        self._token = tracer._current.set(span)
        span._gov0 = (governor.steps, governor.states)
        span._cache0 = (cache.hits, cache.misses, cache.stores)
        # last, so handle bookkeeping lands outside the measured window
        # (it would otherwise show up as unattributed parent self-time)
        span._t0 = time.perf_counter()
        span.start = span._t0 - tracer._epoch
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if span is None:
            return False
        # first, for the same reason _t0 is set last in __enter__
        span.wall = time.perf_counter() - span._t0
        cache = _global_cache()
        governor = _current_governor()
        tracer = self._tracer
        span.steps = governor.steps - span._gov0[0]
        span.states = governor.states - span._gov0[1]
        after = (cache.hits, cache.misses, cache.stores)
        span.cache = {
            name: after[i] - span._cache0[i]
            for i, name in enumerate(_CACHE_COUNTERS)
        }
        if exc_type is None:
            span.status = STATUS_OK
        elif isinstance(exc, ResourceExhausted):
            span.status = STATUS_EXHAUSTED
            span.set(exhausted_reason=exc.reason, exhausted_phase=exc.phase)
        else:
            span.status = STATUS_ERROR
            if exc_type is not None:
                span.set(error_type=exc_type.__name__)
        tracer._current.reset(self._token)
        tracer._attach(self._parent, span)
        tracer._observe(span)
        return False


class Tracer:
    """Builds a tree of :class:`Span` s for one traced run.

    The current span is tracked in a per-tracer ``ContextVar``, so nested
    ``with tracer.span(...)`` blocks compose across ``contextvars``
    contexts exactly like the ambient governor.  Threads start with an
    empty context; a span opened in a fresh thread therefore attaches to
    the tracer's *root* span (guarded by a lock) — which is precisely
    what the supervisor's batch fan-out wants: every ``job:<id>`` span
    lands under the batch span no matter which worker thread ran it.

    ``max_spans`` bounds memory on pathological traces: past the cap new
    spans are timed as no-ops and only counted (``dropped`` in the
    summary), never recorded.
    """

    #: default span cap per tracer.
    MAX_SPANS = 20_000

    def __init__(self, *, max_spans: int = MAX_SPANS) -> None:
        self.metrics = MetricsRegistry()
        self.max_spans = max_spans
        self.root: Optional[Span] = None
        self.dropped = 0
        self.n_spans = 0
        self._epoch = time.perf_counter()
        self._lock = RLock()
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "repro_trace_current", default=None
        )

    # -- introspection -----------------------------------------------------

    @property
    def active(self) -> bool:
        """True for real tracers; False for :data:`NULL_TRACER`."""
        return True

    def adopt(self, span: Optional[Span]) -> None:
        """Make ``span`` the context's current span.

        For fan-out threads: a fresh thread starts with an empty
        ``contextvars`` context, so the batch driver calls
        ``adopt(batch_span)`` at the top of each supervision thread to
        re-establish where that thread's spans nest.
        """
        self._current.set(span)

    # -- span creation -----------------------------------------------------

    def span(self, name: str, *, parent: Optional[Span] = None,
             **attrs: Any) -> _SpanHandle:
        """A context manager recording one named span.

        ``parent`` overrides the ambient nesting (used by the batch
        driver to pin job spans under the batch span from worker
        threads); by default the span nests under the context's current
        span, or becomes/joins the root.
        """
        with self._lock:
            if self.n_spans >= self.max_spans:
                self.dropped += 1
                return _SpanHandle(self, None, None)
            self.n_spans += 1
        span = Span(name, 0.0, attrs if attrs else None)
        return _SpanHandle(self, span, parent)

    def graft(self, tree: Optional[Mapping], *,
              parent: Optional[Span] = None) -> Optional[Span]:
        """Stitch a serialized span tree (from a worker's result pipe)
        under ``parent`` (default: the context's current span, else the
        root).  Returns the grafted :class:`Span`, or None for no-op
        input.  The grafted subtree's spans count against ``max_spans``
        but are never dropped partially — a worker tree stays whole."""
        if not tree:
            return None
        root = tree.get("root") if "root" in tree else tree
        if not root:
            return None
        span = Span.from_jsonable(root)
        self._attach(
            parent if parent is not None else self._current.get(), span
        )
        with self._lock:
            self.n_spans += _count_spans(span)
            self.dropped += int(tree.get("dropped", 0) or 0)
        stack = [span]
        while stack:
            node = stack.pop()
            self._observe(node)
            stack.extend(node.children)
        return span

    # -- internals ---------------------------------------------------------

    def _attach(self, parent: Optional[Span], span: Span) -> None:
        if parent is not None:
            parent.children.append(span)  # single-threaded per context
            return
        with self._lock:
            if self.root is None:
                self.root = span
            elif span is not self.root:
                self.root.children.append(span)

    def _observe(self, span: Span) -> None:
        metrics = self.metrics
        metrics.histogram(f"span.{span.name}.wall").observe(span.wall)
        if span.status != STATUS_OK:
            metrics.counter(f"span.{span.name}.{span.status}").inc()

    # -- output ------------------------------------------------------------

    def to_jsonable(self) -> dict:
        """The whole trace as one nested dict (pipe wire format)."""
        return {
            "schema": TRACE_SCHEMA,
            "dropped": self.dropped,
            "root": self.root.to_jsonable() if self.root is not None else None,
        }

    def summary(self) -> dict:
        """The compact per-phase aggregation behind ``stats["trace"]``:
        total spans, the root wall time, and ``phases`` mapping span name
        to count / total wall / governor steps."""
        return summarize(self.root, dropped=self.dropped)


class _NullSpan:
    """The span :data:`NULL_TRACER` hands out: records nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """The ambient default: no spans, no cost beyond a method call."""

    active = False
    root = None
    dropped = 0
    metrics = None

    def span(self, name: str, *, parent: Optional[Span] = None,
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def adopt(self, span) -> None:
        pass

    def graft(self, tree: Optional[Mapping], *,
              parent: Optional[Span] = None) -> Optional[Span]:
        return None

    def summary(self) -> dict:
        return {}


#: The do-nothing tracer installed by default.
NULL_TRACER = _NullTracer()

_ambient: ContextVar = ContextVar("repro_tracer", default=NULL_TRACER)


def current_tracer():
    """The tracer installed for the calling context (or the null one)."""
    return _ambient.get()


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for this context."""
    token = _ambient.set(tracer)
    try:
        yield tracer
    finally:
        _ambient.reset(token)


def trace_env_setting(value: Optional[str]) -> tuple[bool, Optional[str]]:
    """Interpret a ``REPRO_TRACE`` environment value.

    Returns ``(enabled, jsonl_path)``: unset/``0``/``off``/``false``/``no``
    disable tracing; ``1``/``on``/``true``/``yes``/``stderr`` enable the
    stderr span tree only; anything else is a path that additionally
    receives the JSONL records.
    """
    if value is None:
        return False, None
    lowered = value.strip().lower()
    if lowered in ("", "0", "off", "false", "no"):
        return False, None
    if lowered in ("1", "on", "true", "yes", "stderr"):
        return True, None
    return True, value


# ---------------------------------------------------------------------------
# aggregation and output formats
# ---------------------------------------------------------------------------


def _count_spans(span: Span) -> int:
    total = 0
    stack = [span]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


def summarize(root: Optional[Span], dropped: int = 0) -> dict:
    """Aggregate a span tree per span name.

    Returns ``{"spans": N, "wall": root wall, "dropped": D,
    "phases": {name: {count, wall, steps}}}`` — the ``stats["trace"]``
    payload and the per-phase breakdown of ``BENCH_*.json``.
    """
    if root is None:
        return {"spans": 0, "wall": 0.0, "dropped": dropped, "phases": {}}
    phases: dict[str, dict] = {}
    total = 0
    stack = [root]
    while stack:
        span = stack.pop()
        total += 1
        agg = phases.setdefault(
            span.name, {"count": 0, "wall": 0.0, "steps": 0}
        )
        agg["count"] += 1
        agg["wall"] += span.wall
        agg["steps"] += span.steps
        stack.extend(span.children)
    for agg in phases.values():
        agg["wall"] = round(agg["wall"], 6)
    return {
        "spans": total,
        "wall": round(root.wall, 6),
        "dropped": dropped,
        "phases": {name: phases[name] for name in sorted(phases)},
    }


def iter_jsonl_records(tracer: Tracer, trace_id: str = "trace"
                       ) -> Iterator[dict]:
    """Flatten the trace into one schema-versioned record per span.

    Pre-order; ``span_id`` numbers spans in emission order, ``parent_id``
    is None for the root.  This is the ``--trace FILE`` format.
    """
    root = tracer.root
    if root is None:
        return
    counter = 0
    stack: list[tuple[Span, Optional[int]]] = [(root, None)]
    while stack:
        span, parent_id = stack.pop()
        span_id = counter
        counter += 1
        record = {
            "schema": TRACE_SCHEMA,
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": span.name,
            "start": round(span.start, 6),
            "wall": round(span.wall, 6),
            "status": span.status,
            "steps": span.steps,
            "states": span.states,
            "cache": dict(span.cache),
        }
        if span.attrs:
            record["attrs"] = _jsonable_attrs(span.attrs)
        yield record
        # reversed so children emit in recording order under a stack
        for child in reversed(span.children):
            stack.append((child, span_id))


def write_jsonl(tracer: Tracer, path: str, trace_id: str = "trace") -> int:
    """Write the flat span records to ``path``; returns the span count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in iter_jsonl_records(tracer, trace_id):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def render_tree(tracer: Tracer, stream: Optional[TextIO] = None) -> None:
    """Print the human-readable span tree (the ``--trace`` stderr view)."""
    out = stream if stream is not None else sys.stderr
    root = tracer.root
    if root is None:
        print("trace: (no spans recorded)", file=out)
        return
    print("trace:", file=out)
    stack: list[tuple[Span, int]] = [(root, 0)]
    while stack:
        span, depth = stack.pop()
        flags = []
        if span.status != STATUS_OK:
            flags.append(span.status)
        if span.steps:
            flags.append(f"steps={span.steps}")
        if span.states:
            flags.append(f"states={span.states}")
        hits = span.cache.get("hits", 0)
        misses = span.cache.get("misses", 0)
        if hits or misses:
            flags.append(f"cache={hits}h/{misses}m")
        suffix = ("  [" + " ".join(flags) + "]") if flags else ""
        print(
            f"  {'  ' * depth}{span.name:<{max(1, 40 - 2 * depth)}} "
            f"{span.wall * 1000.0:9.2f} ms{suffix}",
            file=out,
        )
        for child in reversed(span.children):
            stack.append((child, depth + 1))
    if tracer.dropped:
        print(f"  … {tracer.dropped} span(s) dropped (cap "
              f"{tracer.max_spans})", file=out)
