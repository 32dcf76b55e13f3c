"""Typecheck-as-a-service: a crash-safe daemon with a pre-forked pool.

A batch pool lives for one ``repro batch`` call, so its warm memo
table dies with the run, and the warm table is worth ~4-5x on the exact
pipeline.  This module keeps one pool for the daemon's life and adds a
shared persistent tier under it:

* **Pre-forked, reusable pool.**  ``ServiceDaemon`` opens a
  :class:`~repro.runtime.supervisor.WorkerPool` of ``workers``
  long-lived worker processes up front.  Each worker hydrates its
  in-process :class:`~repro.runtime.cache.MemoCache` from the shared
  :class:`~repro.runtime.diskcache.DiskCache` and then serves many jobs,
  so the second job with the same DTDs hits a warm table.  Workers are
  **recycled** — retired gracefully and replaced by a fresh fork — after
  ``recycle_jobs`` jobs or when their resident set crosses
  ``recycle_rss_bytes``: leaks are bounded by construction, and the
  replacement re-hydrates from disk, so recycling sheds memory without
  shedding warmth.
* **Supervision carries over.**  Each slot thread runs its jobs through
  :meth:`Supervisor.run_on`, the loop behind ``repro batch``:
  wall-clock and RSS polled against hard limits, SIGKILL on breach, the
  same seven-way outcome taxonomy, the job's own ``retry`` policy with
  exact→bounded degradation, the same schema-tagged result lines, and
  worker span trees grafted into the daemon's tracer.  A worker that
  dies (or is killed) is respawned with exponential backoff, and a
  **circuit breaker** per affinity key fast-fails submissions whose
  input keeps killing workers instead of letting one bad DTD grind the
  pool down.
* **Cache-affinity routing.**  Jobs are routed to pool slots by
  :func:`~repro.runtime.jobs.affinity_key` — jobs sharing DTDs land on
  the worker whose memo table already holds their automata.
* **Crash safety from journals alone.**  Every accepted job is appended
  (fsynced) to ``queue.jsonl`` before it is acknowledged; every finished
  job is appended (fsynced) to ``results.jsonl`` before its waiter is
  released.  Startup replays the queue **exactly once**: entries whose
  id already appears in the results journal (last-wins, via
  :func:`~repro.runtime.supervisor.completed_results`) are not re-run.
  ``kill -9`` at any point therefore loses no completed result and no
  committed cache segment — the next start recovers the disk cache
  (truncating torn tails), compacts it under the fcntl lock, and
  finishes what was queued.
* **Graceful drain.**  ``SIGTERM`` (or the ``shutdown`` op) finishes
  in-flight jobs, answers queued-but-unstarted waiters with a
  ``deferred`` acknowledgement (their jobs stay journaled and run on the
  next start), flushes cache segments, retires the pool, and exits 0.
* **Admission control and brownout (PR 8).**  Queues are bounded: a slot
  whose backlog is at ``max_backlog`` answers ``shed`` instead of
  queueing forever, and a submission carrying ``deadline_ms`` is shed
  up-front when the :class:`_CostEstimator`'s persistent EWMA history
  predicts the job cannot finish in time (``predicted-overrun``), or
  while it waits in queue once the deadline passes
  (``deadline-expired``) — in every shed case *nothing executes* and no
  worker is burned.  A :class:`_LoadController` samples queue depth and
  p95 queue latency and steps the daemon through pressure levels
  (``ready`` → ``tightened`` → ``bounded-only`` → ``shed-new``):
  under pressure cooperative budgets are tightened, exact typechecking
  degrades to the bounded falsifier (the cheap tier the paper's
  Section 5 licenses for rejection), and at the top level new work is
  shed outright.  The ``health`` verb reports
  ``ready``/``degraded``/``overloaded`` for load balancers, and slow
  clients are bounded by a socket timeout instead of pinning handler
  threads.

Wire protocol (unix socket, one JSON line request → one JSON line
response per connection)::

    {"op": "ping"}                           → {"ok": true, "pid": ...}
    {"op": "stats"}                          → {"ok": true, "stats": {...}}
    {"op": "health"}                         → {"ok": true, "health": ...,
                                                "pressure": {...}}
    {"op": "submit", "job": {...JobSpec...},
     "wait": true}                           → {"ok": true, "result": {...}}
    {"op": "shutdown"}                       → {"ok": true, "draining": true}

``ServiceClient`` wraps it for the CLI (``repro submit``) and the tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import signal
import socket
import sys
import threading
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro.errors import EXIT_OK, ServiceError, SupervisorError
from repro.runtime.diskcache import DiskCache
from repro.runtime.faults import FaultPlan, fault_point, install_plan
from repro.runtime.governor import clamp_timeout
from repro.runtime.jobs import _flag, _number, affinity_key
from repro.runtime.supervisor import (
    CRASHED,
    MISCOMPILED,
    OOM,
    SHED,
    TIMEOUT,
    JobLimits,
    JobResult,
    JobSpec,
    Supervisor,
    WorkerPool,
    _deadline_at,
    _Journal,
    completed_results,
)
from repro.runtime.trace import current_tracer, tracing

try:  # pragma: no cover - exercised on every POSIX platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "QUEUE_SCHEMA",
    "PRESSURE_LEVELS",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceClient",
]

#: Schema tag on every queue-journal line.
QUEUE_SCHEMA = "repro-queue/v1"

#: Pool-worker statuses that trip the circuit breaker.
_BREAKER_FAILURES = (CRASHED, TIMEOUT, OOM)

#: Brownout pressure levels, in escalation order.  ``ready`` serves
#: exactly as configured; ``tightened`` clamps every job's cooperative
#: budget to the latency budget; ``bounded-only`` additionally degrades
#: exact typechecking to the bounded falsifier; ``shed-new`` refuses new
#: submissions outright (queued work still drains).
PRESSURE_LEVELS = ("ready", "tightened", "bounded-only", "shed-new")


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a daemon needs, declaratively (and JSON-friendly).

    ``directory`` holds the daemon's whole durable state: the cache
    segments, both journals, the service lock and (by default) the unix
    socket — point a new daemon at the same directory and it carries on
    where the last one stopped, however the last one stopped.
    """

    directory: str
    socket_path: Optional[str] = None
    workers: int = 2
    recycle_jobs: int = 64
    recycle_rss_bytes: Optional[int] = 512 * 1024 * 1024
    limits: JobLimits = field(default_factory=JobLimits)
    hydrate_limit: Optional[int] = 512
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    compact_on_start: bool = True
    fault_plan: Optional[FaultPlan] = None
    #: per-slot queue cap: a slot at this depth sheds instead of queueing
    #: (0 = shed everything, useful in tests; ``None`` = unbounded, the
    #: pre-PR-8 behaviour).
    max_backlog: Optional[int] = 64
    #: enable the brownout load controller (pressure levels + health).
    brownout: bool = True
    #: the queue-latency budget (seconds) the controller defends; p95
    #: queue wait beyond this is treated as overload pressure.
    latency_budget: float = 2.0
    #: how often the controller samples depth/latency.
    controller_interval: float = 0.25
    #: socket timeout for client connections: a slow-loris client is cut
    #: off after this many seconds instead of pinning a handler thread
    #: (``None`` = wait forever, the pre-PR-8 behaviour).
    client_timeout: Optional[float] = 10.0
    #: audit mode forced onto every typecheck job (:mod:`repro.audit`):
    #: ``"witness"`` certifies type-error evidence before a result is
    #: journaled, ``"full"`` additionally falsifies exact ``ok``
    #: verdicts.  A refuted verdict comes back ``miscompiled`` (the
    #: worker quarantines its memo lineage from both cache tiers) and is
    #: journaled as such; counters surface via ``stats``/``health``.
    audit: str = "off"

    def __post_init__(self) -> None:
        if self.audit not in ("off", "witness", "full"):
            raise ServiceError(
                f"unknown audit mode {self.audit!r}; expected off, "
                f"witness, or full"
            )
        if self.workers < 1:
            raise ServiceError("workers must be at least 1")
        if self.recycle_jobs < 1:
            raise ServiceError("recycle_jobs must be at least 1")
        if self.breaker_threshold < 1:
            raise ServiceError("breaker_threshold must be at least 1")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ServiceError(
                "backoff_base must be non-negative and backoff_cap >= base"
            )
        if self.max_backlog is not None and self.max_backlog < 0:
            raise ServiceError("max_backlog must be None or non-negative")
        if self.latency_budget <= 0:
            raise ServiceError("latency_budget must be positive")
        if self.controller_interval <= 0:
            raise ServiceError("controller_interval must be positive")
        if self.client_timeout is not None and self.client_timeout <= 0:
            raise ServiceError("client_timeout must be None or positive")

    def resolved_socket(self) -> Path:
        if self.socket_path is not None:
            return Path(self.socket_path)
        return Path(self.directory) / "service.sock"


# -- daemon-side bookkeeping -------------------------------------------------


class _CircuitBreaker:
    """Consecutive-failure breaker, scoped per affinity key.

    ``threshold`` consecutive breaker-class failures open the circuit;
    while open, submissions for that key fast-fail without touching a
    worker.  After ``cooldown`` seconds one trial is let through
    (half-open): success closes the circuit, failure re-opens it
    immediately.  ``clock`` is injectable (monotonic seconds) so the
    half-open property test can drive virtual time.
    """

    def __init__(self, threshold: int, cooldown: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._streak: dict[str, int] = {}
        self._opened_at: dict[str, float] = {}
        self.fast_failed = 0

    def allow(self, key: str) -> bool:
        with self._lock:
            opened = self._opened_at.get(key)
            if opened is None:
                return True
            if self._clock() - opened < self.cooldown:
                self.fast_failed += 1
                return False
            del self._opened_at[key]  # half-open: admit one trial
            return True

    def record(self, key: str, status: str) -> None:
        with self._lock:
            if status in _BREAKER_FAILURES:
                streak = self._streak.get(key, 0) + 1
                self._streak[key] = streak
                if streak >= self.threshold:
                    self._opened_at[key] = self._clock()
            else:
                self._streak.pop(key, None)
                self._opened_at.pop(key, None)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "open": sorted(self._opened_at),
                "fast_failed": self.fast_failed,
            }


class _CostEstimator:
    """Persistent per-affinity-key wall-time history for admission control.

    An EWMA (``ALPHA``-weighted) of each affinity key's executed wall
    seconds, loaded from ``costs.json`` at start and saved (atomically,
    fsynced) on drain and periodically — so a daemon restart keeps its
    sense of which DTDs are expensive.  The admission path compares
    :meth:`estimate` against a submission's remaining ``deadline_ms``:
    a job that history says cannot finish in time is shed up-front
    (``predicted-overrun``) without forking a worker.  Only *executed*
    outcomes are recorded (timeouts at their observed wall — an input
    that hits the wall is expensive by definition); shed jobs are not,
    so the estimator never learns from its own refusals.
    """

    ALPHA = 0.3
    #: keep the table bounded; oldest-inserted half is dropped past this.
    MAX_KEYS = 2048

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._ewma: dict[str, float] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # no history yet (or torn by a crash): start cold
        ewma = data.get("ewma") if isinstance(data, dict) else None
        if isinstance(ewma, dict):
            for key, value in ewma.items():
                try:
                    self._ewma[str(key)] = float(value)
                except (TypeError, ValueError):
                    continue

    def record(self, key: str, wall_seconds: float) -> None:
        with self._lock:
            previous = self._ewma.pop(key, None)  # pop+set keeps LRU order
            self._ewma[key] = (
                wall_seconds if previous is None
                else previous + self.ALPHA * (wall_seconds - previous)
            )
            self._dirty = True
            if len(self._ewma) > self.MAX_KEYS:
                for stale in list(self._ewma)[: self.MAX_KEYS // 2]:
                    del self._ewma[stale]

    def estimate(self, key: str) -> Optional[float]:
        with self._lock:
            return self._ewma.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ewma)

    def save(self) -> None:
        """Atomically persist the table (no-op when nothing changed)."""
        with self._lock:
            if not self._dirty:
                return
            snapshot = dict(self._ewma)
            self._dirty = False
        tmp = self.path.with_suffix(".json.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"schema": "repro-costs/v1", "ewma": snapshot},
                          handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            _fsync_directory(self.path.parent)
        except OSError:  # pragma: no cover - full disk etc.
            pass


class _LoadController:
    """The brownout governor: queue pressure → a graded service level.

    Two signals, sampled every ``interval`` seconds by the daemon's
    controller thread: *utilization* (total queue depth over
    ``capacity``, the sum of the per-slot backlog caps) and the *p95
    queue wait* over a sliding ``window`` of recent jobs.  Either signal
    maps to a target pressure level (:data:`PRESSURE_LEVELS`); the
    controller steps **up** immediately (overload must be answered now)
    but steps **down** one level at a time after ``dwell`` consecutive
    calm samples — the hysteresis that keeps a draining burst from
    flapping exact↔bounded on every sample.  Transitions are kept (ring
    buffer) for ``stats`` and the E17 overload benchmark.
    """

    def __init__(
        self,
        capacity: int,
        latency_budget: float,
        *,
        interval: float = 0.25,
        window: float = 5.0,
        dwell: int = 8,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.capacity = max(1, capacity)
        self.latency_budget = latency_budget
        self.interval = interval
        self.window = window
        self.dwell = dwell
        self._clock = clock
        self._lock = threading.Lock()
        self._waits: deque = deque(maxlen=512)  # (observed_at, seconds)
        self._calm = 0
        self.level = 0
        self.transitions: deque = deque(maxlen=64)

    def observe_wait(self, seconds: float) -> None:
        """Record one job's queue wait (called from the slot threads)."""
        with self._lock:
            self._waits.append((self._clock(), seconds))

    def p95_wait(self) -> float:
        """p95 queue wait over the sliding window (0.0 when idle)."""
        horizon = self._clock() - self.window
        with self._lock:
            recent = [w for (at, w) in self._waits if at >= horizon]
        if not recent:
            return 0.0
        ordered = sorted(recent)
        rank = min(len(ordered) - 1,
                   max(0, int(round(0.95 * len(ordered))) - 1))
        return ordered[rank]

    def evaluate(self, depth: int) -> int:
        """One controller step for the current queue ``depth``."""
        utilization = depth / self.capacity
        p95 = self.p95_wait()
        target = 0
        if utilization >= 0.9:
            target = 3
        elif utilization >= 0.6:
            target = 2
        elif utilization >= 0.3:
            target = 1
        if p95 > 2.0 * self.latency_budget:
            target = max(target, 2)
        elif p95 > self.latency_budget:
            target = max(target, 1)
        with self._lock:
            if target > self.level:
                self._transition(target, utilization, p95)
            elif target < self.level:
                self._calm += 1
                if self._calm >= self.dwell:
                    self._transition(self.level - 1, utilization, p95)
            else:
                self._calm = 0
            return self.level

    def _transition(self, level: int, utilization: float, p95: float) -> None:
        self.transitions.append({
            "at": round(self._clock(), 4),
            "from": PRESSURE_LEVELS[self.level],
            "to": PRESSURE_LEVELS[level],
            "utilization": round(utilization, 3),
            "p95_wait": round(p95, 4),
        })
        self.level = level
        self._calm = 0

    def snapshot(self) -> dict:
        with self._lock:
            level = self.level
            transitions = list(self.transitions)
        return {
            "level": PRESSURE_LEVELS[level],
            "capacity": self.capacity,
            "latency_budget": self.latency_budget,
            "p95_wait": round(self.p95_wait(), 4),
            "transitions": transitions,
        }


def _fsync_directory(directory: Path) -> None:
    """fsync a directory so a just-``os.replace``d entry survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - defensive
        pass
    finally:
        os.close(fd)


class _Waiter:
    """A submitted job's rendezvous: the waiter blocks, the slot sets."""

    __slots__ = ("event", "result", "deferred")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[JobResult] = None
        self.deferred = False


# -- the daemon --------------------------------------------------------------


class ServiceDaemon:
    """The ``repro serve`` daemon: pool, journals, socket, breaker.

    Lifecycle: :meth:`start` acquires the service lock, recovers and
    compacts the disk cache, replays the queue journal exactly-once,
    forks the pool and opens the socket; :meth:`serve_forever` then
    parks until a drain; :meth:`drain` (SIGTERM, ``shutdown`` op, or a
    direct call) winds everything down gracefully.  All durable state
    lives in ``config.directory`` — see the module docstring for the
    crash-safety contract.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.directory = Path(config.directory)
        self.socket_path = config.resolved_socket()
        self.cache: Optional[DiskCache] = None
        self.recovery: dict = {}
        self.replayed = 0
        self._lock_handle = None
        self._server: Optional[socket.socket] = None
        self._pool = WorkerPool(
            config.workers,
            fault_plan=config.fault_plan,
            cache_dir=str(self.cache_dir),
            hydrate_limit=config.hydrate_limit,
            recycle_jobs=config.recycle_jobs,
            recycle_rss_bytes=config.recycle_rss_bytes,
            backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
            inherited_fds=self._inherited_fds,
        )
        self._supervisor = Supervisor(limits=config.limits)
        self._queues: list[queue.Queue] = [
            queue.Queue() for _ in range(config.workers)
        ]
        self._threads: list[threading.Thread] = []
        self._waiters: dict[str, _Waiter] = {}
        self._waiters_lock = threading.Lock()
        self._queue_journal: Optional[_Journal] = None
        self._results_journal: Optional[_Journal] = None
        self._breaker = _CircuitBreaker(
            config.breaker_threshold, config.breaker_cooldown
        )
        self._costs = _CostEstimator(Path(config.directory) / "costs.json")
        per_slot = config.max_backlog if config.max_backlog is not None else 64
        self._controller: Optional[_LoadController] = (
            _LoadController(
                capacity=max(1, per_slot) * config.workers,
                latency_budget=config.latency_budget,
                interval=config.controller_interval,
            )
            if config.brownout else None
        )
        self._served: Counter = Counter()
        self._shed_reasons: Counter = Counter()
        self._audit_outcomes: Counter = Counter()
        self._quarantined_keys = 0
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._started = False
        self._tracer = None

    # -- paths -------------------------------------------------------------

    @property
    def queue_path(self) -> Path:
        return self.directory / "queue.jsonl"

    @property
    def results_path(self) -> Path:
        return self.directory / "results.jsonl"

    @property
    def lock_path(self) -> Path:
        return self.directory / "service.lock"

    @property
    def cache_dir(self) -> Path:
        return self.directory / "cache"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> dict:
        """Bring the daemon up; returns a recovery/startup summary."""
        if self._started:
            raise ServiceError("daemon already started")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        self._tracer = current_tracer()
        self.cache = DiskCache(self.cache_dir, sync="flush")
        self.recovery = self.cache.recover()
        if self.config.compact_on_start:
            # before any worker exists, so compaction never races a
            # live writer; a busy/faulted lock skips harmlessly
            self.cache.compact()
        pending = self._replay_queue()
        self._queue_journal = _Journal(self.queue_path)
        self._results_journal = _Journal(self.results_path)
        if self.config.fault_plan is not None:
            # arm the daemon-side points (pool:backlog-storm,
            # job:deadline-expired, client:slow-read); armed *after*
            # recovery/compaction so startup chaos semantics are the
            # workers' alone
            install_plan(self.config.fault_plan)
        self._pool.start()
        for slot in range(self.config.workers):
            thread = threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"serve-slot-{slot}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._open_socket()
        accept = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        if self._controller is not None:
            controller = threading.Thread(
                target=self._controller_loop, name="serve-brownout",
                daemon=True,
            )
            controller.start()
            self._threads.append(controller)
        self._started = True
        for spec in pending:
            self._route(spec, _Waiter())  # replay: nobody is waiting
        self.replayed = len(pending)
        return {
            "pid": os.getpid(),
            "socket": str(self.socket_path),
            "workers": self.config.workers,
            "cache": self.recovery,
            "replayed": self.replayed,
        }

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        def _drain_handler(signum, frame):  # pragma: no cover - signal path
            threading.Thread(
                target=self.drain, name="serve-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _drain_handler)
        signal.signal(signal.SIGINT, _drain_handler)

    def serve_forever(self) -> int:
        """Park until a drain completes; returns the process exit code."""
        if not self._started:
            self.start()
        while not self._stopped.wait(timeout=0.2):
            pass
        return EXIT_OK

    def drain(self) -> None:
        """Graceful shutdown: finish in-flight, checkpoint, retire, stop.

        In-flight jobs run to completion (their results are journaled
        and their waiters answered); queued-but-unstarted jobs stay in
        the queue journal — their waiters get a ``deferred`` ack and the
        next daemon start replays them.  Idempotent.
        """
        if self._draining.is_set():
            self._stopped.wait()
            return
        self._draining.set()
        self._close_socket()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30.0)
        for journal in (self._queue_journal, self._results_journal):
            if journal is not None:
                journal.close()
        self._costs.save()
        if self.cache is not None:
            self.cache.close()
        if self.config.fault_plan is not None:
            install_plan(None)
        self._release_lock()
        self._stopped.set()

    # -- startup internals -------------------------------------------------

    def _acquire_lock(self) -> None:
        handle = open(self.lock_path, "a+b")
        if fcntl is not None:
            # a kill -9'd daemon's workers may hold the inherited lock
            # for a beat while their pipes EOF; retry briefly before
            # declaring the directory owned
            deadline = time.monotonic() + 2.0
            while True:
                try:
                    fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        handle.close()
                        raise ServiceError(
                            f"another daemon already serves {self.directory} "
                            f"(lock {self.lock_path} is held)"
                        )
                    time.sleep(0.05)
        handle.truncate(0)
        handle.write(f"{os.getpid()}\n".encode())
        handle.flush()
        self._lock_handle = handle

    def _release_lock(self) -> None:
        if self._lock_handle is not None:
            try:
                if fcntl is not None:
                    fcntl.flock(self._lock_handle, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - defensive
                pass
            self._lock_handle.close()
            self._lock_handle = None

    def _replay_queue(self) -> list[JobSpec]:
        """Queued-minus-completed, exactly once; rewrite the queue journal.

        The queue journal may hold jobs that already finished (their
        result line was fsynced before the kill) — those are *not*
        re-run.  The journal is then rewritten to just the survivors
        (atomic replace), so journals stay bounded across restarts.
        """
        done = completed_results(str(self.results_path))
        entries: dict[str, dict] = {}
        if self.queue_path.exists():
            for raw in self.queue_path.read_text(
                encoding="utf-8", errors="replace"
            ).splitlines():
                line = raw.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a kill -9 mid-append
                spec_data = data.get("spec") if isinstance(data, dict) else None
                if isinstance(spec_data, dict) and spec_data.get("id"):
                    entries[str(spec_data["id"])] = spec_data
        pending: list[JobSpec] = []
        for job_id, spec_data in entries.items():
            if job_id in done:
                continue
            try:
                pending.append(JobSpec.from_dict(spec_data))
            except SupervisorError:
                continue  # journaled garbage must not wedge startup
        tmp = self.queue_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for spec in pending:
                handle.write(json.dumps(
                    {"schema": QUEUE_SCHEMA, "spec": spec.to_dict()},
                    sort_keys=True,
                ) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.queue_path)
        # the rename itself must be durable: without a directory fsync a
        # crash right here can resurrect the pre-replay journal and
        # re-run jobs whose results were already journaled
        _fsync_directory(self.directory)
        return pending

    def _open_socket(self) -> None:
        try:
            if self.socket_path.exists():
                self.socket_path.unlink()  # stale from a kill -9'd daemon
        except OSError:
            pass
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            server.bind(str(self.socket_path))
        except OSError as error:
            raise ServiceError(
                f"cannot bind service socket {self.socket_path}: {error}"
            )
        server.listen(64)
        # a blocked accept() is not woken by close() from another
        # thread; a short timeout lets the loop notice the drain flag
        server.settimeout(0.2)
        self._server = server

    def _close_socket(self) -> None:
        if self._server is not None:
            try:
                self._server.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._server = None
        try:
            self.socket_path.unlink()
        except OSError:
            pass

    # -- pool management ---------------------------------------------------

    def _inherited_fds(self) -> list[int]:
        fds = []
        if self._lock_handle is not None:
            fds.append(self._lock_handle.fileno())
        if self._server is not None:
            fds.append(self._server.fileno())
        return fds

    # -- routing and execution ---------------------------------------------

    def _slot_for(self, affinity: str) -> int:
        digest = hashlib.blake2b(affinity.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % len(self._queues)

    def _route(self, spec: JobSpec, waiter: _Waiter,
               deadline_at: Optional[float] = None) -> int:
        """Enqueue unconditionally (replay path: the cap never re-sheds
        work that was already admitted and journaled)."""
        affinity = affinity_key(spec.to_dict())
        slot = self._slot_for(affinity)
        self._queues[slot].put(
            (spec, waiter, time.monotonic(), deadline_at, affinity)
        )
        return slot

    def _controller_loop(self) -> None:
        """Sample queue pressure on a fixed cadence; persist cost history."""
        controller = self._controller
        assert controller is not None
        saves_every = max(1, int(20.0 / controller.interval))
        ticks = 0
        while not self._draining.wait(timeout=controller.interval):
            depth = sum(q.qsize() for q in self._queues)
            controller.evaluate(depth)
            ticks += 1
            if ticks % saves_every == 0:
                self._costs.save()

    def _slot_loop(self, slot: int) -> None:
        tracer = self._tracer
        with tracing(tracer):
            while not self._draining.is_set():
                try:
                    item = self._queues[slot].get(timeout=0.1)
                except queue.Empty:
                    continue
                spec, waiter, enqueued_at, deadline_at, affinity = item
                # chaos points: a ``delay`` here stalls consumption so a
                # burst piles the backlog / outlives a queued deadline
                fault_point("pool:backlog-storm", str(slot))
                fault_point("job:deadline-expired", spec.id)
                if self._controller is not None:
                    self._controller.observe_wait(
                        time.monotonic() - enqueued_at
                    )
                result = self._execute(slot, spec, deadline_at, affinity)
                self._finish(spec, result, waiter, affinity)
        # drain: whatever never started stays journaled for the next
        # daemon; its waiter learns it was deferred, not lost
        while True:
            try:
                item = self._queues[slot].get_nowait()
            except queue.Empty:
                break
            waiter = item[1]
            waiter.deferred = True
            waiter.event.set()
        self._pool.retire(slot)

    def _execute(self, slot: int, spec: JobSpec,
                 deadline_at: Optional[float], affinity: str) -> JobResult:
        """Run ``spec`` through the supervisor's retry loop on ``slot``.

        Brownout and audit are applied to the spec first; a deadline
        that expired in queue is answered ``shed`` by the loop itself,
        without touching the worker.  ``affinity`` is the key the job
        was admitted under; its cost is filed under it.
        """
        pressure = self._controller.level if self._controller else 0
        with current_tracer().span(f"serve:{spec.id}", kind=spec.kind,
                                   slot=slot) as span:
            result = self._supervisor.run_on(
                self._pool, slot, self._adjusted(spec, pressure),
                deadline_at=deadline_at,
            )
            span.set(status=result.status)
        if result.status == SHED:
            return result
        if pressure > 0:
            result.detail["brownout"] = PRESSURE_LEVELS[pressure]
        # feed the admission cost model with what execution actually cost
        # (timeouts count at their observed wall: hitting the wall *is*
        # the cost signal admission needs)
        self._costs.record(affinity, result.wall_seconds)
        audit_report = result.detail.get("stats", {}).get("audit")
        if isinstance(audit_report, dict) and audit_report.get("status"):
            self._audit_outcomes[str(audit_report["status"])] += 1
        quarantine = result.detail.get("quarantine")
        if isinstance(quarantine, dict):
            self._quarantined_keys += int(
                quarantine.get("disk_quarantined", 0)
            )
        return result

    def _adjusted(self, spec: JobSpec, pressure: int) -> JobSpec:
        """``spec`` under the current pressure level and audit mode."""
        params = dict(spec.params)
        limits = spec.limits
        if pressure >= 1:
            # tightened budgets: no single job may hold a worker longer
            # than the latency budget the controller is defending
            budget = self.config.latency_budget
            limits = limits if limits is not None else self.config.limits
            if limits.wall_seconds is None or limits.wall_seconds > budget:
                limits = replace(limits, wall_seconds=budget)
            if spec.kind in ("typecheck", "run"):
                params["timeout"] = clamp_timeout(params.get("timeout"),
                                                  budget)
        if (pressure >= 2 and spec.kind == "typecheck"
                and params.get("method") != "bounded"):
            # bounded-only: the cheap falsifier tier (paper §5) for
            # everyone until pressure subsides (every method but bounded,
            # named or the default)
            params["method"] = "bounded"
        if (self.config.audit != "off" and spec.kind == "typecheck"
                and "audit" not in params):
            # certification before journaling: the worker audits its own
            # verdict (and quarantines its memo tiers on refutation)
            params["audit"] = self.config.audit
        return replace(spec, params=params, limits=limits)

    # -- submission and journaling -----------------------------------------

    def submit(self, spec: JobSpec, *, wait: bool = True,
               timeout: Optional[float] = None) -> dict:
        """Accept one job; the response dict mirrors the wire protocol.

        Admission control, in order: a draining daemon defers; the
        ``shed-new`` pressure level sheds; an open circuit breaker
        fast-fails; a ``deadline_ms`` the cost history says cannot be
        met sheds (``predicted-overrun``); a backlog at ``max_backlog``
        sheds.  Every shed is journaled to the results log (never the
        queue journal — a shed job must not be replayed) and executes
        nothing.
        """
        if self._draining.is_set():
            # journaled, acknowledged, executed by the next daemon
            self._journal_queue(spec)
            return {"ok": True, "deferred": True, "id": spec.id}
        if self._controller is not None and self._controller.level >= 3:
            result = self._shed_result(
                spec, "overload",
                "daemon at pressure level shed-new: queue depth or p95 "
                "queue latency exceeded the overload thresholds; retry "
                "after backoff",
            )
            return {"ok": True, "result": result.to_jsonable(),
                    "shed": "overload"}
        affinity = affinity_key(spec.to_dict())
        if not self._breaker.allow(affinity):
            result = JobResult(
                id=spec.id, status=CRASHED, attempts=0, wall_seconds=0.0,
                detail={
                    "error": (
                        f"circuit breaker open for affinity {affinity}: "
                        "this input recently killed "
                        f"{self.config.breaker_threshold} worker(s) in a row"
                    ),
                    "breaker": affinity,
                },
            )
            self._results_journal.append(result.to_jsonable())
            self._served[result.status] += 1
            return {"ok": True, "result": result.to_jsonable(),
                    "fast_failed": True}
        deadline_at = _deadline_at(spec)
        if deadline_at is not None:
            estimate = self._costs.estimate(affinity)
            remaining = deadline_at - time.monotonic()
            if estimate is not None and estimate > remaining:
                result = self._shed_result(
                    spec, "predicted-overrun",
                    f"estimated cost {estimate:.3f}s for affinity "
                    f"{affinity} exceeds the {remaining * 1000:.0f}ms "
                    "remaining deadline; nothing was executed",
                )
                return {"ok": True, "result": result.to_jsonable(),
                        "shed": "predicted-overrun"}
        slot = self._slot_for(affinity)
        cap = self.config.max_backlog
        if cap is not None and self._queues[slot].qsize() >= cap:
            result = self._shed_result(
                spec, "backlog",
                f"slot {slot} backlog is at max_backlog={cap}; retry "
                "after backoff",
            )
            return {"ok": True, "result": result.to_jsonable(),
                    "shed": "backlog"}
        self._journal_queue(spec)
        waiter = _Waiter()
        with self._waiters_lock:
            self._waiters[spec.id] = waiter
        self._queues[slot].put(
            (spec, waiter, time.monotonic(), deadline_at, affinity)
        )
        if not wait:
            return {"ok": True, "queued": spec.id}
        if not waiter.event.wait(timeout):
            return {"ok": False, "error": f"timed out waiting for {spec.id}"}
        if waiter.deferred:
            return {"ok": True, "deferred": True, "id": spec.id}
        assert waiter.result is not None
        return {"ok": True, "result": waiter.result.to_jsonable()}

    def _shed_result(self, spec: JobSpec, reason: str,
                     message: str) -> JobResult:
        """Build and record a ``shed`` outcome (nothing executed)."""
        result = JobResult(
            id=spec.id, status=SHED, attempts=0, wall_seconds=0.0,
            detail={"shed": reason, "error": message},
        )
        self._record(spec, result)
        return result

    def _finish(self, spec: JobSpec, result: JobResult,
                waiter: _Waiter, affinity: str) -> None:
        self._record(spec, result, affinity)
        with self._waiters_lock:
            self._waiters.pop(spec.id, None)
        waiter.result = result
        waiter.event.set()

    def _record(self, spec: JobSpec, result: JobResult,
                affinity: Optional[str] = None) -> None:
        """Journal a final result and count it; ``affinity``, the key
        the job was admitted under, files an executed result with the
        breaker."""
        self._results_journal.append(result.to_jsonable())
        self._served[result.status] += 1
        if result.status == SHED:
            # nothing executed, so a shed is evidence of *load*, not of
            # the input's health: it never touches the breaker
            reason = result.detail["shed"]
            self._shed_reasons[reason] += 1
        else:
            self._breaker.record(affinity, result.status)

    def _journal_queue(self, spec: JobSpec) -> None:
        # lands even after a drain closed the journal: a ``deferred`` ack
        # is a durability promise
        self._queue_journal.append(
            {"schema": QUEUE_SCHEMA, "spec": spec.to_dict()}
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        cache_stats: dict = {}
        if self.cache is not None:
            self.cache.refresh(force=True)
            cache_stats = self.cache.stats()
        return {
            "pid": os.getpid(),
            "socket": str(self.socket_path),
            "draining": self._draining.is_set(),
            "served": dict(self._served),
            "replayed": self.replayed,
            "queued": sum(q.qsize() for q in self._queues),
            "max_backlog": self.config.max_backlog,
            "shed": dict(self._shed_reasons),
            "pressure": (
                self._controller.snapshot()
                if self._controller is not None else None
            ),
            "cost_model": {"keys": len(self._costs)},
            "breaker": self._breaker.snapshot(),
            "audit": {
                "mode": self.config.audit,
                "outcomes": dict(self._audit_outcomes),
                "miscompiled": self._served.get(MISCOMPILED, 0),
                "quarantined_keys": self._quarantined_keys,
            },
            "cache": cache_stats,
            "workers": self._pool.snapshot(),
        }

    def health(self) -> dict:
        """The load-balancer view: one word plus the pressure snapshot.

        ``ready`` (level 0), ``degraded`` (tightened / bounded-only) or
        ``overloaded`` (shed-new).  A draining daemon is ``overloaded``
        for admission purposes — it defers everything.
        """
        level = self._controller.level if self._controller is not None else 0
        if self._draining.is_set() or level >= 3:
            health = "overloaded"
        elif level >= 1:
            health = "degraded"
        else:
            health = "ready"
        return {
            "health": health,
            "draining": self._draining.is_set(),
            "pressure": (
                self._controller.snapshot()
                if self._controller is not None else None
            ),
            "audit": {
                "mode": self.config.audit,
                "miscompiled": self._served.get(MISCOMPILED, 0),
                "quarantined_keys": self._quarantined_keys,
            },
        }

    # -- the socket server -------------------------------------------------

    def _accept_loop(self) -> None:
        server = self._server
        while not self._draining.is_set():
            try:
                client, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # socket closed: we are draining
            # a slow-loris client must not pin a handler thread forever
            client.settimeout(self.config.client_timeout)
            threading.Thread(
                target=self._handle_client, args=(client,),
                name="serve-conn", daemon=True,
            ).start()

    def _handle_client(self, client: socket.socket) -> None:
        # the stream holds the socket's fd open until it is closed too
        with client, client.makefile("rwb") as stream:
            try:
                # chaos: a ``delay`` here makes *this daemon* the slow
                # peer, holding the client's socket without reading
                fault_point("client:slow-read", str(client.fileno()))
                raw = stream.readline()
                if not raw:
                    return
                response = self._answer(raw)
            except OSError:
                return  # client went away; its job (if any) stays journaled
            except Exception as error:  # noqa: BLE001 - connection boundary
                # the daemon keeps serving, and this client gets an answer
                traceback.print_exc(file=sys.stderr)
                response = {"ok": False, "error": f"internal error: {error!r}"}
            try:
                stream.write(
                    json.dumps(response, sort_keys=True).encode() + b"\n"
                )
                stream.flush()
            except OSError:
                pass

    def _answer(self, raw: bytes) -> dict:
        try:
            request = json.loads(raw)
            if not isinstance(request, dict):
                raise ValueError("request is not an object")
        except (json.JSONDecodeError, ValueError) as error:
            return {"ok": False, "error": f"bad request: {error}"}
        return self._dispatch(request)

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "draining": self._draining.is_set()}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "health":
            return {"ok": True, **self.health()}
        if op == "shutdown":
            threading.Thread(
                target=self.drain, name="serve-drain", daemon=True
            ).start()
            return {"ok": True, "draining": True}
        if op == "submit":
            try:
                spec = JobSpec.from_dict(request.get("job") or {})
            except SupervisorError as error:
                return {"ok": False, "error": str(error)}
            # refused before submit() journals anything
            timeout = request.get("timeout")
            try:
                if timeout is not None:
                    timeout = _number(timeout, "timeout")
                wait = _flag(request.get("wait", True), "wait")
            except SupervisorError as error:
                return {"ok": False, "error": f"bad request: {error}"}
            return self.submit(spec, wait=wait, timeout=timeout)
        return {"ok": False, "error": f"unknown op {op!r}"}


# -- the client --------------------------------------------------------------


class ServiceClient:
    """Talk to a running daemon over its unix socket (one op per call)."""

    def __init__(self, socket_path: str | os.PathLike,
                 timeout: Optional[float] = None) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def request(self, payload: dict) -> dict:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(5.0)
            try:
                sock.connect(self.socket_path)
            except OSError as error:
                raise ServiceError(
                    f"no daemon listening at {self.socket_path}: {error}"
                )
            sock.settimeout(self.timeout)
            stream = sock.makefile("rwb")
            try:
                stream.write(
                    json.dumps(payload, sort_keys=True).encode() + b"\n"
                )
                stream.flush()
                raw = stream.readline()
            except OSError as error:
                raise ServiceError(
                    f"connection to {self.socket_path} dropped: {error}"
                )
            if not raw:
                raise ServiceError(
                    f"daemon at {self.socket_path} closed the connection "
                    "without replying"
                )
            try:
                response = json.loads(raw)
            except json.JSONDecodeError as error:
                raise ServiceError(f"malformed daemon reply: {error}")
            if not isinstance(response, dict):
                raise ServiceError("malformed daemon reply: not an object")
            return response
        finally:
            sock.close()

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def health(self) -> dict:
        return self.request({"op": "health"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def submit(self, spec: JobSpec | Mapping, *, wait: bool = True,
               timeout: Optional[float] = None) -> dict:
        job = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        payload: dict[str, Any] = {"op": "submit", "job": job, "wait": wait}
        if timeout is not None:
            payload["timeout"] = timeout
        return self.request(payload)
