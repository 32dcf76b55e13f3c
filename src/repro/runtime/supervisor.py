"""Supervised job execution: process isolation, hard limits, retries.

PR 1's :class:`~repro.runtime.governor.ResourceGovernor` is cooperative:
it stops a loop that *ticks*.  Theorem 4.8 guarantees the exact pipeline
can blow up anyway — inside one huge C-level set operation, or by
allocating faster than any step counter can express.  A serving system
survives that only with *process* supervision, which is what this module
adds:

* **Isolation** — every job attempt runs on a worker of a
  :class:`WorkerPool`, the one executor: a long-lived forked process
  that starts from a fresh memo table and a fresh ambient governor, so
  nothing a job does can corrupt the supervisor.  ``run_batch`` opens a
  pool for the call, ``run_job`` a one-shot pool, and the service daemon
  keeps one for its life; the jobs of one slot share its memo table.
* **Hard limits** — each attempt polls the worker's wall clock and
  resident set (``/proc/<pid>/statm``) and ``SIGKILL``\\ s on breach; the
  worker additionally arms an ``RLIMIT_AS`` backstop from each job's
  limits so a single giant allocation between polls dies as
  ``MemoryError`` instead of taking the host down.  Not cooperative: a
  worker stuck in C is killed all the same.
* **Classification** — every attempt ends in exactly one of
  ``ok`` / ``type-error`` / ``usage-error`` / ``exhausted`` (cooperative
  budget, with the governor's diagnostics) / ``timeout`` (SIGKILL at the
  wall limit) / ``oom`` (SIGKILL at the RSS limit, or the rlimit
  backstop) / ``crashed`` (died without reporting).  The worker
  classifies what its job raises with
  :func:`repro.runtime.jobs.execute_classified`, the function ``repro
  typecheck`` runs in-process.  An eighth status,
  ``shed``, is produced only *without* execution: an expired
  ``deadline_ms`` before an attempt starts, or the service daemon's
  admission control refusing the job under load.
* **Retry with degradation** — a declarative :class:`RetryPolicy`
  (attempts, exponential backoff, deterministic jitter) re-runs hard
  failures; on a *resource* failure the retried job is degraded — exact
  typechecking falls back to the bounded falsifier and cooperative
  budgets are installed/tightened (scaled by ``budget_scale`` per
  resource failure) so the retry fails fast and diagnosably instead of
  being killed again.
* **Checkpointed batches** — :meth:`Supervisor.run_batch` fans a JSONL
  manifest out across the pool's slots, streams one JSON line per finished
  job to the results log (flushed and fsynced), and treats that log as
  the checkpoint: a killed batch re-run with ``resume=True`` skips every
  job already recorded, so finished work is never recomputed and no job
  is reported twice.

Correctness of all of the above is exercised by the chaos tests through
:mod:`repro.runtime.faults` — deterministic, seeded fault points in the
worker path (crash, delay, exception, spurious OOM allocation).

Observability: result-log lines are schema-tagged
(:data:`RESULT_SCHEMA`), and under an ambient tracer
(:mod:`repro.runtime.trace`) every batch/job/attempt opens a span;
workers run their own fresh tracer (fork hygiene, like the governor and
the memo table) and ship their finished span tree back over the result
pipe, where the driver grafts it under the matching attempt — so one
tree shows the whole batch, across process boundaries.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import SupervisorError
from repro.runtime.faults import FaultPlan, fault_point, install_plan
# the outcome taxonomy lives with the job bodies that produce it; batch
# callers have always imported it from here, so it is re-exported
from repro.runtime.jobs import (  # noqa: F401 - re-exports
    CRASHED,
    EXHAUSTED,
    JOB_KINDS,
    MISCOMPILED,
    OK,
    OOM,
    SHED,
    STATUSES,
    TIMEOUT,
    TYPE_ERROR,
    USAGE_ERROR,
    _SEVERITY,
    _STATUS_EXIT,
    _flag,
    _number,
    _param,
    execute_classified,
    exit_code_for_statuses,
    import_job_path,
)
from repro.runtime.trace import NULL_TRACER, Tracer, current_tracer, tracing
from repro.runtime.trace import _ambient as _trace_ambient

try:  # pragma: no cover - exercised on every POSIX platform
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]

__all__ = [
    "OK",
    "TYPE_ERROR",
    "USAGE_ERROR",
    "EXHAUSTED",
    "SHED",
    "TIMEOUT",
    "OOM",
    "CRASHED",
    "MISCOMPILED",
    "STATUSES",
    "JobLimits",
    "RetryPolicy",
    "JobSpec",
    "JobResult",
    "RESULT_SCHEMA",
    "BatchReport",
    "Supervisor",
    "WorkerPool",
    "execute_classified",
    "load_manifest",
    "completed_job_ids",
    "completed_results",
]

# -- outcome taxonomy --------------------------------------------------------

#: Statuses caused by resource blow-ups — these trigger degradation.
RESOURCE_FAILURES = (TIMEOUT, OOM, EXHAUSTED)

#: Schema tag on every result-log line.  v2 added the tag itself and the
#: ``job_id`` field inside each ``detail.stats.cache`` delta block; v1
#: lines (no ``schema`` key) are still read by the tolerant consumers
#: (:func:`completed_job_ids` and the docs' jq recipes).
RESULT_SCHEMA = "repro-job-result/v2"


# -- declarative pieces ------------------------------------------------------


def _object(value: Any, name: str) -> None:
    """Refuse a spec field ``name`` that is not a JSON object."""
    if not isinstance(value, Mapping):
        raise SupervisorError(f"{name} must be an object, got {value!r}")


@dataclass(frozen=True)
class JobLimits:
    """Hard, non-cooperative limits enforced by the supervisor.

    ``wall_seconds`` — SIGKILL the worker once it has run this long.
    ``rss_bytes`` — SIGKILL once its resident set exceeds this (polled
    via ``/proc``; on platforms without ``/proc`` only the worker-side
    ``RLIMIT_AS`` backstop applies).  ``None`` disables a limit.
    """

    wall_seconds: Optional[float] = None
    rss_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise SupervisorError("wall_seconds must be positive")
        if self.rss_bytes is not None and self.rss_bytes <= 0:
            raise SupervisorError("rss_bytes must be positive")

    def to_dict(self) -> dict:
        return {"wall_seconds": self.wall_seconds, "rss_bytes": self.rss_bytes}

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobLimits":
        _object(data, "limits")
        rss = data.get("rss_bytes")
        if rss is None and data.get("rss_mb") is not None:
            rss = int(_number(data["rss_mb"], "limits.rss_mb") * 1024 * 1024)
        wall = data.get("wall_seconds")
        return cls(
            wall_seconds=(
                None if wall is None
                else _number(wall, "limits.wall_seconds")
            ),
            rss_bytes=(
                None if rss is None else _number(rss, "limits.rss_bytes", int)
            ),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are retried, declaratively.

    ``max_attempts`` bounds total attempts (1 = never retry).  Between
    attempts the supervisor sleeps ``base_delay * factor**(attempt-1)``,
    stretched by up to ``jitter`` (a fraction, drawn deterministically
    from ``seed`` and the job id so schedules are reproducible).  Only
    statuses in ``retry_on`` are retried.  With ``degrade=True`` a
    retry after a *resource* failure (timeout / oom / exhausted) runs a
    degraded job: exact-class typechecking (``auto`` or ``exact``)
    becomes the bounded falsifier, and cooperative budgets are
    installed from the wall limit and multiplied by ``budget_scale``
    for every resource failure seen so far.
    """

    max_attempts: int = 1
    base_delay: float = 0.0
    factor: float = 2.0
    jitter: float = 0.1
    retry_on: tuple = (CRASHED, TIMEOUT, OOM)
    degrade: bool = True
    budget_scale: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SupervisorError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.jitter < 0 or self.factor < 1.0:
            raise SupervisorError(
                "base_delay/jitter must be non-negative and factor >= 1"
            )
        if not 0.0 < self.budget_scale <= 1.0:
            raise SupervisorError("budget_scale must be within (0, 1]")
        unknown = set(self.retry_on) - set(STATUSES)
        if unknown:
            raise SupervisorError(f"unknown retry_on statuses: {unknown}")

    def delay(self, attempt: int, job_id: str) -> float:
        """Backoff before attempt ``attempt + 1`` (deterministic)."""
        base = self.base_delay * self.factor ** (attempt - 1)
        if base <= 0 or self.jitter <= 0:
            return max(base, 0.0)
        digest = hashlib.blake2b(
            f"{self.seed}|{job_id}|{attempt}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / 2**64
        return base * (1.0 + self.jitter * draw)

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "factor": self.factor,
            "jitter": self.jitter,
            "retry_on": list(self.retry_on),
            "degrade": self.degrade,
            "budget_scale": self.budget_scale,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RetryPolicy":
        _object(data, "retry")
        kwargs: dict[str, Any] = {}
        for name in ("max_attempts", "seed"):
            if data.get(name) is not None:
                kwargs[name] = _number(data[name], f"retry.{name}", int)
        for name in ("base_delay", "factor", "jitter", "budget_scale"):
            if data.get(name) is not None:
                kwargs[name] = _number(data[name], f"retry.{name}")
        retry_on = data.get("retry_on")
        if retry_on is not None:
            if not isinstance(retry_on, (list, tuple)) or not all(
                isinstance(status, str) for status in retry_on
            ):
                raise SupervisorError(
                    f"retry.retry_on must be a list of statuses, got "
                    f"{retry_on!r}"
                )
            kwargs["retry_on"] = tuple(retry_on)
        if data.get("degrade") is not None:
            kwargs["degrade"] = _flag(data["degrade"], "retry.degrade")
        return cls(**kwargs)


@dataclass(frozen=True)
class JobSpec:
    """One unit of supervised work (one line of a batch manifest).

    ``deadline_ms``, when set, is the caller's end-to-end latency budget
    in milliseconds, counted from *admission* (the moment the runtime
    first sees the spec).  The service daemon uses it for admission
    control — a job whose estimated cost exceeds the remaining deadline
    is shed without forking a worker — and every runtime propagates the
    remaining time into the attempt as both the hard wall clamp and the
    worker's ambient cooperative :class:`~repro.runtime.governor.Deadline`.
    """

    id: str
    kind: str
    params: dict = field(default_factory=dict)
    limits: Optional[JobLimits] = None
    retry: Optional[RetryPolicy] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise SupervisorError("job id must be a non-empty string")
        if self.kind not in JOB_KINDS:
            raise SupervisorError(
                f"job {self.id!r}: unknown kind {self.kind!r}; expected one "
                f"of {', '.join(JOB_KINDS)}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise SupervisorError(
                f"job {self.id!r}: deadline_ms must be positive"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobSpec":
        """The spec a manifest line or ``submit`` request holds.  A
        malformed field (a non-object ``params``, ``limits`` or
        ``retry``, a number that is not one or not finite) raises
        :class:`~repro.errors.SupervisorError` naming it."""
        if not isinstance(data, Mapping):
            raise SupervisorError(f"manifest entry is not an object: {data!r}")
        limits = data.get("limits")
        retry = data.get("retry")
        deadline_ms = data.get("deadline_ms")
        params = data.get("params")
        if params is None:
            # tolerate flat manifests: everything that is not a known
            # envelope key is a job parameter.
            params = {
                key: value
                for key, value in data.items()
                if key not in ("id", "kind", "limits", "retry", "deadline_ms")
            }
        _object(params, "params")
        return cls(
            id=str(data.get("id", "")),
            kind=data.get("kind", ""),
            params=dict(params),
            limits=(
                None if limits in (None, {}) else JobLimits.from_dict(limits)
            ),
            retry=(
                None if retry in (None, {}) else RetryPolicy.from_dict(retry)
            ),
            deadline_ms=(
                None if deadline_ms is None
                else _number(deadline_ms, "deadline_ms")
            ),
        )

    def to_dict(self) -> dict:
        payload: dict = {"id": self.id, "kind": self.kind,
                         "params": dict(self.params)}
        if self.limits is not None:
            payload["limits"] = self.limits.to_dict()
        if self.retry is not None:
            payload["retry"] = self.retry.to_dict()
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload


@dataclass
class JobResult:
    """The final, exactly-once outcome of one supervised job."""

    id: str
    status: str
    attempts: int
    wall_seconds: float
    detail: dict = field(default_factory=dict)
    history: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == OK

    def to_jsonable(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "id": self.id,
            "status": self.status,
            "attempts": self.attempts,
            "wall_seconds": round(self.wall_seconds, 6),
            "detail": self.detail,
            "history": self.history,
        }


@dataclass
class BatchReport:
    """What a batch run did: totals, per-status counts, the results.

    ``by_status`` counts only the jobs *this* run executed;
    ``resumed_by_status`` counts the jobs skipped because the resume
    checkpoint already recorded them, one count per distinct job id
    (checkpoint lines with a repeated id are deduplicated last-wins —
    a resumed-then-crashed-then-resumed log can legitimately carry
    several lines for one job).  Both pools feed :meth:`exit_code`: a
    batch whose only failure happened before the crash still exits
    non-zero after the resumed re-run completes the rest.
    """

    total: int
    executed: int
    skipped: int
    results: list = field(default_factory=list)
    resumed_by_status: dict = field(default_factory=dict)

    @property
    def by_status(self) -> dict:
        return dict(Counter(result.status for result in self.results))

    def exit_code(self) -> int:
        """The batch exit code: the most severe job status wins."""
        seen = {result.status for result in self.results}
        seen.update(
            status for status, count in self.resumed_by_status.items()
            if count
        )
        return exit_code_for_statuses(seen)


# -- the worker (runs in the forked subprocess) ------------------------------

#: Slack multiplier for the worker-side ``RLIMIT_AS`` backstop: address
#: space exceeds resident set by a wide margin (arenas, mappings), so the
#: rlimit is a guard against *runaway* allocation between supervisor
#: polls, not the primary limit.
_AS_BACKSTOP_FACTOR = 4
_AS_BACKSTOP_SLACK = 256 * 1024 * 1024

#: How often an attempt polls its worker's pipe, wall clock and RSS.
_POLL_SECONDS = 0.02


def _pool_worker(config: Mapping, conn) -> None:
    """Serve job payloads from ``conn`` until retired, EOF'd, or dead.

    One message in (a job payload dict, or ``None`` to retire), one
    message out (a classified outcome dict).  Workers are forked, so
    everything ambient in the parent — memo table contents and counters,
    an installed governor, tracer or fault plan, a persistent tier — is
    reset before the first job: a job can never observe the driver's
    budget or warm entries.  With a ``cache_dir`` the worker opens its
    *own* :class:`~repro.runtime.diskcache.DiskCache` on that directory
    (never the parent's file objects) and reads it on each memo miss,
    so a fresh worker starts warm.  ``conn`` doubles as the liveness
    contract: when the driver dies — even ``kill -9`` — the pipe EOFs and
    an idle worker exits instead of lingering as an orphan.  That holds
    only because the worker first closes every driver-side pipe end it
    inherited, its own included (``close_fds``).  A busy worker cannot
    see that EOF, so a watchdog thread waits on the parent's sentinel
    and ends the worker mid-job.
    """
    for fd in config.get("close_fds", ()):
        try:  # driver-side pipe ends, the daemon's lock and socket
            os.close(fd)
        except OSError:
            pass
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with_parent, args=(parent.sentinel,),
                         name="parent-watchdog", daemon=True).start()
    from repro.runtime.cache import GLOBAL_CACHE, clear_cache, install_persistent
    from repro.runtime.governor import NULL_GOVERNOR, _ambient

    _ambient.set(NULL_GOVERNOR)
    _trace_ambient.set(NULL_TRACER)
    clear_cache()
    GLOBAL_CACHE.reset_stats()
    install_persistent(None)
    plan = config.get("faults")
    install_plan(FaultPlan.from_dict(plan) if plan else None)
    disk = None
    if config.get("cache_dir"):
        from repro.runtime.diskcache import DiskCache

        disk = DiskCache(config["cache_dir"])
        install_persistent(disk)
    address_space = (
        resource.getrlimit(resource.RLIMIT_AS) if resource else None
    )
    try:
        conn.send({"ready": True, "pid": os.getpid()})
        while True:
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                break  # the driver is gone: do not outlive it
            if payload is None:
                break  # graceful retirement
            outcome = _serve_one(payload, disk, address_space)
            fault_point("worker:result", str(payload.get("fault_key", "")))
            try:
                conn.send(outcome)
            except OSError:
                break
    finally:
        install_persistent(None)
        if disk is not None:
            disk.close()
        conn.close()


def _exit_with_parent(sentinel: int) -> None:
    """Block until the driver process is gone, then end this worker."""
    try:
        os.read(sentinel, 1)  # the driver never writes: this is EOF
    except OSError:
        pass
    os._exit(1)


def _serve_one(payload: Mapping, disk, address_space) -> dict:
    """One job on a worker: arm its backstop, wedge point, classify,
    commit cache segments."""
    key = str(payload.get("fault_key", ""))
    _arm_backstop((payload.get("limits") or {}).get("rss_bytes"),
                  address_space)
    if payload.get("trace"):
        # the driver is tracing: record a fresh span tree for this job
        # and ship it back with the outcome (grafted by run_attempt)
        _trace_ambient.set(Tracer())
    # outside the classified region on purpose: an ``exception`` armed
    # here kills the worker (exercising respawn), a ``delay`` wedges it
    # (exercising the wall-limit SIGKILL)
    fault_point("pool:worker-wedge", key)
    with current_tracer().span(
        "worker", job=str(payload.get("id", "")), pid=os.getpid()
    ):
        outcome = execute_classified(payload)
    if disk is not None:
        try:
            disk.flush()  # the job is the commit unit for cache segments
        except OSError:  # pragma: no cover - full disk etc.
            pass
    tracer = current_tracer()
    if payload.get("trace") and tracer.active and tracer.root is not None:
        # the span tree rides the result pipe as plain JSON-able dicts,
        # so stitching works for fork and spawn alike
        outcome["trace"] = tracer.to_jsonable()
    _trace_ambient.set(NULL_TRACER)
    outcome["worker"] = {"pid": os.getpid()}
    return outcome


def _arm_backstop(rss_bytes: Optional[int], address_space) -> None:
    """Set this worker's ``RLIMIT_AS`` for one job: a backstop above the
    job's RSS limit, or the limit the worker started with if it has none.
    """
    if address_space is None:  # pragma: no cover - non-POSIX
        return
    soft, hard = address_space
    if rss_bytes:
        soft = int(rss_bytes) * _AS_BACKSTOP_FACTOR + _AS_BACKSTOP_SLACK
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    except (ValueError, OSError):  # pragma: no cover
        pass


def _rss_bytes(pid: int) -> Optional[int]:
    """Resident set of ``pid`` in bytes via ``/proc`` (None if unknown)."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


# -- the pool: the one executor ----------------------------------------------


@dataclass
class _Slot:
    """One pool slot's live worker (``None`` between incarnations)."""

    process: Any = None
    conn: Any = None
    jobs_done: int = 0
    crash_streak: int = 0
    respawn_at: float = 0.0
    respawns: int = 0
    recycles: int = 0


class WorkerPool:
    """The one executor: ``slots`` long-lived forked workers.

    Every attempt of every job runs here.  :meth:`Supervisor.run_batch`
    opens a pool of ``workers`` slots for the call,
    :meth:`Supervisor.run_job` a one-shot pool, and the service daemon
    one pool for its whole life (over a shared disk cache).  A
    slot's worker is forked by :meth:`start` or on first use and serves
    jobs one at a time, so the jobs of one slot share its memo table;
    each job's ``stats["cache"]`` is still a delta of its own.  A worker
    that dies or is killed is replaced on the slot's next attempt, after
    an exponential backoff counted from the crash (``backoff_base``
    doubling per consecutive crash up to ``backoff_cap``; none by
    default, where the job's :class:`RetryPolicy` is the only pause); a
    healthy one is recycled (retired, replaced on next use) after
    ``recycle_jobs`` jobs or once its resident set passes
    ``recycle_rss_bytes``.  Each slot is driven by one thread at a time.
    Forks are serialized, so every new worker knows — and closes — every
    driver-side pipe end it inherits.
    """

    def __init__(
        self,
        slots: int,
        *,
        fault_plan: Optional[FaultPlan] = None,
        cache_dir: Optional[str] = None,
        recycle_jobs: Optional[int] = None,
        recycle_rss_bytes: Optional[int] = None,
        backoff_base: float = 0.0,
        backoff_cap: float = 0.0,
        inherited_fds: Callable[[], Sequence[int]] = tuple,
    ) -> None:
        self.slots = [_Slot() for _ in range(slots)]
        self._config = {
            "faults": fault_plan.to_dict() if fault_plan is not None else None,
            "cache_dir": cache_dir,
        }
        self.recycle_jobs = recycle_jobs
        self.recycle_rss_bytes = recycle_rss_bytes
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._inherited_fds = inherited_fds
        self._fork_lock = threading.Lock()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )

    def start(self) -> None:
        """Fork every slot's worker up front (their setups overlap)."""
        for slot in range(len(self.slots)):
            self._fork(slot)
        for slot in range(len(self.slots)):
            self._handshake(slot)

    def close(self) -> None:
        """Retire every worker."""
        for slot in range(len(self.slots)):
            self.retire(slot)

    def snapshot(self) -> list[dict]:
        """Per-slot worker pid, liveness and counters (``stats``)."""
        return [
            {
                "slot": slot,
                "pid": (handle.process.pid
                        if handle.process is not None else None),
                "alive": (handle.process is not None
                          and handle.process.is_alive()),
                "jobs_done": handle.jobs_done,
                "respawns": handle.respawns,
                "recycles": handle.recycles,
            }
            for slot, handle in enumerate(self.slots)
        ]

    def backoff_left(self, slot: int) -> float:
        """Seconds before ``slot`` may replace its crashed worker."""
        return max(0.0, self.slots[slot].respawn_at - time.monotonic())

    # -- lifecycle ---------------------------------------------------------

    def _fork(self, slot: int) -> None:
        # a worker inherits the job path instead of importing it per job
        import_job_path()
        handle = self.slots[slot]
        with self._fork_lock:
            parent_conn, child_conn = self._mp.Pipe(duplex=True)
            config = dict(self._config)
            config["close_fds"] = [
                *self._inherited_fds(),
                parent_conn.fileno(),
                *(other.conn.fileno() for other in self.slots
                  if other.conn is not None),
            ]
            process = self._mp.Process(
                target=_pool_worker, args=(config, child_conn), daemon=True
            )
            process.start()
            child_conn.close()
            handle.process, handle.conn = process, parent_conn
        handle.jobs_done = 0

    def _handshake(self, slot: int) -> None:
        """Wait for a fresh worker's ready message."""
        handle = self.slots[slot]
        try:
            if handle.conn.poll(10.0):
                handle.conn.recv()
        except (EOFError, OSError):  # died during setup; its attempt says so
            pass

    def retire(self, slot: int, *, recycle: bool = False) -> None:
        """Stop ``slot``'s worker gracefully (no-op between incarnations)."""
        handle = self.slots[slot]
        if handle.process is None:
            return
        try:
            handle.conn.send(None)
        except OSError:
            pass
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.kill()
            handle.process.join(timeout=5.0)
        with self._fork_lock:
            handle.conn.close()
            handle.process = handle.conn = None
        if recycle:
            handle.recycles += 1

    def _ensure(self, slot: int) -> _Slot:
        handle = self.slots[slot]
        if handle.process is None or not handle.process.is_alive():
            self.retire(slot)  # reap a dead incarnation
            pause = self.backoff_left(slot)
            if pause > 0:
                time.sleep(pause)
            if handle.crash_streak > 0:
                handle.respawns += 1
            self._fork(slot)
            self._handshake(slot)
        return handle

    # -- attempts ----------------------------------------------------------

    def run_attempt(
        self,
        slot: int,
        spec: JobSpec,
        limits: JobLimits,
        attempt: int,
        remaining: Optional[float] = None,
    ) -> dict:
        """One attempt of ``spec`` on ``slot``'s worker, monitored to
        SIGKILL, classified.

        ``remaining`` (seconds) is what is left of the job's end-to-end
        deadline: the hard wall is clamped to it, and the payload's
        ``deadline_seconds`` makes the worker install a cooperative
        deadline of its own.
        """
        payload = spec.to_dict()
        payload["fault_key"] = f"{spec.id}#{attempt}"
        if remaining is not None:
            payload["deadline_seconds"] = remaining
            if limits.wall_seconds is None or limits.wall_seconds > remaining:
                limits = replace(limits, wall_seconds=remaining)
        payload["limits"] = limits.to_dict()
        tracer = current_tracer()
        if tracer.active:
            payload["trace"] = True
        handle = self._ensure(slot)
        started = time.monotonic()
        outcome: Optional[dict] = None
        killed: Optional[str] = None
        try:
            handle.conn.send(payload)
        except OSError:
            pass  # found it dead: classified crashed below
        else:
            outcome, killed = self._await(handle, limits, started)
        wall = time.monotonic() - started
        if outcome is None and killed is None:
            # the pipe EOF can beat the reaper: give the dead child a
            # moment to be collected so its -signal exitcode is real
            handle.process.join(timeout=1.0)
        exitcode = handle.process.exitcode
        if isinstance(outcome, dict) and "trace" in outcome:
            # stitch the worker's span tree under this attempt's span
            # (the ambient current span — run_attempt runs inside it)
            tracer.graft(outcome.pop("trace"))
        record = Supervisor._classify(
            spec, attempt, outcome, killed, exitcode, wall, limits
        )
        if outcome is None or killed is not None:
            # the incumbent is dead or condemned: make sure it is gone,
            # and back its replacement off by the crash streak
            if handle.process.is_alive():
                handle.process.kill()
            self.retire(slot)
            handle.crash_streak += 1
            handle.respawn_at = time.monotonic() + min(
                self.backoff_base * 2 ** (handle.crash_streak - 1),
                self.backoff_cap,
            )
        else:
            handle.crash_streak = 0
            handle.jobs_done += 1
            self._maybe_recycle(slot)
        return record

    @staticmethod
    def _await(
        handle: _Slot, limits: JobLimits, started: float
    ) -> tuple[Optional[dict], Optional[str]]:
        """The hard-limit poll loop: the worker's outcome, or ``None``
        and the status it was SIGKILLed with (``None`` if it died)."""
        conn, process = handle.conn, handle.process
        deadline = (
            started + limits.wall_seconds
            if limits.wall_seconds is not None else None
        )
        try:
            while not conn.poll(_POLL_SECONDS):
                breach = None
                if deadline is not None and time.monotonic() >= deadline:
                    breach = TIMEOUT
                elif limits.rss_bytes is not None:
                    usage = _rss_bytes(process.pid)
                    if usage is not None and usage > limits.rss_bytes:
                        breach = OOM
                if breach is not None:
                    if conn.poll(0):
                        break  # the outcome beat the kill
                    process.kill()
                    return None, breach
                if not process.is_alive():
                    # exited: a result may still be buffered in the pipe
                    if conn.poll(0.25):
                        break
                    return None, None
            return conn.recv(), None
        except (EOFError, OSError):
            return None, None  # the worker died with the pipe open

    def _maybe_recycle(self, slot: int) -> None:
        handle = self.slots[slot]
        if self.recycle_jobs is not None and (
                handle.jobs_done >= self.recycle_jobs):
            self.retire(slot, recycle=True)
        elif self.recycle_rss_bytes is not None:
            usage = _rss_bytes(handle.process.pid)
            if usage is not None and usage > self.recycle_rss_bytes:
                self.retire(slot, recycle=True)


# -- the supervisor ----------------------------------------------------------


class Supervisor:
    """Runs jobs on a worker pool: hard-limited, classified, retried.

    ``limits`` and ``retry`` are defaults; a :class:`JobSpec` may carry
    its own.  ``fault_plan`` (chaos testing) is armed in every worker of
    the pools this supervisor opens.
    """

    def __init__(
        self,
        *,
        limits: Optional[JobLimits] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.default_limits = limits if limits is not None else JobLimits()
        self.default_retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan

    # -- single jobs -------------------------------------------------------

    def run_job(self, spec: JobSpec) -> JobResult:
        """Run ``spec`` to a final classified outcome, retrying per policy.

        The attempts run on a one-shot pool whose worker is gone by the
        time this returns.
        """
        deadline_at = _deadline_at(spec)
        pool = WorkerPool(1, fault_plan=self.fault_plan)
        try:
            return self.run_on(pool, 0, spec, deadline_at=deadline_at)
        finally:
            pool.close()

    def run_on(
        self,
        pool: WorkerPool,
        slot: int,
        spec: JobSpec,
        *,
        deadline_at: Optional[float] = None,
    ) -> JobResult:
        """The retry and degrade loop of one job on ``pool``'s ``slot``.

        ``deadline_at`` (a ``time.monotonic`` instant, counted from the
        job's admission by the caller) is its end-to-end deadline.  Once
        it has passed no further attempt starts: the job is answered
        ``shed``/``deadline-expired``, and ``attempts`` counts only the
        attempts that ran (0 if none did).  Before a retry the loop
        sleeps once, for the longer of the policy's backoff and the
        slot's respawn backoff, so the two never add up.
        """
        policy = spec.retry if spec.retry is not None else self.default_retry
        limits = spec.limits if spec.limits is not None else self.default_limits
        effective = spec
        history: list[dict] = []
        started = time.monotonic()
        resource_failures = 0
        tracer = current_tracer()
        with tracer.span(f"job:{spec.id}", kind=spec.kind) as job_span:
            for attempt in range(1, policy.max_attempts + 1):
                remaining = (
                    deadline_at - time.monotonic()
                    if deadline_at is not None else None
                )
                if remaining is not None and remaining <= 0:
                    final = {
                        "status": SHED,
                        "detail": {
                            "shed": "deadline-expired",
                            "error": (
                                f"deadline of {spec.deadline_ms}ms expired "
                                f"before attempt {attempt} started; it was "
                                "not executed"
                            ),
                        },
                    }
                    break
                with tracer.span("attempt", job=spec.id,
                                 attempt=attempt) as attempt_span:
                    final = pool.run_attempt(
                        slot, effective, limits, attempt, remaining
                    )
                    attempt_span.set(status=final["status"])
                history.append(final)
                status = final["status"]
                if status in RESOURCE_FAILURES:
                    resource_failures += 1
                if (status not in policy.retry_on
                        or attempt == policy.max_attempts):
                    break
                pause = max(policy.delay(attempt, spec.id),
                            pool.backoff_left(slot))
                if pause > 0:
                    time.sleep(pause)
                if policy.degrade and status in RESOURCE_FAILURES:
                    effective = _degraded(effective, limits, policy,
                                          resource_failures)
            job_span.set(status=final["status"], attempts=len(history))
        # label every cache-delta block with the job that produced it,
        # so a batch result log stays attributable line by line
        for record in history:
            cache = record.get("detail", {}).get("stats", {}).get("cache")
            if isinstance(cache, dict):
                cache["job_id"] = spec.id
        if tracer.active:
            tracer.metrics.counter(
                f"job.status.{final['status']}"
            ).inc()
        return JobResult(
            id=spec.id,
            status=final["status"],
            attempts=len(history),
            wall_seconds=time.monotonic() - started,
            detail=final.get("detail", {}),
            history=history,
        )

    @staticmethod
    def _classify(
        spec: JobSpec,
        attempt: int,
        outcome: Optional[dict],
        killed: Optional[str],
        exitcode: Optional[int],
        wall: float,
        limits: JobLimits,
    ) -> dict:
        record: dict = {
            "attempt": attempt,
            "wall_seconds": round(wall, 6),
            "kind": spec.kind,
        }
        if killed == TIMEOUT:
            record["status"] = TIMEOUT
            record["killed_by"] = "wall-limit"
            record["detail"] = {
                "error": (
                    f"SIGKILLed after exceeding the {limits.wall_seconds}s "
                    "wall limit"
                ),
                "wall_limit": limits.wall_seconds,
            }
        elif killed == OOM:
            record["status"] = OOM
            record["killed_by"] = "rss-limit"
            record["detail"] = {
                "error": (
                    f"SIGKILLed after exceeding the {limits.rss_bytes}-byte "
                    "RSS limit"
                ),
                "rss_limit": limits.rss_bytes,
            }
        elif outcome is not None:
            status = outcome.get("status")
            if status not in STATUSES:  # defensive: worker spoke nonsense
                record["status"] = CRASHED
                record["detail"] = {
                    "error": f"worker reported unknown status {status!r}"
                }
            else:
                record["status"] = status
                record["detail"] = {
                    key: value
                    for key, value in outcome.items()
                    if key != "status"
                }
        else:
            record["status"] = CRASHED
            record["exitcode"] = exitcode
            signalled = exitcode is not None and exitcode < 0
            record["detail"] = {
                "error": (
                    f"worker died from signal {-exitcode}"
                    if signalled
                    else f"worker exited with status {exitcode} "
                    "without reporting"
                ),
            }
        return record

    # -- batches -----------------------------------------------------------

    def run_batch(
        self,
        specs: Sequence[JobSpec],
        *,
        workers: int = 1,
        results_path: Optional[str] = None,
        resume: bool = False,
    ) -> BatchReport:
        """Fan ``specs`` across a pool of ``workers`` slots.

        Each slot is driven by one supervision thread; the pool is
        opened for this call and retired before it returns.  With
        ``results_path``, every finished job appends one JSON line
        (flushed + fsynced) — and with ``resume=True`` jobs whose ids are
        already in that file are skipped, which is the crash-recovery
        contract: kill the batch at any point, re-run it with ``resume``,
        and completed work is neither recomputed nor re-reported.
        """
        if workers < 1:
            raise SupervisorError("workers must be at least 1")
        seen: set[str] = set()
        for spec in specs:
            if spec.id in seen:
                raise SupervisorError(f"duplicate job id {spec.id!r}")
            seen.add(spec.id)
        done: dict[str, dict] = {}
        if resume and results_path:
            done = completed_results(results_path)
        pending = deque(spec for spec in specs if spec.id not in done)
        skipped = len(specs) - len(pending)
        resumed_by_status = dict(Counter(
            done[spec.id].get("status")
            for spec in specs
            if spec.id in done and done[spec.id].get("status") in STATUSES
        ))
        results: list[JobResult] = []
        journal = _Journal(results_path) if results_path else None
        count = min(workers, len(pending))
        pool = WorkerPool(count, fault_plan=self.fault_plan)
        tracer = current_tracer()

        def drain(batch_span, slot: int) -> None:
            # threads start with an empty contextvars context: re-install
            # the ambient tracer and nest this thread's jobs under the
            # batch span (in the driver thread both are no-op re-sets)
            with tracing(tracer):
                tracer.adopt(batch_span)
                while True:
                    try:
                        spec = pending.popleft()
                    except IndexError:
                        return
                    result = self.run_on(pool, slot, spec,
                                         deadline_at=_deadline_at(spec))
                    results.append(result)
                    if journal is not None:
                        journal.append(result.to_jsonable())

        try:
            with tracer.span("batch", total=len(specs), skipped=skipped,
                             workers=workers) as batch_span:
                pool.start()
                if count <= 1:
                    drain(batch_span, 0)
                else:
                    threads = [
                        threading.Thread(target=drain,
                                         args=(batch_span, slot),
                                         name=f"supervise-{slot}")
                        for slot in range(count)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
        finally:
            pool.close()
            if journal is not None:
                journal.close()
        return BatchReport(
            total=len(specs),
            executed=len(results),
            skipped=skipped,
            results=results,
            resumed_by_status=resumed_by_status,
        )


def _deadline_at(spec: JobSpec) -> Optional[float]:
    """The ``time.monotonic`` instant ``spec.deadline_ms`` runs out,
    counted from now (its admission)."""
    if spec.deadline_ms is None:
        return None
    return time.monotonic() + spec.deadline_ms / 1000.0


class _Journal:
    """An append-only JSONL file that survives ``kill -9`` line by line.

    The one writer of both results logs (``repro batch --results`` and
    the daemon's ``results.jsonl``) and of the daemon's queue journal.
    :meth:`append` writes, flushes and fsyncs a record before returning.
    Opening terminates a torn final line — what a SIGKILL mid-append
    leaves behind — so the next record starts on a line of its own (the
    torn line stays unparseable, and readers skip it).  After
    :meth:`close` an append still lands, through a one-shot handle: an
    acknowledged record is a durability promise.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        if self._handle.tell() > 0:
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                if probe.read(1) != b"\n":
                    self._handle.write("\n")

    def append(self, record: Mapping) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            handle = self._handle or open(self.path, "a", encoding="utf-8")
            try:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            finally:
                if handle is not self._handle:
                    handle.close()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# -- manifest / checkpoint I/O -----------------------------------------------


def load_manifest(path: str) -> list[JobSpec]:
    """Parse a JSONL job manifest (one :class:`JobSpec` object per line).

    Blank lines and ``#`` comment lines are skipped; malformed JSON or
    malformed specs raise :class:`~repro.errors.SupervisorError` naming
    the line.
    """
    specs: list[JobSpec] = []
    for line_no, raw in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise SupervisorError(
                f"{path}:{line_no}: manifest line is not valid JSON: {error}"
            )
        try:
            specs.append(JobSpec.from_dict(data))
        except SupervisorError as error:
            raise SupervisorError(f"{path}:{line_no}: {error}")
    return specs


def completed_results(results_path: str) -> dict[str, dict]:
    """The resume checkpoint, deduplicated: job id → its *last* record.

    A checkpoint can legitimately carry several lines for one job id —
    a batch SIGKILLed after fsyncing a result but before the driver
    noted it, then resumed, appends the id again.  Counting each line
    would double-count the job in the exit-status rollup, so consumers
    get one record per id, last-wins (the latest line is the freshest
    outcome).  Tolerates a truncated final line — the one a SIGKILL
    mid-write can leave behind — by ignoring lines that fail to parse.
    Schema-tolerant too: v1 lines (no ``schema`` key) and v2 lines
    (:data:`RESULT_SCHEMA`, with per-job ``cache.job_id`` labels) mix
    freely in one log, as happens when an old checkpoint is resumed by a
    newer build.
    """
    done: dict[str, dict] = {}
    path = Path(results_path)
    if not path.exists():
        return done
    for raw in path.read_text(encoding="utf-8", errors="replace").splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue
        job_id = data.get("id") if isinstance(data, dict) else None
        if isinstance(job_id, str) and job_id:
            done[job_id] = data
    return done


def completed_job_ids(results_path: str) -> set[str]:
    """Job ids recorded in a results log (the resume checkpoint)."""
    return set(completed_results(results_path))


# -- degradation -------------------------------------------------------------


def _degraded(
    spec: JobSpec,
    limits: JobLimits,
    policy: RetryPolicy,
    resource_failures: int,
) -> JobSpec:
    """The spec to retry after ``resource_failures`` resource blow-ups.

    Two moves, mirroring ``typecheck(fallback=...)``'s exact→bounded
    policy but applied *between* attempts:

    * exact-class typechecking (every method but ``bounded``, so ``auto``
      too) degrades to the bounded falsifier (sound for rejection, cheap,
      and the paper's Section 5 answer to Theorem 4.8);
    * cooperative budgets are installed (from the wall limit) or
      tightened by ``budget_scale`` per resource failure, so the retry
      exhausts *cooperatively* — with phase/step diagnostics — instead of
      being SIGKILLed into an opaque ``timeout`` again.
    """
    params = dict(spec.params)
    scale = policy.budget_scale**resource_failures

    def scaled(name: str, kind: type, factor: float, default: Any = None
               ) -> None:
        # read as the job reads it; a malformed value is left as given,
        # for the worker to answer usage-error
        try:
            value = _param(params, name, kind, default)
        except SupervisorError:
            return
        if value is not None:
            params[name] = (max(1, int(value * factor)) if kind is int
                            else value * factor)

    if spec.kind == "typecheck":
        if params.get("method") != "bounded":
            params["method"] = "bounded"
            scaled("max_inputs", int, scale, 50)
        else:
            scaled("max_inputs", int, policy.budget_scale, 50)
    if params.get("timeout") is not None:
        scaled("timeout", float, policy.budget_scale)
    elif limits.wall_seconds is not None:
        # leave headroom below the hard wall so the governor fires first
        params["timeout"] = limits.wall_seconds * 0.8 * scale
    for knob in ("max_steps", "max_states"):
        scaled(knob, int, policy.budget_scale)
    return replace(spec, params=params)
