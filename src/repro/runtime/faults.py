"""Deterministic fault injection for the supervised runtime.

The supervisor's correctness claims — every job reported exactly once,
retries requeue instead of losing work, hard limits kill instead of hang
— are only worth anything if they are *tested against real failures*.
This module provides the failures: named **fault points** compiled into
the worker path which chaos tests arm with a :class:`FaultPlan`.

Design constraints:

* **Off by default, zero ambient cost.**  :func:`fault_point` is a dict
  lookup against ``None`` unless a plan has been installed; production
  configurations never install one.
* **Deterministic.**  Whether a point fires is a pure function of
  ``(plan seed, point name, activation key)`` — the activation key is
  ``"<job id>#<attempt>"`` in the supervisor — via a blake2b hash mapped
  to ``[0, 1)``.  A chaos test that passes once passes forever, a retry
  of a crashed job draws a *fresh* decision (different attempt number),
  and "30% of jobs crash" is reproducible bit-for-bit from the seed.
* **Serializable.**  Plans round-trip through plain dicts
  (:meth:`FaultPlan.to_dict` / :meth:`FaultPlan.from_dict`) so the
  worker pool can ship them to the workers it forks and the
  ``repro batch --faults plan.json`` flag can load them from disk.

Fault actions:

``crash``
    ``SIGKILL`` the current process — the hardest failure a worker can
    suffer; nothing is flushed, no result is sent.
``exception``
    Raise :class:`~repro.errors.FaultInjected` (an unexpected in-worker
    error; the supervisor classifies it ``crashed``).
``delay``
    Sleep ``seconds`` (latency injection; lets tests widen race windows
    and gives kill-mid-batch tests something to kill).
``oom``
    Allocate ``rss_bytes`` of real memory in chunks, then hold it —
    a spurious memory blow-up for exercising the supervisor's RSS
    monitor and the worker's ``MemoryError`` backstop.

Worker-side points (armed in every pool worker from the supervisor's
or the daemon's plan):

=====================  ===================================================
``pool:worker-wedge``  in the worker's job loop before compute, outside
                       the classified region — a ``delay`` here wedges
                       the worker so the wall-limit SIGKILL + respawn
                       path is exercised
``worker:compute``     immediately before the job's actual computation
``worker:result``      after the job computed, before the result is
                       sent — a crash here proves results are not
                       half-reported
=====================  ===================================================

Service-tier points (armed via ``repro serve --faults`` / the daemon
config; exercised by the service chaos tests):

=====================  ===================================================
``cache:torn-write``   between the two fsync halves of a disk-cache
                       record append — a ``crash`` here leaves a *real*
                       torn segment tail for recovery to truncate
``cache:stale-lock``   inside compaction's lock acquisition — an
                       ``exception`` here simulates an unyielding lock
                       holder; compaction must skip, never block serving
=====================  ===================================================

Overload points (PR 8; exercised by the overload chaos suite):

=========================  ================================================
``pool:backlog-storm``     in the slot thread after dequeueing a job,
                           before it executes — a ``delay`` here stalls
                           consumption so a submit burst piles the backlog
                           against ``max_backlog`` deterministically
``job:deadline-expired``   same place, keyed by job id — a ``delay`` makes
                           an admitted job's queue wait outlive its
                           ``deadline_ms`` so the expiry answer path
                           (``shed``/``deadline-expired``, no worker
                           burned) is exercised
``client:slow-read``       at the top of a client connection handler — a
                           ``delay`` stalls the handler before it reads
                           the request, the deterministic stand-in for a
                           slow peer; real slow-loris clients (connect,
                           never send) are bounded by the daemon's
                           ``client_timeout`` socket timeout
=========================  ================================================

Audit points (PR 9; exercised by the audit chaos suite — both are armed
with the ``exception`` action, which the host code *catches* and turns
into the corruption it models rather than letting it propagate):

=======================  ==================================================
``cache:poison-entry``   at the top of the disk cache's ``put`` — the
                         caught exception makes it persist a
                         *semantically corrupted* value (a bottom-up
                         automaton with its accepting set complemented)
                         behind a perfectly valid checksum: the silent
                         corruption class only the audit replay
                         (:mod:`repro.audit`) can catch
``audit:flip-verdict``   at the top of the audit replay — the caught
                         exception makes the auditor certify the
                         *negated* verdict, so a correct answer must come
                         back ``failed``; proves the ``miscompiled``
                         escalation/quarantine path end-to-end without
                         needing a real engine bug
=======================  ==================================================
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from repro.errors import FaultInjected, SupervisorError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "fault_point",
    "active_plan",
    "install_plan",
    "injected_faults",
]

_ACTIONS = ("crash", "exception", "delay", "oom")

#: chunk size for the ``oom`` action's gradual allocation (small enough
#: that a polling RSS monitor sees the growth before the backstop rlimit).
_OOM_CHUNK = 8 * 1024 * 1024


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what happens and how often.

    ``rate`` is the probability (over activation keys) that the point
    fires; ``seconds`` parameterizes ``delay`` (and how long ``oom``
    holds its ballast); ``rss_bytes`` is the ``oom`` allocation target.
    """

    action: str
    rate: float = 1.0
    seconds: float = 0.05
    rss_bytes: int = 128 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise SupervisorError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{', '.join(_ACTIONS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise SupervisorError("fault rate must be within [0, 1]")

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "rate": self.rate,
            "seconds": self.seconds,
            "rss_bytes": self.rss_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        try:
            return cls(
                action=data["action"],
                rate=float(data.get("rate", 1.0)),
                seconds=float(data.get("seconds", 0.05)),
                rss_bytes=int(data.get("rss_bytes", 128 * 1024 * 1024)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SupervisorError(f"malformed fault spec {data!r}: {error}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of armed fault points: ``point name -> FaultSpec``."""

    seed: int = 0
    points: dict[str, FaultSpec] = field(default_factory=dict)

    def decide(self, point: str, key: str) -> Optional[FaultSpec]:
        """The spec to execute at ``point`` for activation ``key``, or
        ``None``.  Pure: same (seed, point, key) — same answer."""
        spec = self.points.get(point)
        if spec is None:
            return None
        if spec.rate >= 1.0:
            return spec
        digest = hashlib.blake2b(
            f"{self.seed}|{point}|{key}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / 2**64
        return spec if draw < spec.rate else None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "points": {
                name: spec.to_dict() for name, spec in self.points.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        points = data.get("points", {})
        if not isinstance(points, Mapping):
            raise SupervisorError("fault plan 'points' must be a mapping")
        return cls(
            seed=int(data.get("seed", 0)),
            points={
                name: FaultSpec.from_dict(spec)
                for name, spec in points.items()
            },
        )


#: The process-wide armed plan (``None`` = nothing armed, zero overhead).
_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The armed fault plan, or ``None``."""
    return _ACTIVE


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _ACTIVE
    _ACTIVE = plan


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the ``with`` block (tests)."""
    previous = _ACTIVE
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def fault_point(point: str, key: str = "") -> None:
    """Execute the armed fault for ``point``/``key``, if any.

    Called from the worker path at each named point.  No plan armed —
    returns immediately.
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.decide(point, key)
    if spec is None:
        return
    _execute(spec, point, key)


def _execute(spec: FaultSpec, point: str, key: str) -> None:
    if spec.action == "crash":
        # the hardest possible failure: no cleanup, no result, no excuse
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover - the SIGKILL beats us here
    if spec.action == "exception":
        raise FaultInjected(
            f"injected exception at {point!r} (activation {key!r})"
        )
    if spec.action == "delay":
        time.sleep(spec.seconds)
        return
    if spec.action == "oom":
        # Grow gradually so a polling RSS monitor can catch us mid-climb,
        # then hold the ballast; a MemoryError from the worker's rlimit
        # backstop propagates to the worker's cooperative `oom` report.
        ballast: list[bytearray] = []
        allocated = 0
        while allocated < spec.rss_bytes:
            ballast.append(bytearray(_OOM_CHUNK))
            allocated += _OOM_CHUNK
            time.sleep(0.005)
        time.sleep(spec.seconds)
        del ballast
        return
