"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
clients can catch one base class.  The subclasses mirror the subsystems:
trees, regexes, XML/DTD handling, automata, MSO, pebble machines, the
typechecker, and the supervised runtime.

CLI exit codes
--------------

Every user-facing entry point
(``repro validate|run|typecheck|batch|serve|submit``) maps its outcome
onto one process exit code:

====  ==========================================================
code  meaning
====  ==========================================================
0     success — the document validates / the stylesheet typechecks;
      for ``repro serve``, a clean start-serve-drain lifecycle
      (including a graceful ``SIGTERM`` drain); for ``repro submit``,
      every submitted job finished ``ok`` (a job deferred by a
      draining daemon also exits 0 — it is journaled, not lost)
1     a *type* error: validation or typechecking rejected the input;
      for ``repro submit``, the most severe job status was
      ``type-error``
2     usage or parse error: bad flags, malformed XML/DTD/stylesheet
      (:class:`ReproError` other than the resource/worker classes),
      a daemon already holding the service lock, or an unreachable
      ``--socket`` (:class:`ServiceError`)
3     a resource budget was exhausted cooperatively
      (:class:`ResourceExhausted`, no fallback available); for
      ``repro submit``, the most severe job status was ``exhausted``
4     a worker was killed or crashed: SIGKILL at a wall/RSS limit,
      a worker process that died without reporting, or any job
      finishing ``crashed``/``timeout``/``oom`` — for ``repro typecheck`` /
      ``run`` / ``validate``, an exception that is not a
      :class:`ReproError` (reported with its traceback); for
      ``repro submit``, also a submission fast-failed by an open
      circuit breaker
5     the job was **shed** — refused or abandoned by an overloaded
      daemon *without* being executed: the target worker's backlog was
      at ``--max-backlog``, the brownout controller reached its
      ``shed-new`` pressure level, the submission's ``--deadline-ms``
      was smaller than the estimated cost of the job (shed reason
      ``predicted-overrun``), or the deadline expired while the job
      waited in queue (shed reason ``deadline-expired``).  Unlike
      codes 2 and 4 this is *retryable by design*: nothing ran, no
      worker was forked, and the same submission is expected to
      succeed once load subsides — batch callers should back off and
      resubmit.  ``repro submit --health`` also exits 5 when the
      daemon reports ``overloaded``.
6     the audit **refuted** the verdict (``miscompiled``): the
      independent certification replay (:mod:`repro.audit`) could not
      reproduce the recorded evidence — the counterexample does not
      replay, or falsification found an ill-typed output behind an
      ``ok`` answer.  The answer itself is untrustworthy (a
      miscompile, cache corruption, or routing bug), which is *worse*
      than a crash: the service quarantines the memo entries the job
      touched and recomputes on resubmit.  Raised by
      ``repro typecheck --audit``, ``repro audit``, and any
      batch/submit run whose most severe job status was
      ``miscompiled``.
====  ==========================================================

:func:`exit_code_for` implements the exception half of this table and
:func:`repro.runtime.jobs.exit_code_for_statuses` the job-status half,
which every command that runs jobs exits through.
"""

from __future__ import annotations

#: CLI exit codes (see the module docstring for the full table).
EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_CRASHED = 4
EXIT_SHED = 5
EXIT_MISCOMPILED = 6


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TreeError(ReproError):
    """Malformed tree, bad node address, or invalid tree operation."""


class AlphabetError(ReproError):
    """Symbol used with the wrong rank or outside the declared alphabet."""


class RegexError(ReproError):
    """Malformed regular expression or parse failure."""


class RegexParseError(RegexError):
    """Syntax error while parsing a regular-expression string."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class XMLParseError(ReproError):
    """Syntax error while parsing an XML document."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DTDError(ReproError):
    """Malformed DTD: unknown element, bad content model, parse failure."""


class AutomatonError(ReproError):
    """Malformed tree automaton or invalid automaton operation."""


class MSOError(ReproError):
    """Malformed MSO formula: unbound variable, sort mismatch, etc."""


class PebbleMachineError(ReproError):
    """Malformed k-pebble transducer/automaton definition."""


class TransducerRuntimeError(ReproError):
    """Raised when evaluating a transducer fails.

    Typical causes: non-terminating computation exceeding the configured
    step budget, or asking for *the* output of a nondeterministic
    transducer that has several.
    """


class ResourceExhausted(ReproError):
    """A governed computation ran out of resources before finishing.

    Raised cooperatively by :class:`repro.runtime.ResourceGovernor` when a
    wall-clock deadline passes, a step or state budget is consumed, or the
    computation is cancelled.  The exception carries the partial-progress
    statistics at the moment of exhaustion so callers (and the
    ``typecheck`` degradation policy) can report *where* the pipeline blew
    up — the exact decision procedure is non-elementary (Theorem 4.8), so
    exhaustion is an expected production outcome, not a bug.

    Attributes:
        reason: one of ``"deadline"``, ``"steps"``, ``"states"``,
            ``"cancelled"``.
        phase: name of the pipeline phase that was running (e.g.
            ``"pebble-to-regular"``), or ``""`` when no phase was set.
        steps: cooperative steps taken before exhaustion.
        states: automaton states built before exhaustion.
        elapsed: wall-clock seconds since the governor started.
        limit: the budget value that was exceeded (``None`` for
            cancellation).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "budget",
        phase: str = "",
        steps: int = 0,
        states: int = 0,
        elapsed: float = 0.0,
        limit: float | None = None,
    ) -> None:
        self.reason = reason
        self.phase = phase
        self.steps = steps
        self.states = states
        self.elapsed = elapsed
        self.limit = limit
        super().__init__(message)

    def progress(self) -> dict:
        """The partial-progress statistics as a plain dict (for
        ``TypecheckResult.stats`` and logging)."""
        return {
            "reason": self.reason,
            "phase": self.phase,
            "steps": self.steps,
            "states": self.states,
            "elapsed": self.elapsed,
            "limit": self.limit,
        }


class TypecheckError(ReproError):
    """Raised when a typechecking request cannot be carried out.

    For example: asking for exact typechecking of a machine with
    data-value joins (undecidable, see Section 5 of the paper).
    """


class UndecidableError(TypecheckError):
    """The requested analysis is undecidable for the given machine class."""


class SupervisorError(ReproError):
    """Misuse of the supervised runtime: malformed job spec or manifest,
    duplicate job ids, unknown job kind, bad retry policy."""


class ServiceError(ReproError):
    """Misuse or unavailability of the typecheck service.

    Raised for daemon-side configuration problems (another daemon holds
    the service lock, a bad cache directory, malformed service config)
    and for client-side connection failures (no daemon listening on the
    requested socket, a connection dropped mid-request).  Maps to exit
    code 2 — the service being absent is a usage problem for the caller,
    not a crash of ours.
    """


class FaultInjected(ReproError):
    """Raised by an armed ``exception`` fault point (chaos testing only).

    Never raised in production configurations: :mod:`repro.runtime.faults`
    only fires when a fault plan has been explicitly installed.
    """


def exit_code_for(error: BaseException) -> int:
    """The CLI exit code for ``error`` (see the module docstring table)."""
    if isinstance(error, ResourceExhausted):
        return EXIT_EXHAUSTED
    if isinstance(error, (ReproError, OSError)):
        return EXIT_USAGE
    # anything else is a genuine crash of ours, not a usage problem
    return EXIT_CRASHED
