"""Jobs: the one way from a plain job dict to a classified outcome.

A job is a value: a JSON-able dict naming the kind of work and its
inputs, never a live Python object.  The supervised executor
(:mod:`repro.runtime.supervisor`) ships jobs to worker processes, the
service daemon receives them over a socket, and ``repro typecheck`` /
``run`` / ``validate`` build one from their flags.  Every one of them
ends in :func:`execute_classified`, which runs the job in the calling
process and returns exactly one classified outcome dict — so the same
job gets the same outcome whichever way it comes in.

Job parameter schema (the ``params`` of a manifest entry)::

    typecheck: stylesheet|stylesheet_text, input_dtd|input_dtd_text,
               output_dtd|output_dtd_text, method (auto|exact|bounded;
               defaults to auto, like typecheck() and the CLI),
               max_inputs, timeout, max_steps, max_states, fallback,
               audit
    run:       stylesheet|stylesheet_text, document|document_text,
               timeout, max_steps
    validate:  dtd|dtd_text, document|document_text

Every ``X`` parameter is a file path; ``X_text`` carries the content
inline (handy for generated manifests and hermetic tests).  When both
are given the inline text wins.  A path that cannot be read is a usage
error naming the parameter and the path.

:func:`execute_job` returns ``{"status": ..., ...detail}`` where status
is ``ok`` or ``type-error``; resource exhaustion propagates as
:class:`~repro.errors.ResourceExhausted`, malformed inputs as the usual
parse errors, and :func:`execute_classified` turns each into its status.

With ``audit`` set (``"witness"``/``"full"``, or via the ``REPRO_AUDIT``
environment variable) a typecheck job certifies its own verdict before
reporting (:mod:`repro.audit`).  A refuted verdict is escalated to
``status: "miscompiled"`` and — because this process owns the memo
tiers that fed the bad answer — the memo keys the run depended on are
quarantined right here, from both the in-memory table and the persistent
disk tier, before the outcome is sent (``outcome["quarantine"]`` carries
the eviction counts).
"""

from __future__ import annotations

import hashlib
import importlib
import math
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.errors import (
    EXIT_CRASHED,
    EXIT_EXHAUSTED,
    EXIT_MISCOMPILED,
    EXIT_OK,
    EXIT_SHED,
    EXIT_TYPE_ERROR,
    EXIT_USAGE,
    FaultInjected,
    PebbleMachineError,
    ReproError,
    ResourceExhausted,
    SupervisorError,
    TreeError,
)
from repro.lang import apply_stylesheet, parse_stylesheet, xslt_to_transducer
from repro.runtime.cache import quarantine_keys
from repro.runtime.faults import fault_point
from repro.runtime.governor import clamp_timeout, governed, make_governor
from repro.runtime.trace import current_tracer
from repro.xmlio import parse_dtd_any, parse_xml, to_xml

__all__ = ["JOB_KINDS", "STATUSES", "affinity_key", "execute_classified",
           "execute_job", "exit_code_for_statuses", "typecheck_inputs"]

JOB_KINDS = ("typecheck", "run", "validate")

# -- outcome taxonomy --------------------------------------------------------

OK = "ok"
TYPE_ERROR = "type-error"
USAGE_ERROR = "usage-error"
EXHAUSTED = "exhausted"
SHED = "shed"
TIMEOUT = "timeout"
OOM = "oom"
CRASHED = "crashed"
MISCOMPILED = "miscompiled"

#: Every status a job can finish with, exactly one per job.  ``shed`` is
#: special: workers never produce it — the service daemon's admission
#: control answers it under load, and the retry loop once the job's
#: deadline runs out before an attempt starts; the shed itself executes
#: nothing (``attempts`` counts only the attempts that ran, 0 for a job
#: refused outright), so a shed job is retryable by construction.
#: ``timeout`` and ``oom`` at a hard limit come from the supervisor that
#: killed the worker.  ``miscompiled`` is the audit's verdict:
#: the job *completed* but its answer failed independent certification
#: (:mod:`repro.audit`), which outranks every other failure — a crash is
#: loud, a wrong answer is silent.
STATUSES = (OK, TYPE_ERROR, USAGE_ERROR, EXHAUSTED, SHED, TIMEOUT, OOM,
            CRASHED, MISCOMPILED)

#: Map a job status to the CLI exit code it implies (worst-of for a batch).
_STATUS_EXIT = {
    OK: EXIT_OK,
    TYPE_ERROR: EXIT_TYPE_ERROR,
    USAGE_ERROR: EXIT_USAGE,
    EXHAUSTED: EXIT_EXHAUSTED,
    SHED: EXIT_SHED,
    TIMEOUT: EXIT_CRASHED,
    OOM: EXIT_CRASHED,
    CRASHED: EXIT_CRASHED,
    MISCOMPILED: EXIT_MISCOMPILED,
}

#: Severity order for the batch exit code (highest wins).  ``shed`` sits
#: below the execution failures — a batch that both crashed a job and had
#: one shed reports the crash — but above the input-classification
#: statuses, so "the daemon refused work" is never masked by an ordinary
#: type-error in the same batch.  ``miscompiled`` tops the order: every
#: other failure is honest about failing, while a refuted verdict means
#: the system *lied* and nothing downstream of it can be trusted.
_SEVERITY = (MISCOMPILED, CRASHED, OOM, TIMEOUT, EXHAUSTED, SHED,
             USAGE_ERROR, TYPE_ERROR, OK)


def exit_code_for_statuses(statuses: Iterable[str]) -> int:
    """The CLI exit code of some job statuses: the most severe wins
    (``EXIT_OK`` for none).  ``repro typecheck|run|validate`` pass their
    one job's status, ``repro batch`` and ``repro submit`` all of theirs.
    """
    seen = set(statuses)
    for status in _SEVERITY:
        if status in seen:
            return _STATUS_EXIT[status]
    return EXIT_OK


#: Which params make two jobs of a kind share warmable automata work.
#: For ``typecheck`` the memo-heavy constructions are driven by the two
#: DTDs (their automata dominate the pipeline), for ``validate`` by the
#: DTD, for ``run`` by the stylesheet.
_AFFINITY_PARAMS = {
    "typecheck": ("input_dtd", "output_dtd"),
    "run": ("stylesheet",),
    "validate": ("dtd",),
}


def affinity_key(payload: Mapping) -> str:
    """The cache-affinity routing key of a job payload.

    Jobs with equal keys recompute each other's automata, so the service
    routes them to the same pool worker (whose in-process memo table is
    already warm) and scopes its circuit breaker by this key (a DTD that
    keeps killing workers must not poison the whole pool).  The key
    hashes the affinity-relevant *input text* — same DTD content, same
    key, whether it arrived inline or as a path — and degrades to the
    raw parameter value when a path cannot be read (the job itself will
    then end ``usage-error`` on some worker).
    """
    kind = str(payload.get("kind", ""))
    params = payload.get("params") or {}
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(kind.encode("utf-8"))
    if isinstance(params, Mapping):
        for name in _AFFINITY_PARAMS.get(kind, ()):
            try:
                text = _text_input(params, name, required=False)
            except SupervisorError:
                text = str(params.get(name))
            hasher.update(b"\x00")
            hasher.update((text or "").encode("utf-8", "replace"))
    return f"{kind}:{hasher.hexdigest()}"


def _text_input(params: Mapping, name: str, required: bool = True
                ) -> Optional[str]:
    """The ``name`` input as text: inline ``<name>_text`` or a file path."""
    inline = params.get(f"{name}_text")
    if inline is not None:
        return str(inline)
    path = params.get(name)
    if path is not None:
        try:
            return Path(path).read_text()
        except (OSError, UnicodeDecodeError) as error:
            reason = getattr(error, "strerror", None) or error
            raise SupervisorError(
                f"cannot read {name!r} file {str(path)!r}: {reason}"
            ) from error
    if required:
        raise SupervisorError(
            f"job needs either {name!r} (a path) or '{name}_text' (inline)"
        )
    return None


def _number(value: Any, name: str, kind: type = float) -> Any:
    """The field ``name`` as a finite ``kind`` (``float`` or ``int``),
    or :class:`~repro.errors.SupervisorError` naming it."""
    try:
        number = kind(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise SupervisorError(f"{name} must be {noun}, got {value!r}")


def _flag(value: Any, name: str) -> bool:
    """The field ``name`` as a JSON boolean, or
    :class:`~repro.errors.SupervisorError` naming it: ``bool()`` would
    read the string ``"false"`` as true."""
    if not isinstance(value, bool):
        raise SupervisorError(f"{name} must be true or false, got {value!r}")
    return value


def _param(params: Mapping, name: str, kind: type, default: Any = None
           ) -> Any:
    """The numeric job parameter ``name`` as a finite ``kind``, or
    ``default`` when it is unset: a malformed one is a usage error
    naming it, not a crash."""
    value = params.get(name)
    return default if value is None else _number(value, name, kind)


def import_job_path() -> None:
    """Import every module a job can run into this process.

    The routes import their machinery on first use (the exact route's
    is :data:`repro.typecheck.engine.EXACT_MACHINERY`).  A pool calls
    this before it forks, so its workers inherit every module and none
    imports inside a job: the imports are paid once per pool, not once
    per worker."""
    import repro.audit  # noqa: F401 - certifies verdicts
    from repro.typecheck import engine, routing  # noqa: F401

    for module in engine.EXACT_MACHINERY:
        importlib.import_module(module)


def execute_classified(payload: Mapping) -> dict:
    """Run one job to exactly one classified outcome dict, in-process.

    Every pool worker runs its jobs through here, and so do ``repro
    typecheck``, ``run`` and ``validate`` — which is why a job reports
    the identical outcome dict whichever way it came in.  ``timeout``
    and ``oom`` at a hard limit still require *external* supervision:
    this function only classifies what the process survives long enough
    to raise.  ``KeyboardInterrupt`` is not an outcome; it propagates.
    """
    try:
        fault_point("worker:compute", str(payload.get("fault_key", "")))
        return execute_job(payload)
    except ResourceExhausted as error:
        return {
            "status": EXHAUSTED,
            "error": str(error),
            "exhausted": error.progress(),
        }
    except MemoryError:
        return {
            "status": OOM,
            "error": "worker hit its address-space backstop (MemoryError)",
        }
    except FaultInjected as error:
        return {
            "status": CRASHED,
            "error": str(error),
            "error_type": "FaultInjected",
        }
    except ReproError as error:
        return {
            "status": USAGE_ERROR,
            "error": str(error),
            "error_type": type(error).__name__,
        }
    except Exception as error:  # noqa: BLE001 - forensic reporting
        return {
            "status": CRASHED,
            "error": repr(error),
            "traceback": traceback.format_exc(),
        }


def execute_job(payload: Mapping) -> dict:
    """Run one job payload to completion in this process.

    ``payload`` is a manifest entry: ``{"kind": ..., "params": {...}}``
    (unknown keys are ignored, so a full :class:`JobSpec` dict works).
    """
    kind = payload.get("kind")
    params = payload.get("params") or {}
    if not isinstance(params, Mapping):
        raise SupervisorError("job 'params' must be a mapping")
    deadline = payload.get("deadline_seconds")
    if deadline is not None and kind in ("typecheck", "run"):
        # a propagated end-to-end deadline tightens the job's own
        # cooperative timeout (the params install the worker's ambient
        # governor, so this is how the deadline reaches the hot loops);
        # headroom keeps the governor firing before the hard wall kill.
        params = dict(params)
        params["timeout"] = clamp_timeout(
            _param(params, "timeout", float), float(deadline)
        )
    if kind == "typecheck":
        return _job_typecheck(params)
    if kind == "run":
        return _job_run(params)
    if kind == "validate":
        return _job_validate(params)
    raise SupervisorError(
        f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
    )


def typecheck_inputs(params: Mapping) -> tuple:
    """A typecheck job's ``(transducer, input_dtd, output_dtd)``: its
    stylesheet compiled against the input DTD's element names, and both
    DTDs parsed.

    The input DTD's root is the stylesheet's root tag, which must label
    the document root only; an input DTD that lets it occur below the
    root is refused (:class:`~repro.errors.PebbleMachineError`, a usage
    error), since the compiled machine would drop that node's later
    siblings."""
    # imported here: the typecheck engine imports this package
    from repro.typecheck.stylesheet import root_recurs

    with current_tracer().span("parse-inputs"):
        sheet = parse_stylesheet(_text_input(params, "stylesheet"))
        input_dtd = parse_dtd_any(_text_input(params, "input_dtd"))
        output_dtd = parse_dtd_any(_text_input(params, "output_dtd"))
        if root_recurs(input_dtd):
            raise PebbleMachineError(
                f"the input DTD lets its root element {input_dtd.root!r} "
                "occur below the root, but a stylesheet's root tag must "
                "label the document root only"
            )
        machine = xslt_to_transducer(
            sheet, tags=input_dtd.symbols, root_tag=input_dtd.root
        )
    return machine, input_dtd, output_dtd


def _job_typecheck(params: Mapping) -> dict:
    # imported here: the typecheck engine imports this package
    from repro.typecheck import typecheck
    from repro.typecheck.engine import DEFAULT_METHOD

    machine, input_dtd, output_dtd = typecheck_inputs(params)
    result = typecheck(
        machine,
        input_dtd,
        output_dtd,
        method=params.get("method", DEFAULT_METHOD),
        max_inputs=_param(params, "max_inputs", int, 50),
        max_depth=_param(params, "max_depth", int, 6),
        timeout=_param(params, "timeout", float),
        max_steps=_param(params, "max_steps", int),
        max_states=_param(params, "max_states", int),
        fallback=_flag(params.get("fallback", False), "fallback"),
        audit=params.get("audit"),
    )
    audit = result.stats.get("audit")
    if not (isinstance(audit, Mapping) and audit.get("status") == "failed"):
        outcome = result.to_jsonable()
        outcome["status"] = OK if result.ok else TYPE_ERROR
        return outcome
    # The audit refuted this verdict: quarantine both memo tiers *in
    # this process* (it owns them), so the resubmission recomputes from
    # first principles — before serializing, since a refuted
    # counterexample need not even be a document encoding.
    quarantine = quarantine_keys(
        audit.get("quarantine_keys") or (),
        reason=f"audit refuted a {result.method} verdict",
    )
    try:
        outcome = result.to_jsonable()
    except TreeError as error:
        outcome = replace(
            result, counterexample_input=None, counterexample_output=None
        ).to_jsonable()
        for name in ("counterexample_input", "counterexample_output"):
            tree = getattr(result, name)
            if tree is not None:
                outcome[name] = str(tree)
        outcome["counterexample_error"] = f"does not decode: {error}"
    outcome["status"] = MISCOMPILED
    outcome["quarantine"] = quarantine
    return outcome


def _job_run(params: Mapping) -> dict:
    tracer = current_tracer()
    with tracer.span("parse-inputs"):
        sheet = parse_stylesheet(_text_input(params, "stylesheet"))
        document = parse_xml(_text_input(params, "document"))
    governor = make_governor(
        timeout=_param(params, "timeout", float),
        max_steps=_param(params, "max_steps", int),
    )
    with tracer.span("apply-stylesheet"), (
        nullcontext() if governor is None else governed(governor)
    ):
        output = apply_stylesheet(sheet, document)
    return {"status": OK, "output": to_xml(output)}


def _job_validate(params: Mapping) -> dict:
    dtd = parse_dtd_any(_text_input(params, "dtd"))
    document = parse_xml(_text_input(params, "document"))
    errors = dtd.validation_errors(document)
    if not errors:
        return {"status": OK}
    return {
        "status": TYPE_ERROR,
        "errors": [
            {
                "address": "/" + "/".join(str(step) for step in address),
                "message": message,
            }
            for address, message in errors
        ],
    }
