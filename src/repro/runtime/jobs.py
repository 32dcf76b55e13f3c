"""Job-serializable entry points: run CLI-shaped work from a plain dict.

The supervised executor (:mod:`repro.runtime.supervisor`) ships jobs to
worker subprocesses, so a job must be a value: a JSON-able dict naming
the kind of work and its inputs, never a live Python object.  This
module is the bridge between that wire format and the library — the same
three operations the CLI exposes (``typecheck`` / ``run`` /
``validate``), taking their inputs as file paths *or* inline text and
returning a JSON-able outcome dict.

Job parameter schema (the ``params`` of a manifest entry)::

    typecheck: stylesheet|stylesheet_text, input_dtd|input_dtd_text,
               output_dtd|output_dtd_text, method (auto|exact|bounded;
               defaults to exact for wire compatibility), max_inputs,
               timeout, max_steps, max_states, fallback, audit
    run:       stylesheet|stylesheet_text, document|document_text,
               timeout, max_steps
    validate:  dtd|dtd_text, document|document_text

Every ``X`` parameter is a file path; ``X_text`` carries the content
inline (handy for generated manifests and hermetic tests).  When both
are given the inline text wins.

:func:`execute_job` returns ``{"status": ..., ...detail}`` where status
is ``ok`` or ``type-error``; resource exhaustion propagates as
:class:`~repro.errors.ResourceExhausted` (the worker classifies it
``exhausted``), malformed inputs as the usual parse errors.

With ``audit`` set (``"witness"``/``"full"``, or via the ``REPRO_AUDIT``
environment variable) a typecheck job certifies its own verdict before
reporting (:mod:`repro.audit`).  A refuted verdict is escalated to
``status: "miscompiled"`` and — because this worker owns the memo tiers
that fed the bad answer — the memo keys the run depended on are
quarantined right here, from both the in-memory table and the persistent
disk tier, before the outcome is sent (``outcome["quarantine"]`` carries
the eviction counts).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Mapping, Optional

from repro.errors import SupervisorError

__all__ = ["JOB_KINDS", "execute_job", "affinity_key"]

JOB_KINDS = ("typecheck", "run", "validate")

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
    then fail with a clean usage error on some worker).
    """
    kind = str(payload.get("kind", ""))
    params = payload.get("params") or {}
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(kind.encode("utf-8"))
    if isinstance(params, Mapping):
        for name in _AFFINITY_PARAMS.get(kind, ()):
            try:
                text = _text_input(params, name, required=False)
            except OSError:
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
        return Path(path).read_text()
    if required:
        raise SupervisorError(
            f"job needs either {name!r} (a path) or '{name}_text' (inline)"
        )
    return None


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
        from repro.runtime.governor import clamp_timeout

        params = dict(params)
        params["timeout"] = clamp_timeout(
            params.get("timeout"), float(deadline)
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


def _job_typecheck(params: Mapping) -> dict:
    from repro.lang import parse_stylesheet, xslt_to_transducer
    from repro.typecheck import typecheck
    from repro.xmlio import parse_dtd_any

    sheet = parse_stylesheet(_text_input(params, "stylesheet"))
    input_dtd = parse_dtd_any(_text_input(params, "input_dtd"))
    output_dtd = parse_dtd_any(_text_input(params, "output_dtd"))
    machine = xslt_to_transducer(
        sheet, tags=input_dtd.symbols, root_tag=input_dtd.root
    )
    result = typecheck(
        machine,
        input_dtd,
        output_dtd,
        method=params.get("method", "exact"),
        max_inputs=int(params.get("max_inputs", 50)),
        max_depth=int(params.get("max_depth", 6)),
        timeout=params.get("timeout"),
        max_steps=params.get("max_steps"),
        max_states=params.get("max_states"),
        fallback=bool(params.get("fallback", False)),
        audit=params.get("audit"),
    )
    outcome = result.to_jsonable()
    outcome["status"] = "ok" if result.ok else "type-error"
    audit = result.stats.get("audit")
    if isinstance(audit, Mapping) and audit.get("status") == "failed":
        # The audit refuted this verdict: escalate, and quarantine both
        # memo tiers *in this worker* (it owns them).  The purge is
        # deliberately total — memo hits short-circuit their ancestors,
        # so the tracked keys bound what the run touched, not the
        # poisoned closure that fed it; only dropping everything
        # guarantees the resubmission recomputes from first principles.
        from repro.runtime.cache import quarantine_keys

        outcome["status"] = "miscompiled"
        outcome["quarantine"] = quarantine_keys(
            audit.get("quarantine_keys") or (),
            reason=f"audit refuted a {result.method} verdict",
            purge=True,
        )
    return outcome


def _job_run(params: Mapping) -> dict:
    from repro.lang import apply_stylesheet, parse_stylesheet
    from repro.runtime.governor import governed, make_governor
    from repro.xmlio import parse_xml, to_xml

    sheet = parse_stylesheet(_text_input(params, "stylesheet"))
    document = parse_xml(_text_input(params, "document"))
    governor = make_governor(
        timeout=params.get("timeout"), max_steps=params.get("max_steps")
    )
    if governor is None:
        output = apply_stylesheet(sheet, document)
    else:
        with governed(governor):
            output = apply_stylesheet(sheet, document)
    return {"status": "ok", "output": to_xml(output)}


def _job_validate(params: Mapping) -> dict:
    from repro.xmlio import parse_dtd_any, parse_xml

    dtd = parse_dtd_any(_text_input(params, "dtd"))
    document = parse_xml(_text_input(params, "document"))
    errors = dtd.validation_errors(document)
    if not errors:
        return {"status": "ok"}
    return {
        "status": "type-error",
        "errors": [
            {
                "address": "/" + "/".join(str(step) for step in address),
                "message": message,
            }
            for address, message in errors
        ],
    }
