"""Independent verdict certification: replay the evidence, trust nothing.

The Theorem 4.4 pipeline is non-elementary, and the repo has aggressively
optimized it — memo caches, a persistent disk tier, a bitset algebra core.
A single miscompile, cache corruption, or routing bug in that machinery
can silently flip a verdict, which is the one failure mode the
governor/supervisor/overload layers cannot catch: the job *succeeds*,
with the wrong answer.  Following Frisch–Hosoya's practical-typechecking
discipline (counterexample validation as a first-class component), this
module certifies every answer with a checker that is much simpler than
the engine that produced it.

The audit uses only the *trusted interpreters* and never the optimized
algebra:

* tree membership via direct automaton runs
  (:meth:`repro.automata.bottom_up.BottomUpTA.accepts` — a plain
  bottom-up pass, no subset constructions, no cache);
* transducer semantics via :func:`repro.pebble.run.evaluate` (the direct
  rewriting interpreter of Section 3.1, exposed to auditors as
  :func:`repro.pebble.run.replay_output`).

All audit work runs with the memo cache *disabled*
(:func:`repro.runtime.cache.cache_disabled`), so a poisoned cache entry
can fool the engine but never the audit.

What gets certified (see :func:`audit_result`):

* A ``type-error`` verdict carries concrete evidence, so it is fully
  checkable regardless of which engine produced it: the counterexample
  input must belong to the input type, the transducer must reproduce the
  recorded output on it, and that output must fall outside the output
  type.  All three replay → ``certified``; any mismatch → ``failed``.
* An exact ``ok`` verdict claims a universally quantified fact, which no
  budgeted checker can confirm — it can only ever be *refuted*.  In
  ``full`` mode the audit runs a seeded randomized falsification pass
  (enumerate/sample instances of the input type, transform each with the
  trusted interpreter, validate the outputs); surviving it yields
  ``certified``, a violation yields ``failed``.  In ``witness`` mode the
  pass is skipped (``skipped``) so the common case stays cheap.
* A bounded ``ok`` verdict is not a proof (``engine._BOUNDED_CAVEAT``),
  so the audit labels it ``unproven`` — never ``certified``.

Fault points (chaos hooks, armed via :mod:`repro.runtime.faults`):

==================  =====================================================
point               effect when armed with action ``exception``
==================  =====================================================
audit:flip-verdict  the audit replays the *negated* verdict, so a
                    correct answer must be reported ``failed`` — proves
                    the miscompiled routing end-to-end
==================  =====================================================

(The companion ``cache:poison-entry`` point lives in
:mod:`repro.runtime.diskcache` and corrupts persisted values while
keeping their checksums valid — exactly the corruption class only this
module can catch.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import (
    FaultInjected,
    ResourceExhausted,
    TransducerRuntimeError,
    TypecheckError,
)
from repro.pebble.output_automaton import output_language
from repro.pebble.run import replay_output
from repro.pebble.transducer import PebbleTransducer
from repro.runtime.cache import cache_disabled
from repro.runtime.faults import fault_point
from repro.runtime.governor import Budget, ResourceGovernor, governed
from repro.runtime.trace import current_tracer
from repro.trees.ranked import BTree
from repro.typecheck.engine import (
    DEGRADED_SUFFIX,
    EXACT_METHODS,
    TypeLike,
    TypecheckResult,
    _input_instances,
    as_automaton,
)

__all__ = [
    "AUDIT_MODES",
    "AuditReport",
    "CERTIFIED",
    "FAILED",
    "SKIPPED",
    "UNPROVEN",
    "audit_record",
    "audit_result",
    "resolve_audit_mode",
]

#: Accepted values of the ``audit=`` knob, weakest first.
AUDIT_MODES = ("off", "witness", "full")

#: Audit statuses.  ``failed`` is the miscompile signal: the recorded
#: evidence does not replay, or falsification found a counterexample.
CERTIFIED = "certified"
FAILED = "failed"
UNPROVEN = "unproven"
SKIPPED = "skipped"

#: Default falsification seed — fixed so audit replays are reproducible;
#: override per call for fresh sampling.
DEFAULT_SEED = 0x52455052

#: Default step budget for one audit (replays are polynomial per tree,
#: so this is generous; blowing it yields ``skipped``, never a hang).
DEFAULT_MAX_STEPS = 500_000


def resolve_audit_mode(requested: Optional[str]) -> str:
    """Normalize an audit-mode request against the ``REPRO_AUDIT`` env.

    An explicit ``requested`` value wins; otherwise the environment
    variable decides (its empty/``0``/``off`` spellings all mean off,
    ``1`` means ``witness``).  Unknown values raise
    :class:`~repro.errors.TypecheckError` so typos fail loudly.
    """
    import os

    mode = requested
    if mode is None:
        mode = os.environ.get("REPRO_AUDIT", "off")
    mode = str(mode).strip().lower()
    if mode in ("", "0", "no", "false"):
        mode = "off"
    elif mode == "1":
        mode = "witness"
    if mode not in AUDIT_MODES:
        raise TypecheckError(
            f"unknown audit mode {mode!r}; expected one of "
            f"{', '.join(AUDIT_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one certification replay.

    ``status`` is one of :data:`CERTIFIED` / :data:`FAILED` /
    :data:`UNPROVEN` / :data:`SKIPPED`; only ``failed`` indicates a
    miscompiled verdict.  ``checks`` itemizes the witness replay,
    ``replay_steps`` meters the trusted interpreters' work, and ``seed``
    records the falsification sampling seed (``None`` when no
    falsification ran).
    """

    status: str
    mode: str
    method: str = ""
    checks: tuple = ()
    replay_steps: int = 0
    seed: Optional[int] = None
    inputs_tried: int = 0
    reason: str = ""
    flipped: bool = False
    counterexample_input: Optional[BTree] = field(
        default=None, compare=False
    )
    counterexample_output: Optional[BTree] = field(
        default=None, compare=False
    )

    @property
    def ok(self) -> bool:
        """True unless the audit refuted the verdict."""
        return self.status != FAILED

    def to_jsonable(self) -> dict:
        """The report as a plain dict (the ``stats["audit"]`` payload)."""
        payload: dict = {
            "status": self.status,
            "mode": self.mode,
            "method": self.method,
            "replay_steps": self.replay_steps,
        }
        if self.checks:
            payload["checks"] = [dict(check) for check in self.checks]
        if self.seed is not None:
            payload["seed"] = self.seed
            payload["inputs_tried"] = self.inputs_tried
        if self.reason:
            payload["reason"] = self.reason
        if self.flipped:
            payload["flipped"] = True
        if self.counterexample_input is not None:
            payload["counterexample_input"] = _tree_text(
                self.counterexample_input
            )
            if self.counterexample_output is not None:
                payload["counterexample_output"] = _tree_text(
                    self.counterexample_output
                )
        return payload


def _tree_text(tree: BTree) -> str:
    """``tree`` as XML when it is a document encoding, else raw."""
    from repro.trees.encoding import decode
    from repro.xmlio.serializer import to_xml

    try:
        return to_xml(decode(tree))
    except Exception:  # noqa: BLE001 - raw binary trees are legitimate
        return str(tree)


def audit_result(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    result: TypecheckResult,
    *,
    mode: str = "witness",
    max_steps: int = DEFAULT_MAX_STEPS,
    max_inputs: int = 24,
    max_depth: int = 5,
    seed: int = DEFAULT_SEED,
    fault_key: str = "",
) -> AuditReport:
    """Certify (or refute) one :class:`TypecheckResult`.

    Runs entirely under a fresh local governor (budget ``max_steps``)
    with the memo cache disabled, so the audit's cost is metered
    independently and a corrupt cache cannot feed it.  Exhausting the
    audit budget yields ``skipped`` (with the reason recorded), never an
    exception: an audit must not turn a good answer into a failure.
    """
    mode = resolve_audit_mode(mode)
    if mode == "off":
        return AuditReport(
            status=SKIPPED, mode=mode, method=result.method,
            reason="audit disabled",
        )
    claimed_ok = bool(result.ok)
    flipped = False
    try:
        fault_point("audit:flip-verdict", fault_key)
    except FaultInjected:
        # chaos hook: audit the negated verdict, so a *correct* answer
        # must fail certification — proves the miscompiled routing.
        claimed_ok = not claimed_ok
        flipped = True
    gov = ResourceGovernor(budget=Budget(max_steps=max_steps))
    tracer = current_tracer()
    try:
        with cache_disabled(), governed(gov):
            if not claimed_ok:
                with tracer.span("audit:witness"):
                    status, checks = _certify_witness(
                        transducer, input_type, output_type, result, gov
                    )
                return AuditReport(
                    status=status, mode=mode, method=result.method,
                    checks=tuple(checks), replay_steps=gov.steps,
                    flipped=flipped,
                )
            if result.method not in EXACT_METHODS:
                caveat = (
                    "bounded ok is not a proof; only the explored "
                    "inputs are covered"
                )
                if result.method.endswith(DEGRADED_SUFFIX):
                    route = result.method[: -len(DEGRADED_SUFFIX)]
                    caveat = (
                        f"{route} run exhausted its budget and degraded "
                        "to the bounded falsifier; " + caveat
                    )
                return AuditReport(
                    status=UNPROVEN, mode=mode, method=result.method,
                    reason=caveat, flipped=flipped,
                )
            if mode != "full":
                return AuditReport(
                    status=SKIPPED, mode=mode, method=result.method,
                    reason=(
                        "witness mode does not falsify exact ok "
                        "verdicts; use audit=full"
                    ),
                    flipped=flipped,
                )
            with tracer.span("audit:falsify"):
                status, extra = _falsify(
                    transducer, input_type, output_type, gov,
                    max_inputs, max_depth, seed,
                )
            return AuditReport(
                status=status, mode=mode, method=result.method,
                replay_steps=gov.steps, seed=seed,
                inputs_tried=extra.get("inputs_tried", 0),
                reason=extra.get("reason", ""),
                flipped=flipped,
                counterexample_input=extra.get("counterexample_input"),
                counterexample_output=extra.get("counterexample_output"),
            )
    except ResourceExhausted:
        return AuditReport(
            status=SKIPPED, mode=mode, method=result.method,
            replay_steps=gov.steps, flipped=flipped,
            reason=f"audit budget exhausted after {gov.steps} steps",
        )


def _certify_witness(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    result: TypecheckResult,
    gov: ResourceGovernor,
) -> tuple[str, list]:
    """Replay a ``type-error`` verdict's evidence check by check."""
    checks: list[dict] = []

    def check(name: str, ok: bool, **extra) -> bool:
        entry = {"check": name, "ok": bool(ok)}
        entry.update(extra)
        checks.append(entry)
        return bool(ok)

    witness = result.counterexample_input
    if not check(
        "witness-present", witness is not None,
        detail=(
            "" if witness is not None
            else "type-error verdict carries no counterexample input"
        ),
    ):
        return FAILED, checks
    tau1 = as_automaton(input_type, transducer.input_alphabet)
    if not check("input-in-input-type", tau1.accepts(witness)):
        return FAILED, checks

    recorded = result.counterexample_output
    interpreter = "pebble.run"
    try:
        output, _ = replay_output(transducer, witness, governor=gov)
    except TransducerRuntimeError:
        # A genuinely nondeterministic machine cannot be replayed by the
        # deterministic interpreter; fall back to membership in the
        # per-input output automaton (Prop 3.8).  Still cache-blind.
        interpreter = "output-automaton"
        output = None
    if interpreter == "pebble.run":
        if recorded is not None:
            if not check(
                "output-reproduced", output == recorded,
                interpreter=interpreter,
            ):
                return FAILED, checks
            bad = recorded
        else:
            # no recorded output: the machine must still produce one,
            # otherwise there is no ill-typed output to speak of.
            if not check(
                "output-reproduced", output is not None,
                interpreter=interpreter,
                detail=(
                    "" if output is not None
                    else "transducer produced no output on the witness"
                ),
            ):
                return FAILED, checks
            bad = output
    else:
        if not check(
            "output-reproduced",
            recorded is not None
            and output_language(transducer, witness).accepts(recorded),
            interpreter=interpreter,
        ):
            return FAILED, checks
        bad = recorded

    tau2 = as_automaton(output_type, transducer.output_alphabet)
    if not check("output-outside-output-type", not tau2.accepts(bad)):
        return FAILED, checks
    return CERTIFIED, checks


def _falsify(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    gov: ResourceGovernor,
    max_inputs: int,
    max_depth: int,
    seed: int,
) -> tuple[str, dict]:
    """Budgeted randomized falsification of an exact ``ok`` verdict.

    Can only ever refute: surviving the sample is evidence, not proof —
    but a violation found here is a certain miscompile.
    """
    tau2 = as_automaton(output_type, transducer.output_alphabet)
    pool = list(
        _input_instances(input_type, max(max_inputs, 4) * 4, max_depth)
    )
    if len(pool) > max_inputs:
        pool = random.Random(seed).sample(pool, max_inputs)
    tried = 0
    nondeterministic = 0
    for tree in pool:
        try:
            output, _ = replay_output(transducer, tree, governor=gov)
        except TransducerRuntimeError:
            nondeterministic += 1
            continue
        tried += 1
        if output is not None and not tau2.accepts(output):
            return FAILED, {
                "inputs_tried": tried,
                "reason": "falsification found an ill-typed output",
                "counterexample_input": tree,
                "counterexample_output": output,
            }
    extra: dict = {"inputs_tried": tried}
    if nondeterministic:
        extra["reason"] = (
            f"{nondeterministic} sampled input(s) hit nondeterminism "
            "and were skipped"
        )
    return CERTIFIED, extra


def audit_record(
    record: Mapping,
    params: Mapping,
    *,
    mode: str = "witness",
    **kwargs,
) -> AuditReport:
    """Re-certify one results-JSONL line offline (``repro audit``).

    ``record`` is a job-result line (``repro-job-result/v2`` — from
    ``repro batch`` results or the service's ``results.jsonl``) or a raw
    outcome dict; ``params`` is the matching manifest entry's ``params``
    (the stylesheet and DTDs the verdict was computed from), loaded and
    compiled by :func:`repro.runtime.jobs.typecheck_inputs` as the job
    itself was.  The recorded XML counterexamples are parsed and
    re-encoded, then audited exactly like a fresh result.  Non-typecheck
    or non-verdict records yield ``skipped``.
    """
    from repro.runtime.jobs import typecheck_inputs
    from repro.trees.encoding import encode
    from repro.xmlio import parse_xml

    detail = record.get("detail") if isinstance(record.get("detail"),
                                                Mapping) else record
    status = record.get("status") or detail.get("status")
    if status not in ("ok", "type-error", "miscompiled"):
        return AuditReport(
            status=SKIPPED, mode=resolve_audit_mode(mode),
            reason=f"nothing to certify for status {status!r}",
        )
    if "ok" not in detail or "method" not in detail:
        return AuditReport(
            status=SKIPPED, mode=resolve_audit_mode(mode),
            reason="record carries no typecheck verdict",
        )
    machine, input_dtd, output_dtd = typecheck_inputs(params)

    def tree_of(key: str) -> Optional[BTree]:
        xml = detail.get(key)
        if xml is None:
            return None
        return encode(parse_xml(str(xml)))

    result = TypecheckResult(
        ok=bool(detail["ok"]),
        method=str(detail["method"]),
        counterexample_input=tree_of("counterexample_input"),
        counterexample_output=tree_of("counterexample_output"),
    )
    return audit_result(
        machine, input_dtd, output_dtd, result, mode=mode, **kwargs
    )
