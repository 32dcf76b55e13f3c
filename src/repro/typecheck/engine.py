"""The typechecking engine (paper, Section 4, Theorem 4.4).

Typechecking asks: does ``T(t) ⊆ tau2`` hold for every ``t ∈ tau1``?

Two engines are provided:

* **exact** — the paper's decision procedure.  Complement the output
  type, build the product pebble automaton ``A`` of Proposition 4.6
  (``inst(A) = {t | T(t) ∩ ¬tau2 ≠ ∅}``), translate ``A`` into a regular
  tree automaton via the Theorem 4.7 pipeline, intersect with the input
  type, and test emptiness.  Any witness is a genuine counterexample,
  and a concrete bad output is recovered through the Proposition 3.8
  output automaton.  This is decidable but non-elementary (Theorem 4.8);
  it is intended for machines with few pebbles and small state counts —
  exactly the regime Section 5 argues covers many practical queries.

* **bounded** — a falsifier.  Enumerate instances of the input type up
  to a budget; for each, check ``T(t) ∩ ¬tau2 = ∅`` via the per-input
  output automaton (polynomial per instance).  Sound for rejection,
  complete in the limit, and fast; the practical complement to the exact
  engine, in the spirit of Section 5's "restricted cases".

Because the exact procedure is non-elementary, :func:`typecheck` also
implements a *degradation policy*: run it under a resource governor
(``timeout=`` / ``max_steps=`` / ``max_states=``, or an explicit
``governor=``) and, with ``fallback=True``, a budget blow-up degrades
automatically to the bounded falsifier instead of raising.  The result
then carries ``method="exact-exhausted→bounded"`` and full exhaustion
diagnostics in ``stats`` (phase reached, budget consumed, verdict
caveats).  With no budget knobs set, behaviour is byte-for-byte the
ungoverned exact/bounded run.

Types may be given as :class:`~repro.automata.bottom_up.BottomUpTA` over
binary trees, or as (specialized) DTDs — DTDs are converted with
:func:`~repro.automata.from_dtd.dtd_to_automaton`, and DTD-typed inputs
are enumerated as documents and encoded.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.automata.bottom_up import BottomUpTA
from repro.automata.convert import bu_to_td
from repro.automata.from_dtd import dtd_to_automaton, specialized_to_automaton
from repro.automata.top_down import TopDownTA
from repro.errors import ResourceExhausted, TypecheckError
from repro.pebble.output_automaton import output_language
from repro.pebble.product import transducer_times_automaton
from repro.pebble.to_regular import pebble_automaton_to_ta
from repro.pebble.transducer import PebbleTransducer
from repro.runtime.cache import cache_stats
from repro.runtime.governor import (
    ResourceGovernor,
    current_governor,
    governed,
    make_governor,
)
from repro.runtime.trace import current_tracer, summarize
from repro.trees.alphabet import RankedAlphabet
from repro.trees.encoding import encode
from repro.trees.ranked import BTree
from repro.xmlio.dtd import DTD
from repro.xmlio.specialized import SpecializedDTD

TypeLike = Union[BottomUpTA, DTD, SpecializedDTD]

#: Suffix marking a result produced by the degradation policy (the
#: exhausted route's name is the prefix: ``exact-exhausted→bounded``,
#: ``fast-td-exhausted→bounded``, ...).
DEGRADED_SUFFIX = "-exhausted→bounded"

#: ``method`` string of a degraded ``method="exact"`` run (the common
#: case; kept as a constant for backward compatibility).
DEGRADED_METHOD = "exact" + DEGRADED_SUFFIX

#: ``method`` values whose verdicts are exact proofs / genuine
#: counterexamples (audit certifies these; the bounded falsifier and
#: degraded results are not in this set).
EXACT_METHODS = frozenset({"exact", "fast-td", "lazy-backward"})

_BOUNDED_CAVEAT = (
    "ok=True from the bounded falsifier only means no counterexample was "
    "found on the explored inputs; it is not a proof of type safety"
)


@dataclass(frozen=True)
class TypecheckResult:
    """Outcome of a typechecking run.

    ``ok=True`` means every output conforms (for the bounded engine: every
    output *on the explored inputs*).  On failure, ``counterexample_input``
    is a tree of the input type and ``counterexample_output`` one of its
    ill-typed outputs.
    """

    ok: bool
    method: str
    counterexample_input: Optional[BTree] = None
    counterexample_output: Optional[BTree] = None
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def to_jsonable(self) -> dict:
        """The result as a plain JSON-able dict (the wire format of the
        supervised runtime's job results and the ``repro batch`` log).

        Counterexamples are decoded back to documents and serialized as
        XML strings; ``stats`` values that JSON cannot carry are
        stringified rather than dropped.
        """
        from repro.trees.encoding import decode
        from repro.xmlio.serializer import to_xml

        payload: dict = {
            "ok": self.ok,
            "method": self.method,
            "stats": _jsonable(self.stats),
        }
        if self.counterexample_input is not None:
            payload["counterexample_input"] = to_xml(
                decode(self.counterexample_input)
            )
        if self.counterexample_output is not None:
            payload["counterexample_output"] = to_xml(
                decode(self.counterexample_output)
            )
        return payload


def _jsonable(value):
    """``value`` with anything JSON cannot represent stringified."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def as_automaton(
    type_like: TypeLike, alphabet: Optional[RankedAlphabet] = None
) -> BottomUpTA:
    """Coerce a type-like object to a bottom-up automaton, widened to
    ``alphabet`` when given (symbols outside the type are rejected)."""
    if isinstance(type_like, DTD):
        automaton = dtd_to_automaton(type_like)
    elif isinstance(type_like, SpecializedDTD):
        automaton = specialized_to_automaton(type_like)
    elif isinstance(type_like, BottomUpTA):
        automaton = type_like
    else:
        raise TypecheckError(
            f"cannot interpret {type_like!r} as a type; expected a "
            f"BottomUpTA, DTD, or SpecializedDTD"
        )
    if alphabet is None or alphabet.symbols <= automaton.alphabet.symbols:
        return automaton
    # widen the alphabet: symbols without rules are simply rejected, which
    # is the right semantics for a type over a sub-alphabet.
    widened = automaton.alphabet.union(alphabet)
    return BottomUpTA(
        alphabet=widened,
        states=automaton.states,
        leaf_rules=automaton.leaf_rules,
        rules=automaton.rules,
        accepting=automaton.accepting,
    )


def inverse_type(
    transducer: PebbleTransducer, output_type: TypeLike
) -> BottomUpTA:
    """Inverse type inference (Section 4.1): the *regular* language
    ``tau2^{-1} = {t | T(t) ⊆ tau2}`` over the input alphabet.

    This is the paper's central construction: complement the output type,
    product with the transducer (Prop 4.6), regularize (Thm 4.7),
    complement again.
    """
    bad_inputs = bad_input_language(transducer, output_type)
    return bad_inputs.complemented().minimized()


def bad_input_language(
    transducer: PebbleTransducer, output_type: TypeLike
) -> BottomUpTA:
    """The regular language ``{t | T(t) ⊈ tau2}`` (the complement of the
    inverse type)."""
    _, not_tau2 = complement_output_type(transducer, output_type)
    return _bad_inputs(transducer, not_tau2)


def complement_output_type(
    transducer: PebbleTransducer, output_type: TypeLike
) -> tuple[BottomUpTA, TopDownTA]:
    """``tau2`` over the transducer's output alphabet, and the top-down
    form of its complement (Theorem 4.4, step 1).

    A check keeps the coerced ``tau2`` for its witness phase, so it
    builds the automaton from a DTD and fingerprints it once.
    """
    governor = current_governor()
    tracer = current_tracer()
    with governor.phase("complement-output-type"), \
            tracer.span("complement-output-type"):
        with tracer.span("coerce-output-type"):
            tau2 = as_automaton(output_type, transducer.output_alphabet)
        complemented = tau2.complemented().trimmed()
        with tracer.span("bu-to-td"):
            not_tau2 = bu_to_td(complemented)
    return tau2, not_tau2


def _bad_inputs(
    transducer: PebbleTransducer, not_tau2: TopDownTA
) -> BottomUpTA:
    """The Prop 4.6 product with ``not_tau2``, regularized (Thm 4.7)."""
    with current_governor().phase("transducer-product"), \
            current_tracer().span("transducer-product"):
        product = transducer_times_automaton(transducer, not_tau2)
    return pebble_automaton_to_ta(product)


def typecheck(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    method: str = "exact",
    max_inputs: int = 50,
    max_depth: int = 6,
    *,
    timeout: Optional[float] = None,
    max_steps: Optional[int] = None,
    max_states: Optional[int] = None,
    fallback: bool = False,
    governor: Optional[ResourceGovernor] = None,
    audit: Optional[str] = None,
) -> TypecheckResult:
    """Decide (or refute) ``T(tau1) ⊆ tau2``.

    ``method`` selects the decision procedure (the full decision tree is
    documented in ``docs/algorithms.md``):

    * ``"auto"`` — classify the transducer
      (:func:`repro.typecheck.routing.classify`) and run the cheapest
      exact route: the polynomial ``fast-td`` checker for deterministic
      linear top-down machines, ``lazy-backward`` on-the-fly emptiness
      for other one-pebble machines, the Theorem 4.4 pipeline otherwise.
      The route actually taken is the result's ``method`` and its
      rationale lands in ``stats["routing"]``.
    * ``"exact"`` — the Theorem 4.4 decision procedure, unconditionally
      (no classification).
    * ``"fast"`` / ``"lazy"`` — force the corresponding fast route;
      raises :class:`~repro.errors.TypecheckError` when the transducer
      is not eligible.
    * ``"bounded"`` — enumerate up to ``max_inputs`` instances of the
      input type and check each (a sound falsifier, not a proof).

    Every route except ``"bounded"`` is exact: ``ok=True`` is a proof
    and counterexamples are genuine (``EXACT_METHODS`` lists the
    result-``method`` values with this property).

    Resource governance (the procedure is non-elementary, Theorem 4.8):

    * ``timeout`` (seconds), ``max_steps`` and ``max_states`` build a
      :class:`~repro.runtime.ResourceGovernor` for the run; an explicit
      ``governor`` overrides them.  When a budget runs out the run raises
      :class:`~repro.errors.ResourceExhausted` carrying the phase reached
      and the budget consumed.
    * With ``fallback=True``, an exhausted exact-class run (any route)
      degrades to the bounded falsifier instead of raising.  The
      result's ``method`` is ``"<route>-exhausted→bounded"`` (e.g.
      ``"exact-exhausted→bounded"``) and ``stats`` records the exhaustion
      diagnostics (``exact_exhausted``) plus the falsifier's caveat.  The
      fallback re-arms the wall-clock deadline (``timeout``) but drops
      step/state budgets: those exist to stop the exact pipeline's
      automata blow-up, while the falsifier is polynomial per input and
      already bounded by ``max_inputs``/``max_depth``.

    With none of the governance knobs set, behaviour (and cost) is
    identical to the ungoverned engines.

    Every result's ``stats["cache"]`` records the memo-table activity of
    this run (hit/miss/store/eviction deltas of
    :data:`repro.runtime.cache.GLOBAL_CACHE`, plus its current size).
    With an ambient tracer installed (``repro ... --trace`` /
    :func:`repro.runtime.tracing`), ``stats["trace"]`` additionally
    carries the per-phase span summary of this call — span count, root
    wall time, and per-span-name count/wall/steps aggregates.

    ``audit`` arms independent verdict certification (:mod:`repro.audit`):
    ``"witness"`` replays the counterexample evidence of every
    ``type-error`` verdict with the trusted interpreters (cache
    disabled); ``"full"`` additionally runs seeded randomized
    falsification against exact ``ok`` verdicts.  The report lands in
    ``stats["audit"]`` (status, replay steps, seed); a ``failed`` status
    means the verdict is *refuted* — the caller (CLI, batch worker,
    service) escalates it to the ``miscompiled`` outcome, and
    ``stats["audit"]["quarantine_keys"]`` then lists every memo key the
    run depended on so both cache tiers can be quarantined.  ``None``
    defers to the ``REPRO_AUDIT`` environment variable; ``"off"`` (the
    default) adds zero overhead.
    """
    tracer = current_tracer()
    cache_before = cache_stats()
    audit_mode = "off"
    if audit is not None or os.environ.get("REPRO_AUDIT"):
        from repro.audit import resolve_audit_mode

        audit_mode = resolve_audit_mode(audit)
    with tracer.span("typecheck", method=method) as span:
        if audit_mode == "off":
            result = _typecheck_dispatch(
                transducer, input_type, output_type, method, max_inputs,
                max_depth,
                timeout=timeout, max_steps=max_steps, max_states=max_states,
                fallback=fallback, governor=governor,
            )
        else:
            from repro.audit import FAILED, audit_result
            from repro.runtime.cache import tracked_keys

            with tracked_keys() as touched:
                result = _typecheck_dispatch(
                    transducer, input_type, output_type, method,
                    max_inputs, max_depth,
                    timeout=timeout, max_steps=max_steps,
                    max_states=max_states,
                    fallback=fallback, governor=governor,
                )
            with tracer.span("audit", mode=audit_mode):
                report = audit_result(
                    transducer, input_type, output_type, result,
                    mode=audit_mode,
                )
            result.stats["audit"] = report.to_jsonable()
            if report.status == FAILED:
                # hand the quarantine lineage to whoever escalates this
                result.stats["audit"]["quarantine_keys"] = sorted(touched)
    cache_after = cache_stats()
    result.stats["cache"] = {
        "enabled": cache_after["enabled"],
        "hits": cache_after["hits"] - cache_before["hits"],
        "misses": cache_after["misses"] - cache_before["misses"],
        "stores": cache_after["stores"] - cache_before["stores"],
        "evictions": cache_after["evictions"] - cache_before["evictions"],
        "entries": cache_after["entries"],
        "bytes": cache_after["bytes"],
    }
    if "persistent" in cache_after:
        # a disk tier is installed (repro serve workers): report its
        # per-run deltas so a served job shows where its warmth came from
        tier_after = cache_after["persistent"]
        tier_before = cache_before.get("persistent", {})
        result.stats["cache"]["persistent"] = {
            "hits": tier_after["hits"] - tier_before.get("hits", 0),
            "misses": tier_after["misses"] - tier_before.get("misses", 0),
            "stores": tier_after["stores"] - tier_before.get("stores", 0),
            "entries": tier_after["entries"],
            "segments": tier_after["segments"],
            "bytes": tier_after["bytes"],
        }
    if tracer.active:
        result.stats["trace"] = summarize(span)
    return result


def _typecheck_dispatch(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    method: str,
    max_inputs: int,
    max_depth: int,
    *,
    timeout: Optional[float],
    max_steps: Optional[int],
    max_states: Optional[int],
    fallback: bool,
    governor: Optional[ResourceGovernor],
) -> TypecheckResult:
    if method not in ("auto", "exact", "bounded", "fast", "lazy"):
        raise TypecheckError(f"unknown method {method!r}")
    gov = governor if governor is not None else make_governor(
        timeout, max_steps, max_states
    )
    tracer = current_tracer()
    if method == "bounded":
        if gov is None:
            with tracer.span("bounded"):
                return _typecheck_bounded(
                    transducer, input_type, output_type, max_inputs, max_depth
                )
        with governed(gov), gov.phase("bounded"), tracer.span("bounded"):
            return _typecheck_bounded(
                transducer, input_type, output_type, max_inputs, max_depth
            )

    # resolve the exact-class route.  method="exact" bypasses the
    # classifier entirely — it is the pre-routing code path, byte for
    # byte (no extra spans, no routing stats).
    decision = None
    if method == "exact":
        route = "exact"
    else:
        from repro.typecheck import routing

        with tracer.span("route:classify"):
            decision = routing.classify(transducer)
        if method == "auto":
            route = decision.route
        elif method == "fast":
            if not decision.fast_eligible:
                raise TypecheckError(
                    "method='fast' forced, but the transducer is outside "
                    "the fast top-down fragment: "
                    + "; ".join(decision.reasons)
                )
            route = routing.FAST_TD
        else:  # method == "lazy"
            if not decision.lazy_eligible:
                raise TypecheckError(
                    "method='lazy' forced, but lazy backward inference "
                    "needs a single head; this transducer uses "
                    f"{transducer.k} pebbles"
                )
            route = routing.LAZY_BACKWARD

    if route == "exact":
        runner, span_name = _typecheck_exact, "exact"
    elif route == "fast-td":
        from repro.typecheck import routing

        runner, span_name = routing.typecheck_fast, "route:fast-td"
    else:
        from repro.typecheck import routing

        runner, span_name = routing.typecheck_lazy, "route:lazy-backward"

    def attach(result: TypecheckResult) -> TypecheckResult:
        if decision is not None:
            result.stats["routing"] = {
                "requested": method,
                **decision.to_jsonable(),
            }
        return result

    if gov is None:
        with tracer.span(span_name):
            return attach(runner(transducer, input_type, output_type))
    try:
        with governed(gov), gov.phase(span_name), tracer.span(span_name):
            return attach(
                runner(transducer, input_type, output_type, governor=gov)
            )
    except ResourceExhausted as exhausted:
        if not fallback:
            raise
        fallback_gov = make_governor(timeout=timeout)
        if fallback_gov is None:
            with tracer.span("fallback-bounded"):
                result = _typecheck_bounded(
                    transducer, input_type, output_type, max_inputs, max_depth
                )
        else:
            with governed(fallback_gov), \
                    fallback_gov.phase("fallback-bounded"), \
                    tracer.span("fallback-bounded"):
                result = _typecheck_bounded(
                    transducer, input_type, output_type, max_inputs, max_depth
                )
        stats = dict(result.stats)
        stats["degraded"] = True
        stats["exact_exhausted"] = exhausted.progress()
        if result.ok:
            stats["caveat"] = _BOUNDED_CAVEAT
        degraded = TypecheckResult(
            ok=result.ok,
            method=route + DEGRADED_SUFFIX,
            counterexample_input=result.counterexample_input,
            counterexample_output=result.counterexample_output,
            stats=stats,
        )
        return attach(degraded)


def _typecheck_exact(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    governor: Optional[ResourceGovernor] = None,
) -> TypecheckResult:
    started = time.perf_counter()
    ambient = current_governor()
    tracer = current_tracer()
    with tracer.span("coerce-input-type"):
        tau1 = as_automaton(input_type, transducer.input_alphabet)
    tau2, not_tau2 = complement_output_type(transducer, output_type)
    bad = _bad_inputs(transducer, not_tau2)
    with ambient.phase("intersect-input-type"), \
            tracer.span("intersect-input-type"):
        # align alphabets before intersecting (types may use extra symbols)
        tau1 = as_automaton(tau1, bad.alphabet)
        bad = as_automaton(bad, tau1.alphabet)
        offending = bad.intersection(tau1).trimmed()
    elapsed = time.perf_counter() - started
    stats = {
        "seconds": elapsed,
        "bad_language_states": len(bad.states),
        "offending_states": len(offending.states),
    }
    if governor is not None:
        stats["budget"] = {
            "steps": governor.steps,
            "states": governor.states,
            "elapsed": governor.elapsed(),
        }
    with ambient.phase("witness"), tracer.span("witness"):
        witness = offending.witness()
        if witness is None:
            return TypecheckResult(ok=True, method="exact", stats=stats)
        bad_output = (
            output_language(transducer, witness)
            .intersection(tau2.complemented())
            .witness()
        )
    return TypecheckResult(
        ok=False,
        method="exact",
        counterexample_input=witness,
        counterexample_output=bad_output,
        stats=stats,
    )


def _input_instances(
    input_type: TypeLike,
    limit: int,
    max_depth: int,
    report: Optional[dict] = None,
) -> Iterator[BTree]:
    """Enumerate encoded instances of ``input_type``, up to ``limit``.

    When ``report`` (a dict) is given it is filled in place with
    enumeration metadata: ``emitted`` (trees yielded) and ``exhausted``
    (``True`` if the enumeration was cut off with more instances likely
    remaining, ``False`` if the language was covered completely, ``None``
    when unknown — the DTD document enumerator does not track this).
    """
    if isinstance(input_type, (DTD, SpecializedDTD)):
        emitted = 0
        for document in input_type.instances(limit, max_depth):
            emitted += 1
            yield encode(document)
        if report is not None:
            report["emitted"] = emitted
            # the document enumerator does not distinguish "language
            # covered" from "budget hit"; hitting the cap is suggestive
            # but depth limits make completeness unknowable here.
            report["exhausted"] = True if emitted >= limit else None
    else:
        yield from as_automaton(input_type).generate(limit, report=report)


def _typecheck_bounded(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    max_inputs: int,
    max_depth: int,
) -> TypecheckResult:
    started = time.perf_counter()
    governor = current_governor()
    not_tau2 = as_automaton(
        output_type, transducer.output_alphabet
    ).complemented()
    checked = 0
    enumeration: dict = {}

    def base_stats() -> dict:
        stats = {
            "seconds": time.perf_counter() - started,
            "inputs_requested": max_inputs,
            "inputs_checked": checked,
        }
        if "exhausted" in enumeration:
            stats["enumeration_exhausted"] = enumeration["exhausted"]
        return stats

    instances = _input_instances(
        input_type, max_inputs, max_depth, report=enumeration
    )
    try:
        while True:
            try:
                tree = next(instances)
            except StopIteration:
                break
            checked += 1
            governor.tick()
            bad_outputs = output_language(transducer, tree).intersection(
                not_tau2
            )
            witness = bad_outputs.witness()
            if witness is not None:
                return TypecheckResult(
                    ok=False,
                    method="bounded",
                    counterexample_input=tree,
                    counterexample_output=witness,
                    stats=base_stats(),
                )
    except ResourceExhausted as exhausted:
        stats = base_stats()
        stats["exhausted"] = exhausted.progress()
        stats["caveat"] = (
            "the bounded falsifier ran out of budget after checking "
            f"{checked} instance(s); the verdict covers only those"
        )
        return TypecheckResult(ok=True, method="bounded", stats=stats)
    return TypecheckResult(ok=True, method="bounded", stats=base_stats())
