"""The typechecking engine (paper, Section 4, Theorem 4.4).

Typechecking asks: does ``T(t) ⊆ tau2`` hold for every ``t ∈ tau1``?

Two engines are provided:

* **exact** — the paper's decision procedure.  Complement the output
  type, build the product pebble automaton ``A`` of Proposition 4.6
  (``inst(A) = {t | T(t) ∩ ¬tau2 ≠ ∅}``), translate ``A`` into a regular
  tree automaton via the Theorem 4.7 pipeline, intersect with the input
  type, and test emptiness.  For one pebble the intersection is
  explored directly, from the walking summary of ``A`` and the input
  type, up to its first tree, so only the part of ``A``'s language the
  input type reaches is ever regularized.  Any witness is a genuine
  counterexample,
  and a concrete bad output is recovered through the Proposition 3.8
  output automaton.  This is decidable but non-elementary (Theorem 4.8);
  it is intended for machines with few pebbles and small state counts —
  exactly the regime Section 5 argues covers many practical queries.

* **bounded** — a falsifier.  Enumerate instances of the input type up
  to a budget; for each, check ``T(t) ∩ ¬tau2 = ∅`` via the per-input
  output automaton (polynomial per instance).  Sound for rejection,
  complete in the limit, and fast; the practical complement to the exact
  engine, in the spirit of Section 5's "restricted cases".

The default, ``method="auto"``, gives the exact engine's verdicts but
routes each machine to the cheapest exact procedure for it
(:mod:`repro.typecheck.routing`), the pipeline above for any machine
the faster routes do not cover; ``method="exact"`` pins the pipeline.

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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Union

from repro.automata.alternating import explore_product
from repro.automata.bottom_up import BottomUpTA
from repro.automata.convert import bu_to_td
from repro.automata.from_dtd import dtd_to_automaton, specialized_to_automaton
from repro.automata.top_down import TopDownTA
from repro.errors import ResourceExhausted, TypecheckError
from repro.pebble.output_automaton import output_language
from repro.pebble.product import transducer_times_automaton
from repro.pebble.to_regular import pebble_automaton_to_ta, trim_quotient
from repro.pebble.transducer import PebbleTransducer
from repro.pebble.two_way import walking_summary
from repro.runtime.cache import (
    cache_stats,
    memoized,
    set_source_key,
    tracked_keys,
)
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

#: ``method`` values :func:`typecheck` accepts.
METHODS = ("auto", "exact", "bounded")

#: The ``method`` a check runs when it names none: :func:`typecheck`'s
#: default, ``repro typecheck --method``'s and a typecheck job's alike.
DEFAULT_METHOD = "auto"

#: ``method`` values whose verdicts are exact proofs / genuine
#: counterexamples (audit certifies these; the bounded falsifier and
#: degraded results are not in this set).
EXACT_METHODS = frozenset({"exact", "fast-td", "stylesheet"})

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
    ``alphabet`` when given (symbols outside the type are rejected).

    The construction from a ``DTD`` is deterministic, so its automaton
    carries a source key over the DTD and the automaton's alphabet
    (:func:`~repro.runtime.cache.set_source_key`): memo keys built on
    it hash the DTD, not the automaton."""
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
    if alphabet is not None \
            and not alphabet.symbols <= automaton.alphabet.symbols:
        # widen the alphabet: symbols without rules are simply rejected,
        # which is the right semantics for a type over a sub-alphabet.
        automaton = BottomUpTA(
            alphabet=automaton.alphabet.union(alphabet),
            states=automaton.states,
            leaf_rules=automaton.leaf_rules,
            rules=automaton.rules,
            accepting=automaton.accepting,
        )
    if isinstance(type_like, DTD):
        set_source_key(
            automaton, "dtd_to_automaton", (type_like,),
            (sorted(automaton.alphabet.leaves),
             sorted(automaton.alphabet.internals)),
        )
    return automaton


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
    with current_governor().phase("transducer-product"), \
            current_tracer().span("transducer-product"):
        product = transducer_times_automaton(transducer, not_tau2)
    return pebble_automaton_to_ta(product)


def complement_output_type(
    transducer: PebbleTransducer, output_type: TypeLike
) -> tuple[BottomUpTA, TopDownTA]:
    """``tau2`` over the transducer's output alphabet, and the top-down
    form of its complement (Theorem 4.4, step 1).

    A check keeps the coerced ``tau2`` for its witness phase, so it
    builds the automaton from a DTD once.  Complement, trim and the
    top-down conversion are one memoized op, ``type.complement-output``,
    keyed on ``tau2`` (by its source key when it came from a DTD): a
    repeated check gets back the very top-down automaton it used
    before, whose fingerprint is cached on it, so keying the Prop 4.6
    product on it hashes nothing.
    """
    governor = current_governor()
    tracer = current_tracer()
    with governor.phase("complement-output-type"), \
            tracer.span("complement-output-type"):
        with tracer.span("coerce-output-type"):
            tau2 = as_automaton(output_type, transducer.output_alphabet)
        not_tau2 = memoized(
            "type.complement-output", (tau2,),
            lambda: _top_down_complement(tau2),
        )
    return tau2, not_tau2


def _top_down_complement(tau2: BottomUpTA) -> TopDownTA:
    complemented = tau2.complemented().trimmed()
    with current_tracer().span("bu-to-td"):
        return bu_to_td(complemented)


def typecheck(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    method: str = DEFAULT_METHOD,
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

    * ``"auto"`` (the default) — classify the transducer and types
      (:func:`repro.typecheck.routing.classify`) and run the cheapest
      exact route: the ``stylesheet`` content-model fixpoint for a
      compiled stylesheet between two DTDs, the polynomial ``fast-td``
      checker for deterministic linear top-down machines, the Theorem
      4.4 pipeline (``exact``) otherwise.
      The route actually taken is the result's ``method`` and its
      rationale lands in ``stats["routing"]``.
    * ``"exact"`` — the Theorem 4.4 decision procedure, unconditionally
      (no classification).  To force one of the other routes, call
      :func:`~repro.typecheck.routing.typecheck_fast` or
      :func:`~repro.typecheck.stylesheet.typecheck_stylesheet` directly.
    * ``"bounded"`` — enumerate up to ``max_inputs`` instances of the
      input type and check each (a sound falsifier, not a proof).

    Every route except ``"bounded"`` is exact: ``ok=True`` is a proof
    and counterexamples are genuine (``EXACT_METHODS`` lists the
    result-``method`` values with this property).  When ``output_type``
    is a DTD, a ``type-error`` result's ``stats["diagnosis"]`` locates
    the first node of the ill-typed output that breaks it
    (:func:`diagnose`).

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
        # an audit that refutes the verdict quarantines the memo keys
        # the run depended on, so it has to collect them
        with (
            nullcontext() if audit_mode == "off" else tracked_keys()
        ) as touched:
            result = _typecheck_dispatch(
                transducer, input_type, output_type, method, max_inputs,
                max_depth,
                timeout=timeout, max_steps=max_steps, max_states=max_states,
                fallback=fallback, governor=governor,
            )
        if not result.ok and isinstance(output_type, DTD) \
                and result.counterexample_output is not None:
            # reporting, not deciding: charged to a governor of its own,
            # so no budget can turn a found type error into exhaustion
            with governed(ResourceGovernor()):
                result.stats["diagnosis"] = diagnose(
                    output_type, result.counterexample_output
                )
        if audit_mode != "off":
            from repro.audit import FAILED, audit_result

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


def diagnose(dtd: DTD, output: BTree) -> Optional[dict]:
    """Where the encoded document ``output`` breaks ``dtd``: its first
    validation error (:meth:`~repro.xmlio.dtd.DTD.validation_errors`)
    as the offending node's ``path``, ``element``, ``content_model``
    (``None`` for an undeclared element) and ``children`` word, plus
    the validator's ``message``.  ``None`` when ``output`` is valid."""
    from repro.trees.encoding import decode

    document = decode(output)
    errors = dtd.validation_errors(document)
    if not errors:
        return None
    address, message = errors[0]
    node = document
    path = "/" + node.label
    for index in address:
        siblings = node.children
        node = siblings[index]
        position = 1 + sum(
            sibling.label == node.label for sibling in siblings[:index]
        )
        path += f"/{node.label}[{position}]"
    model = dtd.content.get(node.label)
    return {
        "path": path,
        "element": node.label,
        "content_model": None if model is None else str(model),
        "children": ".".join(child.label for child in node.children),
        "message": message,
    }


@contextmanager
def _governing(
    governor: Optional[ResourceGovernor], phase: str
) -> Iterator[None]:
    """Install ``governor`` for the block, in ``phase``; with ``None``
    the ambient governor stays in effect."""
    if governor is None:
        yield
        return
    with governed(governor), governor.phase(phase):
        yield


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
    if method not in METHODS:
        raise TypecheckError(f"unknown method {method!r}")
    from repro.typecheck import routing

    tracer = current_tracer()
    # a governor is installed, and its exhaustion degraded, only when
    # this call built or was given one: an outer governor's exhaustion
    # is its owner's to handle
    gov = governor if governor is not None else make_governor(
        timeout, max_steps, max_states
    )

    def bounded() -> TypecheckResult:
        return _typecheck_bounded(
            transducer, input_type, output_type, max_inputs, max_depth
        )

    # resolve the route.  method="exact" bypasses the classifier
    # entirely (no route:classify span, no routing stats).
    decision = None
    route = method
    if method == "auto":
        with tracer.span("route:classify"):
            decision = routing.classify(transducer, input_type, output_type)
        route = decision.route
    if route == "bounded":
        span_name, run = "bounded", bounded
    else:
        runner, span_name = {
            routing.EXACT: (_typecheck_exact, "exact"),
            routing.FAST_TD: (routing.typecheck_fast, "route:fast-td"),
            routing.STYLESHEET: (
                routing.typecheck_stylesheet, "route:stylesheet"
            ),
        }[route]

        def run() -> TypecheckResult:
            return runner(transducer, input_type, output_type, governor=gov)

    try:
        with _governing(gov, span_name), tracer.span(span_name):
            result = run()
    except ResourceExhausted as exhausted:
        if gov is None or not fallback or route == "bounded":
            raise
        with _governing(make_governor(timeout=timeout), "fallback-bounded"), \
                tracer.span("fallback-bounded"):
            result = bounded()
        stats = dict(result.stats)
        stats["degraded"] = True
        stats["exact_exhausted"] = exhausted.progress()
        if result.ok:
            stats["caveat"] = _BOUNDED_CAVEAT
        result = replace(
            result, method=route + DEGRADED_SUFFIX, stats=stats
        )
    if decision is not None:
        result.stats["routing"] = {
            "requested": method,
            **decision.to_jsonable(),
        }
    return result


def route_verdict(
    route: str,
    transducer: PebbleTransducer,
    tau2: Optional[BottomUpTA],
    stats: dict,
    started: float,
    governor: Optional[ResourceGovernor],
    search: Callable[[], Optional[BTree]],
    output: Optional[Callable[[BTree], Optional[BTree]]] = None,
) -> TypecheckResult:
    """The result of an exact-class ``route``, assembled alike for all.

    ``stats`` holds the route's own keys; ``seconds`` since ``started``
    goes first, and the ``budget`` spent so far last when the call
    installed ``governor``.  Then, in the ``witness`` phase, ``search()``
    returns the counterexample input (``None``: the check passes), and
    ``output(witness)`` its ill-typed output.  A route that knows that
    output passes ``output``; by default the output automaton on the
    witness (Proposition 3.8) intersected with ``¬tau2`` gives it.
    """
    stats = {"seconds": time.perf_counter() - started, **stats}
    if governor is not None:
        stats["budget"] = {
            "steps": governor.steps,
            "states": governor.states,
            "elapsed": governor.elapsed(),
        }
    with current_governor().phase("witness"), \
            current_tracer().span("witness"):
        witness = search()
        if witness is None:
            return TypecheckResult(ok=True, method=route, stats=stats)
        if output is None:
            bad_output = _outputs_outside(
                transducer, witness, tau2.complemented()
            ).witness()
        else:
            bad_output = output(witness)
    return TypecheckResult(
        ok=False,
        method=route,
        counterexample_input=witness,
        counterexample_output=bad_output,
        stats=stats,
    )


def _outputs_outside(
    transducer: PebbleTransducer, tree: BTree, not_tau2: BottomUpTA
) -> BottomUpTA:
    """The outputs of ``transducer`` on ``tree`` (Proposition 3.8) that
    ``not_tau2`` accepts.  The output automaton is widened to
    ``not_tau2``'s alphabet first: ``tau2`` may declare elements the
    machine never emits."""
    outputs = as_automaton(
        output_language(transducer, tree), not_tau2.alphabet
    )
    return outputs.intersection(not_tau2)


def _typecheck_exact(
    transducer: PebbleTransducer,
    input_type: TypeLike,
    output_type: TypeLike,
    governor: Optional[ResourceGovernor] = None,
) -> TypecheckResult:
    """Theorem 4.4: a witness of ``R ∩ tau1``, ``R`` the inputs with an
    output outside ``tau2``.

    The Proposition 4.6 product with ``¬tau2`` presents ``R``.  For one
    pebble it is a tree-walking automaton, trimmed and quotiented, and
    ``R ∩ tau1`` is explored directly as the pairs (summary relation,
    ``tau1`` state) reachable from the leaves, up to the first pair in
    both (:func:`~repro.automata.alternating.explore_product`): no
    summary relation that no tree of ``tau1`` reaches is computed.  It
    is memoized as one op, ``pebble.summary-product``, on the product's
    derivation and ``tau1``.  With more pebbles the machine's input
    alphabet is first widened to ``tau1``'s (it is stuck on symbols it
    has no rules for, as when it runs), and ``R`` is regularized whole
    (Theorem 4.7) and intersected with ``tau1``.
    """
    started = time.perf_counter()
    gov = current_governor()
    tracer = current_tracer()
    # read outside the coercion span: it builds a deferred machine
    alphabet = transducer.input_alphabet
    with tracer.span("coerce-input-type"):
        tau1 = as_automaton(input_type, alphabet)
    machine = transducer
    wider = transducer.input_alphabet.union(tau1.alphabet)
    if transducer.k > 1 and wider != transducer.input_alphabet:
        # R is regularized whole, so it must cover tau1's symbols; the
        # machine has no rules on the new ones and is stuck there, as
        # when it runs
        machine = PebbleTransducer(
            wider, transducer.output_alphabet, transducer.levels,
            transducer.initial, transducer.rules,
        )
    tau2, not_tau2 = complement_output_type(machine, output_type)
    with gov.phase("transducer-product"), \
            tracer.span("transducer-product"):
        product = transducer_times_automaton(machine, not_tau2)
    if transducer.k == 1:
        with gov.phase("pebble-trim"), tracer.span("pebble-trim"):
            walking = trim_quotient(product)
        with gov.phase("walking-summary"), tracer.span("walking-summary"):
            offending = memoized(
                "pebble.summary-product", (walking, tau1),
                lambda: explore_product(walking_summary(walking), tau1),
            )
        stats = {
            "product": walking.stats(),
            "offending_states": len(offending.states),
        }
    else:
        bad = pebble_automaton_to_ta(product)
        with gov.phase("intersect-input-type"), \
                tracer.span("intersect-input-type"):
            offending = bad.intersection(tau1).trimmed()
        stats = {
            "bad_language_states": len(bad.states),
            "offending_states": len(offending.states),
        }
    return route_verdict(
        "exact", transducer, tau2, stats, started, governor,
        offending.witness,
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
            witness = _outputs_outside(transducer, tree, not_tau2).witness()
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
