"""The ``stylesheet`` route against ``exact``, and its edges.

A compiled stylesheet checked between two DTDs is decided on the
stylesheet itself (:mod:`repro.typecheck.stylesheet`).  This suite holds
it to the verdicts of ``typecheck(..., method="exact")`` on random
stylesheets and DTD pairs, replays every witness it reports on the
stylesheet interpreter and on the compiled machine, and covers each
reason the router declines it for, its budget degradation and its
audit.  The compiled machine is built on its first read, so an ``ok``
check builds nothing, and every reader builds the machine an eager
compile gives, once.  The CI routing job runs it again under
``REPRO_CACHE=0``, and the audit job under ``REPRO_AUDIT=witness``.
"""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    PebbleMachineError,
    ResourceExhausted,
    TypecheckError,
)
from repro.lang import (
    Apply,
    Out,
    Stylesheet,
    Template,
    apply_stylesheet,
    parse_stylesheet,
    q2_stylesheet,
    xslt_to_transducer,
)
from repro.lang.xslt import _XsltCompiler
from repro.pebble import PebbleTransducer, copy_transducer, evaluate
from repro.regex import EMPTY, EPSILON, concat, optional, star, sym, union
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    fingerprint,
    set_source_key,
    source_of,
    stable_repr,
)
from repro.runtime.jobs import execute_classified, typecheck_inputs
from repro.trees import decode, encoded_alphabet
from repro.typecheck import (
    EXACT_METHODS,
    as_automaton,
    classify,
    typecheck,
    typecheck_stylesheet,
)
from repro.typecheck.engine import DEGRADED_SUFFIX
from repro.typecheck.stylesheet import root_recurs
from repro.xmlio import DTD, SpecializedDTD, parse_dtd, parse_xml

ROOT = "r"
IN_TAGS = ("a", "b", "c")
OUT_TAGS = ("o", "p", "q")
#: an output element no generated output DTD declares
UNDECLARED = "z"


def _check(sheet: Stylesheet, tau1: DTD, tau2: DTD):
    """Run the route and the exact route on one check; they must agree,
    and a failure must come with a witness both interpreters replay."""
    machine = xslt_to_transducer(sheet, tags=tau1.symbols, root_tag=tau1.root)
    assert classify(machine, tau1, tau2).route == "stylesheet"
    result = typecheck(machine, tau1, tau2)
    assert result.method == "stylesheet"
    exact = typecheck(machine, tau1, tau2, method="exact")
    assert result.ok is exact.ok
    if not result.ok:
        _assert_replays(sheet, machine, tau1, tau2, result)
    return result


def _assert_replays(sheet, machine, tau1, tau2, result) -> None:
    document = decode(result.counterexample_input)
    output = decode(result.counterexample_output)
    assert tau1.is_valid(document)
    assert apply_stylesheet(sheet, document) == output
    assert evaluate(machine, result.counterexample_input) \
        == result.counterexample_output
    assert not tau2.is_valid(output)
    assert result.stats["diagnosis"]["path"].startswith("/" + output.label)


# -- random stylesheets and DTD pairs -----------------------------------------


def _regexes(symbols) -> st.SearchStrategy:
    """Content models over ``symbols``: mostly small expressions, some
    accepting every word, a few accepting none."""
    leaves = st.one_of(st.just(EPSILON), st.sampled_from(symbols).map(sym))
    small = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda pair: concat(*pair)),
            st.tuples(inner, inner).map(lambda pair: union(*pair)),
            inner.map(star),
            inner.map(optional),
        ),
        max_leaves=4,
    )
    anything = st.just(star(union(*map(sym, symbols))))
    return st.one_of(anything, small, small, st.just(EMPTY))


@st.composite
def dtd_pairs(draw) -> tuple[DTD, DTD]:
    """An input DTD over ``r`` and ``IN_TAGS`` whose root never recurs
    (an empty one included), and an output DTD over ``OUT_TAGS``."""
    models = {tag: draw(_regexes(IN_TAGS)) for tag in (ROOT, *IN_TAGS)}
    # a leaf-able element more often than not, so most inputs exist
    leaves = draw(st.sets(st.sampled_from(IN_TAGS), max_size=3))
    tau1 = DTD(ROOT, {
        tag: optional(model) if tag in leaves else model
        for tag, model in models.items()
    })
    tau2 = DTD(draw(st.sampled_from(OUT_TAGS[:2])), {
        tag: draw(_regexes(OUT_TAGS)) for tag in OUT_TAGS
    })
    return tau1, tau2


_OUTPUT_TAGS = st.sampled_from(OUT_TAGS + OUT_TAGS + (UNDECLARED,))


@st.composite
def _forests(draw, applies: bool, depth: int = 2) -> list:
    """A template body; with ``applies`` false it holds no
    ``apply-templates``."""
    items: list = []
    for _ in range(draw(st.integers(0, 2))):
        if applies and draw(st.booleans()):
            items.append(Apply())
        else:
            inner = draw(_forests(applies, depth - 1)) if depth else []
            items.append(Out(draw(_OUTPUT_TAGS), inner))
    return items


def _with_one_apply(draw, body: list) -> list:
    """``body`` (which has none) with one ``apply-templates`` inserted
    into a drawn item list: the body's own or an element's."""

    def lists(items: list) -> int:
        return 1 + sum(lists(item.items) for item in items)

    target = draw(st.integers(0, lists(body) - 1))
    numbers = itertools.count()

    def rebuild(items: list) -> list:
        here = next(numbers)
        rebuilt = [Out(item.tag, rebuild(item.items)) for item in items]
        if here == target:
            rebuilt.insert(draw(st.integers(0, len(rebuilt))), Apply())
        return rebuilt

    return rebuild(body)


@st.composite
def stylesheets(draw) -> Stylesheet:
    """A root template of one element, applying templates anywhere any
    number of times, and per input tag a body with at most one."""
    root_items = draw(_forests(applies=True))
    root_tag = draw(st.sampled_from(OUT_TAGS[:2] * 2 + (UNDECLARED,)))
    templates = [Template(ROOT, [Out(root_tag, root_items)])]
    for tag in IN_TAGS:
        body = draw(_forests(applies=False))
        if draw(st.booleans()):
            body = _with_one_apply(draw, body)
        templates.append(Template(tag, body))
    return Stylesheet(templates)


class TestAgainstLazy:
    @settings(max_examples=120, deadline=None)
    @given(sheet=stylesheets(), types=dtd_pairs())
    def test_verdicts_agree_and_witnesses_replay(self, sheet, types):
        _check(sheet, *types)


# -- named edges --------------------------------------------------------------


def _sheet(text: str) -> Stylesheet:
    return parse_stylesheet(text)


def _machine(sheet: Stylesheet, tau1: DTD):
    return xslt_to_transducer(sheet, tags=tau1.symbols, root_tag=tau1.root)


#: the filter example: ``doc`` to ``out``, each ``item`` to a ``thing``
FILTER = _sheet(
    '<xsl:template match="doc"><out><xsl:apply-templates/></out>'
    "</xsl:template>"
    '<xsl:template match="item"><thing/></xsl:template>'
)
ITEMS = parse_dtd("doc := item*\nitem :=")


class TestNamedChecks:
    def test_q2_is_decided_with_its_three_applies(self):
        q1_input = parse_dtd("root := a*\na :=")
        good = parse_dtd("result := b.a*.b.a*.b.a*\na :=\nb :=")
        tight = parse_dtd("result := b.a*.b.a*.b\na :=\nb :=")
        assert _check(q2_stylesheet(), q1_input, good).ok
        bad = _check(q2_stylesheet(), q1_input, tight)
        assert not bad.ok
        assert bad.stats["diagnosis"]["element"] == "result"

    def test_a_root_template_without_apply_templates_runs_alone(self):
        # the item template would emit an undeclared element, but no
        # template ever applies templates to an item
        sheet = _sheet(
            '<xsl:template match="doc"><out/></xsl:template>'
            '<xsl:template match="item"><nowhere/></xsl:template>'
        )
        result = _check(sheet, ITEMS, parse_dtd("out :="))
        assert result.ok
        assert result.stats["templates_run"] == 1

    def test_templates_below_a_non_applying_template_never_run(self):
        sheet = _sheet(
            '<xsl:template match="doc"><out><xsl:apply-templates/></out>'
            "</xsl:template>"
            '<xsl:template match="sec"><part/></xsl:template>'
            '<xsl:template match="par"><nowhere/></xsl:template>'
        )
        tau1 = parse_dtd("doc := sec*\nsec := par*\npar :=")
        result = _check(sheet, tau1, parse_dtd("out := part*\npart :="))
        assert result.ok

    def test_an_output_element_tau2_does_not_declare(self):
        sheet = _sheet(
            '<xsl:template match="doc"><out><xsl:apply-templates/></out>'
            "</xsl:template>"
            '<xsl:template match="item"><extra/></xsl:template>'
        )
        result = _check(sheet, ITEMS, parse_dtd("out := thing*\nthing :="))
        assert not result.ok
        diagnosis = result.stats["diagnosis"]
        assert diagnosis["element"] == "extra"
        assert diagnosis["content_model"] is None
        assert diagnosis["path"] == "/out/extra[1]"

    def test_an_empty_input_type_typechecks_vacuously(self):
        empty = parse_dtd("doc := item\nitem := item")
        result = _check(FILTER, empty, parse_dtd("out := thing+\nthing :="))
        assert result.ok
        assert result.stats["templates_run"] == 0

    def test_a_wrong_output_root_is_a_type_error(self):
        result = _check(FILTER, ITEMS, parse_dtd("thing :="))
        assert not result.ok
        assert decode(result.counterexample_input).label == "doc"
        assert result.stats["diagnosis"]["path"] == "/out"

    def test_the_route_is_exact_and_certified_by_the_audit(self):
        assert "stylesheet" in EXACT_METHODS
        result = typecheck(
            _machine(FILTER, ITEMS), ITEMS,
            parse_dtd("out := thing+\nthing :="), audit="witness",
        )
        assert result.method == "stylesheet" and not result.ok
        assert result.stats["audit"]["status"] == "certified"


# -- declines -----------------------------------------------------------------


def _declined(machine, tau1, tau2) -> tuple[str, ...]:
    """The stylesheet route's decline reasons as the router reports
    them; the check then takes ``exact``, as without the route."""
    result = typecheck(machine, tau1, tau2)
    assert result.method == "exact"
    assert result.ok is typecheck(machine, tau1, tau2, method="exact").ok
    reasons = result.stats["routing"]["reasons"]
    with pytest.raises(TypecheckError, match="stylesheet route"):
        typecheck_stylesheet(machine, tau1, tau2)
    return tuple(
        reason for reason in reasons if reason.startswith("stylesheet route")
    )


THINGS = parse_dtd("out := thing*\nthing :=")


class TestDeclines:
    def test_tree_automaton_types(self):
        machine = _machine(FILTER, ITEMS)
        (reason,) = _declined(machine, as_automaton(ITEMS), THINGS)
        assert "plain DTDs" in reason

    def test_specialized_dtd_types(self):
        machine = _machine(FILTER, ITEMS)
        (reason,) = _declined(
            machine, ITEMS, SpecializedDTD.from_dtd(THINGS)
        )
        assert "plain DTDs" in reason

    def test_an_input_root_other_than_the_root_tag(self):
        sheet = _sheet(
            '<xsl:template match="doc"><out/></xsl:template>'
            '<xsl:template match="item"><thing/></xsl:template>'
        )
        machine = xslt_to_transducer(sheet, tags={"doc", "item"},
                                     root_tag="doc")
        (reason,) = _declined(
            machine, parse_dtd("item := doc*\ndoc :="), THINGS
        )
        assert "is not the stylesheet's root tag" in reason

    def test_input_elements_the_sheet_was_not_compiled_for(self):
        machine = xslt_to_transducer(FILTER, tags={"doc", "item"},
                                     root_tag="doc")
        tau1 = parse_dtd("doc := item*.other?\nitem :=\nother :=")
        (reason,) = _declined(machine, tau1, THINGS)
        assert "['other']" in reason

    def test_a_root_that_occurs_below_the_root(self):
        sheet = _sheet(
            '<xsl:template match="r"><o><xsl:apply-templates/></o>'
            "</xsl:template>"
            '<xsl:template match="t"><p><xsl:apply-templates/></p>'
            "</xsl:template>"
        )
        tau1 = parse_dtd("r := t*\nt := r*")
        (reason,) = _declined(
            _machine(sheet, tau1), tau1, parse_dtd("o := p*\np := o?")
        )
        assert "occur below the root" in reason

    @pytest.mark.parametrize("text,recurs", [
        ("r := t*\nt := r*", True),
        ("r := a*\na := b\nb := r?", True),
        # the only path back to r needs an element with no valid subtree
        ("r := a | r.x\na :=\nx := x", False),
        ("r := a*\na := %", False),
        # an empty input type: nothing occurs anywhere
        ("r := r", False),
    ])
    def test_root_recursion_is_semantic(self, text, recurs):
        assert root_recurs(parse_dtd(text)) is recurs

    def test_a_machine_without_a_stylesheet(self):
        machine = copy_transducer(encoded_alphabet({"doc", "item"}))
        decision = classify(machine, ITEMS, ITEMS)
        assert decision.route == "fast-td" and decision.reasons == ()
        with pytest.raises(TypecheckError, match="not compiled from a"):
            typecheck_stylesheet(machine, ITEMS, ITEMS)

    def test_jobs_refuse_a_root_that_occurs_below_the_root(self):
        params = {
            "stylesheet_text": (
                '<xsl:template match="r"><o><xsl:apply-templates/></o>'
                "</xsl:template>"
                '<xsl:template match="t"><p><xsl:apply-templates/></p>'
                "</xsl:template>"
            ),
            "input_dtd_text": "r := t*\nt := r*",
            "output_dtd_text": "o := p*\np := o?",
        }
        outcome = execute_classified({"kind": "typecheck", "params": params})
        assert outcome["status"] == "usage-error"
        assert "root tag must label the document root only" \
            in outcome["error"]
        with pytest.raises(PebbleMachineError, match="document root only"):
            typecheck_inputs(params)


# -- budgets ------------------------------------------------------------------


class TestBudgets:
    def test_an_exhausted_fixpoint_degrades_to_bounded(self):
        result = typecheck(
            _machine(FILTER, ITEMS), ITEMS, THINGS,
            max_steps=1, fallback=True,
        )
        assert result.method == "stylesheet" + DEGRADED_SUFFIX
        assert result.method not in EXACT_METHODS
        assert result.stats["routing"]["route"] == "stylesheet"
        assert result.stats["exact_exhausted"]["phase"] \
            == "stylesheet-fixpoint"

    def test_without_fallback_exhaustion_raises(self):
        with pytest.raises(ResourceExhausted):
            typecheck(_machine(FILTER, ITEMS), ITEMS, THINGS, max_steps=1)


# -- the output type may declare more than the machine emits ------------------


class TestWiderOutputType:
    """``tau2`` declaring an element the stylesheet never emits used to
    crash every witness on alphabets that differ."""

    TAU2 = parse_dtd("out := thing+\nthing :=\nextra :=")

    @pytest.mark.parametrize("route", ["exact", "bounded"])
    def test_the_witness_is_built(self, route):
        machine = _machine(FILTER, ITEMS)
        result = typecheck(machine, ITEMS, self.TAU2, method=route)
        assert not result.ok
        assert decode(result.counterexample_input) == parse_xml("<doc/>")
        assert decode(result.counterexample_output) == parse_xml("<out/>")


# -- the machine is built on its first read -----------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Counts of ``_XsltCompiler.compile`` calls and of ``src:`` digests
    (source keys hashed) from here on."""
    counts = {"compile": 0, "src": 0}
    compile_ = _XsltCompiler.compile
    digest = cache_module._digest

    def counted_compile(self):
        counts["compile"] += 1
        return compile_(self)

    def counted_digest(tag, payload):
        counts["src"] += tag == "src"
        return digest(tag, payload)

    monkeypatch.setattr(_XsltCompiler, "compile", counted_compile)
    monkeypatch.setattr(cache_module, "_digest", counted_digest)
    return counts


def _eager(sheet: Stylesheet, tau1: DTD) -> PebbleTransducer:
    """The machine built at once, under the same source key."""
    tags = frozenset(tau1.symbols)
    machine = _XsltCompiler(sheet, tags, tau1.root).compile()
    return set_source_key(machine, "xslt_to_transducer", (sheet,),
                          (tuple(sorted(tags)), tau1.root))


#: the filter needs a ``thing``, and emits none on ``<doc/>``
SOME_THINGS = parse_dtd("out := thing+\nthing :=")
#: an element the filter was not compiled for: the route declines
WITH_OTHER = parse_dtd("doc := item*.other?\nitem :=\nother :=")


def _verdict(result) -> tuple:
    audit = result.stats.get("audit", {}).get("status")
    return (result.ok, result.method, result.counterexample_input,
            result.counterexample_output, audit)


#: name -> a reader of the machine, and the verdict it must give
READERS = {
    "stylesheet-type-error": (
        lambda machine: typecheck(machine, ITEMS, SOME_THINGS), False),
    "exact": (lambda machine: typecheck(machine, ITEMS, SOME_THINGS,
                                        method="exact"), False),
    "bounded": (lambda machine: typecheck(machine, ITEMS, SOME_THINGS,
                                          method="bounded"), False),
    "declined": (lambda machine: typecheck(machine, WITH_OTHER, THINGS),
                 True),
    "witness-audit": (lambda machine: typecheck(
        machine, ITEMS, SOME_THINGS, audit="witness"), False),
    "full-audit-ok": (lambda machine: typecheck(
        machine, ITEMS, THINGS, audit="full"), True),
}


class TestDeferredCompile:
    """``xslt_to_transducer`` checks the stylesheet at once and builds
    the machine on its first read."""

    def test_an_ok_check_builds_nothing(self, builds):
        result = typecheck(_machine(FILTER, ITEMS), ITEMS, THINGS)
        assert (result.ok, result.method) == (True, "stylesheet")
        outcome = execute_classified({"kind": "typecheck", "params": {
            "stylesheet_text": (
                '<xsl:template match="doc"><out><xsl:apply-templates/>'
                '</out></xsl:template>'
                '<xsl:template match="item"><thing/></xsl:template>'
            ),
            "input_dtd_text": "doc := item*\nitem :=",
            "output_dtd_text": "out := thing*\nthing :=",
        }})
        assert (outcome["status"], outcome["method"]) == ("ok", "stylesheet")
        assert builds == {"compile": 0, "src": 0}

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_each_reader_builds_once(self, builds, reader):
        read, ok = READERS[reader]
        eager = _eager(FILTER, ITEMS)
        expected = _verdict(read(eager))
        builds["compile"] = 0
        machine = _machine(FILTER, ITEMS)
        result = read(machine)
        assert builds["compile"] == 1
        assert _verdict(result) == expected
        assert result.ok is ok
        if "audit" in reader:
            assert result.stats["audit"]["status"] == "certified"
        # later readers reuse the machine the first one built
        assert _verdict(read(machine)) == expected
        assert machine == eager
        assert builds["compile"] == 1

    @pytest.mark.parametrize("reader", [
        lambda machine, eager: pickle.loads(pickle.dumps(machine)),
        lambda machine, eager: machine == eager,
        lambda machine, eager: repr(machine),
        lambda machine, eager: fingerprint(machine),
    ], ids=["pickle", "eq", "repr", "fingerprint"])
    def test_the_other_readers_build_once(self, builds, reader):
        eager = _eager(FILTER, ITEMS)
        expected = reader(eager, eager)
        builds["compile"] = 0
        machine = _machine(FILTER, ITEMS)
        assert reader(machine, eager) == expected
        assert builds["compile"] == 1
        assert reader(machine, eager) == expected
        assert builds["compile"] == 1

    @pytest.mark.parametrize("sheet,tau1", [
        (FILTER, ITEMS),
        (q2_stylesheet(), parse_dtd("root := a*\na :=")),
        (_sheet('<xsl:template match="doc"><out><xsl:apply-templates/>'
                '<sep/><xsl:apply-templates/></out></xsl:template>'
                '<xsl:template match="sec"><part><xsl:apply-templates/>'
                '</part></xsl:template>'
                '<xsl:template match="par"><p/></xsl:template>'),
         parse_dtd("doc := sec*\nsec := par*\npar :=")),
    ], ids=["filter", "q2", "nested"])
    def test_the_built_machine_is_the_eager_one(self, sheet, tau1):
        machine, eager = _machine(sheet, tau1), _eager(sheet, tau1)
        assert type(machine) is PebbleTransducer
        assert machine.rules == eager.rules
        assert stable_repr(machine) == stable_repr(eager)
        assert repr(machine) == repr(eager)
        assert fingerprint(machine) == fingerprint(eager)
        assert fingerprint(machine).startswith("pt:")

    def test_the_source_digest_is_unchanged(self, builds):
        machine = _machine(FILTER, ITEMS)
        assert source_of(machine).sources == (FILTER,)
        assert builds == {"compile": 0, "src": 0}
        # pinned: disk segments written by earlier daemons key on it
        assert str(source_of(machine)) \
            == "src:befc3db503a5aa7f6b570fe78a20ef07"
        assert source_of(machine) == source_of(_machine(FILTER, ITEMS))
        assert builds == {"compile": 0, "src": 2}
        assert fingerprint(machine) == "pt:ae700df3f2c4d4be435d782564d3310e"

    @pytest.mark.parametrize("templates,tags,root_tag,message", [
        ('<xsl:template match="doc"><out/></xsl:template>',
         {"doc", "item"}, "doc", "no template matches 'item'"),
        ('<xsl:template match="doc"><out><xsl:apply-templates/></out>'
         "</xsl:template>"
         '<xsl:template match="item"><xsl:apply-templates/><thing/>'
         "<xsl:apply-templates/></xsl:template>",
         {"doc", "item"}, "doc", "several apply-templates"),
        ('<xsl:template match="doc"><out/><out/></xsl:template>',
         {"doc"}, "doc", "single element"),
        ('<xsl:template match="doc"><out/></xsl:template>'
         '<xsl:template match="item"><thing/></xsl:template>',
         {"item"}, "doc", "'doc'"),
    ], ids=["missing-template", "two-applies", "root-body", "root-tag"])
    def test_fragment_errors_raise_at_once(self, builds, templates, tags,
                                           root_tag, message):
        with pytest.raises(PebbleMachineError, match=message):
            xslt_to_transducer(_sheet(templates), tags=tags,
                               root_tag=root_tag)
        assert builds["compile"] == 0  # checked without building
