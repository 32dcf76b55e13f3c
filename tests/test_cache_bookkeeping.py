"""Memo-table bookkeeping on the typecheck path.

* **Derivation keys.**  A pebble automaton the memo table returns
  carries a digest of its memo key, and keys built on it never hash it
  structurally again; the digest still tells apart transducers that
  differ only in state names.
* **Source keys.**  A compiled stylesheet and the automaton of a DTD
  carry a digest of the construction and its sources, so a warm repeat
  of a check recompiled from its texts hashes the parsed stylesheet and
  DTDs, never the automata built from them; any change to a source or
  argument changes the key, and ``fingerprint()`` itself is unchanged.
* **Entry sizes** come from table lengths.  The deep ``sys.getsizeof``
  walk they replaced is kept here as the reference they must stay
  within 0.5x-2x of, and the byte budget still evicts.
* **Trim and quotient** of the product are one memoized op, so a warm
  repeat of a lazy-route check does neither.
* **Outermost keys.**  Within another op's miss, an op on a fresh,
  unkeyed input just computes: a cold stylesheet check keys and stores
  its ``re.compile`` ops but none of their DFA intermediates, an op on
  a keyed input still hits, and a restart still reads what it read.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import BottomUpTA
from repro.errors import ResourceExhausted
from repro.lang import (
    Apply,
    Out,
    Stylesheet,
    Template,
    parse_stylesheet,
    q2_stylesheet,
    xslt_to_transducer,
)
from repro.data import q1_input_dtd, q2_good_output_dtd
from repro.pebble import (
    PebbleTransducer,
    copy_transducer,
    transducer_times_automaton,
    walking_automaton_to_ta,
)
from repro.pebble import to_regular
from repro.pebble.to_regular import trim_quotient
from repro.regex import (
    EPSILON,
    DFA,
    Complement,
    Intersect,
    compile_regex,
    concat,
    star,
    sym,
    union,
)
from repro.regex.dfa import _compile
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    GLOBAL_CACHE,
    MemoCache,
    cache_disabled,
    clear_cache,
    entry_size,
    fingerprint,
    memo_key,
    memoized,
    persistent_tier,
    source_of,
    tracked_keys,
)
from repro.runtime.diskcache import DiskCache
from repro.runtime.governor import ResourceGovernor, current_governor
from repro.runtime.trace import Tracer, tracing
from repro.trees import BTree, RankedAlphabet, encoded_alphabet
from repro.typecheck import bad_input_language, typecheck
from repro.typecheck.engine import as_automaton, complement_output_type
from repro.xmlio import SpecializedDTD, parse_dtd

WRAP_IN = "doc := sec*\nsec := par*\npar :="
WRAP_OK = "D := S*\nS := P*\nP :="
#: forbids the empty document the wrap sheet makes of an empty ``doc``
WRAP_BAD = "D := S.S*\nS := P*\nP :="


@pytest.fixture(autouse=True)
def _fresh_cache():
    previous = GLOBAL_CACHE.enabled
    GLOBAL_CACHE.enabled = True
    clear_cache()
    yield
    GLOBAL_CACHE.enabled = previous
    clear_cache()


def _wrap_machine() -> PebbleTransducer:
    sheet = Stylesheet([
        Template("doc", [Out("D", [Apply()])]),
        Template("sec", [Out("S", [Apply()])]),
        Template("par", [Out("P")]),
    ])
    return xslt_to_transducer(sheet, tags={"doc", "sec", "par"},
                              root_tag="doc")


def _wrap_job(output_dtd: str) -> tuple:
    """The wrap check, compiled and parsed afresh on every call."""
    return _wrap_machine(), parse_dtd(WRAP_IN), parse_dtd(output_dtd)


def _renamed(machine: PebbleTransducer, tag: str) -> PebbleTransducer:
    """``machine`` with every state ``q`` renamed to ``(tag, q)``."""

    def name(state):
        return (tag, state)

    def action(act):
        return dataclasses.replace(act, **{
            field.name: name(getattr(act, field.name))
            for field in dataclasses.fields(act)
            if field.name in ("target", "left", "right")
        })

    return PebbleTransducer(
        machine.input_alphabet,
        machine.output_alphabet,
        [[name(state) for state in level] for level in machine.levels],
        name(machine.initial),
        {
            (symbol, name(state), bits): [action(act) for act in actions]
            for (symbol, state, bits), actions in machine.rules.items()
        },
    )


def _derivation(value):
    """The derivation slot: a derivation or source key, or ``None``."""
    return getattr(value, "_repro_derivation", None)


def _exact(*check, max_steps=None):
    """``typecheck(..., method="exact")`` on ``check``: ``method="auto"``
    sends a stylesheet between DTDs to the stylesheet route instead."""
    return typecheck(*check, method="exact", max_steps=max_steps)


class TestDerivationKeys:
    @pytest.mark.parametrize("method,op", [
        ("exact", "pebble.summary-product"),
        # the whole Theorem 4.7 language, which only
        # bad_input_language and inverse_type build for one pebble
        ("bad-inputs", "pebble.to_regular"),
    ])
    def test_memo_produced_automata_are_never_rehashed(
        self, monkeypatch, method, op
    ):
        def spy(automaton):
            raise AssertionError(
                "a memo-produced pebble automaton was fingerprinted"
            )

        monkeypatch.setattr(cache_module, "_pebble_fingerprint", spy)
        with tracked_keys() as keys:
            if method == "bad-inputs":
                machine, _, tau2 = _wrap_job(WRAP_BAD)
                failed = not bad_input_language(machine, tau2).is_empty()
            else:
                failed = not typecheck(*_wrap_job(WRAP_BAD),
                                       method=method).ok
        assert failed
        assert any(key.startswith(op + "|drv:") for key in keys)
        assert any(
            key.startswith("pebble.trim-quotient|drv:") for key in keys
        )

    def test_state_names_separate_derivations(self):
        machine = _wrap_machine()
        twin = _renamed(machine, "renamed")
        _, not_tau2 = complement_output_type(machine, parse_dtd(WRAP_OK))
        one = transducer_times_automaton(machine, not_tau2)
        two = transducer_times_automaton(twin, not_tau2)
        assert _derivation(one) != _derivation(two)
        assert memo_key("pebble.to_regular", (one,)) \
            != memo_key("pebble.to_regular", (two,))


WRAP_SHEET = (
    '<xsl:template match="doc"><D><xsl:apply-templates/></D>'
    "</xsl:template>"
    '<xsl:template match="sec"><S><xsl:apply-templates/></S>'
    "</xsl:template>"
    '<xsl:template match="par"><P/></xsl:template>'
)
FILTER_SHEET = (
    '<xsl:template match="doc"><out><xsl:apply-templates/></out>'
    "</xsl:template>"
    '<xsl:template match="item"><thing/></xsl:template>'
)
Q2_SHEET = (
    '<xsl:template match="root"><result><b/><xsl:apply-patterns/><b/>'
    "<xsl:apply-patterns/><b/><xsl:apply-patterns/></result>"
    "</xsl:template>"
    '<xsl:template match="a"><a/></xsl:template>'
)

#: Stylesheet jobs as texts: stylesheet, input DTD, output DTD, and
#: whether the check passes.
SHEET_JOBS = {
    "filter-ok": (FILTER_SHEET, "doc := item*\nitem :=",
                  "out := thing*\nthing :=", True),
    "filter-bad": (FILTER_SHEET, "doc := item*\nitem :=",
                   "out := thing+\nthing :=", False),
    "wrap-ok": (WRAP_SHEET, WRAP_IN, WRAP_OK, True),
    "wrap-bad": (WRAP_SHEET, WRAP_IN, WRAP_BAD, False),
    "q2-good": (Q2_SHEET, "root := a*\na :=",
                "result := b.a*.b.a*.b.a*\na :=\nb :=", True),
    "q2-tight": (Q2_SHEET, "root := a*\na :=",
                 "result := b.a*.b.a*.b\na :=\nb :=", False),
}


def _from_texts(job: str) -> tuple:
    """The stylesheet job ``job`` parsed and compiled from its texts,
    as the CLI does."""
    sheet, input_dtd, output_dtd, _ = SHEET_JOBS[job]
    tau1 = parse_dtd(input_dtd)
    machine = xslt_to_transducer(parse_stylesheet(sheet), tags=tau1.symbols,
                                 root_tag=tau1.root)
    return machine, tau1, parse_dtd(output_dtd)


class TestSourceKeys:
    @pytest.mark.parametrize("job", sorted(SHEET_JOBS))
    def test_warm_repeat_hashes_no_automaton(self, monkeypatch, job):
        passes = SHEET_JOBS[job][-1]
        _exact(*_from_texts(job))
        seen: list = []
        compute = cache_module._compute_fingerprint

        def spy(obj, exact):
            seen.append((type(obj).__name__,
                         current_governor().current_phase))
            return compute(obj, exact)

        monkeypatch.setattr(cache_module, "_compute_fingerprint", spy)
        # a step budget installs a governor, whose phase says where
        # each fingerprint was taken
        result = _exact(*_from_texts(job), max_steps=10**9)
        assert result.ok is passes
        kinds = {kind for kind, _ in seen}
        assert not kinds & {"PebbleTransducer", "TopDownTA",
                            "PebbleAutomaton"}, seen
        phases = {phase for kind, phase in seen if kind == "BottomUpTA"}
        assert phases <= (set() if passes else {"witness"}), seen

    def test_warm_repeat_hits_the_complement_output_op(self):
        _exact(*_wrap_job(WRAP_OK))
        tracer = Tracer()
        with tracing(tracer):
            _exact(*_wrap_job(WRAP_OK))
        (op,) = _spans(tracer.root, "type.complement-output")
        assert op.attrs["cache"] == "hit"
        assert not list(_spans(tracer.root, "bu-to-td"))

    def test_same_texts_give_equal_keys(self):
        one, two = _from_texts("wrap-ok"), _from_texts("wrap-ok")
        assert one[0] is not two[0]
        assert _derivation(one[0]) == _derivation(two[0])
        assert str(_derivation(one[0])).startswith("src:")
        for left, right in zip(one[1:], two[1:]):
            assert _derivation(as_automaton(left)) \
                == _derivation(as_automaton(right))
        assert memo_key("pebble.product", (one[0], one[1])) \
            == memo_key("pebble.product", (two[0], two[1]))

    def test_any_change_to_a_source_changes_the_key(self):
        sheet = WRAP_SHEET + '<xsl:template match="note"><P/></xsl:template>'
        tags = {"doc", "sec", "par"}

        def key(text=sheet, tags=tags, root_tag="doc"):
            machine = xslt_to_transducer(parse_stylesheet(text), tags=tags,
                                         root_tag=root_tag)
            return _derivation(machine)

        base = key()
        assert base == key()
        assert key(sheet.replace("<P/>", "<S/>", 1)) != base  # one body
        assert key(tags=tags | {"note"}) != base
        assert key(root_tag="sec") != base

        def dtd_key(text, alphabet=None):
            return _derivation(as_automaton(parse_dtd(text), alphabet))

        assert dtd_key(WRAP_OK) == dtd_key(WRAP_OK)
        assert dtd_key(WRAP_BAD) != dtd_key(WRAP_OK)  # one content model
        wider = encoded_alphabet({"D", "S", "P", "X"})
        assert dtd_key(WRAP_OK, wider) != dtd_key(WRAP_OK)

    def test_a_source_key_keeps_its_sources(self):
        machine, tau1, _ = _from_texts("q2-good")
        key = source_of(machine)
        assert key == _derivation(machine)
        assert key.construction == "xslt_to_transducer"
        assert key.sources == (parse_stylesheet(Q2_SHEET),)
        assert key.extra == (("a", "root"), "root")
        assert source_of(as_automaton(tau1)).sources == (tau1,)
        # the disk tier pickles values with their keys
        copy = pickle.loads(pickle.dumps(machine))
        assert source_of(copy) == key
        assert source_of(copy).sources == key.sources
        assert source_of(copy_transducer(encoded_alphabet({"a"}))) is None

    def test_other_constructions_carry_no_source_key(self):
        assert _derivation(copy_transducer(encoded_alphabet({"a"}))) is None
        alphabet = RankedAlphabet(leaves={"x"}, internals={"f"})
        hand_built = BottomUpTA(
            alphabet=alphabet, states={"q"}, leaf_rules={"x": {"q"}},
            rules={("f", "q", "q"): {"q"}}, accepting={"q"},
        )
        wider = RankedAlphabet(leaves={"x", "y"}, internals={"f"})
        for automaton in (
            hand_built,
            as_automaton(hand_built),
            as_automaton(hand_built, wider),
            as_automaton(SpecializedDTD.from_dtd(parse_dtd(WRAP_OK))),
        ):
            assert _derivation(automaton) is None
            assert memo_key("ta.trimmed", (automaton,)).startswith(
                "ta.trimmed|ta:"
            )

    def test_fingerprints_are_unchanged(self):
        machine = _wrap_machine()
        tau1 = as_automaton(parse_dtd(WRAP_IN), machine.input_alphabet)
        tau2 = as_automaton(parse_dtd(WRAP_OK), machine.output_alphabet)
        assert all(map(_derivation, (machine, tau1, tau2)))
        # the structural digests, as pinned before source keys existed
        assert fingerprint(machine) == "pt:698c507d448579e3d920059148f1242e"
        assert fingerprint(tau1) == "ta:90d36b977c6efa86c0cc15002b24a8d4"
        assert fingerprint(tau1, exact=True) \
            == "ta!:c428dfca259d5ece51cff45ddfcbceb9"
        assert fingerprint(tau2) == "ta:ba19a886d7450a82385f4adcf2e12a25"
        assert fingerprint(tau2, exact=True) \
            == "ta!:17b8d8b7ef09b69e501691cd64a35a85"


def _deep_size(value) -> int:
    """Deep ``sys.getsizeof`` of ``value`` with shared objects counted
    once: how the memo table sized its entries before it counted table
    lengths, and the reference those counts are held to."""
    seen: set[int] = set()
    total = 0
    stack = [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return total


def _pipeline_values(machine, tau1, tau2) -> dict:
    """The values a check stores, each sized right after it is built (as
    the memo table does): the top-down form of ¬τ2, product, walking
    automaton, summary."""
    _, not_tau2 = complement_output_type(machine, tau2)
    sizes = {"not_tau2": (entry_size(not_tau2), _deep_size(not_tau2))}
    product = transducer_times_automaton(machine, not_tau2)
    sizes["product"] = (entry_size(product), _deep_size(product))
    walking = trim_quotient(product)
    sizes["walking"] = (entry_size(walking), _deep_size(walking))
    summary = walking_automaton_to_ta(walking)
    sizes["summary"] = (entry_size(summary), _deep_size(summary))
    return sizes


#: Jobs whose products span the sharing of action objects across
#: guards: heavy in the stylesheets (the count reads high), none in the
#: copy transducer (it reads low).
JOBS = {
    "wrap": lambda: _wrap_job(WRAP_OK),
    "q2": lambda: (
        xslt_to_transducer(q2_stylesheet(), tags={"root", "a"},
                           root_tag="root"),
        q1_input_dtd(),
        q2_good_output_dtd(),
    ),
    "copy": lambda: (
        copy_transducer(encoded_alphabet({"doc", "item"})),
        parse_dtd("doc := item*\nitem :="),
        parse_dtd("doc := item.item\nitem :="),
    ),
}


class TestEntrySizes:
    @pytest.mark.parametrize("job", sorted(JOBS))
    def test_automata_sizes_track_the_deep_walk(self, job):
        with cache_disabled():
            sizes = _pipeline_values(*JOBS[job]())
        for name, (counted, walked) in sizes.items():
            assert 0.5 <= counted / walked <= 2.0, (name, counted, walked)

    def test_dfa_and_witness_sizes_track_the_deep_walk(self):
        dfa = compile_regex(
            concat(star(union(sym("a"), sym("b"))), sym("a")),
            alphabet={"a", "b"},
        )
        witness = typecheck(*_wrap_job(WRAP_BAD)).counterexample_input
        assert witness is not None
        for value in (dfa, witness):
            assert 0.5 <= entry_size(value) / _deep_size(value) <= 2.0

    def test_shared_subtrees_count_once(self):
        witness = typecheck(*_wrap_job(WRAP_BAD)).counterexample_input
        doubled = BTree("f", witness, witness)
        assert entry_size(doubled) < 2 * entry_size(witness)

    def test_byte_budget_evicts_least_recently_used(self):
        one = compile_regex(sym("a"), alphabet={"a", "b"})
        two = compile_regex(concat(sym("a"), sym("b")), alphabet={"a", "b"})
        budget = entry_size(one) + entry_size(two) - 1
        memo = MemoCache(max_entries=16, max_bytes=budget)
        memo.store("one", one)
        memo.store("two", two)
        stats = memo.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] == entry_size(two) <= budget
        assert memo.lookup("one") is MemoCache._MISS
        assert memo.lookup("two") is two


def _spans(span, name):
    if span.name == name:
        yield span
    for child in span.children:
        yield from _spans(child, name)


class TestSharedTrimQuotient:
    def test_warm_lazy_check_neither_trims_nor_quotients(self, monkeypatch):
        first = _exact(*_wrap_job(WRAP_BAD))

        def spy(automaton):
            raise AssertionError("the warm check re-quotiented its product")

        monkeypatch.setattr(to_regular, "quotient_pebble_automaton", spy)
        tracer = Tracer()
        with tracing(tracer):
            second = _exact(*_wrap_job(WRAP_BAD))
        (trim,) = _spans(tracer.root, "pebble.trim-quotient")
        assert trim.attrs["cache"] == "hit"
        assert second.method == first.method == "exact"
        assert (second.ok, second.counterexample_input,
                second.counterexample_output) \
            == (first.ok, first.counterexample_input,
                first.counterexample_output)

    def test_without_the_cache_the_verdict_and_witness_agree(self):
        cached = _exact(*_wrap_job(WRAP_BAD))
        with cache_disabled():
            first = _exact(*_wrap_job(WRAP_BAD))
            second = _exact(*_wrap_job(WRAP_BAD))
        for result in (first, second):
            assert (result.ok, result.counterexample_input,
                    result.counterexample_output) \
                == (cached.ok, cached.counterexample_input,
                    cached.counterexample_output)


def _stored_ops(keys) -> set:
    """The operation names of the memo keys ``keys``."""
    return {key.split("|", 1)[0] for key in keys}


def _verdict(result) -> tuple:
    return (result.ok, result.method, result.counterexample_input,
            result.counterexample_output)


#: DFA intermediates of ``re.compile``, never read on their own
INTERMEDIATE_OPS = {"dfa.determinize", "dfa.minimized"}

GENERALIZED_REGEXES = st.recursive(
    st.one_of(st.just(EPSILON), st.sampled_from(["a", "b"]).map(sym)),
    lambda sub: st.one_of(
        st.builds(concat, sub, sub),
        st.builds(union, sub, sub),
        st.builds(star, sub),
        st.builds(Intersect, sub, sub),
        st.builds(Complement, sub),
    ),
    max_leaves=5,
)


class TestOutermostKeys:
    @pytest.mark.parametrize("job", sorted(SHEET_JOBS))
    def test_cold_stylesheet_check_keys_no_dfa_intermediate(
        self, monkeypatch, tmp_path, job
    ):
        def spy(automaton):
            raise AssertionError("a fresh intermediate was fingerprinted")

        monkeypatch.setattr(cache_module, "_nfa_fingerprint", spy)
        monkeypatch.setattr(cache_module, "_dfa_fingerprint", spy)
        with DiskCache(tmp_path) as disk, persistent_tier(disk):
            result = typecheck(*_from_texts(job))
            on_disk = _stored_ops(disk.keys())
        assert result.method == "stylesheet"
        assert result.ok is SHEET_JOBS[job][-1]
        in_memory = _stored_ops(GLOBAL_CACHE._table)
        assert "re.compile" in in_memory
        assert in_memory == on_disk
        assert not in_memory & INTERMEDIATE_OPS

    def test_a_nested_op_on_a_keyed_input_uses_the_table(self, monkeypatch):
        # fast-td determinizes tau2 at top level; the route verdict's
        # complement of tau2 determinizes it again under that op's miss
        machine = copy_transducer(encoded_alphabet({"doc", "item"}))
        tau1 = parse_dtd("doc := item*\nitem :=")
        tau2 = parse_dtd("doc := item.item\nitem :=")
        determinized = BottomUpTA._determinized
        calls = []

        def spy(automaton, keep_subsets):
            key = source_of(automaton)
            if key is not None and key.sources == (tau2,):
                calls.append(keep_subsets)
            return determinized(automaton, keep_subsets)

        monkeypatch.setattr(BottomUpTA, "_determinized", spy)
        tracer = Tracer()
        with tracing(tracer):
            result = typecheck(machine, tau1, tau2)
        assert (result.ok, result.method) == (False, "fast-td")
        assert len(calls) == 1
        caches = [span.attrs["cache"]
                  for span in _spans(tracer.root, "ta.determinized")]
        assert caches[0] == "miss" and "hit" in caches[1:]

    def test_an_exhausted_compute_resets_the_marker(self, monkeypatch):
        exhausted_in_miss = []
        exhaust = ResourceGovernor._exhaust

        def spy(governor, *args):
            exhausted_in_miss.append(cache_module._IN_MISS.get())
            return exhaust(governor, *args)

        monkeypatch.setattr(ResourceGovernor, "_exhaust", spy)
        with pytest.raises(ResourceExhausted):
            typecheck(*_wrap_job(WRAP_BAD), method="exact", max_steps=5,
                      fallback=False)
        assert exhausted_in_miss == [True]
        assert cache_module._IN_MISS.get() is False
        clear_cache()
        GLOBAL_CACHE.reset_stats()
        assert typecheck(*_from_texts("wrap-ok")).ok
        assert _stored_ops(GLOBAL_CACHE._table) == {"re.compile"}
        assert GLOBAL_CACHE.stats()["stores"] > 0

    def test_a_thread_started_in_a_compute_keys_its_own_ops(self):
        nested, threaded = star(sym("a")), concat(sym("a"), sym("b"))
        alphabet = ("a", "b")

        def outer():
            compile_regex(nested, alphabet)
            worker = threading.Thread(target=compile_regex,
                                      args=(threaded, alphabet))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            return 0

        memoized("test.outer", (), outer)
        assert memo_key("re.compile", (threaded,), (alphabet,)) \
            in GLOBAL_CACHE._table
        assert memo_key("re.compile", (nested,), (alphabet,)) \
            not in GLOBAL_CACHE._table
        assert _stored_ops(GLOBAL_CACHE._table) == {"test.outer",
                                                    "re.compile"}

    def test_a_restart_reads_what_a_cold_check_wrote(self, tmp_path):
        with DiskCache(tmp_path) as disk, persistent_tier(disk):
            cold = typecheck(*_from_texts("q2-tight"))
        clear_cache()
        with DiskCache(tmp_path) as disk, persistent_tier(disk):
            warm = typecheck(*_from_texts("q2-tight"))
            stats = disk.stats()
        assert _verdict(warm) == _verdict(cold)
        assert stats["hits"] > 0
        assert stats["misses"] == 0


class TestCompileRegex:
    def test_a_cold_plain_regex_is_minimized_once(self, monkeypatch):
        minimized = DFA._minimized
        calls = []

        def spy(dfa):
            calls.append(dfa)
            return minimized(dfa)

        monkeypatch.setattr(DFA, "_minimized", spy)
        compile_regex(concat(star(union(sym("a"), sym("b"))), sym("a")),
                      alphabet={"a", "b"})
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(GENERALIZED_REGEXES)
    def test_the_compiled_dfa_is_the_one_compile_builds(self, expr):
        alphabet = frozenset({"a", "b"})
        with cache_disabled():
            built = _compile(expr, alphabet)
            uncached = compile_regex(expr, alphabet)
        clear_cache()
        cold = compile_regex(expr, alphabet)
        warm = compile_regex(expr, alphabet)
        assert uncached == cold == warm == built
