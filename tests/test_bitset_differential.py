"""Differential tests: bitset automata core vs. the frozenset oracle.

The integer-indexed, bitmask-based algebra (:mod:`repro.automata.bitset`
plus the rewritten ``BottomUpTA``/``DFA`` methods) must be observably
identical to the original frozenset implementations, which live on as an
executable oracle in the test suite (``reference.py``, swapped in by
``switches.oracle_algebra``).  Every rewritten operation is run
both ways on random inputs and compared on observable behavior:
membership over an enumerated tree/word sample, emptiness verdicts,
witness validity, and (for the worked examples) typechecking verdicts.

The memo table is cleared between the two runs — the whole point of the
shared fingerprints is that both representations produce *byte-identical
keys*, so without clearing, the second run would simply be handed the
first run's objects and the comparison would be vacuous.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import BottomUpTA, alternating
from repro.errors import AutomatonError
from repro.lang import (
    Apply,
    Out,
    Stylesheet,
    Template,
    q1_transducer,
    q2_stylesheet,
    xslt_to_transducer,
)
from repro.data import (
    q1_input_dtd,
    q1_inverse_dtd,
    q1_output_even_dtd,
    q2_good_output_dtd,
    q2_tight_output_dtd,
)
from repro.regex import EPSILON, compile_regex, star, sym, union, concat
from repro.runtime import cache_stats, clear_cache
from repro.runtime.cache import GLOBAL_CACHE
from repro.trees import BTree, RankedAlphabet
from repro.typecheck import typecheck, typecheck_selection
from repro.xmlio import parse_dtd
from switches import oracle_algebra

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _random_automaton(seed: int) -> BottomUpTA:
    """A reproducible random bottom-up automaton over ALPHA."""
    rng = random.Random(seed)
    n_states = rng.randint(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    leaf_rules = {
        symbol: {s for s in states if rng.random() < 0.6}
        for symbol in sorted(ALPHA.leaves)
    }
    rules = {}
    for symbol in sorted(ALPHA.internals):
        for left in states:
            for right in states:
                targets = {s for s in states if rng.random() < 0.3}
                if targets:
                    rules[(symbol, left, right)] = targets
    accepting = {s for s in states if rng.random() < 0.5} or {states[0]}
    return BottomUpTA(ALPHA, states, leaf_rules, rules, accepting)


AUTOMATA = st.integers(min_value=0, max_value=120).map(_random_automaton)

REGEXES = st.recursive(
    st.one_of(st.just(EPSILON), st.sampled_from(["a", "b"]).map(sym)),
    lambda sub: st.one_of(
        st.builds(concat, sub, sub),
        st.builds(union, sub, sub),
        st.builds(star, sub),
    ),
    max_leaves=6,
)


def _sample_trees() -> list[BTree]:
    """A deterministic tree sample: everything up to depth 2, plus a few
    deeper random ones — enough to separate the languages random 1-4
    state automata can express."""
    leaves = [BTree(s) for s in sorted(ALPHA.leaves)]
    depth1 = [
        BTree(symbol, left, right)
        for symbol in sorted(ALPHA.internals)
        for left in leaves
        for right in leaves
    ]
    small = leaves + depth1
    depth2 = [
        BTree(symbol, left, right)
        for symbol in sorted(ALPHA.internals)
        for left in small
        for right in small
    ]
    rng = random.Random(7)

    def deep(depth: int) -> BTree:
        if depth == 0:
            return rng.choice(leaves)
        return BTree(
            rng.choice(sorted(ALPHA.internals)),
            deep(depth - 1),
            deep(rng.randint(0, depth - 1)),
        )

    return small + depth2 + [deep(4) for _ in range(12)]


TREE_SAMPLE = _sample_trees()

WORD_SAMPLE = [
    []
] + [
    list(word)
    for length in (1, 2, 3, 4)
    for word in __import__("itertools").product("ab", repeat=length)
]


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _both_ways(op, *inputs):
    """Run ``op`` under the bitset core and under the oracle.

    The memo table is cleared around each run so neither mode can serve
    the other's objects (the fingerprints are identical by design).
    """
    clear_cache()
    with oracle_algebra(False):
        bitset = op(*inputs)
    clear_cache()
    with oracle_algebra(True):
        oracle = op(*inputs)
    clear_cache()
    return bitset, oracle


def _same_tree_language(one: BottomUpTA, two: BottomUpTA) -> None:
    for tree in TREE_SAMPLE:
        assert one.accepts(tree) == two.accepts(tree), tree
    # the full check, evaluated under the bitset core (it is itself
    # exercised against the sample above)
    assert one.equivalent(two)


def _same_word_language(one, two) -> None:
    for word in WORD_SAMPLE:
        assert one.accepts(word) == two.accepts(word), word


TA_UNARY = [
    ("determinized", lambda a: a.determinized()),
    ("determinized_subsets", lambda a: a.determinized(keep_subsets=True)),
    ("complemented", lambda a: a.determinized().complemented()),
    ("minimized", lambda a: a.minimized()),
    ("trimmed", lambda a: a.trimmed()),
]

TA_BINARY = [
    ("intersection", lambda a, b: a.intersection(b)),
    ("union", lambda a, b: a.union(b)),
    ("difference", lambda a, b: a.difference(b)),
    ("product_xor", lambda a, b: a.product(b, lambda x, y: x != y)),
]


class TestTreeAutomata:
    @pytest.mark.parametrize(
        "name,op", TA_UNARY, ids=[n for n, _ in TA_UNARY]
    )
    @given(automaton=AUTOMATA)
    @settings(max_examples=25, deadline=None)
    def test_unary(self, name, op, automaton):
        bitset, oracle = _both_ways(op, automaton)
        _same_tree_language(bitset, oracle)

    @pytest.mark.parametrize(
        "name,op", TA_BINARY, ids=[n for n, _ in TA_BINARY]
    )
    @given(one=AUTOMATA, two=AUTOMATA)
    @settings(max_examples=20, deadline=None)
    def test_binary(self, name, op, one, two):
        bitset, oracle = _both_ways(op, one, two)
        _same_tree_language(bitset, oracle)

    @given(automaton=AUTOMATA)
    @settings(max_examples=30, deadline=None)
    def test_emptiness_and_witness(self, automaton):
        bit_empty, ora_empty = _both_ways(lambda a: a.is_empty(), automaton)
        assert bit_empty == ora_empty
        bit_wit, ora_wit = _both_ways(lambda a: a.witness(), automaton)
        assert (bit_wit is None) == (ora_wit is None) == bit_empty
        if bit_wit is not None:
            assert automaton.accepts(bit_wit)
            assert automaton.accepts(ora_wit)

    @given(automaton=AUTOMATA)
    @settings(max_examples=25, deadline=None)
    def test_reachable_states(self, automaton):
        bitset, oracle = _both_ways(
            lambda a: a.reachable_states(), automaton
        )
        assert bitset == oracle

    @given(one=AUTOMATA, two=AUTOMATA)
    @settings(max_examples=20, deadline=None)
    def test_product_witness_matches_difference(self, one, two):
        """The on-the-fly product-emptiness routine agrees with the
        materialized difference (both modes)."""
        det = two.determinized()

        def leak(a, b):
            return a.product_witness(b.complemented())

        bit_wit, ora_wit = _both_ways(leak, one, det)
        empty = one.difference(det).trimmed().is_empty()
        assert (bit_wit is None) == empty
        assert (ora_wit is None) == empty
        for witness in (bit_wit, ora_wit):
            if witness is not None:
                assert one.accepts(witness)
                assert not det.accepts(witness)

    def test_product_witness_needs_a_complete_deterministic_other(self):
        nondeterministic = next(
            automaton
            for automaton in map(_random_automaton, range(121))
            if not automaton.is_deterministic()
        )
        with pytest.raises(AutomatonError):
            _random_automaton(0).product_witness(nondeterministic)

    def test_repeated_product_witness_is_a_memo_hit(self, monkeypatch):
        searches = []
        search = alternating.explore_product

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(alternating, "explore_product", counted)
        monkeypatch.setattr(GLOBAL_CACHE, "enabled", True)
        clear_cache()
        one = _random_automaton(3)
        other = _random_automaton(5).complemented()
        first = one.product_witness(other)
        hits = cache_stats()["hits"]
        assert one.product_witness(other) == first
        assert cache_stats()["hits"] == hits + 1
        assert len(searches) == 1
        clear_cache()


class TestRegexAndDFA:
    @given(expr=REGEXES)
    @settings(max_examples=30, deadline=None)
    def test_compile(self, expr):
        bitset, oracle = _both_ways(
            lambda e: compile_regex(e, alphabet={"a", "b"}), expr
        )
        _same_word_language(bitset, oracle)

    @given(expr=REGEXES)
    @settings(max_examples=25, deadline=None)
    def test_minimized(self, expr):
        bitset, oracle = _both_ways(
            lambda e: compile_regex(e, alphabet={"a", "b"}).minimized(),
            expr,
        )
        _same_word_language(bitset, oracle)
        assert bitset.n_states == oracle.n_states

    @given(one=REGEXES, two=REGEXES)
    @settings(max_examples=20, deadline=None)
    def test_product(self, one, two):
        def build(e1, e2):
            d1 = compile_regex(e1, alphabet={"a", "b"})
            d2 = compile_regex(e2, alphabet={"a", "b"})
            return d1.difference(d2)

        bitset, oracle = _both_ways(build, one, two)
        _same_word_language(bitset, oracle)


class TestWorkedExamples:
    """Differential typecheck verdicts on the E04/E08/E10 examples."""

    def test_e04_selection(self):
        from repro.data import bibliography_dtd

        def check():
            return typecheck_selection(
                "bib.book.author", bibliography_dtd(), parse_dtd("author :=")
            )

        bitset, oracle = _both_ways(check)
        assert bitset.ok and oracle.ok

    def test_e08_inverse_directions(self):
        """T(a^n) ⊆ (b.b)* iff n is even: typechecking must fail from
        the full input type and pass from the (a.a)* inverse.  (Bounded
        method — Q1 takes two pebbles, so the exact pipeline pays the
        paper's hyperexponential price; the bench does the same.)"""
        machine = q1_transducer()

        def verdicts():
            failing = typecheck(
                machine, q1_input_dtd(), q1_output_even_dtd(),
                method="bounded", max_inputs=8,
            )
            passing = typecheck(
                machine, q1_inverse_dtd(), q1_output_even_dtd(),
                method="bounded", max_inputs=8,
            )
            return (failing.ok, passing.ok)

        bitset, oracle = _both_ways(verdicts)
        assert bitset == oracle == (False, True)

    def test_e10_wrap_stylesheet(self):
        sheet = Stylesheet([
            Template("doc", [Out("D", [Apply()])]),
            Template("sec", [Out("S", [Apply()])]),
            Template("par", [Out("P")]),
        ])
        machine = xslt_to_transducer(
            sheet, tags={"doc", "sec", "par"}, root_tag="doc"
        )
        tau1 = parse_dtd("doc := sec*\nsec := par*\npar :=")
        tau2 = parse_dtd("D := S*\nS := P*\nP :=")

        def verdict():
            return typecheck(machine, tau1, tau2, method="exact").ok

        bitset, oracle = _both_ways(verdict)
        assert bitset is True and oracle is True

    def test_e10_q2_both_verdicts(self):
        machine = xslt_to_transducer(
            q2_stylesheet(), tags={"root", "a"}, root_tag="root"
        )

        def good():
            return typecheck(
                machine, q1_input_dtd(), q2_good_output_dtd(),
                method="exact",
            ).ok

        def tight():
            result = typecheck(
                machine, q1_input_dtd(), q2_tight_output_dtd(),
                method="exact",
            )
            return (result.ok, result.counterexample_input is not None)

        bit_good, ora_good = _both_ways(good)
        assert bit_good is True and ora_good is True
        bit_tight, ora_tight = _both_ways(tight)
        assert bit_tight == ora_tight == (False, True)
