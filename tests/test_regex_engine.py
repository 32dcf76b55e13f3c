"""Tests for the parser, NFA/DFA engines, and the boolean algebra."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import words
from repro.errors import RegexParseError
from repro.regex import (
    DFA,
    compile_regex,
    determinize,
    language_is_empty,
    nfa_from_regex,
    parse_regex,
)


def brute_force_language(expr_text: str, alphabet: tuple, max_len: int):
    """Language membership by brute force via the compiled DFA (used to
    cross-check constructions against each other)."""
    dfa = compile_regex(parse_regex(expr_text), alphabet)
    return {
        word
        for n in range(max_len + 1)
        for word in itertools.product(alphabet, repeat=n)
        if dfa.accepts(word)
    }


class TestParser:
    def test_precedence(self):
        # '.' binds tighter than '|'
        expr = parse_regex("a.b|c")
        assert str(expr) == "a.b|c"
        dfa = compile_regex(expr, {"a", "b", "c"})
        assert dfa.accepts(["a", "b"])
        assert dfa.accepts(["c"])
        assert not dfa.accepts(["a", "c"])

    def test_postfix_operators(self):
        dfa = compile_regex(parse_regex("a?.b+"), {"a", "b"})
        assert dfa.accepts(["b"])
        assert dfa.accepts(["a", "b", "b"])
        assert not dfa.accepts(["a"])

    def test_quoted_symbols(self):
        expr = parse_regex("'-'*.a")
        assert expr.symbols() == {"-", "a"}

    def test_epsilon_and_empty(self):
        assert compile_regex(parse_regex("%"), {"a"}).accepts([])
        assert compile_regex(parse_regex("@"), {"a"}).is_empty()

    def test_errors(self):
        for bad in ["a.", "(a", "a)b", "'unterminated", "&a", "a||b"]:
            with pytest.raises(RegexParseError):
                parse_regex(bad)


class TestNFA:
    @given(words())
    def test_nfa_matches_dfa(self, word):
        expr = parse_regex("a.(b|(a.a))*.b?")
        nfa = nfa_from_regex(expr)
        dfa = determinize(nfa, {"a", "b"})
        assert nfa.accepts(word) == dfa.accepts(word)

    @given(words(max_size=5))
    def test_reversed_language(self, word):
        expr = parse_regex("a.b*.a|b.a")
        nfa = nfa_from_regex(expr)
        assert nfa.accepts(word) == nfa.reversed().accepts(list(reversed(word)))


class TestDFAAlgebra:
    ALPHA = ("a", "b")

    def test_complement(self):
        dfa = compile_regex(parse_regex("a.b"), self.ALPHA)
        comp = dfa.complemented()
        for n in range(4):
            for word in itertools.product(self.ALPHA, repeat=n):
                assert dfa.accepts(word) != comp.accepts(word)

    def test_intersection_union_difference(self):
        one = compile_regex(parse_regex("a.(a|b)*"), self.ALPHA)
        two = compile_regex(parse_regex("(a|b)*.b"), self.ALPHA)
        both = one.intersection(two)
        either = one.union(two)
        diff = one.difference(two)
        for n in range(5):
            for word in itertools.product(self.ALPHA, repeat=n):
                a, b = one.accepts(word), two.accepts(word)
                assert both.accepts(word) == (a and b)
                assert either.accepts(word) == (a or b)
                assert diff.accepts(word) == (a and not b)

    def test_inclusion_and_equivalence(self):
        star = compile_regex(parse_regex("(a|b)*"), self.ALPHA)
        some = compile_regex(parse_regex("a.b*"), self.ALPHA)
        assert star.includes(some)
        assert not some.includes(star)
        assert star.equivalent(star.complemented().complemented())

    def test_minimized_preserves_language(self):
        dfa = compile_regex(parse_regex("(a.b)*.a?"), self.ALPHA)
        small = dfa.minimized()
        assert small.n_states <= dfa.n_states
        for n in range(5):
            for word in itertools.product(self.ALPHA, repeat=n):
                assert dfa.accepts(word) == small.accepts(word)

    def test_shortest_accepted(self):
        dfa = compile_regex(parse_regex("a.a.b"), self.ALPHA)
        assert dfa.shortest_accepted() == ["a", "a", "b"]
        assert compile_regex(parse_regex("@"), self.ALPHA).shortest_accepted() \
            is None

    def test_accepted_words_ordered(self):
        dfa = compile_regex(parse_regex("a.b*"), self.ALPHA)
        found = list(dfa.accepted_words(3))
        assert found == [["a"], ["a", "b"], ["a", "b", "b"]]

    def test_reversed_dfa(self):
        dfa = compile_regex(parse_regex("a.b.b"), self.ALPHA)
        rev = dfa.reversed_dfa()
        assert rev.accepts(["b", "b", "a"])
        assert not rev.accepts(["a", "b", "b"])


class TestGeneralizedRegex:
    ALPHA = ("a", "b")

    def test_complement_operator(self):
        dfa = compile_regex(parse_regex("~(a.b)"), self.ALPHA)
        assert dfa.accepts([])
        assert dfa.accepts(["a"])
        assert not dfa.accepts(["a", "b"])

    def test_intersect_operator(self):
        lang = brute_force_language("(a|b)*.a & a.(a|b)*", self.ALPHA, 3)
        assert ("a",) in lang
        assert ("a", "b", "a") in lang
        assert ("b", "a") not in lang

    def test_concat_over_complement(self):
        # words whose first letter is not followed by 'b...b' — exercises
        # concatenation over generalized subexpressions (Theorem 4.8 shapes)
        dfa = compile_regex(parse_regex("a.~(b.b)"), self.ALPHA)
        assert dfa.accepts(["a"])
        assert dfa.accepts(["a", "b"])
        assert not dfa.accepts(["a", "b", "b"])

    def test_star_free_emptiness(self):
        assert language_is_empty(parse_regex("a & b"), self.ALPHA)
        assert not language_is_empty(parse_regex("~(a.b) & a.b | a"),
                                     self.ALPHA)

    def test_star_over_a_generalized_subexpression(self):
        # the Thompson construction cannot star an intersection, so the
        # compiler stars the compiled DFA instead
        star = compile_regex(parse_regex("(a & ~b)*"), self.ALPHA)
        plus = compile_regex(parse_regex("(a & ~b)+"), self.ALPHA)
        assert star.equivalent(compile_regex(parse_regex("a*"), self.ALPHA))
        assert plus.equivalent(
            compile_regex(parse_regex("a.a*"), self.ALPHA))

    def test_de_morgan(self):
        left = compile_regex(parse_regex("~(a.b | b.a)"), self.ALPHA)
        right = compile_regex(parse_regex("~(a.b) & ~(b.a)"), self.ALPHA)
        assert left.equivalent(right)
