"""Tests for tree automata: the paper's types (Section 2.3)."""

import random

import pytest
from hypothesis import given, settings

from conftest import btrees
from repro.automata import (
    BottomUpTA,
    TopDownTA,
    bu_to_td,
    dtd_to_automaton,
    specialized_to_automaton,
    td_to_bu,
)
from repro.data import paper_dtd, paper_tree
from repro.errors import AutomatonError
from repro.regex import parse_regex
from repro.trees import RankedAlphabet, encode, leaf, node, random_btree
from repro.xmlio import SpecializedDTD, parse_dtd

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


def leaves_all_a() -> BottomUpTA:
    """Trees whose leaves are all 'a'."""
    return BottomUpTA(
        alphabet=ALPHA,
        states={"ok"},
        leaf_rules={"a": {"ok"}},
        rules={
            (s, "ok", "ok"): {"ok"} for s in ("f", "g")
        },
        accepting={"ok"},
    )


def root_is_f() -> BottomUpTA:
    return BottomUpTA(
        alphabet=ALPHA,
        states={"any", "top"},
        leaf_rules={"a": {"any"}, "b": {"any"}},
        rules={
            ("f", l, r): {"top"}
            for l in ("any", "top")
            for r in ("any", "top")
        } | {
            ("g", l, r): {"any"}
            for l in ("any", "top")
            for r in ("any", "top")
        },
        accepting={"top"},
    )


class TestBottomUp:
    def test_accepts(self):
        automaton = leaves_all_a()
        assert automaton.accepts(leaf("a"))
        assert automaton.accepts(node("f", leaf("a"), leaf("a")))
        assert not automaton.accepts(node("f", leaf("a"), leaf("b")))

    def test_emptiness_and_witness(self):
        automaton = leaves_all_a()
        assert not automaton.is_empty()
        witness = automaton.witness()
        assert witness is not None and automaton.accepts(witness)
        nothing = BottomUpTA(ALPHA, {"q"}, {}, {}, {"q"})
        assert nothing.is_empty()
        assert nothing.witness() is None

    def test_generate_yields_distinct_members(self):
        automaton = root_is_f()
        found = list(automaton.generate(10))
        assert len(found) == len(set(found)) == 10
        assert all(automaton.accepts(tree) for tree in found)

    @given(btrees())
    def test_complement(self, tree):
        automaton = leaves_all_a()
        assert automaton.accepts(tree) != automaton.complemented().accepts(tree)

    @given(btrees())
    def test_boolean_algebra(self, tree):
        one, two = leaves_all_a(), root_is_f()
        a, b = one.accepts(tree), two.accepts(tree)
        assert one.intersection(two).accepts(tree) == (a and b)
        assert one.union(two).accepts(tree) == (a or b)
        assert one.difference(two).accepts(tree) == (a and not b)

    def test_inclusion(self):
        one, two = leaves_all_a(), root_is_f()
        both = one.intersection(two)
        assert one.includes(both)
        assert two.includes(both)
        assert not one.includes(two)

    def test_equivalence_after_determinization(self):
        automaton = root_is_f()
        assert automaton.equivalent(automaton.determinized())
        assert automaton.equivalent(automaton.minimized())

    @given(btrees())
    @settings(max_examples=25)
    def test_determinized_and_minimized_preserve_language(self, tree):
        automaton = root_is_f()
        expected = automaton.accepts(tree)
        assert automaton.determinized().accepts(tree) == expected
        assert automaton.minimized().accepts(tree) == expected

    def test_minimized_is_canonical_size(self):
        automaton = root_is_f().union(root_is_f())
        assert len(automaton.minimized().states) <= len(
            root_is_f().determinized().states
        )

    def test_trimmed_preserves_language(self, rng):
        automaton = root_is_f().union(leaves_all_a())
        trimmed = automaton.trimmed()
        for _ in range(30):
            tree = random_btree(ALPHA, rng.randint(1, 9), rng)
            assert automaton.accepts(tree) == trimmed.accepts(tree)

    def test_determinized_keep_subsets(self):
        det = root_is_f().determinized(keep_subsets=True)
        assert all(isinstance(state, frozenset) for state in det.states)
        assert det.equivalent(root_is_f())

    def test_validation(self):
        with pytest.raises(AutomatonError):
            BottomUpTA(ALPHA, {"q"}, {"f": {"q"}}, {}, {"q"})  # f not a leaf
        with pytest.raises(AutomatonError):
            BottomUpTA(ALPHA, {"q"}, {}, {}, {"zz"})  # unknown accepting


class TestTopDown:
    def test_definition_2_1_shape(self):
        """A top-down automaton for 'all leaves are a'."""
        automaton = TopDownTA(
            alphabet=ALPHA,
            states={"q"},
            initial="q",
            final={("a", "q")},
            transitions={
                ("f", "q"): {("q", "q")},
                ("g", "q"): {("q", "q")},
            },
        )
        assert automaton.accepts(node("f", leaf("a"), leaf("a")))
        assert not automaton.accepts(leaf("b"))

    def test_silent_elimination(self, rng):
        """Section 2.3: silent transitions add no power."""
        automaton = TopDownTA(
            alphabet=ALPHA,
            states={"start", "q"},
            initial="start",
            final={("a", "q")},
            transitions={("f", "q"): {("q", "q")}},
            silent={
                ("f", "start"): {"q"},
                ("a", "start"): {"q"},
                ("g", "start"): set(),
            },
        )
        plain = automaton.without_silent()
        assert not plain.has_silent
        for _ in range(40):
            tree = random_btree(ALPHA, rng.randint(1, 9), rng)
            assert automaton.accepts(tree) == plain.accepts(tree)

    def test_conversion_roundtrip(self, rng):
        """td_to_bu and bu_to_td preserve the language."""
        bottom_up = root_is_f()
        top_down = bu_to_td(bottom_up)
        back = td_to_bu(top_down)
        for _ in range(40):
            tree = random_btree(ALPHA, rng.randint(1, 9), rng)
            assert bottom_up.accepts(tree) == top_down.accepts(tree)
            assert bottom_up.accepts(tree) == back.accepts(tree)
        assert back.equivalent(bottom_up)

    def test_renamed_keeps_the_language_and_the_sizes(self, rng):
        automaton = bu_to_td(root_is_f())
        renamed = automaton.renamed()
        assert renamed.states == set(range(len(automaton.states)))
        assert renamed.stats() == automaton.stats()
        for _ in range(40):
            tree = random_btree(ALPHA, rng.randint(1, 9), rng)
            assert renamed.accepts(tree) == automaton.accepts(tree)

    @pytest.mark.parametrize("fields,message", [
        ({"initial": "z"}, "initial state"),
        ({"final": {("f", "q")}}, "non-leaf symbol"),
        ({"final": {("a", "z")}}, "unknown state"),
        ({"transitions": {("a", "q"): {("q", "q")}}}, "non-internal"),
        ({"transitions": {("f", "z"): {("q", "q")}}}, "unknown state"),
        ({"transitions": {("f", "q"): {("q", "z")}}}, "unknown state"),
        ({"silent": {("h", "q"): {"q"}}}, "silent transition on"),
        ({"silent": {("a", "q"): {"z"}}}, "unknown state"),
    ])
    def test_malformed_automata_are_refused(self, fields, message):
        parts = {"alphabet": ALPHA, "states": {"q"}, "initial": "q",
                 "final": {("a", "q")},
                 "transitions": {("f", "q"): {("q", "q")}}}
        with pytest.raises(AutomatonError, match=message):
            TopDownTA(**{**parts, **fields})


class TestFromDTD:
    def test_paper_dtd(self):
        automaton = dtd_to_automaton(paper_dtd())
        assert automaton.accepts(encode(paper_tree()))

    def test_agrees_with_direct_validation(self, rng):
        """inst(A) = {encode(t) | t in inst(D)} (Section 2.3)."""
        from repro.data.generators import random_unranked_tree

        dtd = paper_dtd()
        automaton = dtd_to_automaton(dtd)
        # positives: enumerated instances
        for document in dtd.instances(12):
            assert automaton.accepts(encode(document))
        # mixed random documents
        for _ in range(40):
            document = random_unranked_tree(
                ["a", "b", "c", "d", "e"], rng.randint(1, 8), rng
            )
            assert automaton.accepts(encode(document)) == dtd.is_valid(document)

    def test_specialized_decoupling(self):
        sdtd = SpecializedDTD(
            types={"A": "a", "B1": "b", "B2": "b", "C": "c", "D": "d"},
            content={
                "A": parse_regex("B1.B2"),
                "B1": parse_regex("C"),
                "B2": parse_regex("D"),
                "C": parse_regex("%"),
                "D": parse_regex("%"),
            },
            roots={"A"},
        )
        automaton = specialized_to_automaton(sdtd)
        from repro.trees import parse_utree

        assert automaton.accepts(encode(parse_utree("a(b(c), b(d))")))
        assert not automaton.accepts(encode(parse_utree("a(b(d), b(c))")))

    def test_non_encodings_rejected(self):
        automaton = dtd_to_automaton(parse_dtd("a := a*"))
        assert not automaton.accepts(leaf("|"))
        assert not automaton.accepts(node("-", leaf("|"), leaf("|")))
