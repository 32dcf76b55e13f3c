"""Regression properties for the memoized automata algebra.

These pin the invariants the memo table's correctness argument leans
on: minimization is idempotent (so a cached minimal automaton is a
fixed point), ``determinized(keep_subsets=True)`` is language- and
structure-preserving (its subset states are what ``to_regular``
correlates against), and structural fingerprints are stable across
renamings of equivalent automata (so isomorphic inputs share entries).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import btrees
from repro.automata import BottomUpTA
from repro.runtime import fingerprint
from repro.trees import RankedAlphabet

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


def _random_automaton(seed: int) -> BottomUpTA:
    """A reproducible random bottom-up automaton over ALPHA."""
    rng = random.Random(seed)
    n_states = rng.randint(1, 3)
    states = [f"s{i}" for i in range(n_states)]
    leaf_rules = {
        symbol: {s for s in states if rng.random() < 0.6}
        for symbol in sorted(ALPHA.leaves)
    }
    rules = {}
    for symbol in sorted(ALPHA.internals):
        for left in states:
            for right in states:
                targets = {s for s in states if rng.random() < 0.35}
                if targets:
                    rules[(symbol, left, right)] = targets
    accepting = {s for s in states if rng.random() < 0.5} or {states[0]}
    return BottomUpTA(ALPHA, states, leaf_rules, rules, accepting)


AUTOMATA = st.integers(min_value=0, max_value=60).map(_random_automaton)


def _relabelled(automaton: BottomUpTA, tag: str) -> BottomUpTA:
    """The same automaton with every state wrapped in a fresh name."""
    def rename(state):
        return (tag, state)

    return BottomUpTA(
        alphabet=automaton.alphabet,
        states={rename(q) for q in automaton.states},
        leaf_rules={
            symbol: {rename(q) for q in targets}
            for symbol, targets in automaton.leaf_rules.items()
        },
        rules={
            (symbol, rename(left), rename(right)): {
                rename(q) for q in targets
            }
            for (symbol, left, right), targets in automaton.rules.items()
        },
        accepting={rename(q) for q in automaton.accepting},
    )


class TestMinimizationIdempotent:
    @given(automaton=AUTOMATA)
    @settings(max_examples=40, deadline=None)
    def test_minimized_is_a_fixed_point(self, automaton):
        minimal = automaton.minimized()
        again = minimal.minimized()
        assert len(again.states) == len(minimal.states)
        assert again.n_rules() == minimal.n_rules()
        assert again.equivalent(minimal)
        # stronger than equivalence: the canonical fingerprint agrees,
        # i.e. re-minimizing yields a structurally isomorphic automaton.
        assert fingerprint(again) == fingerprint(minimal)


class TestDeterminizeKeepSubsets:
    @given(automaton=AUTOMATA, tree=btrees(max_leaves=4))
    @settings(max_examples=40, deadline=None)
    def test_preserves_acceptance(self, automaton, tree):
        det = automaton.determinized(keep_subsets=True)
        assert det.accepts(tree) == automaton.accepts(tree)

    @given(automaton=AUTOMATA)
    @settings(max_examples=25, deadline=None)
    def test_states_are_subsets_of_the_input(self, automaton):
        det = automaton.determinized(keep_subsets=True)
        original = frozenset(automaton.states)
        assert all(isinstance(state, frozenset) for state in det.states)
        assert all(state <= original for state in det.states)

    def test_subset_state_printed_form_is_pinned(self):
        """Subset states render their members in the input automaton's
        intern-table order — not frozenset iteration order, which
        follows the per-process hash seed.  The printed form feeds
        ``stable_repr`` (hence memo keys), so it is pinned here."""
        ta = BottomUpTA(
            alphabet=ALPHA,
            states={"s1", "s0", "s2"},
            leaf_rules={"a": {"s1", "s0"}, "b": {"s2"}},
            rules={("f", "s0", "s2"): {"s1", "s2"}},
            accepting={"s1"},
        )
        det = ta.determinized(keep_subsets=True)
        assert sorted(map(repr, det.states)) == [
            "{'s0', 's1'}",
            "{'s1', 's2'}",
            "{'s2'}",
            "{}",
        ]
        # and the rendering ignores construction order of the automaton
        # (the intern table is discovery-ordered, not insertion-ordered)
        twin = BottomUpTA(
            alphabet=ta.alphabet,
            states={"s2", "s1", "s0"},
            leaf_rules={"b": {"s2"}, "a": {"s0", "s1"}},
            rules={("f", "s0", "s2"): {"s2", "s1"}},
            accepting={"s1"},
        )
        assert sorted(map(repr, twin.determinized(keep_subsets=True).states)) \
            == sorted(map(repr, det.states))


class TestFingerprintStability:
    @given(automaton=AUTOMATA)
    @settings(max_examples=40, deadline=None)
    def test_renaming_is_invisible(self, automaton):
        """Equivalent deterministic automata fingerprint identically,
        whatever their states are called."""
        minimal = automaton.minimized()
        assert fingerprint(minimal.renamed()) == fingerprint(minimal)
        assert fingerprint(_relabelled(minimal, "x")) == fingerprint(minimal)

    @given(automaton=AUTOMATA)
    @settings(max_examples=30, deadline=None)
    def test_equivalent_constructions_converge(self, automaton):
        """Two different routes to the same minimal automaton agree."""
        direct = automaton.minimized()
        via_det = automaton.determinized().minimized()
        assert fingerprint(direct) == fingerprint(via_det)

    def test_different_languages_differ(self):
        tau = BottomUpTA(
            alphabet=ALPHA,
            states={"ok"},
            leaf_rules={"a": {"ok"}},
            rules={(s, "ok", "ok"): {"ok"} for s in ("f", "g")},
            accepting={"ok"},
        )
        assert fingerprint(tau.minimized()) \
            != fingerprint(tau.complemented().minimized())

    def test_exact_fingerprint_sees_state_names(self):
        """The ``exact`` variant (used for keep_subsets results) must
        distinguish renamed twins that the canonical one merges."""
        automaton = _random_automaton(7).minimized()
        twin = _relabelled(automaton, "y")
        assert fingerprint(automaton) == fingerprint(twin)
        assert fingerprint(automaton, exact=True) \
            != fingerprint(twin, exact=True)


class TestGoldenFingerprints:
    """Pinned digests: the renaming-invariant fingerprints are the memo
    keys of every warm cache on disk, so their byte format is frozen.
    If an intentional format change makes these fail, bump the digests
    *and* accept that every persisted cache segment is invalidated."""

    def _tau(self) -> BottomUpTA:
        return BottomUpTA(
            alphabet=ALPHA,
            states={"ok"},
            leaf_rules={"a": {"ok"}},
            rules={(s, "ok", "ok"): {"ok"} for s in ("f", "g")},
            accepting={"ok"},
        )

    def test_tree_automata_digests(self):
        tau = self._tau()
        assert fingerprint(tau) == "ta:55ae0c55bae9e3de76d37e963ca03b6a"
        assert fingerprint(tau.minimized()) \
            == "ta:00d0db502e24fcd642d34174a6e7a21d"
        assert fingerprint(tau.complemented().minimized()) \
            == "ta:6f4e4f110b648211b86fc83e54d4636e"

    def test_regex_and_dfa_digests(self):
        from repro.regex import compile_regex, concat, star, sym, union

        expr = concat(star(union(sym("a"), sym("b"))), sym("a"))
        assert fingerprint(expr) == "re:98d02a19242b98413d2303e22fbdb518"
        dfa = compile_regex(expr, alphabet={"a", "b"})
        assert fingerprint(dfa) == "dfa:02863bd184bf2354e55412fbc85a88bd"

    def test_pebble_pipeline_digests(self):
        from repro.lang import Apply, Out, Stylesheet, Template
        from repro.lang import xslt_to_transducer
        from repro.pebble import (
            transducer_times_automaton,
            walking_automaton_to_ta,
        )
        from repro.pebble.to_regular import trim_quotient
        from repro.typecheck.engine import as_automaton, bu_to_td
        from repro.xmlio import parse_dtd

        sheet = Stylesheet([
            Template("doc", [Out("D", [Apply()])]),
            Template("sec", [Out("S", [Apply()])]),
            Template("par", [Out("P")]),
        ])
        machine = xslt_to_transducer(
            sheet, tags={"doc", "sec", "par"}, root_tag="doc"
        )
        assert fingerprint(machine) \
            == "pt:698c507d448579e3d920059148f1242e"
        tau2 = parse_dtd("D := S*\nS := P*\nP :=")
        not_tau2 = bu_to_td(
            as_automaton(tau2, machine.output_alphabet)
            .complemented().trimmed()
        )
        assert fingerprint(not_tau2) \
            == "tda:aa18570aa2cc80dcf27b8eaed56b31ba"
        product = transducer_times_automaton(machine, not_tau2)
        assert fingerprint(product) \
            == "pa:a7f19d5ef8758d49f98993d265469efa"
        # the walking summary's rule table, state numbering included
        summary = walking_automaton_to_ta(trim_quotient(product))
        assert len(summary.states) == 11
        assert fingerprint(summary, exact=True) \
            == "ta!:006092a3e244bebfdb83b02a498bc5d6"
        assert fingerprint(summary) \
            == "ta:60d956839c2b6d11c043c36a1e3e9c6b"


class TestBitsetReferenceFingerprints:
    """The bitset core and the frozenset oracle must produce results
    with *identical* fingerprints — that is what lets a warm cache
    written under one representation be read under the other."""

    @given(automaton=AUTOMATA)
    @settings(max_examples=25, deadline=None)
    def test_op_results_fingerprint_identically(self, automaton):
        from repro.runtime import clear_cache
        from switches import oracle_algebra

        ops = [
            lambda a: a.determinized(),
            lambda a: a.minimized(),
            lambda a: a.determinized().complemented(),
            lambda a: a.trimmed(),
        ]
        for op in ops:
            clear_cache()
            with oracle_algebra(False):
                bit = fingerprint(op(automaton))
            clear_cache()
            with oracle_algebra(True):
                ora = fingerprint(op(automaton))
            clear_cache()
            assert bit == ora
