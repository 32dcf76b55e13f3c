"""Which checks catch a seeded bug in the bitset automata core?

Each mutant replaces one of the twelve operations that the frozenset
oracle (``tests/reference.py``) stands in for with a subtly wrong
variant, by monkeypatching in this process: nothing under ``src/`` is
edited.  For every mutant the script records whether each check fails:

* ``differential``: ``tests/test_bitset_differential.py``;
* ``properties``: ``tests/test_algebra_properties.py``;
* ``twin-free``: the same file without ``TestBitsetReferenceFingerprints``,
  its one class that compares against the frozenset twin;
* ``semantic``: the result against the input automata's own ``accepts``
  (a direct run, independent of the bitset core) on every binary tree
  of at most ``TREE_SIZE`` nodes over ``{a, b; f, g}`` and every word
  of at most ``WORD_LENGTH`` letters over ``{a, b}``, for ``SEEDS``
  seeded random automata (1-3 states) and regular expressions.  With
  at most three states, every reachable state and every non-empty
  language has a tree of at most seven nodes, so the bound decides
  reachability and emptiness exactly.

Each suite runs with ``--hypothesis-seed=0``, ``PYTHONHASHSEED=0`` and a
fresh hypothesis example database, so a table is reproducible and no
mutant replays another's failing examples.

Usage, from the repository root (one pytest run per mutant and suite,
about five minutes on one CPU)::

    PYTHONPATH=src python tools/mutation_study.py            # the table
    PYTHONPATH=src python tools/mutation_study.py --only NAME

``--run-suite MUTANT SUITE`` and ``--run-semantic MUTANT`` are the child
modes: each installs one mutant and runs one check in its process.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.automata import BottomUpTA
from repro.regex import dfa as dfa_module
from repro.regex import nfa_from_regex
from repro.regex.dfa import DFA, compile_regex
from repro.regex.syntax import EPSILON, concat, star, sym, union
from repro.runtime import clear_cache
from repro.runtime.cache import stable_repr
from repro.trees import BTree, RankedAlphabet

ROOT = Path(__file__).resolve().parent.parent
SUITES = {
    "differential": ["tests/test_bitset_differential.py"],
    "properties": ["tests/test_algebra_properties.py"],
    "twin-free": ["tests/test_algebra_properties.py",
                  "-k", "not TestBitsetReferenceFingerprints"],
}
ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})
TREE_SIZE = 7
WORD_LENGTH = 6
SEEDS = 60


# -- mutants --------------------------------------------------------------


def _last(states):
    return max(states, key=stable_repr)


def _with_accepting(ta: BottomUpTA, accepting) -> BottomUpTA:
    return BottomUpTA(alphabet=ta.alphabet, states=ta.states,
                      leaf_rules=ta.leaf_rules, rules=ta.rules,
                      accepting=accepting)


def _drop_an_accepting_state(ta: BottomUpTA) -> BottomUpTA:
    if len(ta.accepting) < 2:
        return ta
    return _with_accepting(ta, ta.accepting - {_last(ta.accepting)})


def _dfa_drop_an_accepting_state(automaton: DFA) -> DFA:
    if len(automaton.accepting) < 2:
        return automaton
    return DFA(alphabet=automaton.alphabet, n_states=automaton.n_states,
               start=automaton.start,
               accepting=automaton.accepting - {max(automaton.accepting)},
               delta=automaton.delta)


def _wrap(owner, name, after):
    """Patch ``owner.name`` to post-process its result with ``after``."""
    original = getattr(owner, name)

    def mutant(*args, **kwargs):
        return after(original(*args, **kwargs), *args, **kwargs)

    setattr(owner, name, mutant)


def _reachable_drops_a_state():
    _wrap(BottomUpTA, "reachable_states",
          lambda found, ta: found - {_last(found)} if len(found) > 1
          else found)


def _emptiness_misses_a_lone_accepting_state():
    _wrap(BottomUpTA, "is_empty",
          lambda empty, ta: empty or (len(ta.accepting) == 1
                                      and len(ta.states) >= 3))


def _witness_returns_a_subtree():
    _wrap(BottomUpTA, "_witness",
          lambda tree, ta: tree.left if tree is not None
          and not tree.is_leaf() else tree)


def _determinized_drops_an_accepting_subset():
    _wrap(BottomUpTA, "_determinized",
          lambda det, ta, keep_subsets: _drop_an_accepting_state(det))


def _complement_skips_completion():
    def complemented(ta):
        det = ta if ta.is_deterministic() else ta.determinized()
        return _with_accepting(det, det.states - det.accepting)

    BottomUpTA._complemented = complemented


def _product_swaps_combine():
    original = BottomUpTA._product
    BottomUpTA._product = lambda ta, other, combine: original(
        ta, other, lambda x, y: combine(y, x))


def _union_forgets_right_acceptance():
    def after(result, ta, other):
        if len(other.states) < 3:
            return result
        return _with_accepting(
            result, {q for q in result.accepting if q[0] == 0})

    _wrap(BottomUpTA, "_union", after)


def _trim_drops_a_useful_state():
    def after(result, ta):
        doomed = [q for q in result.states if q not in result.accepting]
        if len(result.states) < 3 or not doomed:
            return result
        gone = _last(doomed)
        return BottomUpTA(
            alphabet=result.alphabet, states=result.states - {gone},
            leaf_rules={s: t - {gone} for s, t in result.leaf_rules.items()},
            rules={key: t - {gone} for key, t in result.rules.items()
                   if gone not in key[1:]},
            accepting=result.accepting)

    _wrap(BottomUpTA, "_trimmed", after)


def _trim_keeps_everything():
    BottomUpTA._trimmed = lambda ta: ta


def _minimized_drops_an_accepting_state():
    _wrap(BottomUpTA, "_minimized",
          lambda result, ta: _drop_an_accepting_state(result))


def _minimized_skips_refinement():
    BottomUpTA._minimized = lambda ta: (
        ta if ta.is_complete_deterministic() else ta.determinized())


def _dfa_product_swaps_combine():
    original = DFA._product
    DFA._product = lambda d, other, combine: original(
        d, other, lambda x, y: combine(y, x))


def _dfa_minimized_drops_an_accepting_state():
    _wrap(DFA, "_minimized",
          lambda result, d: _dfa_drop_an_accepting_state(result))


def _dfa_minimized_skips_refinement():
    DFA._minimized = lambda d: d


def _determinize_drops_an_accepting_subset():
    original = dfa_module._determinize
    dfa_module._determinize = lambda nfa, alpha: (
        _dfa_drop_an_accepting_state(original(nfa, alpha)))


#: name -> (operation, what the bug does, installer).  A "representation"
#: mutant keeps every language and breaks only a structural promise
#: (trimmed, minimal).
MUTANTS = {
    "reachable-drop": ("reachable_states", "drops one reachable state",
                       _reachable_drops_a_state),
    "empty-lone-accept": ("is_empty",
                          "reports empty with one accepting state of >= 3",
                          _emptiness_misses_a_lone_accepting_state),
    "witness-subtree": ("witness", "returns the witness's left subtree",
                        _witness_returns_a_subtree),
    "det-drop-accept": ("determinized", "drops one accepting subset",
                        _determinized_drops_an_accepting_subset),
    "compl-incomplete": ("complemented",
                         "complements a deterministic automaton without "
                         "completing it",
                         _complement_skips_completion),
    "product-swap": ("product", "evaluates combine with swapped arguments",
                     _product_swaps_combine),
    "union-right-accept": ("union",
                           "forgets the right operand's accepting states",
                           _union_forgets_right_acceptance),
    "trim-drop-useful": ("trimmed", "drops one useful state",
                         _trim_drops_a_useful_state),
    "trim-noop": ("trimmed", "representation: trims nothing",
                  _trim_keeps_everything),
    "min-drop-accept": ("minimized", "drops one accepting state",
                        _minimized_drops_an_accepting_state),
    "min-unrefined": ("minimized", "representation: merges no states",
                      _minimized_skips_refinement),
    "dfa-product-swap": ("DFA.product",
                         "evaluates combine with swapped arguments",
                         _dfa_product_swaps_combine),
    "dfa-min-drop-accept": ("DFA.minimized", "drops one accepting state",
                            _dfa_minimized_drops_an_accepting_state),
    "dfa-min-unrefined": ("DFA.minimized",
                          "representation: merges no states",
                          _dfa_minimized_skips_refinement),
    "determinize-drop-accept": ("determinize", "drops one accepting subset",
                                _determinize_drops_an_accepting_subset),
}


# -- the semantic check ---------------------------------------------------


def trees_up_to(size: int) -> list[BTree]:
    """Every binary tree over ``ALPHA`` with at most ``size`` nodes."""
    by_size: dict[int, list[BTree]] = {
        1: [BTree(leaf) for leaf in sorted(ALPHA.leaves)]
    }
    for n in range(3, size + 1, 2):
        by_size[n] = [
            BTree(symbol, left, right)
            for k in range(1, n - 1, 2)
            for left in by_size[k]
            for right in by_size[n - 1 - k]
            for symbol in sorted(ALPHA.internals)
        ]
    return [tree for trees in by_size.values() for tree in trees]


def random_automaton(rng: random.Random) -> BottomUpTA:
    states = [f"s{i}" for i in range(rng.randint(1, 3))]

    def targets():
        return {q for q in states if rng.random() < 0.4}

    return BottomUpTA(
        alphabet=ALPHA, states=states,
        leaf_rules={leaf: targets() for leaf in ALPHA.leaves},
        rules={(s, l, r): targets() for s in ALPHA.internals
               for l in states for r in states},
        accepting={q for q in states if rng.random() < 0.5},
    )


def random_regex(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([sym("a"), sym("b"), EPSILON])
    shape = rng.choice(["union", "concat", "star"])
    if shape == "star":
        return star(random_regex(rng, depth - 1))
    build = union if shape == "union" else concat
    return build(random_regex(rng, depth - 1), random_regex(rng, depth - 1))


def semantic_failures() -> list[str]:
    """The operations whose result disagrees with a direct run."""
    trees = trees_up_to(TREE_SIZE)
    words = [w for n in range(WORD_LENGTH + 1)
             for w in itertools.product("ab", repeat=n)]
    failed: set[str] = set()
    rng = random.Random(20261021)

    def check(name, claim):
        try:
            if not claim():
                failed.add(name)
        except Exception:  # a crash is a caught bug too
            failed.add(name)

    for _ in range(SEEDS):
        clear_cache()
        one, two = random_automaton(rng), random_automaton(rng)
        runs1 = [one.accepts(t) for t in trees]
        runs2 = [two.accepts(t) for t in trees]
        reached = set().union(*(one.states_at_root(t) for t in trees))

        def same(result, expected):
            return all(result.accepts(t) == e
                       for t, e in zip(trees, expected))

        check("reachable_states", lambda: one.reachable_states() == reached)
        check("is_empty", lambda: one.is_empty() == (not any(runs1)))
        check("witness", lambda: (
            one.witness() is None if not any(runs1)
            else one.accepts(one.witness())))
        check("determinized", lambda: same(one.determinized(), runs1))
        check("complemented", lambda: same(
            one.complemented(), [not r for r in runs1]))
        difference = [a and not b for a, b in zip(runs1, runs2)]
        check("product", lambda: same(one.difference(two), difference))
        # the library only ever passes a symmetric combine; an
        # asymmetric one needs a complete deterministic right side
        check("product", lambda: same(
            one.product(two.determinized(), lambda a, b: a and not b),
            difference))
        check("union", lambda: same(
            one.union(two), [a or b for a, b in zip(runs1, runs2)]))
        check("trimmed", lambda: same(one.trimmed(), runs1))
        check("minimized", lambda: same(one.minimized(), runs1))

        e1, e2 = random_regex(rng), random_regex(rng)
        n1, n2 = nfa_from_regex(e1), nfa_from_regex(e2)
        in1 = [n1.accepts(w) for w in words]
        in2 = [n2.accepts(w) for w in words]

        def same_words(result, expected):
            return all(result.accepts(w) == e
                       for w, e in zip(words, expected))

        check("determinize", lambda: same_words(
            dfa_module.determinize(n1, {"a", "b"}), in1))
        d1 = compile_regex(e1, alphabet={"a", "b"})
        d2 = compile_regex(e2, alphabet={"a", "b"})
        runs_d1 = [d1.accepts(w) for w in words]
        runs_d2 = [d2.accepts(w) for w in words]
        check("DFA.product", lambda: same_words(
            d1.difference(d2),
            [a and not b for a, b in zip(runs_d1, runs_d2)]))
        check("DFA.minimized", lambda: same_words(d1.minimized(), runs_d1))
    return sorted(failed)


# -- running the checks ---------------------------------------------------


def _install(mutant: str) -> None:
    if mutant != "none":
        MUTANTS[mutant][2]()


def run_suite(mutant: str, suite: str) -> int:
    import pytest

    _install(mutant)
    args = [str(ROOT / arg) if arg.startswith("tests/") else arg
            for arg in SUITES[suite]]
    return pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                        "--hypothesis-seed=0", "--rootdir", str(ROOT),
                        *args])


def _child(*args: str) -> subprocess.CompletedProcess:
    """This script's child mode in a fresh interpreter and a fresh
    working directory, which holds hypothesis's example database."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONHASHSEED": "0"}
    with tempfile.TemporaryDirectory() as workdir:
        return subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *args],
            cwd=workdir, env=env, capture_output=True, text=True,
        )


def suite_catches(mutant: str, suite: str) -> bool:
    completed = _child("--run-suite", mutant, suite)
    if completed.returncode not in (0, 1):
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-2000:])
        raise SystemExit(f"{suite} did not run under {mutant}")
    return completed.returncode == 1


def semantic_catches(mutant: str) -> bool:
    completed = _child("--run-semantic", mutant)
    completed.check_returncode()
    failed = completed.stdout.split()
    return MUTANTS[mutant][0] in failed if mutant != "none" else bool(failed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", default=[],
                        help="run only this mutant (repeatable)")
    parser.add_argument("--run-suite", nargs=2, metavar=("MUTANT", "SUITE"))
    parser.add_argument("--run-semantic", metavar="MUTANT")
    args = parser.parse_args()
    if args.run_suite:
        raise SystemExit(run_suite(*args.run_suite))
    if args.run_semantic:
        _install(args.run_semantic)
        print(" ".join(semantic_failures()))
        return
    names = args.only or ["none", *MUTANTS]
    print("| mutant | operation | bug | " + " | ".join(SUITES)
          + " | semantic |")
    print("|---|---|---|" + "---|" * (len(SUITES) + 1))
    for name in names:
        operation, bug = (("-", "no mutant (all checks must pass)")
                          if name == "none" else MUTANTS[name][:2])
        caught = [suite_catches(name, suite) for suite in SUITES]
        caught.append(semantic_catches(name))
        marks = " | ".join("caught" if c else "-" for c in caught)
        print(f"| {name} | {operation} | {bug} | {marks} |", flush=True)


if __name__ == "__main__":
    main()
