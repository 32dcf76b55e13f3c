"""Theorem 4.8: the non-elementary lower bound machinery.

The paper reduces emptiness of *star-free generalized regular
expressions* (union, concatenation, complement — non-elementary by
Stockmeyer) to typechecking: for every star-free expression ``r`` one
builds, in PTIME,

* a deterministic k-pebble automaton ``A_r`` without branching accepting
  ``{enc(w) | w ∈ lang(r)}``, and
* a deterministic k-pebble transducer ``T_r`` that outputs ``b(e,e)``
  when ``A_r`` accepts and ``b`` when it rejects,

so that ``T_r`` typechecks against the output type ``{b}`` iff
``lang(r) = ∅``.

Strings are encoded as right-linear binary trees:
``enc(a1 a2 ... an) = a1(#, a2(#, ... an(#, #)))`` (the paper's
``enc(av) = a(-, enc(v))`` with an explicit leaf padding symbol).

The decider is built by structural recursion with success/failure
continuation states.  Pebble 1 stays parked on the root (doubling as the
start-of-string marker); the expression is evaluated by pebble 2; every
*concatenation* claims one more pebble to mark the split point it
enumerates; *complement* simply swaps the continuations — determinism is
what makes complementation free, and nesting depth of concatenation is
what drives the pebble count ``k = 2 + concat_depth(r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.automata.bottom_up import BottomUpTA
from repro.errors import PebbleMachineError, RegexError
from repro.pebble.automaton import PebbleAutomaton
from repro.pebble.transducer import (
    Branch0,
    Emit0,
    Emit2,
    Move,
    PebbleTransducer,
    Pick,
    Place,
    RuleSet,
)
from repro.regex.syntax import (
    Complement,
    Concat,
    Empty,
    Epsilon,
    Intersect,
    Regex,
    Star,
    Sym,
    Union,
)
from repro.trees.alphabet import RankedAlphabet

#: Leaf padding symbol of the string encoding.
PAD = "#"

#: Marker kinds for segment boundaries.
START_OF_STRING = ("start-of-string",)   # position 0, i.e. the tree root
END_OF_STRING = ("end-of-string",)       # the terminal pad leaf


def string_alphabet(symbols: Iterable[str]) -> RankedAlphabet:
    """The ranked alphabet of string encodings over ``symbols``."""
    symbols = frozenset(symbols)
    if PAD in symbols:
        raise PebbleMachineError(f"{PAD!r} is reserved for padding")
    if not symbols:
        raise PebbleMachineError("the string alphabet must be non-empty")
    return RankedAlphabet(leaves={PAD}, internals=symbols)


def encode_string(word: Sequence[str], alphabet: RankedAlphabet):
    """``enc(w)``: the right-linear binary tree of a non-empty word."""
    from repro.trees.ranked import BTree

    if not word:
        raise PebbleMachineError("only non-empty strings are encoded")
    pad = BTree(PAD)
    tree = pad
    for symbol in reversed(list(word)):
        alphabet.check_internal(symbol)
        tree = BTree(symbol, pad, tree)
    return tree


def decode_string(tree) -> list[str]:
    """Invert :func:`encode_string`."""
    word: list[str] = []
    node = tree
    while node.label != PAD:
        word.append(node.label)
        node = node.right
    return word


def string_encodings_type(alphabet: RankedAlphabet) -> BottomUpTA:
    """The regular tree language ``{enc(w) | w non-empty}`` — the fixed
    input type ``tau1`` of Theorem 4.8."""
    rules = {}
    for symbol in sorted(alphabet.internals):
        rules[(symbol, "pad", "tail")] = {"word"}
        rules[(symbol, "pad", "word")] = {"word"}
    return BottomUpTA(
        alphabet=alphabet,
        states={"pad", "tail", "word"},
        leaf_rules={PAD: {"pad", "tail"}},
        rules=rules,
        accepting={"word"},
    )


def concat_depth(expr: Regex) -> int:
    """Maximum number of nested concatenations — the pebble driver."""
    if isinstance(expr, Concat):
        return 1 + max(concat_depth(expr.first), concat_depth(expr.second))
    return max((concat_depth(child) for child in expr.children()), default=0)


def pebbles_needed(expr: Regex) -> int:
    """``k = 2 + concat_depth``: parked root marker + working pebble +
    one split marker per nested concatenation."""
    return 2 + concat_depth(expr)


@dataclass
class _Skeleton:
    """The shared decider: rules, levels, and the two verdict states."""

    alphabet: RankedAlphabet
    rules: RuleSet
    levels: list[list]
    accept: object
    reject: object
    initial: object


class _DeciderBuilder:
    """Builds the deterministic decider by structural recursion.

    Conventions: a *check* of a subexpression at pebble level ``level``
    starts with pebble ``level`` freshly placed on the root and ends by
    entering one of two given continuation states of the same level.
    Segment boundaries are markers: ``START_OF_STRING`` (the root, also
    marked by parked pebble 1), ``END_OF_STRING`` (the pad leaf), or a
    pebble index ``j < level``.
    """

    def __init__(self, alphabet: RankedAlphabet, k: int) -> None:
        self.alphabet = alphabet
        self.k = k
        self.rules = RuleSet()
        self.levels: list[list] = [[] for _ in range(k)]
        self.counter = 0
        self.letters = sorted(alphabet.internals)

    def fresh(self, level: int, hint: str):
        self.counter += 1
        state = (hint, self.counter)
        self.levels[level - 1].append(state)
        return state

    def add(self, symbols, state, action, pebbles=None) -> None:
        self.rules.add(symbols, state, action, pebbles)

    # -- marker predicates as guard fragments --------------------------------

    def _marker_guards(self, marker, level: int):
        """Yield (symbols, pebbles) guard fragments meaning "the current
        node is the marker" / its complement is everything else."""
        if marker is START_OF_STRING:
            # the root carries parked pebble 1
            return ("pebble", 1)
        if marker is END_OF_STRING:
            return ("symbol", PAD)
        return ("pebble", marker)  # a pebble index

    def guard_pairs(self, marker, level: int):
        """(positive, negative) guard descriptors for a marker test at a
        level-``level`` state: each is (symbols|None, pebbles-dict|None).
        """
        kind, payload = self._marker_guards(marker, level)
        if kind == "pebble":
            return (
                (None, {payload: 1}),
                (None, {payload: 0}),
            )
        # symbol marker (the pad leaf): positive on PAD, negative on letters
        return ((PAD, None), (self.letters, None))

    # -- navigation helpers ------------------------------------------------------

    def seek(self, level: int, start_marker, then, hint: str):
        """From the root, walk the spine down-right to the start marker
        and enter ``then`` there."""
        if start_marker is START_OF_STRING:
            return then
        entry = self.fresh(level, f"seek-{hint}")
        positive, negative = self.guard_pairs(start_marker, level)
        self.add(positive[0], entry, Move("stay", then), positive[1])
        self.add(negative[0], entry, Move("down-right", entry), negative[1])
        return entry

    def reset(self, level: int, then, hint: str):
        """Pick the working pebble and re-place it on the root, entering
        ``then`` (a level-``level`` state)."""
        trampoline = self.fresh(level - 1, f"reset-{hint}")
        comeback = self.fresh(level, f"reland-{hint}")
        self.add(None, comeback, Move("stay", then))
        self.add(None, trampoline, Place(comeback))
        picker = self.fresh(level, f"pick-{hint}")
        self.add(None, picker, Pick(trampoline))
        return picker

    # -- the structural recursion ---------------------------------------------------

    def check(self, expr: Regex, level: int, start, end, q_yes, q_no):
        """Entry state for deciding ``segment(start, end) ∈ lang(expr)``."""
        if isinstance(expr, Empty):
            entry = self.fresh(level, "empty")
            self.add(None, entry, Move("stay", q_no))
            return entry
        if isinstance(expr, Epsilon):
            return self._check_epsilon(level, start, end, q_yes, q_no)
        if isinstance(expr, Sym):
            return self._check_symbol(expr, level, start, end, q_yes, q_no)
        if isinstance(expr, Union):
            retry = self.reset(
                level,
                self.check(expr.second, level, start, end, q_yes, q_no),
                "union",
            )
            return self.check(expr.first, level, start, end, q_yes, retry)
        if isinstance(expr, Intersect):
            next_check = self.reset(
                level,
                self.check(expr.second, level, start, end, q_yes, q_no),
                "isect",
            )
            return self.check(expr.first, level, start, end, next_check, q_no)
        if isinstance(expr, Complement):
            return self.check(expr.inner, level, start, end, q_no, q_yes)
        if isinstance(expr, Concat):
            return self._check_concat(expr, level, start, end, q_yes, q_no)
        if isinstance(expr, Star):
            raise RegexError(
                "Theorem 4.8 deciders are built for star-free expressions"
            )
        raise RegexError(f"unknown regex node {expr!r}")

    def _at_marker_dispatch(self, level, marker, state, if_yes, if_no):
        positive, negative = self.guard_pairs(marker, level)
        self.add(positive[0], state, Move("stay", if_yes), positive[1])
        self.add(negative[0], state, Move("stay", if_no), negative[1])

    def _check_epsilon(self, level, start, end, q_yes, q_no):
        at_start = self.fresh(level, "eps-at")
        self._at_marker_dispatch(level, end, at_start, q_yes, q_no)
        return self.seek(level, start, at_start, "eps")

    def _check_symbol(self, expr: Sym, level, start, end, q_yes, q_no):
        if expr.symbol not in self.alphabet.internals:
            raise RegexError(f"symbol {expr.symbol!r} not in the alphabet")
        at_start = self.fresh(level, "sym-at")
        at_next = self.fresh(level, "sym-next")
        # the single letter must match and must not be the segment end
        # (an empty segment has start == end; then the letter test below
        # must fail).  The marker test distinguishes the two.
        not_end_here = self.fresh(level, "sym-live")
        self._at_marker_dispatch(level, end, at_start, q_no, not_end_here)
        matched = self.fresh(level, "sym-ok")
        self.add(expr.symbol, not_end_here, Move("stay", matched))
        for other in self.letters:
            if other != expr.symbol:
                self.add(other, not_end_here, Move("stay", q_no))
        self.add(PAD, not_end_here, Move("stay", q_no))
        self.add(None, matched, Move("down-right", at_next))
        self._at_marker_dispatch(level, end, at_next, q_yes, q_no)
        return self.seek(level, start, at_start, "sym")

    def _check_concat(self, expr: Concat, level, start, end, q_yes, q_no):
        """Enumerate split positions with pebble ``level``; the two parts
        are decided at level+1 against the split marker."""
        if level + 1 > self.k:
            raise PebbleMachineError("pebble budget miscalculated")
        split_at = self.fresh(level, "split-at")
        advance = self.fresh(level, "split-adv")
        fail_here = self.fresh(level, "split-no")

        yes_up = self.fresh(level + 1, "split-yes")
        no1_up = self.fresh(level + 1, "split-no1")
        no2_up = self.fresh(level + 1, "split-no2")
        self.add(None, yes_up, Pick(q_yes))
        self.add(None, no1_up, Pick(fail_here))
        self.add(None, no2_up, Pick(fail_here))

        second = self.check(
            expr.second, level + 1, level, end, yes_up, no2_up
        )
        go_second = self.fresh(level, "split-mid")
        self.add(None, go_second, Place(second))
        mid_up = self.fresh(level + 1, "split-ok1")
        self.add(None, mid_up, Pick(go_second))
        first = self.check(
            expr.first, level + 1, start, level, mid_up, no1_up
        )
        self.add(None, split_at, Place(first))

        # after a failed split: if we sit on the segment end, give up;
        # otherwise advance the split marker one position.
        self._at_marker_dispatch(level, end, fail_here, q_no, advance)
        self.add(None, advance, Move("down-right", split_at))
        return self.seek(level, start, split_at, "split")


def build_decider_skeleton(
    expr: Regex, alphabet: RankedAlphabet
) -> _Skeleton:
    """The shared deterministic decider for ``enc(w) ∈ enc(lang(expr))``."""
    if not expr.is_star_free():
        raise RegexError("Theorem 4.8 needs star-free expressions")
    k = pebbles_needed(expr)
    builder = _DeciderBuilder(alphabet, k)
    accept = builder.fresh(1, "accept")
    reject = builder.fresh(1, "reject")
    yes_up = builder.fresh(2, "top-yes")
    no_up = builder.fresh(2, "top-no")
    builder.add(None, yes_up, Pick(accept))
    builder.add(None, no_up, Pick(reject))
    top = builder.check(expr, 2, START_OF_STRING, END_OF_STRING, yes_up, no_up)
    initial = builder.fresh(1, "boot")
    builder.add(None, initial, Place(top))
    return _Skeleton(
        alphabet=alphabet,
        rules=builder.rules,
        levels=builder.levels,
        accept=accept,
        reject=reject,
        initial=initial,
    )


def starfree_to_automaton(
    expr: Regex, alphabet: RankedAlphabet
) -> PebbleAutomaton:
    """The deterministic k-pebble automaton ``A_r`` without branching."""
    skeleton = build_decider_skeleton(expr, alphabet)
    skeleton.rules.add(None, skeleton.accept, Branch0())
    return PebbleAutomaton(
        alphabet=alphabet,
        levels=skeleton.levels,
        initial=skeleton.initial,
        rules=skeleton.rules,
    )


def starfree_to_transducer(
    expr: Regex, alphabet: RankedAlphabet
) -> PebbleTransducer:
    """The transducer ``T_r``: ``b(e,e)`` when ``w ∈ lang(r)``, ``b``
    otherwise; typechecks against ``{b}`` iff ``lang(r)`` is empty."""
    skeleton = build_decider_skeleton(expr, alphabet)
    emit_e = ("emit-e",)
    skeleton.levels[0].append(emit_e)
    skeleton.rules.add(None, skeleton.accept, Emit2("b", emit_e, emit_e))
    skeleton.rules.add(None, emit_e, Emit0("e"))
    skeleton.rules.add(None, skeleton.reject, Emit0("b"))
    output = RankedAlphabet(leaves={"b", "e"}, internals={"b"})
    return PebbleTransducer(
        input_alphabet=alphabet,
        output_alphabet=output,
        levels=skeleton.levels,
        initial=skeleton.initial,
        rules=skeleton.rules,
    )


def singleton_b_type() -> BottomUpTA:
    """The fixed output type ``{b()}`` of Theorem 4.8."""
    alphabet = RankedAlphabet(leaves={"b", "e"}, internals={"b"})
    return BottomUpTA(
        alphabet=alphabet,
        states={"ok"},
        leaf_rules={"b": {"ok"}},
        rules={},
        accepting={"ok"},
    )


def decide_membership(
    expr: Regex, word: Sequence[str], alphabet: RankedAlphabet
) -> bool:
    """Run the decider on one word (cross-checked against the DFA engine
    in the tests)."""
    from repro.pebble.run import evaluate

    transducer = starfree_to_transducer(expr, alphabet)
    output = evaluate(transducer, encode_string(word, alphabet))
    if output is None:
        raise PebbleMachineError("the decider diverged — this is a bug")
    return not output.is_leaf
