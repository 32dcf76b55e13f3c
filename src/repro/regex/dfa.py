"""Deterministic finite automata over words, with the full boolean algebra.

DFAs here are always *complete* over an explicit alphabet (complementation
depends on the alphabet, so it is part of the automaton).  The module
provides determinization, minimization, boolean combinations, emptiness
with witnesses, inclusion/equivalence, and a compiler from *generalized*
regular expressions (with intersection and complement) — the ground-truth
engine used to cross-check the Theorem 4.8 constructions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import RegexError
from repro.regex.nfa import NFA, nfa_from_regex
from repro.regex.syntax import Complement, Intersect, Regex, Sym
from repro.runtime.cache import memoized


@dataclass(frozen=True)
class DFA:
    """A complete DFA.

    States are ``0..n_states-1``; ``delta[(state, symbol)]`` is defined for
    every state and every symbol of ``alphabet``.
    """

    alphabet: frozenset[str]
    n_states: int
    start: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], int]

    def __post_init__(self) -> None:
        for state in range(self.n_states):
            for symbol in self.alphabet:
                if (state, symbol) not in self.delta:
                    raise RegexError(
                        f"DFA is not complete: missing delta({state}, {symbol!r})"
                    )

    # -- running -------------------------------------------------------------

    def step(self, state: int, symbol: str) -> int:
        """One transition; unknown symbols are rejected."""
        if symbol not in self.alphabet:
            raise RegexError(f"symbol {symbol!r} is not in the DFA's alphabet")
        return self.delta[(state, symbol)]

    def run(self, word: Sequence[str], start: Optional[int] = None) -> int:
        """The state reached after reading ``word``."""
        state = self.start if start is None else start
        for symbol in word:
            state = self.step(state, symbol)
        return state

    def accepts(self, word: Sequence[str]) -> bool:
        """Membership test."""
        return self.run(word) in self.accepting

    # -- language queries ------------------------------------------------------

    def reachable_states(self) -> frozenset[int]:
        """States reachable from the start state."""
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            state = queue.popleft()
            for symbol in self.alphabet:
                succ = self.delta[(state, symbol)]
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
        return frozenset(seen)

    def is_empty(self) -> bool:
        """True when the language is empty."""
        return not (self.reachable_states() & self.accepting)

    def shortest_accepted(self) -> Optional[list[str]]:
        """A shortest accepted word, or ``None`` for the empty language."""
        if self.start in self.accepting:
            return []
        parent: dict[int, tuple[int, str]] = {}
        seen = {self.start}
        queue = deque([self.start])
        symbols = sorted(self.alphabet)
        while queue:
            state = queue.popleft()
            for symbol in symbols:
                succ = self.delta[(state, symbol)]
                if succ in seen:
                    continue
                seen.add(succ)
                parent[succ] = (state, symbol)
                if succ in self.accepting:
                    path: list[str] = []
                    current = succ
                    while current != self.start:
                        prev, sym_ = parent[current]
                        path.append(sym_)
                        current = prev
                    return list(reversed(path))
                queue.append(succ)
        return None

    def accepted_words(self, max_length: int) -> Iterable[list[str]]:
        """Yield all accepted words of length up to ``max_length``
        in length-lexicographic order.

        The frontier grows as ``|alphabet| ** max_length``; the loop
        polls the ambient governor's cancellation/deadline (without
        counting steps) so enumeration stays cooperative."""
        from repro.runtime.governor import current_governor

        governor = current_governor()
        symbols = sorted(self.alphabet)
        frontier: list[tuple[list[str], int]] = [([], self.start)]
        pending = 1024
        for _ in range(max_length + 1):
            next_frontier: list[tuple[list[str], int]] = []
            for word, state in frontier:
                pending -= 1
                if pending <= 0:
                    pending = 1024
                    governor.check()
                if state in self.accepting:
                    yield word
                for symbol in symbols:
                    next_frontier.append(
                        (word + [symbol], self.delta[(state, symbol)])
                    )
            frontier = next_frontier

    # -- boolean algebra -------------------------------------------------------

    def complemented(self) -> "DFA":
        """The DFA for the complement language over the same alphabet."""
        return DFA(
            alphabet=self.alphabet,
            n_states=self.n_states,
            start=self.start,
            accepting=frozenset(range(self.n_states)) - self.accepting,
            delta=self.delta,
        )

    def product(self, other: "DFA", combine: Callable[[bool, bool], bool]) -> "DFA":
        """Product construction; ``combine`` decides acceptance."""
        table = tuple(
            combine(a, b) for a in (False, True) for b in (False, True)
        )
        return memoized(
            "dfa.product",
            (self, other),
            lambda: self._product(other, combine),
            extra=(table,),
        )

    def _product(
        self, other: "DFA", combine: Callable[[bool, bool], bool]
    ) -> "DFA":
        if self.alphabet != other.alphabet:
            raise RegexError("product requires identical alphabets")
        symbols = sorted(self.alphabet)
        nb = other.n_states
        # per-symbol dense successor arrays for both factors
        mine = {
            symbol: [self.delta[(s, symbol)] for s in range(self.n_states)]
            for symbol in symbols
        }
        theirs = {
            symbol: [other.delta[(s, symbol)] for s in range(nb)]
            for symbol in symbols
        }
        my_acc = 0
        for s in self.accepting:
            my_acc |= 1 << s
        their_acc = 0
        for s in other.accepting:
            their_acc |= 1 << s
        # pair (a, b) is encoded as a * nb + b and interned to a dense id
        index: dict[int, int] = {}
        codes: list[int] = []
        delta: dict[tuple[int, str], int] = {}
        accepting: set[int] = set()
        queue: deque[int] = deque()

        def intern(code: int) -> int:
            state = index.get(code)
            if state is None:
                state = index[code] = len(codes)
                codes.append(code)
                queue.append(code)
                a, b = divmod(code, nb)
                if combine(bool((my_acc >> a) & 1), bool((their_acc >> b) & 1)):
                    accepting.add(state)
            return state

        start = intern(self.start * nb + other.start)
        while queue:
            code = queue.popleft()
            state = index[code]
            a, b = divmod(code, nb)
            for symbol in symbols:
                delta[(state, symbol)] = intern(
                    mine[symbol][a] * nb + theirs[symbol][b]
                )
        return DFA(
            alphabet=self.alphabet,
            n_states=len(codes),
            start=start,
            accepting=frozenset(accepting),
            delta=delta,
        )

    def intersection(self, other: "DFA") -> "DFA":
        """Language intersection."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other: "DFA") -> "DFA":
        """Language union."""
        return self.product(other, lambda a, b: a or b)

    def difference(self, other: "DFA") -> "DFA":
        """Language difference ``L(self) - L(other)``."""
        return self.product(other, lambda a, b: a and not b)

    def includes(self, other: "DFA") -> bool:
        """True when ``L(other) ⊆ L(self)``."""
        return other.difference(self).is_empty()

    def equivalent(self, other: "DFA") -> bool:
        """Language equality."""
        return self.includes(other) and other.includes(self)

    # -- normalization ---------------------------------------------------------

    def minimized(self) -> "DFA":
        """Moore partition-refinement minimization (reachable part only)."""
        return memoized("dfa.minimized", (self,), self._minimized)

    def _minimized(self) -> "DFA":
        reachable = sorted(self.reachable_states())
        symbols = sorted(self.alphabet)
        # dense view of the reachable part: position i is state reachable[i]
        position = {state: i for i, state in enumerate(reachable)}
        n = len(reachable)
        succ = [
            [position[self.delta[(state, symbol)]] for state in reachable]
            for symbol in symbols
        ]
        acc_mask = 0
        for state in self.accepting:
            if state in position:
                acc_mask |= 1 << position[state]
        # initial partition: accepting / non-accepting
        block = [(acc_mask >> i) & 1 for i in range(n)]
        while True:
            signatures: dict[tuple, int] = {}
            new_block = [0] * n
            for i in range(n):
                signature = (
                    block[i],
                    tuple(block[row[i]] for row in succ),
                )
                block_id = signatures.get(signature)
                if block_id is None:
                    block_id = signatures[signature] = len(signatures)
                new_block[i] = block_id
            if len(signatures) == len(set(block)):
                block = new_block
                break
            block = new_block
        n_blocks = len(set(block))
        delta = {
            (block[i], symbol): block[succ[si][i]]
            for si, symbol in enumerate(symbols)
            for i in range(n)
        }
        accepting = frozenset(
            block[i] for i in range(n) if (acc_mask >> i) & 1
        )
        return DFA(
            alphabet=self.alphabet,
            n_states=n_blocks,
            start=block[position[self.start]],
            accepting=accepting,
            delta=delta,
        )

    def reversed_dfa(self) -> "DFA":
        """DFA for the reversed language (reverse NFA, then determinize)."""
        return determinize(self.to_nfa().reversed(), self.alphabet)

    def to_nfa(self) -> NFA:
        """View this DFA as an NFA."""
        return NFA(
            n_states=self.n_states,
            start=self.start,
            accepting=self.accepting,
            delta={
                key: frozenset([target]) for key, target in self.delta.items()
            },
            epsilon={},
        )


def determinize(nfa: NFA, alphabet: Iterable[str]) -> DFA:
    """Subset construction, producing a complete DFA over ``alphabet``."""
    alpha = frozenset(alphabet)
    return memoized(
        "dfa.determinize",
        (nfa,),
        lambda: _determinize(nfa, alpha),
        extra=(tuple(sorted(alpha)),),
    )


def _determinize(nfa: NFA, alpha: frozenset[str]) -> DFA:
    symbols = sorted(alpha)
    n = nfa.n_states
    # epsilon closure of every single state, as bitmasks, by fixpoint
    closure = [(1 << s) for s in range(n)]
    for state, targets in nfa.epsilon.items():
        for target in targets:
            closure[state] |= 1 << target
    changed = True
    while changed:
        changed = False
        for s in range(n):
            mask = closure[s]
            gathered = mask
            remaining = mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                gathered |= closure[low.bit_length() - 1]
            if gathered != mask:
                closure[s] = gathered
                changed = True
    # per-symbol one-step masks (before closure)
    move: dict[str, list[int]] = {symbol: [0] * n for symbol in symbols}
    for (state, symbol), targets in nfa.delta.items():
        if symbol in move:
            row = move[symbol]
            for target in targets:
                row[state] |= closure[target]
    acc_mask = 0
    for state in nfa.accepting:
        acc_mask |= 1 << state

    index: dict[int, int] = {}
    delta: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    queue: deque[int] = deque()

    def intern(mask: int) -> int:
        state_id = index.get(mask)
        if state_id is None:
            state_id = index[mask] = len(index)
            queue.append(mask)
            if mask & acc_mask:
                accepting.add(state_id)
        return state_id

    start_mask = 0
    for state in nfa.initial_states():
        start_mask |= 1 << state
    start = intern(start_mask)
    while queue:
        mask = queue.popleft()
        state_id = index[mask]
        for symbol in symbols:
            row = move[symbol]
            succ = 0
            remaining = mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                succ |= row[low.bit_length() - 1]
            delta[(state_id, symbol)] = intern(succ)
    return DFA(
        alphabet=alpha,
        n_states=len(index),
        start=start,
        accepting=frozenset(accepting),
        delta=delta,
    )


def compile_regex(expr: Regex, alphabet: Optional[Iterable[str]] = None) -> DFA:
    """Compile a (possibly generalized) regular expression to a minimal DFA.

    Plain subexpressions go through the Thompson NFA; intersection and
    complement are handled by the DFA boolean algebra.  ``alphabet``
    defaults to the symbols occurring in the expression, but complement is
    only meaningful when the intended alphabet is passed explicitly.
    """
    alpha = frozenset(alphabet) if alphabet is not None else expr.symbols()
    extra = expr.symbols() - alpha
    if extra:
        raise RegexError(f"expression uses symbols outside the alphabet: {extra}")
    return memoized(
        "re.compile",
        (expr,),
        lambda: _compile(expr, alpha),
        extra=(tuple(sorted(alpha)),),
    )


def _compile(expr: Regex, alphabet: frozenset[str]) -> DFA:
    if isinstance(expr, Intersect):
        return (
            _compile(expr.first, alphabet)
            .intersection(_compile(expr.second, alphabet))
            .minimized()
        )
    if isinstance(expr, Complement):
        return _compile(expr.inner, alphabet).complemented().minimized()
    if expr.is_plain():
        return determinize(nfa_from_regex(expr), alphabet).minimized()
    # A plain operator above a generalized subexpression: recurse through it.
    from repro.regex.syntax import Concat, Star, Union  # local to avoid cycle noise

    if isinstance(expr, Union):
        return (
            _compile(expr.first, alphabet)
            .union(_compile(expr.second, alphabet))
            .minimized()
        )
    if isinstance(expr, Concat):
        first = _compile(expr.first, alphabet)
        second = _compile(expr.second, alphabet)
        return determinize(
            _concat_nfa(first.to_nfa(), second.to_nfa()), alphabet
        ).minimized()
    if isinstance(expr, Star):
        inner = _compile(expr.inner, alphabet)
        return determinize(
            _star_nfa(inner.to_nfa(), plus=expr.plus), alphabet
        ).minimized()
    raise RegexError(f"cannot compile {expr!r}")


def _concat_nfa(first: NFA, second: NFA) -> NFA:
    """NFA for the concatenation ``L(first) . L(second)``."""
    offset = first.n_states
    delta: dict[tuple[int, str], frozenset[int]] = dict(first.delta)
    for (state, symbol), targets in second.delta.items():
        delta[(state + offset, symbol)] = frozenset(t + offset for t in targets)
    epsilon: dict[int, set[int]] = {
        state: set(targets) for state, targets in first.epsilon.items()
    }
    for state, targets in second.epsilon.items():
        epsilon.setdefault(state + offset, set()).update(
            t + offset for t in targets
        )
    for acc in first.accepting:
        epsilon.setdefault(acc, set()).add(second.start + offset)
    return NFA(
        n_states=first.n_states + second.n_states,
        start=first.start,
        accepting=frozenset(acc + offset for acc in second.accepting),
        delta=delta,
        epsilon={key: frozenset(value) for key, value in epsilon.items()},
    )


def _star_nfa(inner: NFA, plus: bool = False) -> NFA:
    """NFA for ``L(inner)*`` (or ``L(inner)+`` when ``plus``)."""
    new_start = inner.n_states
    epsilon: dict[int, set[int]] = {
        state: set(targets) for state, targets in inner.epsilon.items()
    }
    epsilon.setdefault(new_start, set()).add(inner.start)
    for acc in inner.accepting:
        epsilon.setdefault(acc, set()).add(inner.start)
    accepting = set(inner.accepting)
    if not plus:
        accepting.add(new_start)
    return NFA(
        n_states=inner.n_states + 1,
        start=new_start,
        accepting=frozenset(accepting),
        delta=dict(inner.delta),
        epsilon={key: frozenset(value) for key, value in epsilon.items()},
    )


def language_is_empty(expr: Regex, alphabet: Optional[Iterable[str]] = None) -> bool:
    """Decide emptiness of a (generalized) regular expression.

    This is the classical decision procedure whose star-free variant is
    non-elementary (Stockmeyer); Theorem 4.8 reduces it to typechecking.
    """
    return compile_regex(expr, alphabet).is_empty()
