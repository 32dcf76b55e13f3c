"""Integer-interned, bitmask-backed views of tree automata.

The boolean algebra of `BottomUpTA` (and the DFA layer in
``repro.regex.dfa``) used to manipulate frozensets of arbitrary hashable
states.  This module provides the shared machinery for the bitset core:

* an *intern table* (:class:`TAIndex`) that maps an automaton's states to
  dense indices ``0..n-1`` once, cached on the automaton object;
* *bitmask conventions*: a set of states is an arbitrary-width Python
  ``int`` whose bit ``i`` is set iff state ``order[i]`` is in the set, so
  union is ``|``, intersection ``&``, subset test ``a & b == a``, and
  membership ``(mask >> i) & 1``;
* popcount/iteration helpers (:func:`bit_indices`, :func:`mask_of`,
  :func:`popcount`) built on ``int.bit_count`` / ``int.bit_length``.

The original frozenset implementations live on in the test suite as an
executable oracle (``tests/reference.py``): the differential suites run
every operation both ways and compare the results.

The intern order is *deterministic* (states sorted by their process-stable
textual form), so anything rendered "in intern table order" — e.g. the
subset states produced by ``determinized(keep_subsets=True)`` — prints
identically across processes and hash seeds.

Fingerprints (``repro.runtime.cache``) are computed from the automaton's
*structure* under a canonical state numbering, never from masks or intern
indices, so memo keys are representation-independent: a bitset-built and
an oracle-built automaton with the same rules fingerprint identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

from repro.runtime.cache import stable_repr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.automata.bottom_up import BottomUpTA

State = Hashable

# -- bitmask helpers -----------------------------------------------------------


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """The bitmask with exactly the given bit positions set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def popcount(mask: int) -> int:
    """Number of set bits (states in the set)."""
    return mask.bit_count()


# -- interned view of a BottomUpTA ---------------------------------------------

_INDEX_ATTR = "_repro_taidx"


class TAIndex:
    """Dense integer view of a :class:`BottomUpTA`.

    Attributes:
        n: number of states.
        order: tuple of states; ``order[i]`` is the state interned at ``i``.
            The order is states sorted by :func:`stable_repr`, hence
            deterministic across processes.
        index: inverse mapping ``state -> i``.
        leaf: ``symbol -> target mask`` for leaf rules.
        pair: ``symbol -> {left_index * n + right_index: target mask}`` for
            internal rules (sparse: only keys with at least one target).
        accepting_mask: mask of accepting states.
    """

    __slots__ = ("n", "order", "index", "leaf", "pair", "accepting_mask")

    def __init__(self, ta: "BottomUpTA") -> None:
        order = tuple(sorted(ta.states, key=stable_repr))
        index = {state: i for i, state in enumerate(order)}
        self.n = len(order)
        self.order = order
        self.index = index
        self.leaf = {
            symbol: mask_of(index[q] for q in targets)
            for symbol, targets in ta.leaf_rules.items()
        }
        pair: dict[str, dict[int, int]] = {}
        n = self.n
        for (symbol, left, right), targets in ta.rules.items():
            row = pair.setdefault(symbol, {})
            row[index[left] * n + index[right]] = mask_of(
                index[q] for q in targets
            )
        self.pair = pair
        self.accepting_mask = mask_of(index[q] for q in ta.accepting)

    def states_of(self, mask: int) -> list[State]:
        """The states of ``mask`` in intern (ascending index) order."""
        order = self.order
        return [order[i] for i in bit_indices(mask)]


def ta_index(ta: "BottomUpTA") -> TAIndex:
    """The interned view of ``ta``, built once and cached on the object."""
    cached = getattr(ta, _INDEX_ATTR, None)
    if cached is None:
        cached = TAIndex(ta)
        # BottomUpTA is a frozen dataclass; stash the view the same way the
        # fingerprint cache does.
        object.__setattr__(ta, _INDEX_ATTR, cached)
    return cached


# -- deterministic subset states ----------------------------------------------


class SubsetState(frozenset):
    """A ``determinized(keep_subsets=True)`` state with a stable rendering.

    Behaves exactly like the frozenset of input states it wraps (hashing,
    equality, ``&`` against plain frozensets), but its ``repr`` lists the
    members in the input automaton's intern-table order, so escaping state
    names print identically across processes regardless of hash seed.
    """

    def __new__(cls, members_in_order: Iterable[State]) -> "SubsetState":
        members = tuple(members_in_order)
        self = super().__new__(cls, members)
        self._members = members
        return self

    def __reduce__(self):
        return (SubsetState, (self._members,))

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(member) for member in self._members) + "}"
