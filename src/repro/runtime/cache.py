"""Memoized automata algebra: structural fingerprints + a bounded LRU.

The exact pipeline of Theorem 4.4 is dominated by repeated automata
algebra — the same determinizations, products, complements and
minimizations are rebuilt over and over across typechecking runs (and
even *within* one run: every per-level compilation of
:mod:`repro.pebble.to_regular` re-derives structurally identical
intermediate automata).  Frisch & Hosoya's observation for macro tree
transducers applies verbatim here: practical typechecking lives or dies
on sharing.  This module provides the sharing:

* **Structural fingerprints** (:func:`fingerprint`) for
  :class:`~repro.automata.bottom_up.BottomUpTA`,
  :class:`~repro.regex.dfa.DFA`, :class:`~repro.regex.nfa.NFA`,
  :class:`~repro.regex.syntax.Regex` and
  :class:`~repro.pebble.automaton.PebbleAutomaton`: a canonical renaming
  of the state set followed by a content hash, cached on the object, so
  structurally identical values key to the same table slot no matter how
  their states happen to be named.  Equal fingerprints imply *structural
  isomorphism* (identical rule tables under the canonical numbering),
  which is the soundness contract every memoized operation relies on.
* **Derivation keys** for the pebble automata the memo table itself
  produces (the Prop 4.6 product and its trimmed quotient): such an
  automaton records a digest of the memo key it was returned under, and
  :func:`memo_key` uses that digest in place of its fingerprint — so the
  largest values of the pipeline are never hashed structurally.
* **Source keys** for the two front-end constructions, the compiled
  stylesheet and the automaton of a DTD (:func:`set_source_key`): a
  digest of the construction and its sources' fingerprints, kept in
  the same slot, so a repeated check keys on the stylesheet and DTDs
  it was given rather than on the automata built from them.  The key
  also remembers those sources (:func:`source_of`), so a route can
  reason about a compiled stylesheet as the stylesheet it came from;
  the digest is taken only when a memo key first needs it.
* **A process-wide bounded LRU memo table** (:data:`GLOBAL_CACHE`) keyed
  on ``(operation, fingerprints, extras)``.  :func:`memoized` is the
  single entry point the algebra call sites use.  Each entry's size for
  the byte budget is counted from the table lengths the value already
  holds (:func:`entry_size`), not by walking its object graph, so
  storing an entry never walks the automaton either.
* **Outermost keys.**  Inside the compute of a miss, an operation whose
  inputs are not all keyed already (a derivation, a source key or a
  cached fingerprint) just computes: the outer operation's key covers
  its result, so keying and storing the fresh intermediates of a chain
  (regex → NFA → DFA → minimal DFA) buys nothing a later check could
  look up.  A nested operation on keyed inputs still uses both tiers.

Composition with the resource governor (PR 1):

* Entries are written **only on successful completion** — a
  :class:`~repro.errors.ResourceExhausted` raised mid-operation
  propagates before the store, so an exhausted run never poisons the
  table with a partial result.
* A cache **hit still charges one nominal governor step**
  (:meth:`~repro.runtime.governor.ResourceGovernor.tick`), so step
  budgets keep measuring work requested rather than becoming no-ops the
  moment the cache is warm — and a hit can still trip an
  already-exhausted budget or deadline.  A nested operation that just
  computes charges only what its compute ticks.

Observability: :func:`cache_stats` exposes hit/miss/store/eviction/bytes
counters, surfaced by ``typecheck()`` (``stats["cache"]``) and by the
CLI's ``--cache-stats`` flag; ``--no-cache`` (or ``REPRO_CACHE=0`` in
the environment) disables the table entirely for A/B runs.  Under an
ambient tracer (:mod:`repro.runtime.trace`), every :func:`memoized`
call additionally opens a span named after the operation — tagged
``cache="hit"/"miss"/"nested"`` with ``fingerprint`` / ``compute`` /
``memo-store`` sub-spans.  Untraced, the same code runs against the
null tracer, whose spans are no-ops.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

from repro.runtime.governor import current_governor
from repro.runtime.trace import current_tracer

__all__ = [
    "MemoCache",
    "GLOBAL_CACHE",
    "fingerprint",
    "stable_repr",
    "memoized",
    "memo_key",
    "set_source_key",
    "source_of",
    "cache_stats",
    "clear_cache",
    "configure_cache",
    "cache_disabled",
    "install_persistent",
    "persistent_tier",
    "tracked_keys",
    "quarantine_keys",
]

#: Defaults for the process-wide table; tuned so a heavy typechecking
#: workload keeps its working set without the table growing unboundedly.
DEFAULT_MAX_ENTRIES = 4096
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


# ---------------------------------------------------------------------------
# entry sizes (approximate, for the bytes budget/counter)
# ---------------------------------------------------------------------------


def entry_size(value: Any) -> int:
    """Estimated bytes held by the memo value ``value``.

    Counted from the lengths of the tables the value already holds
    (states, rules, transitions), never by walking its object graph,
    which costs about as much as fingerprinting the value: a bottom-up
    tree automaton or DFA takes a few ``len`` calls, a top-down or
    pebble automaton adds one C-level pass summing its transitions'
    target counts or its guards' action counts, and a witness tree
    counts its distinct nodes.  Containers (the per-level results
    of :mod:`repro.pebble.to_regular`) add up their items; anything else
    counts its ``sys.getsizeof``.  The number is an estimate for the
    byte budget, not an accounting guarantee.
    """
    total = 0
    stack = [value]
    while stack:
        item = stack.pop()
        sizer = _sizer(type(item))
        if sizer is not None:
            total += sizer(item)
            continue
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
    return total


# The per-element byte counts below were fitted to a deep
# ``sys.getsizeof`` walk (shared objects counted once) of every value the
# typecheck pipeline stores on the repository's test and benchmark jobs;
# each estimate falls within 0.5x-2x of that walk, which
# tests/test_cache_bookkeeping.py keeps as the reference.  Pebble
# automata spread the most: their action objects are shared across
# guards to a degree no table length records.


def _ta_size(ta: Any) -> int:
    alphabet = ta.alphabet
    return (
        800
        + 80 * (len(alphabet.leaves) + len(alphabet.internals))
        + 220 * len(ta.states)
        + 400 * (len(ta.rules) + len(ta.leaf_rules))
    )


def _pebble_size(automaton: Any) -> int:
    return (
        3000
        + 100 * len(automaton.level_of)
        + 100 * len(automaton.rules)
        + 80 * sum(map(len, automaton.rules.values()))
    )


def _topdown_size(ta: Any) -> int:
    return (
        1500
        + 300 * len(ta.states)
        + 150 * len(ta.final)
        + 200 * (len(ta.transitions) + len(ta.silent))
        + 70 * (
            sum(map(len, ta.transitions.values()))
            + sum(map(len, ta.silent.values()))
        )
    )


def _dfa_size(dfa: Any) -> int:
    return 700 + 115 * len(dfa.delta)


def _tree_size(tree: Any) -> int:
    # A tree holds no table: count its distinct nodes.  Witness trees
    # share subtrees, so counting with multiplicity could be exponential.
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return 60 + 100 * len(seen)


#: Per-class sizer (``None`` for values sized by ``sys.getsizeof``).
_SIZERS: dict[type, Optional[Callable[[Any], int]]] = {}


def _sizer(cls: type) -> Optional[Callable[[Any], int]]:
    try:
        return _SIZERS[cls]
    except KeyError:
        pass
    # Imported lazily, like the fingerprint dispatch below.
    from repro.automata.bottom_up import BottomUpTA
    from repro.automata.top_down import TopDownTA
    from repro.pebble.automaton import PebbleAutomaton
    from repro.regex.dfa import DFA
    from repro.trees.ranked import BTree

    sizer = None
    for base, candidate in (
        (BottomUpTA, _ta_size),
        (TopDownTA, _topdown_size),
        (PebbleAutomaton, _pebble_size),
        (DFA, _dfa_size),
        (BTree, _tree_size),
    ):
        if issubclass(cls, base):
            sizer = candidate
            break
    _SIZERS[cls] = sizer
    return sizer


# ---------------------------------------------------------------------------
# structural fingerprints
# ---------------------------------------------------------------------------

_FP_ATTR = "_repro_fp"
_FP_EXACT_ATTR = "_repro_fp_exact"
_DERIVATION_ATTR = "_repro_derivation"


def stable_repr(obj: Any) -> str:
    """A *process-stable* textual form of ``obj``.

    ``repr`` is not stable across interpreter invocations for unordered
    containers: iteration order of a ``frozenset`` of strings follows the
    per-process string hash seed, so ``repr(frozenset({"a", "b"}))`` can
    differ between two runs of the same program.  Fingerprints built on
    ``repr`` would therefore never collide across processes — fatal for a
    cache that is supposed to be shared through disk segments and to
    survive daemon restarts.  This helper renders sets and dicts in
    sorted order, tuples/lists positionally, and dataclasses field by
    field, falling back to ``repr`` only for atoms whose ``repr`` is
    already deterministic (strings, numbers, ``None``).
    """
    return _stable_repr(obj, _ReprMemo())


#: Per-class cache of dataclass field names (``None`` for non-dataclasses).
_DATACLASS_FIELDS: dict[type, Optional[tuple]] = {}


class _ReprMemo:
    """Memo for :func:`_stable_repr`, shareable across calls.

    Hashable values are keyed by value, so equal-but-distinct objects
    (e.g. the same product state rebuilt per rule) render once; an
    ``id``-keyed front cache makes repeat lookups of the *same* object
    skip value hashing (dataclass hashes are recomputed per lookup, which
    dominates on interned rule tables).  Unhashable containers use the
    ``id`` key only.  Every id-keyed object is pinned in ``keep`` so no
    id is reused while the memo is alive."""

    __slots__ = ("by_value", "by_id", "keep")

    def __init__(self) -> None:
        self.by_value: dict = {}
        self.by_id: dict = {}
        self.keep: list = []


def _stable_repr(obj: Any, memo: _ReprMemo) -> str:
    """:func:`stable_repr` worker; byte-identical to the naive recursion."""
    if isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return repr(obj)
    cached = memo.by_id.get(id(obj))
    if cached is not None:
        return cached
    try:
        cached = memo.by_value.get(obj)
        hashable = True
    except TypeError:
        cached = None
        hashable = False
    if cached is not None:
        memo.by_id[id(obj)] = cached
        memo.keep.append(obj)
        return cached
    if isinstance(obj, (frozenset, set)):
        rendered = (
            "{" + ",".join(sorted(_stable_repr(i, memo) for i in obj)) + "}"
        )
    elif isinstance(obj, tuple):
        inner = ",".join(_stable_repr(i, memo) for i in obj)
        rendered = "(" + inner + ("," if len(obj) == 1 else "") + ")"
    elif isinstance(obj, list):
        rendered = "[" + ",".join(_stable_repr(i, memo) for i in obj) + "]"
    elif isinstance(obj, dict):
        items = sorted(
            (_stable_repr(k, memo), _stable_repr(v, memo))
            for k, v in obj.items()
        )
        rendered = "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    else:
        cls = type(obj)
        try:
            names = _DATACLASS_FIELDS[cls]
        except KeyError:
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                names = tuple(f.name for f in dataclasses.fields(obj))
            else:
                names = None
            _DATACLASS_FIELDS[cls] = names
        if names is None:
            return repr(obj)
        inner = ",".join(
            f"{name}={_stable_repr(getattr(obj, name), memo)}"
            for name in names
        )
        rendered = f"{cls.__name__}({inner})"
    if hashable:
        memo.by_value[obj] = rendered
    memo.by_id[id(obj)] = rendered
    memo.keep.append(obj)
    return rendered


def _digest(tag: str, payload: Any) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(repr(payload).encode("utf-8", "backslashreplace"))
    return f"{tag}:{hasher.hexdigest()}"


def fingerprint(obj: Any, exact: bool = False) -> str:
    """A stable structural fingerprint of ``obj``, cached on the object.

    The default (canonical) fingerprint renames states canonically before
    hashing, so deterministic automata that differ only in state naming
    collide on purpose — that is what lets equivalent ``minimized()``
    results share cache entries.  ``exact=True`` additionally hashes the
    actual state names; operations whose *results* embed input state
    names (e.g. ``determinized(keep_subsets=True)``) key on this variant
    so a hit never returns an object built from someone else's states.
    """
    attr = _FP_EXACT_ATTR if exact else _FP_ATTR
    cached = getattr(obj, attr, None)
    if cached is not None:
        return cached
    fp = _compute_fingerprint(obj, exact)
    try:
        object.__setattr__(obj, attr, fp)
    except (AttributeError, TypeError):  # __slots__ or builtins: recompute
        pass
    return fp


def _compute_fingerprint(obj: Any, exact: bool) -> str:
    # Imported lazily: this module must stay importable from the automata
    # layers without a cycle.
    from repro.automata.bottom_up import BottomUpTA
    from repro.pebble.automaton import PebbleAutomaton
    from repro.regex.dfa import DFA
    from repro.regex.nfa import NFA
    from repro.regex.syntax import Regex

    if isinstance(obj, BottomUpTA):
        return _ta_fingerprint(obj, exact)
    if isinstance(obj, DFA):
        return _dfa_fingerprint(obj)
    if isinstance(obj, NFA):
        return _nfa_fingerprint(obj)
    if isinstance(obj, Regex):
        return _regex_fingerprint(obj)
    if isinstance(obj, PebbleAutomaton):
        return _pebble_fingerprint(obj)
    from repro.automata.top_down import TopDownTA
    from repro.pebble.transducer import PebbleTransducer

    if isinstance(obj, PebbleTransducer):
        return _transducer_fingerprint(obj)
    if isinstance(obj, TopDownTA):
        return _topdown_fingerprint(obj)
    from repro.lang.xslt import Stylesheet
    from repro.xmlio.dtd import DTD

    if isinstance(obj, DTD):
        return _dtd_fingerprint(obj)
    if isinstance(obj, Stylesheet):
        return _stylesheet_fingerprint(obj)
    raise TypeError(f"no structural fingerprint for {type(obj).__name__}")


def _ta_state_order(ta: Any) -> list:
    """A canonical ordering of the state set.

    For deterministic automata the order is derived purely from the rule
    structure (discovery order over sorted symbols, the tree-automaton
    analogue of canonical DFA numbering), so it is invariant under state
    renaming.  Nondeterministic automata fall back to
    :func:`stable_repr`-sorted states — deterministic across processes,
    merely not renaming-invariant (structurally identical objects still
    collide).  Unreached states are appended in the same order.
    """
    order: dict[Any, int] = {}
    if ta.is_deterministic():
        # Frontier-restricted discovery over the interned view.  Pairs of
        # two already-known states were tried in an earlier round and can
        # only re-yield already-numbered states, so skipping them changes
        # nothing about the sequence of additions — the numbering is
        # byte-identical to the naive known x known fixpoint.
        from repro.automata.bitset import bit_indices, ta_index

        idx = ta_index(ta)
        states_by_i, intern, n = idx.order, idx.index, idx.n
        for symbol in sorted(ta.leaf_rules):
            for state in ta.leaf_rules[symbol]:  # singleton
                if state not in order:
                    order[state] = len(order)
        internals = sorted(ta.alphabet.internals)
        pair = idx.pair
        known = [intern[state] for state in order]
        new_ids = set(known)
        while new_ids:
            current = list(known)
            fresh: list[int] = []
            for symbol in internals:
                row = pair.get(symbol)
                if not row:
                    continue
                for left in current:
                    left_new = left in new_ids
                    base = left * n
                    for right in current:
                        if not left_new and right not in new_ids:
                            continue
                        tmask = row.get(base + right)
                        if not tmask:
                            continue
                        for target in bit_indices(tmask):
                            state = states_by_i[target]
                            if state not in order:
                                order[state] = len(order)
                                fresh.append(target)
            known.extend(fresh)
            new_ids = set(fresh)
    for state in sorted(ta.states - set(order), key=stable_repr):
        order[state] = len(order)
    return sorted(order, key=order.get)


def _ta_fingerprint(ta: Any, exact: bool) -> str:
    ordered = _ta_state_order(ta)
    index = {state: i for i, state in enumerate(ordered)}
    payload = [
        sorted(ta.alphabet.leaves),
        sorted(ta.alphabet.internals),
        len(ordered),
        sorted(
            (symbol, sorted(index[q] for q in targets))
            for symbol, targets in ta.leaf_rules.items()
        ),
        sorted(
            (symbol, index[left], index[right],
             sorted(index[q] for q in targets))
            for (symbol, left, right), targets in ta.rules.items()
        ),
        sorted(index[q] for q in ta.accepting),
    ]
    if exact:
        payload.append([stable_repr(state) for state in ordered])
        return _digest("ta!", payload)
    return _digest("ta", payload)


def _dfa_fingerprint(dfa: Any) -> str:
    # canonical numbering: BFS from the start state over sorted symbols;
    # unreachable states appended in numeric order.
    symbols = sorted(dfa.alphabet)
    index = {dfa.start: 0}
    frontier = [dfa.start]
    while frontier:
        state = frontier.pop(0)
        for symbol in symbols:
            succ = dfa.delta[(state, symbol)]
            if succ not in index:
                index[succ] = len(index)
                frontier.append(succ)
    for state in range(dfa.n_states):
        if state not in index:
            index[state] = len(index)
    payload = [
        symbols,
        dfa.n_states,
        index[dfa.start],
        sorted(
            (index[state], symbol, index[target])
            for (state, symbol), target in dfa.delta.items()
        ),
        sorted(index[state] for state in dfa.accepting),
    ]
    return _digest("dfa", payload)


def _nfa_fingerprint(nfa: Any) -> str:
    payload = [
        nfa.n_states,
        nfa.start,
        sorted(
            (state, symbol, sorted(targets))
            for (state, symbol), targets in nfa.delta.items()
        ),
        sorted(
            (state, sorted(targets))
            for state, targets in nfa.epsilon.items()
        ),
        sorted(nfa.accepting),
    ]
    return _digest("nfa", payload)


def _regex_fingerprint(expr: Any) -> str:
    from repro.regex.syntax import Star, Sym

    # iterative pre-order with arities: unambiguous, no recursion limit.
    tokens: list[str] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        tokens.append(type(node).__name__)
        if isinstance(node, Sym):
            tokens.append(node.symbol)
        elif isinstance(node, Star):
            tokens.append("+" if node.plus else "*")
        children = node.children()
        tokens.append(str(len(children)))
        stack.extend(reversed(children))
    return _digest("re", tokens)


def _guard_rows(rules: Any, memo: _ReprMemo) -> list:
    """The sorted guard-table rows of a pebble rule set, rendered.

    Rule keys are (symbol, state, bits) triples whose symbol/bits
    components repeat heavily, so their tuple rendering is inlined here
    (producing exactly the string :func:`_stable_repr` would).
    """
    render = _stable_repr
    sym_cache: dict[str, str] = {}
    bits_cache: dict[tuple, str] = {}
    rows: list[tuple[str, list[str]]] = []
    for (symbol, state, bits), actions in rules.items():
        s = sym_cache.get(symbol)
        if s is None:
            s = sym_cache[symbol] = repr(symbol)
        b = bits_cache.get(bits)
        if b is None:
            b = bits_cache[bits] = render(bits, memo)
        rows.append((
            f"({s},{render(state, memo)},{b})",
            [render(action, memo) for action in actions],
        ))
    rows.sort()
    return rows


def _pebble_fingerprint(automaton: Any) -> str:
    # One shared repr memo: the same (equal) state objects appear in
    # thousands of rule keys and actions, so render each only once.
    memo = _ReprMemo()
    render = _stable_repr
    rows = _guard_rows(automaton.rules, memo)
    payload = [
        sorted(automaton.alphabet.leaves),
        sorted(automaton.alphabet.internals),
        [
            sorted(render(state, memo) for state in level)
            for level in automaton.levels
        ],
        render(automaton.initial, memo),
        rows,
    ]
    return _digest("pa", payload)


def _transducer_fingerprint(transducer: Any) -> str:
    # State names are hashed exactly (no canonical renaming): operations
    # keyed on a transducer build results that embed its state names, so
    # a hit must never return an object made of someone else's states.
    memo = _ReprMemo()
    render = _stable_repr
    rows = _guard_rows(transducer.rules, memo)
    payload = [
        sorted(transducer.input_alphabet.leaves),
        sorted(transducer.input_alphabet.internals),
        sorted(transducer.output_alphabet.leaves),
        sorted(transducer.output_alphabet.internals),
        [
            sorted(render(state, memo) for state in level)
            for level in transducer.levels
        ],
        render(transducer.initial, memo),
        rows,
    ]
    return _digest("pt", payload)


def _topdown_fingerprint(ta: Any) -> str:
    # Top-down type automata are small (DTD-sized), so a plain exact
    # rendering is cheap; like the transducer fingerprint, state names
    # are part of the hash because product states embed them.
    memo = _ReprMemo()
    render = _stable_repr
    payload = [
        sorted(ta.alphabet.leaves),
        sorted(ta.alphabet.internals),
        sorted(render(state, memo) for state in ta.states),
        render(ta.initial, memo),
        sorted(render(pair, memo) for pair in ta.final),
        sorted(
            (render(key, memo), sorted(render(pair, memo) for pair in pairs))
            for key, pairs in ta.transitions.items()
        ),
        sorted(
            (render(key, memo), sorted(render(q, memo) for q in targets))
            for key, targets in ta.silent.items()
        ),
    ]
    return _digest("tda", payload)


# Sources of the front-end constructions (see set_source_key).  Both are
# hashed with their element names as written, like a regex's symbols:
# the automata built from them embed those names.


def _dtd_fingerprint(dtd: Any) -> str:
    # the content models' own fingerprints, which re.compile keys on too
    payload = [
        dtd.root,
        sorted(
            (name, fingerprint(model)) for name, model in dtd.content.items()
        ),
    ]
    return _digest("dtd", payload)


def _stylesheet_fingerprint(stylesheet: Any) -> str:
    return _digest("xsl", stable_repr(stylesheet.templates))


# ---------------------------------------------------------------------------
# the bounded LRU memo table
# ---------------------------------------------------------------------------


class MemoCache:
    """A bounded, thread-safe LRU memo table with observability counters.

    Entries are ``key -> (value, size_estimate)``; the table evicts
    least-recently-used entries whenever either the entry count or the
    (estimated) byte budget is exceeded.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        enabled: bool = True,
    ) -> None:
        self._lock = threading.RLock()
        self._table: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.enabled = enabled
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # -- core ------------------------------------------------------------

    _MISS = object()

    def lookup(self, key: Hashable) -> Any:
        """The cached value for ``key``, or :data:`MemoCache._MISS`."""
        with self._lock:
            entry = self._table.get(key, self._MISS)
            if entry is self._MISS:
                self.misses += 1
                return self._MISS
            self._table.move_to_end(key)
            self.hits += 1
            return entry[0]

    def store(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting LRU entries over budget."""
        size = entry_size(value)
        with self._lock:
            if key in self._table:
                self._bytes -= self._table.pop(key)[1]
            self._table[key] = (value, size)
            self._bytes += size
            self.stores += 1
            while self._table and (
                len(self._table) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, (_, evicted_size) = self._table.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._table.clear()
            self._bytes = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss/store/eviction counters."""
        with self._lock:
            self.hits = self.misses = self.stores = self.evictions = 0

    def configure(
        self,
        *,
        enabled: Optional[bool] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        """Adjust limits or toggle the cache; shrinking evicts immediately."""
        with self._lock:
            if enabled is not None:
                self.enabled = enabled
            if max_entries is not None:
                self.max_entries = max_entries
            if max_bytes is not None:
                self.max_bytes = max_bytes
            while self._table and (
                len(self._table) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, (_, evicted_size) = self._table.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1

    # -- observability ----------------------------------------------------

    def stats(self) -> dict:
        """A snapshot of the counters (safe to mutate)."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "entries": len(self._table),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }


#: The process-wide memo table every memoized operation shares.
GLOBAL_CACHE = MemoCache(
    enabled=os.environ.get("REPRO_CACHE", "1").lower()
    not in ("0", "off", "false", "no")
)

#: The process-wide persistent tier, or ``None``: a
#: :class:`repro.runtime.diskcache.DiskCache` over the canonical string
#: keys of :func:`memo_key`, installed by pool workers that have a cache
#: directory (``repro serve``).
_PERSISTENT: Optional[Any] = None

#: True within the compute of a miss (see :func:`memoized`): per
#: ``contextvars`` context, so a thread started there keys its own
#: operations as outermost.
_IN_MISS: ContextVar[bool] = ContextVar("repro_memo_in_miss", default=False)

#: When set (see :func:`tracked_keys`), every memoized operation adds its
#: canonical key here — the audit uses this to know exactly which memo
#: entries a run's verdict depended on, so a refuted verdict can
#: quarantine its whole lineage instead of nuking the cache.
_TRACKED: Optional[set] = None


@contextmanager
def tracked_keys() -> Iterator[set]:
    """Collect the memo keys of every operation run inside the block.

    Nests (the innermost tracker wins) and costs one ``is None`` check
    per memoized call when inactive, so leaving it off is free.
    """
    global _TRACKED
    previous = _TRACKED
    keys: set = set()
    _TRACKED = keys
    try:
        yield keys
    finally:
        _TRACKED = previous


def quarantine_keys(keys: Iterable[Hashable], reason: str = "") -> dict:
    """Empty *both* memo tiers (the audit's quarantine) and return
    eviction counts.

    Every in-memory entry is dropped; with a persistent tier installed,
    every live disk record and each of ``keys`` is tombstoned and
    journaled to ``quarantine.jsonl``, so no future worker or daemon
    incarnation can re-serve them.  ``keys`` (the memo keys the refuted
    run touched) cannot bound the quarantine: memo entries carry no
    dependency lineage, and a memo hit short-circuits the computation
    of its ancestors, which may be just as poisoned and would feed the
    recomputation.  A refuted verdict therefore indicts the whole tier:
    rebuilding a cache is cheap, serving a second wrong answer is not.
    """
    key_list = list(keys)
    memory = GLOBAL_CACHE.stats().get("entries", 0)
    GLOBAL_CACHE.clear()
    disk = _PERSISTENT
    disk_count = 0
    if disk is not None:
        disk_keys = sorted(set(map(str, key_list)) | set(disk.keys()))
        disk_count = disk.quarantine(disk_keys, reason=reason)
    return {
        "keys": len(key_list),
        "memory_evicted": memory,
        "disk_quarantined": disk_count,
        "purged": True,
    }


def install_persistent(disk: Optional[Any]) -> None:
    """Install ``disk``, a :class:`~repro.runtime.diskcache.DiskCache`,
    as the process-wide persistent memo tier.

    ``None`` uninstalls.  The tier is consulted on every in-memory miss
    and written through on every store (an operation nested in another's
    miss on fresh inputs makes neither), and :func:`quarantine_keys`
    tombstones its records; a persistent *miss* is one dict lookup in
    the disk cache's in-memory index.
    """
    global _PERSISTENT
    _PERSISTENT = disk


@contextmanager
def persistent_tier(disk: Any) -> Iterator[Any]:
    """Install ``disk`` as the persistent tier for a ``with`` block."""
    previous = _PERSISTENT
    install_persistent(disk)
    try:
        yield disk
    finally:
        install_persistent(previous)


def memo_key(
    operation: str, inputs: tuple, extra: tuple = (), exact: bool = False
) -> str:
    """The canonical string key of a memoized operation.

    One key format serves both tiers: the in-process
    :data:`GLOBAL_CACHE` keys its table on this string, and the
    persistent tier writes it into its segment records — which is what
    makes a segment written by one worker readable by every other worker
    and by every future daemon incarnation.  Built exclusively from
    :func:`fingerprint` and :func:`stable_repr`, so it is stable across
    processes (no hash-seed dependence) and invariant under state
    renaming wherever the fingerprints are.  An input that carries a
    derivation contributes that digest instead of its fingerprint: a
    pebble automaton :func:`memoized` returned carries a digest of an
    earlier key, and a front-end construction's result its source key
    (:func:`set_source_key`), whose digest of fingerprints the first
    key that needs it takes; both are just as stable.
    """
    fps = tuple(
        str(getattr(value, _DERIVATION_ATTR, None)
            or fingerprint(value, exact=exact))
        for value in inputs
    )
    return f"{operation}|{'|'.join(fps)}|{stable_repr(extra)}"


def set_source_key(
    value: Any, construction: str, sources: tuple, extra: tuple = ()
) -> Any:
    """Tag ``value``, built by ``construction`` from ``sources``, with
    its *source key* (:class:`SourceKey`), and return it.

    The key records the construction's name, its ``sources`` and
    ``extra`` (the construction's other arguments).  It sits in the
    derivation slot, so :func:`memo_key` uses its digest in place of
    ``value``'s fingerprint: a repeated check keys its automata on the
    stylesheet and DTDs they came from instead of hashing them.  That
    is sound only when equal keys mean identical values, state names
    included, in every process: ``construction`` must be deterministic,
    and each source's fingerprint must hash names exactly (those of a
    ``DTD`` and a ``Stylesheet`` do).  Nothing is hashed here: the
    digest is taken when a memo key first needs it.
    """
    key = SourceKey(construction, sources, extra)
    object.__setattr__(value, _DERIVATION_ATTR, key)
    return value


class SourceKey:
    """A source key (:func:`set_source_key`): the ``construction``,
    ``sources`` and ``extra`` it stands for, and their digest,
    ``str(key)``, a ``src:`` string taken over the construction's name,
    the sources' exact fingerprints and ``extra`` on first use.  Keys
    compare and hash by digest."""

    #: the digest, once taken
    _text: Optional[str] = None

    def __init__(self, construction: str, sources: tuple, extra: tuple
                 ) -> None:
        self.construction = construction
        self.sources = sources
        self.extra = extra

    def __str__(self) -> str:
        if self._text is None:
            payload = [self.construction]
            payload.extend(
                fingerprint(source, exact=True) for source in self.sources
            )
            payload.append(stable_repr(self.extra))
            self._text = _digest("src", payload)
        return self._text

    def __repr__(self) -> str:
        return f"SourceKey({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SourceKey, str)):
            return str(self) == str(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(str(self))


def source_of(value: Any) -> Optional[SourceKey]:
    """The source key ``value`` was tagged with by
    :func:`set_source_key`, or ``None`` when it has none."""
    key = getattr(value, _DERIVATION_ATTR, None)
    return key if isinstance(key, SourceKey) else None


def _derived(value: Any, key: str) -> Any:
    """``value``, tagged with its derivation when it is a pebble automaton.

    The derivation is a digest of ``key``, the memo key ``value`` was
    returned under.  :func:`memo_key` keys on it in place of the
    structural fingerprint, which for a product automaton costs more
    than building it.  That is sound because every operation returning a
    pebble automaton keys only on fingerprints that include state names,
    or on keys that stand in for them (``pebble.product`` on its
    transducer, or that transducer's source key, and its type automaton;
    ``pebble.trim-quotient`` on a pebble automaton): equal keys mean
    identical automata, state names included.  An operation that keys a
    pebble automaton result on a renaming-invariant fingerprint would
    break this.  The first derivation sticks, so an operation returning
    its input unchanged does not re-key it.
    """
    from repro.pebble.automaton import PebbleAutomaton

    if (
        isinstance(value, PebbleAutomaton)
        and getattr(value, _DERIVATION_ATTR, None) is None
    ):
        digest = hashlib.blake2b(
            key.encode("utf-8", "backslashreplace"), digest_size=16
        ).hexdigest()
        object.__setattr__(value, _DERIVATION_ATTR, f"drv:{digest}")
    return value


def memoized(
    operation: str,
    inputs: tuple,
    compute: Callable[[], Any],
    *,
    extra: tuple = (),
    exact: bool = False,
) -> Any:
    """Run ``compute()`` through the global memo table.

    ``inputs`` are fingerprinted (see :func:`fingerprint`); ``extra``
    holds additional hashable key components (flags, alphabets).  On a
    hit the ambient governor is charged one nominal step — budgets stay
    meaningful under a warm cache.  On a miss, ``compute()`` runs and its
    result is stored **only if it completes**: a ``ResourceExhausted``
    (or any other exception) leaves no entry behind.

    With a persistent tier installed (:func:`install_persistent`), an
    in-memory miss falls through to the disk cache before computing; a
    disk hit is promoted into the in-memory table (and charges the same
    nominal governor step a memory hit does), and every computed value
    is written through to disk so it outlives this process.

    A pebble automaton returned on any of these paths is tagged with its
    derivation (:func:`_derived`), so keys built on it later skip its
    fingerprint.

    Within the compute of a miss, an operation with an input that
    carries no key yet (no derivation and no cached fingerprint of the
    kind ``exact`` asks for) only runs ``compute()``: no fingerprint,
    lookup, store or nominal step.  Its result is a fresh intermediate
    of the outer operation, whose key already covers it.
    """
    cache = GLOBAL_CACHE
    tracer = current_tracer()
    # one span per memoized operation — this single hook covers the
    # whole automata algebra (bottom-up TA boolean ops, DFA ops, regex
    # compilation, per-level pebble compilation).  Untraced, every span
    # below is the null tracer's no-op.
    with tracer.span(operation) as span:
        if not cache.enabled:
            span.set(cache="disabled")
            return compute()
        if _IN_MISS.get():
            fp_attr = _FP_EXACT_ATTR if exact else _FP_ATTR
            for value in inputs:
                if getattr(value, _DERIVATION_ATTR, None) is None \
                        and getattr(value, fp_attr, None) is None:
                    span.set(cache="nested")
                    return compute()
        # keying an input without a derivation can dominate on large
        # automata (canonical renaming + content hash), so it gets its
        # own leaf span
        with tracer.span("fingerprint"):
            key = memo_key(operation, inputs, extra, exact)
        if _TRACKED is not None:
            _TRACKED.add(key)
        value = cache.lookup(key)
        if value is not MemoCache._MISS:
            current_governor().tick()
            span.set(cache="hit")
            return _derived(value, key)
        disk = _PERSISTENT
        if disk is not None:
            with tracer.span("persistent-lookup"):
                value = disk.get(key, MemoCache._MISS)
            if value is not MemoCache._MISS:
                cache.store(key, _derived(value, key))
                current_governor().tick()
                span.set(cache="persistent-hit")
                return value
        span.set(cache="miss")
        # the construction itself gets a span too, so the table's own
        # bookkeeping (lookup/store) stays separable from compute time
        token = _IN_MISS.set(True)
        try:
            with tracer.span("compute"):
                value = compute()
        finally:
            _IN_MISS.reset(token)
        # storing is bookkeeping too: the derivation tag, the entry's
        # size, and with a disk tier a pickled write-through
        with tracer.span("memo-store"):
            cache.store(key, _derived(value, key))
            if disk is not None:
                disk.put(key, value)
        return value


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------


def cache_stats() -> dict:
    """Counters of the process-wide memo table (:data:`GLOBAL_CACHE`).

    With a persistent tier installed, the snapshot additionally carries
    its counters under ``"persistent"`` (hits/misses/stores plus segment
    bookkeeping) — this is how ``typecheck()``'s ``stats["cache"]`` and
    the service's per-job result detail surface disk-tier warmth.
    """
    snapshot = GLOBAL_CACHE.stats()
    if _PERSISTENT is not None:
        snapshot["persistent"] = _PERSISTENT.stats()
    return snapshot


def clear_cache() -> None:
    """Drop every entry of the process-wide memo table."""
    GLOBAL_CACHE.clear()


def configure_cache(
    *,
    enabled: Optional[bool] = None,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> None:
    """Configure the process-wide memo table."""
    GLOBAL_CACHE.configure(
        enabled=enabled, max_entries=max_entries, max_bytes=max_bytes
    )


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Temporarily disable the process-wide memo table.

    Process-wide, not context-local: intended for A/B comparisons (the
    differential tests, ``--no-cache``, the benchmark harness), not for
    concurrent per-request toggling.
    """
    previous = GLOBAL_CACHE.enabled
    GLOBAL_CACHE.configure(enabled=False)
    try:
        yield
    finally:
        GLOBAL_CACHE.configure(enabled=previous)
