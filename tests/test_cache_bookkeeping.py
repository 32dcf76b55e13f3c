"""Memo-table bookkeeping on the typecheck path.

* **Derivation keys.**  A pebble automaton the memo table returns
  carries a digest of its memo key, and keys built on it never hash it
  structurally again; the digest still tells apart transducers that
  differ only in state names.
* **Entry sizes** come from table lengths.  The deep ``sys.getsizeof``
  walk they replaced is kept here as the reference they must stay
  within 0.5x-2x of, and the byte budget still evicts.
* **Trim and quotient** of the product are one memoized op, so a warm
  repeat of a lazy-route check does neither.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.lang import (
    Apply,
    Out,
    Stylesheet,
    Template,
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
from repro.regex import compile_regex, concat, star, sym, union
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    GLOBAL_CACHE,
    MemoCache,
    cache_disabled,
    clear_cache,
    entry_size,
    memo_key,
    tracked_keys,
)
from repro.runtime.trace import Tracer, tracing
from repro.trees import BTree, encoded_alphabet
from repro.typecheck import typecheck
from repro.typecheck.engine import complement_output_type
from repro.xmlio import parse_dtd

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


def _derivation(automaton) -> str:
    return getattr(automaton, "_repro_derivation")


class TestDerivationKeys:
    @pytest.mark.parametrize("method,op", [
        ("exact", "pebble.to_regular"),
        ("lazy", "routing.lazy-backward"),
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
            result = typecheck(*_wrap_job(WRAP_BAD), method=method)
        assert not result.ok
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
    the memo table does): product, walking automaton, summary."""
    _, not_tau2 = complement_output_type(machine, tau2)
    product = transducer_times_automaton(machine, not_tau2)
    sizes = {"product": (entry_size(product), _deep_size(product))}
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
        first = typecheck(*_wrap_job(WRAP_BAD), method="auto")

        def spy(automaton):
            raise AssertionError("the warm check re-quotiented its product")

        monkeypatch.setattr(to_regular, "quotient_pebble_automaton", spy)
        tracer = Tracer()
        with tracing(tracer):
            second = typecheck(*_wrap_job(WRAP_BAD), method="auto")
        (trim,) = _spans(tracer.root, "pebble.trim-quotient")
        assert trim.attrs["cache"] == "hit"
        assert second.method == first.method == "lazy-backward"
        assert (second.ok, second.counterexample_input,
                second.counterexample_output) \
            == (first.ok, first.counterexample_input,
                first.counterexample_output)

    def test_without_the_cache_the_verdict_and_witness_agree(self):
        cached = typecheck(*_wrap_job(WRAP_BAD), method="auto")
        with cache_disabled():
            first = typecheck(*_wrap_job(WRAP_BAD), method="auto")
            second = typecheck(*_wrap_job(WRAP_BAD), method="auto")
        for result in (first, second):
            assert (result.ok, result.counterexample_input,
                    result.counterexample_output) \
                == (cached.ok, cached.counterexample_input,
                    cached.counterexample_output)
