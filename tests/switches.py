"""Test-only switches: the frozenset oracle algebra and re-validation of
trusted constructions.

The library ships one implementation of each; the test suite swaps in
the other by patching, so the product reads no switch:

* :func:`oracle_algebra` runs a block with the twelve bitset-core
  operations (:data:`SUBSTITUTES`) replaced by their frozenset twins in
  :mod:`reference`, and ``oracle_algebra(False)`` runs one on the bitset
  core inside an oracle session.  Oracle runs bypass the memo tables
  entirely, so a differential test never sees a cached bitset result
  when it asks for the reference one.
* :func:`validate_trusted` makes ``PebbleAutomaton._trusted`` validate
  what it builds, so a level-preserving rewrite (product, trim,
  quotient) that emits an ill-levelled action fails.

``conftest.py`` installs either for a whole session when its environment
variable is set (:data:`ORACLE_ENV`, :data:`VALIDATE_ENV`), which is how
CI runs the suites under them.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator

import reference
from repro.automata.bottom_up import BottomUpTA
from repro.pebble.automaton import PebbleAutomaton
from repro.regex import dfa
from repro.regex.dfa import DFA
from repro.runtime.trace import current_tracer

#: Set to anything but empty or ``0``: the session runs on the oracle.
ORACLE_ENV = "REPRO_REFERENCE_ALGEBRA"
#: Set to ``1``: every ``_trusted`` construction of the session validates.
VALIDATE_ENV = "REPRO_VALIDATE_TRUSTED"


def oracle_requested() -> bool:
    return os.environ.get(ORACLE_ENV, "") not in ("", "0")


def validation_requested() -> bool:
    return os.environ.get(VALIDATE_ENV) == "1"


# Each substitute looks its oracle function up at call time, so a test
# can spy on ``reference``.


def _reachable_states(ta):
    return reference.ta_reachable_states(ta)


def _is_empty(ta):
    return reference.ta_is_empty(ta)


def _witness(ta):
    with current_tracer().span("ta.witness"):
        return reference.ta_witness(ta)


def _determinized(ta, keep_subsets=False):
    return reference.ta_determinized(ta, keep_subsets)


def _complemented(ta):
    return reference.ta_complemented(ta)


def _product(ta, other, combine):
    return reference.ta_product(ta, other, combine)


def _union(ta, other):
    return reference.ta_union(ta, other)


def _trimmed(ta):
    return reference.ta_trimmed(ta)


def _minimized(ta):
    return reference.ta_minimized(ta)


def _dfa_product(automaton, other, combine):
    return reference.dfa_product(automaton, other, combine)


def _dfa_minimized(automaton):
    return reference.dfa_minimized(automaton)


def _determinize(nfa, alphabet):
    return reference.dfa_determinize(nfa, frozenset(alphabet))


#: ``(owner, name, substitute, oracle function name)`` for each of the
#: twelve operations the oracle stands in for.
SUBSTITUTES = (
    (BottomUpTA, "reachable_states", _reachable_states,
     "ta_reachable_states"),
    (BottomUpTA, "is_empty", _is_empty, "ta_is_empty"),
    (BottomUpTA, "witness", _witness, "ta_witness"),
    (BottomUpTA, "determinized", _determinized, "ta_determinized"),
    (BottomUpTA, "complemented", _complemented, "ta_complemented"),
    (BottomUpTA, "product", _product, "ta_product"),
    (BottomUpTA, "union", _union, "ta_union"),
    (BottomUpTA, "trimmed", _trimmed, "ta_trimmed"),
    (BottomUpTA, "minimized", _minimized, "ta_minimized"),
    (DFA, "product", _dfa_product, "dfa_product"),
    (DFA, "minimized", _dfa_minimized, "dfa_minimized"),
    (dfa, "determinize", _determinize, "dfa_determinize"),
)

_BITSET = {
    (owner, name): vars(owner)[name] for owner, name, _, _ in SUBSTITUTES
}


def oracle_active() -> bool:
    """True while the oracle stands in for the bitset core."""
    return vars(BottomUpTA)["reachable_states"] is _reachable_states


def use_oracle(enabled: bool) -> None:
    """Put the oracle (or the bitset core) in place until the next
    switch."""
    for owner, name, substitute, _ in SUBSTITUTES:
        setattr(owner, name, substitute if enabled else _BITSET[owner, name])
    # ``from repro.regex.dfa import determinize`` binds the function in
    # the importing module (``repro.lang.xmlql``, the ``repro.regex``
    # re-export), so rebind it wherever either side is bound.
    bitset = _BITSET[dfa, "determinize"]
    wanted = _determinize if enabled else bitset
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        bound = namespace.get("determinize")
        if bound is bitset or bound is _determinize:
            namespace["determinize"] = wanted


@contextmanager
def oracle_algebra(enabled: bool = True) -> Iterator[None]:
    """Run a block on the frozenset oracle (``enabled=False``: on the
    bitset core), restoring the previous algebra afterwards."""
    previous = oracle_active()
    use_oracle(enabled)
    try:
        yield
    finally:
        use_oracle(previous)


_TRUSTED = vars(PebbleAutomaton)["_trusted"].__func__


def _validating_trusted(cls, alphabet, levels, initial, rules):
    automaton = _TRUSTED(cls, alphabet, levels, initial, rules)
    automaton._validate(alphabet)
    return automaton


def validate_trusted() -> None:
    """Make every later ``PebbleAutomaton._trusted`` call validate."""
    PebbleAutomaton._trusted = classmethod(_validating_trusted)
