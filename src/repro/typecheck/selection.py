"""Specialized typechecking for selection queries (Section 5, and the
prior work [Milo-Suciu 1999] the paper builds on).

Section 5: "typechecking selection XML-QL queries without joins … can be
reduced to emptiness of a 1-pebble automaton with exponentially many
states (yielding a total complexity of 2-EXPTIME)".  In practice the
reduction factors through *binding-type inference* — the problem of the
paper's own prior work [28]: given an input type and a path pattern,
compute the (regular!) set of subtrees the variable can bind to.

This module implements binding-type inference directly on the
(specialized) DTD — a product of the type's derivation structure with
the path NFA — and uses it to typecheck selection queries of the shape

    WHERE  $X bound by path r     CONSTRUCT  <result> $X* </result>

*exactly* and fast, no pebbles involved.  The generic 2-pebble machine
(:func:`repro.lang.xmlql.selection_transducer`) computes the same
transformation; the tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.automata.bottom_up import BottomUpTA
from repro.automata.from_dtd import specialized_to_automaton
from repro.errors import TypecheckError
from repro.regex.dfa import DFA, compile_regex
from repro.regex.parser import parse_regex
from repro.regex.syntax import Regex
from repro.trees.ranked import BTree
from repro.trees.unranked import UTree
from repro.xmlio.dtd import DTD
from repro.xmlio.specialized import SpecializedDTD


def binding_type(
    dtd: Union[DTD, SpecializedDTD], path: Union[Regex, str]
) -> BottomUpTA:
    """The regular tree language of possible bindings.

    ``{encode(t|_x) : t ∈ inst(dtd), x ∈ eval(path, t)}`` — the type of
    the variable, in the sense of the paper's reference [28].

    The construction: explore reachable (type, path-DFA-state) pairs
    through the specialized DTD's derivation structure (a type ``τ`` is
    reachable at DFA state ``q`` when some valid instance has a
    ``τ``-node whose root-path drives the DFA to ``q``); a type is a
    *binding type* when it is reachable at an accepting state *and* the
    type itself is inhabited.  The result is the specialized-DTD
    automaton with the binding types accepting.
    """
    sdtd = (
        SpecializedDTD.from_dtd(dtd) if isinstance(dtd, DTD) else dtd
    )
    if isinstance(path, str):
        path = parse_regex(path)
    dfa = compile_regex(path, sdtd.tags)

    # inhabited types (some finite derivation exists)
    inhabited = _inhabited_types(sdtd)

    # usable child types per type: those occurring in some accepted word
    # of the content model *realizable with inhabited siblings* (so the
    # node genuinely appears in a complete valid instance).
    usable_children: dict[str, set[str]] = {}
    for type_name in sdtd.types:
        content = sdtd.content_dfa(type_name)
        usable_children[type_name] = _live_symbols(content, inhabited)

    reachable: set[tuple[str, int]] = set()
    stack: list[tuple[str, int]] = []
    for root in sdtd.roots:
        if root not in inhabited:
            continue
        pair = (root, dfa.run([sdtd.tag_of[root]]))
        if pair not in reachable:
            reachable.add(pair)
            stack.append(pair)
    while stack:
        type_name, state = stack.pop()
        for child in usable_children[type_name]:
            if child not in inhabited:
                continue
            pair = (child, dfa.step(state, sdtd.tag_of[child]))
            if pair not in reachable:
                reachable.add(pair)
                stack.append(pair)

    binding_types = {
        type_name
        for type_name, state in reachable
        if state in dfa.accepting
    }
    automaton = specialized_to_automaton(sdtd)
    return BottomUpTA(
        alphabet=automaton.alphabet,
        states=automaton.states,
        leaf_rules=automaton.leaf_rules,
        rules=automaton.rules,
        accepting={("elem", t) for t in binding_types},
    ).trimmed()


def _live_symbols(dfa: DFA, allowed: set[str]) -> set[str]:
    """Symbols occurring in some accepted word of the DFA that uses only
    ``allowed`` symbols."""
    # forward reachability restricted to allowed symbols
    reachable = {dfa.start}
    stack = [dfa.start]
    while stack:
        state = stack.pop()
        for symbol in allowed:
            target = dfa.delta[(state, symbol)]
            if target not in reachable:
                reachable.add(target)
                stack.append(target)
    # states from which acceptance is reachable via allowed symbols
    productive = set(dfa.accepting)
    changed = True
    while changed:
        changed = False
        for (state, symbol), target in dfa.delta.items():
            if symbol in allowed and target in productive \
                    and state not in productive:
                productive.add(state)
                changed = True
    live: set[str] = set()
    for (state, symbol), target in dfa.delta.items():
        if symbol in allowed and state in reachable and state in productive \
                and target in productive:
            live.add(symbol)
    return live


def _inhabited_types(sdtd: SpecializedDTD) -> set[str]:
    """Types with at least one finite derivation."""
    inhabited: set[str] = set()
    changed = True
    while changed:
        changed = False
        # sorted: the number of passes, and so of content-model lookups,
        # depends on the order, and ``types`` is a frozenset.
        for type_name in sorted(sdtd.types):
            if type_name in inhabited:
                continue
            dfa = sdtd.content_dfa(type_name)
            if _accepts_word_over(dfa, inhabited):
                inhabited.add(type_name)
                changed = True
    return inhabited


def _accepts_word_over(dfa: DFA, allowed: set[str]) -> bool:
    """Does the DFA accept some word using only ``allowed`` symbols?"""
    seen = {dfa.start}
    stack = [dfa.start]
    while stack:
        state = stack.pop()
        if state in dfa.accepting:
            return True
        for symbol in allowed:
            target = dfa.delta.get((state, symbol))
            if target is not None and target not in seen:
                seen.add(target)
                stack.append(target)
    return dfa.start in dfa.accepting


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of selection-query typechecking."""

    ok: bool
    binding_types_states: int
    witness_binding: Optional[BTree] = None

    def __bool__(self) -> bool:
        return self.ok


def typecheck_selection(
    path: Union[Regex, str],
    input_dtd: Union[DTD, SpecializedDTD],
    element_type: Union[DTD, SpecializedDTD, BottomUpTA],
) -> SelectionResult:
    """Exactly typecheck ``CONSTRUCT <result> $X* </result>``.

    Every binding must conform to ``element_type`` (the type each
    selected copy must have; for the output DTD ``result := s*`` this is
    the type of ``s``).  Sound and complete for this query shape: the
    output is a list of bindings, so the check reduces to inclusion of
    the binding type in the element type.
    """
    from repro.typecheck.engine import as_automaton

    bindings = binding_type(input_dtd, path)
    element = as_automaton(element_type, bindings.alphabet)
    bindings = as_automaton(bindings, element.alphabet)
    # on-the-fly emptiness of bindings ∩ complement(element) — no
    # materialized difference automaton.
    witness = bindings.product_witness(element.complemented())
    return SelectionResult(
        ok=witness is None,
        binding_types_states=len(bindings.states),
        witness_binding=witness,
    )
