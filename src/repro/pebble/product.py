"""Proposition 4.6: composing a transducer with an output-type automaton.

For a k-pebble transducer ``T`` and a top-down automaton ``B`` over the
output alphabet, the product k-pebble automaton ``A = T × B`` accepts
exactly ``{t | T(t) ∩ inst(B) ≠ ∅}``.

In the typechecking pipeline ``B`` is an automaton for the *complement* of
the output type, so ``A`` accepts the inputs on which the transducer can
produce an ill-typed output.
"""

from __future__ import annotations

from repro.automata.top_down import TopDownTA
from repro.errors import PebbleMachineError
from repro.runtime.cache import memoized
from repro.pebble.automaton import PebbleAutomaton
from repro.pebble.transducer import (
    Branch0,
    Branch2,
    Emit0,
    Emit2,
    Move,
    PebbleTransducer,
    Pick,
    Place,
)


def transducer_times_automaton(
    transducer: PebbleTransducer, automaton: TopDownTA
) -> PebbleAutomaton:
    """The product pebble automaton of Proposition 4.6.

    ``automaton`` must be over the transducer's *output* alphabet; silent
    transitions are eliminated first (the construction needs plain
    top-down transitions).
    """
    if not transducer.output_alphabet.symbols <= automaton.alphabet.symbols:
        raise PebbleMachineError(
            "the type automaton must cover the transducer's output alphabet"
        )
    # Memoized: the same (transducer, output type) pair recurs whenever a
    # typecheck is re-run.  The product returned, computed or hit, carries
    # its derivation (see repro.runtime.cache), so downstream lookups
    # keyed on it never fingerprint the big product.
    return memoized(
        "pebble.product",
        (transducer, automaton),
        lambda: _transducer_times_automaton(transducer, automaton),
    )


def _transducer_times_automaton(
    transducer: PebbleTransducer, automaton: TopDownTA
) -> PebbleAutomaton:
    b = automaton.without_silent()
    b_states = sorted(b.states, key=repr)
    nb = range(len(b_states))

    rules: dict = {}
    accept = Branch0()
    b_final = b.final
    b_transitions = b.transitions

    # The per-q_b expansion of one transducer action is the same wherever
    # that action value appears, so build each expansion row once and
    # share the product-action objects across guards — the sharing also
    # lets downstream id-keyed memos (fingerprints) skip re-hashing.
    rows: dict = {}
    pair_rows: dict = {}

    def pairs_of(state):
        row = pair_rows.get(state)
        if row is None:
            row = pair_rows[state] = [(state, q_b) for q_b in b_states]
        return row

    levels = [
        [
            pair
            for q_t in sorted(level, key=repr)
            for pair in pairs_of(q_t)
        ]
        for level in transducer.levels
    ]

    # Each product guard (symbol, (state, q_b), bits) is derived from
    # exactly one transducer rule key, so one pass per rule fills all of
    # its per-q_b buckets and commits them at once.
    for (symbol, state, bits), actions in transducer.rules.items():
        per_qb: list[list] = [[] for _ in b_states]
        for action in actions:
            if isinstance(action, Emit2):
                # equation (5): pair the spawned branches with B's moves.
                row = rows.get(action)
                if row is None:
                    emitted, left, right = (
                        action.symbol, action.left, action.right,
                    )
                    row = rows[action] = [
                        [
                            Branch2((left, q1_b), (right, q2_b))
                            for q1_b, q2_b in b_transitions.get(
                                (emitted, q_b), ()
                            )
                        ]
                        for q_b in b_states
                    ]
                for j in nb:
                    per_qb[j].extend(row[j])
            elif isinstance(action, Emit0):
                # equation (4): accept iff B accepts the emitted leaf.
                row = rows.get(action)
                if row is None:
                    emitted = action.symbol
                    row = rows[action] = [
                        (emitted, q_b) in b_final for q_b in b_states
                    ]
                for j in nb:
                    if row[j]:
                        per_qb[j].append(accept)
            else:  # Move / Place / Pick: one target pair per q_b
                row = rows.get(action)
                if row is None:
                    if isinstance(action, Move):
                        direction = action.direction
                        row = [
                            Move(direction, pair)
                            for pair in pairs_of(action.target)
                        ]
                    elif isinstance(action, Place):
                        row = [Place(pair) for pair in pairs_of(action.target)]
                    else:
                        assert isinstance(action, Pick)
                        row = [Pick(pair) for pair in pairs_of(action.target)]
                    rows[action] = row
                for j in nb:
                    per_qb[j].append(row[j])
        state_pairs = pairs_of(state)
        for j in nb:
            if per_qb[j]:
                rules[(symbol, state_pairs[j], bits)] = tuple(per_qb[j])
    return PebbleAutomaton._trusted(
        alphabet=transducer.input_alphabet,
        levels=levels,
        initial=(transducer.initial, b.initial),
        rules=rules,
    )
