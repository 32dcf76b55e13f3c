"""Ablations of the design choices DESIGN.md calls out.

* entry-state projection in the tree-walking summary construction
  (Theorem 4.7, k = 1 fast path);
* state-graph trimming and bisimulation quotienting of Prop 4.6 products
  before regularization.
"""

import pytest

from conftest import report
from repro.automata import bu_to_td, dtd_to_automaton
from repro.data import q1_input_dtd, q1_output_even_dtd, q2_good_output_dtd
from repro.lang import q1_transducer, q2_stylesheet, xslt_to_transducer
from repro.pebble import (
    quotient_pebble_automaton,
    transducer_times_automaton,
    trim_pebble_automaton,
    two_way,
    walking_automaton_to_ta,
)
from repro.typecheck import as_automaton


def q2_product():
    machine = xslt_to_transducer(q2_stylesheet(), tags={"root", "a"},
                                 root_tag="root")
    tau2 = as_automaton(q2_good_output_dtd(), machine.output_alphabet)
    return transducer_times_automaton(
        machine, bu_to_td(tau2.complemented().trimmed())
    )


def every_state(automaton, table):
    """An entry mask that keeps every state: no projection."""
    return (1 << len(table.order)) - 1


@pytest.mark.parametrize("filter_entries", [True, False])
def test_entry_projection_ablation(benchmark, monkeypatch, filter_entries):
    """The entry-state projection collapses summary relations; without
    it the construction still terminates on a *small* product but pays
    many more distinct relations."""
    product = quotient_pebble_automaton(trim_pebble_automaton(q2_product()))
    if not filter_entries:
        monkeypatch.setattr(two_way, "_entry_mask", every_state)
    regular = benchmark.pedantic(
        walking_automaton_to_ta, args=(product,), rounds=1, iterations=1,
    )
    report(
        f"ablation entry-filter={filter_entries}",
        [("summary states", len(regular.states))],
    )


def test_trim_and_quotient_ablation(once):
    """Preprocessing sizes for the Q1 x not-(b.b)* product."""
    machine = q1_transducer()
    tau2 = as_automaton(q1_output_even_dtd(), machine.output_alphabet)
    product = transducer_times_automaton(
        machine, bu_to_td(tau2.complemented().trimmed())
    )

    def preprocess():
        trimmed = trim_pebble_automaton(product)
        quotient = quotient_pebble_automaton(trimmed)
        return (
            ("raw", product.stats()["states"], product.stats()["rules"]),
            ("trimmed", trimmed.stats()["states"], trimmed.stats()["rules"]),
            ("quotient", quotient.stats()["states"],
             quotient.stats()["rules"]),
        )

    rows = once(preprocess)
    report("ablation trim/quotient (stage, states, rules)", list(rows))
    assert rows[2][1] < rows[0][1]
