"""Regular tree automata — the paper's notion of *type* (Section 2.3)."""

from repro.automata.alternating import LazyTA, explore_product
from repro.automata.bottom_up import BottomUpTA
from repro.automata.convert import bu_to_td, td_to_bu
from repro.automata.from_dtd import dtd_to_automaton, specialized_to_automaton
from repro.automata.hedge import (
    HedgeAutomaton,
    hedge_to_binary,
    specialized_to_hedge,
)
from repro.automata.top_down import TopDownTA

__all__ = [
    "LazyTA",
    "explore_product",
    "BottomUpTA",
    "bu_to_td",
    "td_to_bu",
    "dtd_to_automaton",
    "specialized_to_automaton",
    "HedgeAutomaton",
    "hedge_to_binary",
    "specialized_to_hedge",
    "TopDownTA",
]
