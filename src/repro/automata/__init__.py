"""Regular tree automata — the paper's notion of *type* (Section 2.3)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.automata.alternating": ("LazyTA", "explore_product"),
    "repro.automata.bottom_up": ("BottomUpTA",),
    "repro.automata.convert": ("bu_to_td", "td_to_bu"),
    "repro.automata.from_dtd": (
        "dtd_to_automaton", "specialized_to_automaton",
    ),
    "repro.automata.hedge": (
        "HedgeAutomaton", "hedge_to_binary", "specialized_to_hedge",
    ),
    "repro.automata.top_down": ("TopDownTA",),
})
