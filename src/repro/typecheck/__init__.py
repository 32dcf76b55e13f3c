"""Typechecking for XML transformers (paper, Section 4)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.typecheck.engine": (
        "EXACT_METHODS", "TypecheckResult", "as_automaton",
        "bad_input_language", "inverse_type", "typecheck",
    ),
    "repro.typecheck.routing": ("RouteDecision", "classify", "typecheck_fast"),
    "repro.typecheck.stylesheet": ("typecheck_stylesheet",),
    "repro.typecheck.forward": (
        "ForwardResult", "approximate_image", "typecheck_forward",
    ),
    "repro.typecheck.selection": (
        "SelectionResult", "binding_type", "typecheck_selection",
    ),
})
