"""Typechecking for XML transformers (paper, Section 4)."""

from repro.typecheck.engine import (
    EXACT_METHODS,
    TypecheckResult,
    as_automaton,
    bad_input_language,
    inverse_type,
    typecheck,
)
from repro.typecheck.routing import (
    RouteDecision,
    classify,
    typecheck_fast,
)
from repro.typecheck.stylesheet import typecheck_stylesheet
from repro.typecheck.forward import (
    ForwardResult,
    approximate_image,
    typecheck_forward,
)
from repro.typecheck.selection import (
    SelectionResult,
    binding_type,
    typecheck_selection,
)

__all__ = [
    "EXACT_METHODS",
    "TypecheckResult",
    "as_automaton",
    "bad_input_language",
    "inverse_type",
    "typecheck",
    "RouteDecision",
    "classify",
    "typecheck_fast",
    "typecheck_stylesheet",
    "ForwardResult",
    "approximate_image",
    "typecheck_forward",
    "SelectionResult",
    "binding_type",
    "typecheck_selection",
]
