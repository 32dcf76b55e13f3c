"""Regular expressions over words: syntax, parser, NFA/DFA engines, boolean
algebra, generalized (star-free) expressions, and path evaluation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.regex.dfa": (
        "DFA", "compile_regex", "determinize", "language_is_empty",
    ),
    "repro.regex.nfa": ("NFA", "nfa_from_regex"),
    "repro.regex.parser": ("parse_regex",),
    "repro.regex.paths": (
        "eval_regex", "eval_regex_binary", "eval_word", "translate",
    ),
    "repro.regex.syntax": (
        "EMPTY", "EPSILON", "Complement", "Concat", "Empty", "Epsilon",
        "Intersect", "Regex", "Star", "Sym", "Union", "complement",
        "concat", "intersect", "literal", "optional", "plus", "star",
        "sym", "union", "word",
    ),
})
