"""Monadic second-order logic over binary trees, compiled to tree automata
(the engine behind Theorem 4.7)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mso.annotations": (
        "annotate_tree", "annotated_alphabet", "cylindrify", "pack",
        "project", "singleton_automaton", "strip_annotations", "unpack",
    ),
    "repro.mso.compile": (
        "CompiledFormula", "compile_formula", "sentence_automaton",
    ),
    "repro.mso.semantics": ("evaluate",),
    "repro.mso.syntax": (
        "FALSE", "FO", "SO", "TRUE", "And", "Eq", "Exists", "Forall",
        "Formula", "In", "Label", "Leaf", "Not", "Or", "Root", "Subset",
        "Succ", "conj", "disj", "exists_fo", "exists_so", "forall_fo",
        "forall_so",
    ),
})
