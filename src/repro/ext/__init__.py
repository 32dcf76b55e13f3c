"""Section 5 extensions: data values, unary predicates, independent joins."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ext.datavalues": (
        "DATA_LEAF", "Comparison", "DataDocument",
        "ExtendedPebbleTransducer", "abstract_by_predicates",
        "predicate_constants", "require_join_free",
    ),
    "repro.ext.relational": (
        "Database", "Dept", "Person", "WorksIn", "abstract_view_transducer",
        "database_document", "export_join", "input_dtd", "view_dtd",
    ),
})
