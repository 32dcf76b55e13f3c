"""XML query-language front ends compiled to k-pebble transducers."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lang.patterns": ("Pattern", "match", "match_count", "pattern"),
    "repro.lang.xmlql": ("RESULT", "q1_transducer", "selection_transducer"),
    "repro.lang.xslt": (
        "Apply", "Out", "Stylesheet", "Template", "apply_stylesheet",
        "parse_stylesheet", "q2_stylesheet", "xslt_to_transducer",
    ),
})
