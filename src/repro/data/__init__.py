"""Sample data and reproducible workload generators."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.data.generators": (
        "flat_document", "full_binary_tree", "random_binary_trees",
        "random_unranked_tree", "random_words", "right_spine",
    ),
    "repro.data.samples": (
        "bibliography_doc", "bibliography_dtd", "paper_dtd", "paper_tree",
        "q1_input_dtd", "q1_inverse_dtd", "q1_output_even_dtd",
        "q2_good_output_dtd", "q2_tight_output_dtd",
    ),
})
