"""Tree data model: unranked trees, ranked binary trees, and the encoding
between them (paper, Section 2.1)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trees.alphabet": (
        "CONS", "NIL", "RankedAlphabet", "encoded_alphabet",
    ),
    "repro.trees.encoding": (
        "decode", "encode", "encode_forest", "encoded_address",
        "element_nodes", "is_encoding",
    ),
    "repro.trees.ranked": (
        "BNodeAddress", "BTree", "IndexedTree", "leaf", "node",
        "parse_btree", "random_btree",
    ),
    "repro.trees.unranked": ("NodeAddress", "UTree", "parse_utree", "u"),
})
