"""repro — a reproduction of *Typechecking for XML Transformers*
(Milo, Suciu, Vianu; PODS 2000).

The library implements the paper's entire stack from scratch:

* unranked/ranked trees and the binary encoding (Section 2.1),
* regular expressions, path expressions, DTDs and specialized DTDs
  (Sections 2.1–2.3),
* regular tree automata with the full boolean algebra (Section 2.3),
* MSO on binary trees compiled to tree automata (engine of Theorem 4.7),
* k-pebble tree transducers and k-pebble tree automata (Sections 3–4),
* the decidable typechecking pipeline of Theorem 4.4, and
* the star-free machinery of the non-elementary lower bound (Theorem 4.8).

Quickstart::

    from repro import parse_xml, parse_dtd, typecheck
    from repro.pebble.builders import copy_transducer

See ``examples/quickstart.py`` and the README for a tour.
"""

__version__ = "1.0.0"

# Re-export the most commonly used names, each imported on first use.
# Subsystem packages stay importable on their own (repro.trees,
# repro.regex, repro.automata, repro.mso, repro.pebble, repro.typecheck,
# repro.lang, repro.ext, repro.data).
from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.xmlio.dtd": ("DTD", "parse_dtd", "parse_dtd_xml"),
    "repro.xmlio.specialized": ("SpecializedDTD",),
    "repro.xmlio.parser": ("parse_xml",),
    "repro.xmlio.serializer": ("to_xml",),
    "repro.typecheck.engine": ("TypecheckResult", "inverse_type", "typecheck"),
    "repro.typecheck.forward": ("typecheck_forward",),
    "repro.errors": (
        "AlphabetError", "AutomatonError", "DTDError", "MSOError",
        "PebbleMachineError", "RegexError", "ReproError", "ResourceExhausted",
        "TransducerRuntimeError", "TreeError", "TypecheckError",
        "UndecidableError", "XMLParseError",
    ),
    "repro.runtime.governor": (
        "Budget", "Deadline", "ResourceGovernor", "governed", "make_governor",
    ),
    "repro.trees.ranked": ("BTree",),
    "repro.trees.alphabet": ("RankedAlphabet", "encoded_alphabet"),
    "repro.trees.unranked": ("UTree", "u"),
    "repro.trees.encoding": ("decode", "encode"),
})
__all__.append("__version__")

# bound eagerly: the function is named like the repro.typecheck package,
# which would replace a lazy binding once anything imported it
# (DESIGN.md §4)
from repro.typecheck.engine import typecheck  # noqa: E402
