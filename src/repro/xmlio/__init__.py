"""XML surface syntax, DTDs, and specialized DTDs (paper, Sections 2.2-2.3)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.xmlio.dtd": ("DTD", "parse_dtd", "parse_dtd_any", "parse_dtd_xml"),
    "repro.xmlio.parser": ("TEXT_LABEL", "parse_xml"),
    "repro.xmlio.serializer": ("to_xml",),
    "repro.xmlio.specialized": ("SpecializedDTD",),
})
