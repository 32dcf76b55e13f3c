"""XML surface syntax, DTDs, and specialized DTDs (paper, Sections 2.2-2.3)."""

from repro.xmlio.dtd import DTD, parse_dtd, parse_dtd_any, parse_dtd_xml
from repro.xmlio.parser import TEXT_LABEL, parse_xml
from repro.xmlio.serializer import to_xml
from repro.xmlio.specialized import SpecializedDTD

__all__ = [
    "DTD",
    "parse_dtd",
    "parse_dtd_any",
    "parse_dtd_xml",
    "TEXT_LABEL",
    "parse_xml",
    "to_xml",
    "SpecializedDTD",
]
