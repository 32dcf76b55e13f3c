"""Document Type Definitions (paper, Section 2.3).

A DTD is an extended context-free grammar with the element names as
non-terminals: each element name has a *content model*, a regular
expression over element names constraining the word of children labels.
An unranked tree is valid when it is a derivation tree of the grammar.

Two concrete syntaxes are supported:

* the paper's notation, one rule per line: ``a := b*.c.e`` (``%`` or an
  empty right-hand side is epsilon), with the first rule's left-hand side
  as the root;
* classic XML DTD syntax: ``<!ELEMENT a (b*, c, e)>`` with ``EMPTY``,
  ``ANY`` and ``(#PCDATA)`` handled per the paper's simplification (text
  is ignored by the core model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import DTDError
from repro.regex import syntax as rx
from repro.regex.dfa import DFA, compile_regex
from repro.regex.parser import parse_regex
from repro.regex.syntax import Regex
from repro.trees.unranked import NodeAddress, UTree


@dataclass(frozen=True)
class DTD:
    """A DTD: a root element name and one content model per element name.

    Every element name reachable from a content model must itself have a
    rule (as in the paper's example ``a := b*.c.e; b := e; ...``).
    """

    root: str
    content: dict[str, Regex]

    def __init__(self, root: str, content: Mapping[str, Regex]) -> None:
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "content", dict(content))
        if root not in self.content:
            raise DTDError(f"root element {root!r} has no content model")
        declared = set(self.content)
        for name, model in self.content.items():
            missing = model.symbols() - declared
            if missing:
                raise DTDError(
                    f"content model of {name!r} mentions undeclared "
                    f"elements: {sorted(missing)}"
                )
            if not model.is_plain():
                raise DTDError(
                    f"content model of {name!r} uses generalized regex "
                    f"operators; DTD content models are plain"
                )

    @property
    def symbols(self) -> frozenset[str]:
        """All element names declared by the DTD."""
        return frozenset(self.content)

    def content_dfa(self, name: str) -> DFA:
        """The minimal DFA of an element's content model (over all names)."""
        if name not in self.content:
            raise DTDError(f"unknown element {name!r}")
        return compile_regex(self.content[name], self.symbols)

    # -- validation --------------------------------------------------------

    def validation_errors(self, tree: UTree) -> list[tuple[NodeAddress, str]]:
        """All validation errors as ``(node address, message)`` pairs."""
        errors: list[tuple[NodeAddress, str]] = []
        if tree.label != self.root:
            errors.append(((), f"root is {tree.label!r}, expected {self.root!r}"))
        dfas: dict[str, DFA] = {}
        for node, addr in tree.walk():
            if node.label not in self.content:
                errors.append((addr, f"undeclared element {node.label!r}"))
                continue
            if node.label not in dfas:
                dfas[node.label] = self.content_dfa(node.label)
            word = [child.label for child in node.children]
            if any(symbol not in self.symbols for symbol in word):
                continue  # the child itself is reported as undeclared
            if not dfas[node.label].accepts(word):
                errors.append(
                    (
                        addr,
                        f"children of {node.label!r} spell "
                        f"{'.'.join(word) or 'epsilon'}, which does not match "
                        f"{self.content[node.label]}",
                    )
                )
        return errors

    def is_valid(self, tree: UTree) -> bool:
        """True when ``tree`` is a valid instance of the DTD."""
        return not self.validation_errors(tree)

    def instances(self, limit: int, max_depth: int = 6) -> Iterator[UTree]:
        """Yield up to ``limit`` valid instances, smallest-ish first.

        Enumerates derivation trees breadth-first by depth; used by the
        bounded typechecker and the data generators.
        """
        from repro.xmlio.specialized import SpecializedDTD

        yield from SpecializedDTD.from_dtd(self).instances(limit, max_depth)

    def __str__(self) -> str:
        lines = [f"{self.root} := {self.content[self.root]}"]
        for name in sorted(self.content):
            if name != self.root:
                lines.append(f"{name} := {self.content[name]}")
        return "\n".join(lines)


def parse_dtd(text: str) -> DTD:
    """Parse the paper's rule notation.

    One rule per line, ``name := regex``; blank lines and ``#`` comments
    are skipped; an empty right-hand side (or ``%``) is epsilon.  The first
    rule defines the root element.
    """
    content: dict[str, Regex] = {}
    root: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise DTDError(f"line {line_no}: expected 'name := regex'")
        name, _, rhs = line.partition(":=")
        name = name.strip()
        rhs = rhs.strip()
        if not name.isidentifier():
            raise DTDError(f"line {line_no}: bad element name {name!r}")
        if name in content:
            raise DTDError(f"line {line_no}: duplicate rule for {name!r}")
        content[name] = parse_regex(rhs) if rhs else rx.EPSILON
        if root is None:
            root = name
    if root is None:
        raise DTDError("empty DTD")
    return DTD(root, content)


def parse_dtd_xml(text: str, root: str | None = None) -> DTD:
    """Parse classic ``<!ELEMENT name (model)>`` declarations.

    The XML content-model syntax uses ``,`` for sequence and ``|`` for
    choice; ``EMPTY`` and ``(#PCDATA)`` both mean the empty content model
    under the paper's text-free simplification.  ``root`` defaults to the
    first declared element.
    """
    content: dict[str, Regex] = {}
    first: str | None = None
    pos = 0
    while True:
        start = text.find("<!ELEMENT", pos)
        if start < 0:
            break
        end = text.find(">", start)
        if end < 0:
            raise DTDError("unterminated <!ELEMENT declaration")
        body = text[start + len("<!ELEMENT") : end].strip()
        pos = end + 1
        name, _, model_text = body.partition(" ")
        name = name.strip()
        model_text = model_text.strip()
        if not name:
            raise DTDError("missing element name in <!ELEMENT>")
        if name in content:
            raise DTDError(f"duplicate <!ELEMENT {name}>")
        content[name] = _parse_xml_content_model(model_text)
        if first is None:
            first = name
    if first is None:
        raise DTDError("no <!ELEMENT> declarations found")
    return DTD(root or first, content)


def parse_dtd_any(text: str) -> DTD:
    """Parse ``text`` in whichever syntax it uses: classic declarations
    when it contains ``<!ELEMENT`` (:func:`parse_dtd_xml`), else the
    paper's rule notation (:func:`parse_dtd`)."""
    if "<!ELEMENT" in text:
        return parse_dtd_xml(text)
    return parse_dtd(text)


def _parse_xml_content_model(text: str) -> Regex:
    text = text.strip()
    if text in ("EMPTY", "(#PCDATA)", "#PCDATA"):
        return rx.EPSILON
    if text == "ANY":
        raise DTDError("ANY content models are not supported")
    # XML uses ',' for sequence; our regex syntax uses '.'.  Element names
    # never contain either, so a token-level substitution is safe.
    return parse_regex(text.replace(",", "."))
