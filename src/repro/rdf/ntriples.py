"""N-Triples parser and serializer.

N-Triples is the line-oriented RDF syntax the paper's benchmarks ship in
(Figure 1a shows the tripleset form).  The parser is strict about term
syntax but tolerant of blank lines and ``#`` comments.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .terms import IRI, BlankNode, Literal, Triple

__all__ = [
    "NTriplesParseError",
    "parse_ntriples",
    "parse_ntriples_file",
    "serialize_ntriples",
    "write_ntriples_file",
]


class NTriplesParseError(ValueError):
    """Raised when a line cannot be parsed as an N-Triples statement."""

    def __init__(self, message: str, line_number: int | None = None, line: str | None = None):
        detail = message
        if line_number is not None:
            detail = f"line {line_number}: {message}"
        if line is not None:
            detail = f"{detail}: {line.strip()!r}"
        super().__init__(detail)
        self.line_number = line_number
        self.line = line


_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)")
_LITERAL_RE = re.compile(
    r'"((?:[^"\\]|\\.)*)"'  # quoted value with escapes
    r"(?:@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)|\^\^<([^<>\s]+)>)?"  # lang tag or datatype
)

#: One whole statement: subject, predicate, object, ``.``, built from the
#: term patterns above.  Each term is an atomic group, so it commits to the
#: same span the term-by-term parser's ``match`` takes (a greedy blank-node
#: label never gives back a ``.``).  Only ``[ \t]`` separates terms; any
#: line this does not match goes through the term-by-term parser, which
#: accepts it or raises the usual error.
_STATEMENT_RE = re.compile(
    rf"[ \t]*(?>{_IRI_RE.pattern}|{_BNODE_RE.pattern})"
    rf"[ \t]*(?>{_IRI_RE.pattern})"
    rf"[ \t]*(?>{_IRI_RE.pattern}|{_BNODE_RE.pattern}|{_LITERAL_RE.pattern})"
    r"[ \t]*\.[ \t]*\r?\n?"
)

_ESCAPES = {
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
    '\\"': '"',
    "\\\\": "\\",
}


def _unescape(value: str) -> str:
    """Resolve N-Triples string escapes (including \\uXXXX)."""
    if "\\" not in value:
        return value
    out: list[str] = []
    i = 0
    n = len(value)
    while i < n:
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        pair = value[i : i + 2]
        if pair in _ESCAPES:
            out.append(_ESCAPES[pair])
            i += 2
        elif pair == "\\u" and i + 6 <= n:
            out.append(chr(int(value[i + 2 : i + 6], 16)))
            i += 6
        elif pair == "\\U" and i + 10 <= n:
            out.append(chr(int(value[i + 2 : i + 10], 16)))
            i += 10
        else:
            raise NTriplesParseError(f"invalid escape sequence {pair!r}")
    return "".join(out)


def _parse_term(text: str, pos: int, line_number: int, line: str):
    """Parse one term starting at ``pos``; return (term, next position)."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        raise NTriplesParseError("unexpected end of statement", line_number, line)
    ch = text[pos]
    if ch == "<":
        match = _IRI_RE.match(text, pos)
        if not match:
            raise NTriplesParseError("malformed IRI", line_number, line)
        return IRI(match.group(1)), match.end()
    if ch == "_":
        match = _BNODE_RE.match(text, pos)
        if not match:
            raise NTriplesParseError("malformed blank node", line_number, line)
        return BlankNode(match.group(1)), match.end()
    if ch == '"':
        match = _LITERAL_RE.match(text, pos)
        if not match:
            raise NTriplesParseError("malformed literal", line_number, line)
        value, language, datatype = match.groups()
        return Literal(_unescape(value), datatype=datatype, language=language), match.end()
    raise NTriplesParseError(f"unexpected character {ch!r}", line_number, line)


def parse_ntriples_line(line: str, line_number: int = 0) -> Triple | None:
    """Parse a single N-Triples line; return ``None`` for blanks/comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    subject, pos = _parse_term(stripped, 0, line_number, line)
    predicate, pos = _parse_term(stripped, pos, line_number, line)
    obj, pos = _parse_term(stripped, pos, line_number, line)
    rest = stripped[pos:].strip()
    if rest != ".":
        raise NTriplesParseError("statement must end with '.'", line_number, line)
    if isinstance(subject, Literal):
        raise NTriplesParseError("literal cannot be a subject", line_number, line)
    if not isinstance(predicate, IRI):
        raise NTriplesParseError("predicate must be an IRI", line_number, line)
    return Triple(subject, predicate, obj)


def parse_ntriples(source: str | TextIO | Iterable[str]) -> Iterator[Triple]:
    """Yield triples from an N-Triples document.

    ``source`` may be a string containing the whole document, an open text
    file, or any iterable of lines.  A well-formed line is parsed by one
    whole-statement regex; any other line (blank, comment, unusual
    whitespace, or malformed) goes through :func:`parse_ntriples_line`,
    which yields the same triples and raises the same errors.
    """
    if isinstance(source, str):
        lines: Iterable[str] = io.StringIO(source)
    else:
        lines = source
    # Per-document interning: every mention of an IRI shares one object.
    iris: dict[str, IRI] = {}

    def iri(value: str) -> IRI:
        term = iris.get(value)
        if term is None:
            term = iris[value] = IRI(value)
        return term

    statement = _STATEMENT_RE.fullmatch
    for line_number, line in enumerate(lines, start=1):
        match = statement(line)
        if match is None:
            triple = parse_ntriples_line(line, line_number)
            if triple is not None:
                yield triple
            continue
        s_iri, s_bnode, predicate, o_iri, o_bnode, value, language, datatype = match.groups()
        subject = iri(s_iri) if s_iri is not None else BlankNode(s_bnode)
        if o_iri is not None:
            obj = iri(o_iri)
        elif o_bnode is not None:
            obj = BlankNode(o_bnode)
        else:
            obj = Literal(_unescape(value), datatype=datatype, language=language)
        yield Triple(subject, iri(predicate), obj)


def parse_ntriples_file(path: str | Path) -> list[Triple]:
    """Parse an ``.nt`` file on disk and return all triples."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(parse_ntriples(handle))


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize ``triples`` into an N-Triples document string."""
    return "".join(triple.n3() + "\n" for triple in triples)


def write_ntriples_file(triples: Iterable[Triple], path: str | Path) -> int:
    """Write ``triples`` to ``path``; return the number of statements written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for triple in triples:
            handle.write(triple.n3() + "\n")
            count += 1
    return count
