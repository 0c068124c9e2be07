"""Unit tests for the N-Triples parser and serializer."""

import io

import pytest

from repro.rdf.ntriples import (
    _STATEMENT_RE,
    NTriplesParseError,
    parse_ntriples,
    parse_ntriples_file,
    parse_ntriples_line,
    serialize_ntriples,
    write_ntriples_file,
)
from repro.rdf.terms import IRI, BlankNode, Literal, Triple


class TestParsing:
    def test_simple_triple(self):
        doc = "<http://e/s> <http://e/p> <http://e/o> .\n"
        (triple,) = list(parse_ntriples(doc))
        assert triple == Triple(IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o"))

    def test_literal_object(self):
        doc = '<http://e/s> <http://e/p> "hello world" .'
        (triple,) = list(parse_ntriples(doc))
        assert triple.object == Literal("hello world")

    def test_language_tag(self):
        doc = '<http://e/s> <http://e/p> "bonjour"@fr .'
        (triple,) = list(parse_ntriples(doc))
        assert triple.object == Literal("bonjour", language="fr")

    def test_datatype(self):
        doc = '<http://e/s> <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        (triple,) = list(parse_ntriples(doc))
        assert triple.object.datatype == "http://www.w3.org/2001/XMLSchema#integer"

    def test_blank_nodes(self):
        doc = "_:a <http://e/p> _:b ."
        (triple,) = list(parse_ntriples(doc))
        assert triple.subject == BlankNode("a")
        assert triple.object == BlankNode("b")

    def test_escaped_quotes_and_newlines(self):
        doc = r'<http://e/s> <http://e/p> "line1\nline2 \"quoted\"" .'
        (triple,) = list(parse_ntriples(doc))
        assert triple.object.value == 'line1\nline2 "quoted"'

    def test_unicode_escape(self):
        doc = r'<http://e/s> <http://e/p> "café" .'
        (triple,) = list(parse_ntriples(doc))
        assert triple.object.value == "café"

    def test_comments_and_blank_lines_skipped(self):
        doc = "\n# a comment\n<http://e/s> <http://e/p> <http://e/o> .\n\n"
        assert len(list(parse_ntriples(doc))) == 1

    def test_multiple_lines(self):
        doc = "\n".join(
            f"<http://e/s{i}> <http://e/p> <http://e/o{i}> ." for i in range(10)
        )
        assert len(list(parse_ntriples(doc))) == 10

    def test_missing_dot_rejected(self):
        with pytest.raises(NTriplesParseError):
            list(parse_ntriples("<http://e/s> <http://e/p> <http://e/o>"))

    def test_literal_subject_rejected(self):
        with pytest.raises(NTriplesParseError):
            list(parse_ntriples('"s" <http://e/p> <http://e/o> .'))

    def test_malformed_term_rejected(self):
        with pytest.raises(NTriplesParseError):
            list(parse_ntriples("http://e/s <http://e/p> <http://e/o> ."))

    def test_error_reports_line_number(self):
        doc = "<http://e/s> <http://e/p> <http://e/o> .\nbad line .\n"
        with pytest.raises(NTriplesParseError) as excinfo:
            list(parse_ntriples(doc))
        assert "line 2" in str(excinfo.value)


class TestSerialization:
    def test_round_trip(self):
        triples = [
            Triple(IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o")),
            Triple(IRI("http://e/s"), IRI("http://e/q"), Literal("a b", language="en")),
            Triple(BlankNode("n1"), IRI("http://e/p"), Literal("42", datatype="http://t/int")),
        ]
        doc = serialize_ntriples(triples)
        assert list(parse_ntriples(doc)) == triples

    def test_file_round_trip(self, tmp_path):
        triples = [
            Triple(IRI(f"http://e/s{i}"), IRI("http://e/p"), Literal(str(i))) for i in range(5)
        ]
        path = tmp_path / "data.nt"
        written = write_ntriples_file(triples, path)
        assert written == 5
        assert parse_ntriples_file(path) == triples


#: Lines the whole-statement fast path takes.
FAST_LINES = [
    "<http://e/s> <http://e/p> <http://e/o> .\n",
    '<http://e/s> <http://e/p> "plain words" .\n',
    '<http://e/s> <http://e/p> "" .\n',
    '<http://e/s> <http://e/p> "a \\"quoted\\" \\n line\\t\\\\ \\r" .\n',
    '<http://e/s> <http://e/p> "caf\\u00e9 \\U0001F600" .\n',
    '<http://e/s> <http://e/p> "bonjour"@fr .\n',
    '<http://e/s> <http://e/p> "colour"@en-GB .\n',
    '<http://e/s> <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .\n',
    "_:b1 <http://e/p> _:b-2.x .\n",
    "_:a<http://e/p>_:b .\n",
    "<http://e/s> <http://e/p> <http://e/o> .\r\n",
    "<http://e/s>\t<http://e/p>\t<http://e/o>\t.\n",
    "<http://e/s><http://e/p><http://e/o>.\n",
    '<http://e/s><http://e/p>"x"@en.\n',
    '<http://e/s><http://e/p>"7"^^<http://t/int>.',
    "   <http://e/s> <http://e/p> <http://e/café> .   \n",
]

#: Valid lines the fast path leaves to the term-by-term parser.
SLOW_LINES = [
    "\n",
    "# a comment\n",
    "   # an indented comment\r\n",
    "\u00a0<http://e/s> <http://e/p> <http://e/o> .\n",
    "<http://e/s>\u2003<http://e/p> <http://e/o> .\n",
    "<http://e/s> <http://e/p> <http://e/o> .\x0c\n",
]

MALFORMED_LINES = [
    "<http://e/s> <http://e/p> <http://e/o>\n",
    '"s" <http://e/p> <http://e/o> .\n',
    '<http://e/s> "p" <http://e/o> .\n',
    "<http://e/s> _:p <http://e/o> .\n",
    "http://e/s <http://e/p> <http://e/o> .\n",
    "<http://e/s b> <http://e/p> <http://e/o> .\n",
    "_:-x <http://e/p> <http://e/o> .\n",
    '<http://e/s> <http://e/p> "unterminated .\n',
    '<http://e/s> <http://e/p> "x"@ .\n',
    '<http://e/s> <http://e/p> "x"@en- .\n',
    '<http://e/s> <http://e/p> "x"^^<bad dt> .\n',
    "<http://e/s> <http://e/p> _:b.\n",
    "<http://e/s> <http://e/p> <http://e/o> . extra\n",
    "<http://e/s> <http://e/p> <http://e/o> . # trailing comment\n",
    "<http://e/s> <http://e/p> <http://e/o> .. \n",
    '<http://e/s> <http://e/p> "bad \\q escape" .\n',
    '<http://e/s> <http://e/p> "bad \\u12" .\n',
    "<http://e/s> <http://e/p>\n",
    "<> <http://e/p> <http://e/o> .\n",
]


class TestStatementFastPath:
    """The whole-statement regex agrees with the term-by-term parser."""

    @pytest.mark.parametrize("line", FAST_LINES)
    def test_valid_fast_lines_give_the_same_triple(self, line):
        assert _STATEMENT_RE.fullmatch(line) is not None
        assert list(parse_ntriples([line])) == [parse_ntriples_line(line, 1)]

    @pytest.mark.parametrize("line", SLOW_LINES)
    def test_other_valid_lines_fall_back(self, line):
        assert _STATEMENT_RE.fullmatch(line) is None
        expected = parse_ntriples_line(line, 1)
        assert list(parse_ntriples([line])) == ([] if expected is None else [expected])

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_lines_raise_the_term_by_term_error(self, line):
        with pytest.raises(ValueError) as expected:
            parse_ntriples_line(line, 3)
        document = [FAST_LINES[0], "# ok\n", line, FAST_LINES[1]]
        with pytest.raises(ValueError) as raised:
            list(parse_ntriples(document))
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        line_number = getattr(expected.value, "line_number", None)
        assert getattr(raised.value, "line_number", None) == line_number

    def test_whole_document_matches_line_by_line(self):
        document = "".join(line.rstrip("\n") + "\n" for line in FAST_LINES + SLOW_LINES)
        expected = [
            triple
            for number, line in enumerate(io.StringIO(document), start=1)
            if (triple := parse_ntriples_line(line, number)) is not None
        ]
        assert list(parse_ntriples(document)) == expected

    def test_iris_are_interned_per_document(self):
        doc = "<http://e/s> <http://e/p> <http://e/o> .\n<http://e/o> <http://e/p> <http://e/s> .\n"
        first, second = parse_ntriples(doc)
        assert first.subject is second.object
        assert first.predicate is second.predicate
