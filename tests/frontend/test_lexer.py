"""Lexer tests."""

import hashlib

import pytest

from repro.frontend.diagnostics import DiagnosticEngine
from repro.frontend.lexer import Lexer, TokenKind, tokenize
from repro.frontend.source import SourceFile


def lex(text: str):
    diags = DiagnosticEngine()
    tokens = tokenize(SourceFile("t.mc", text), diags)
    return tokens, diags


def kinds(text: str):
    tokens, _ = lex(text)
    return [t.kind for t in tokens[:-1]]  # drop EOF


class TestBasicTokens:
    def test_empty_input_gives_eof(self):
        tokens, diags = lex("")
        assert [t.kind for t in tokens] == [TokenKind.EOF]
        assert not diags.has_errors

    def test_identifier(self):
        tokens, _ = lex("foo _bar baz42")
        assert [t.text for t in tokens[:-1]] == ["foo", "_bar", "baz42"]
        assert all(t.kind is TokenKind.IDENT for t in tokens[:-1])

    def test_keywords(self):
        assert kinds("int bool void if else while for return") == [
            TokenKind.KW_INT,
            TokenKind.KW_BOOL,
            TokenKind.KW_VOID,
            TokenKind.KW_IF,
            TokenKind.KW_ELSE,
            TokenKind.KW_WHILE,
            TokenKind.KW_FOR,
            TokenKind.KW_RETURN,
        ]

    def test_keyword_prefix_is_identifier(self):
        tokens, _ = lex("integer iffy")
        assert all(t.kind is TokenKind.IDENT for t in tokens[:-1])

    def test_decimal_literal(self):
        tokens, _ = lex("0 7 1234567890")
        assert [t.value for t in tokens[:-1]] == [0, 7, 1234567890]

    def test_hex_literal(self):
        tokens, _ = lex("0x10 0xfF 0X0")
        assert [t.value for t in tokens[:-1]] == [16, 255, 0]

    def test_bad_hex_reports_error(self):
        _, diags = lex("0x")
        assert diags.has_errors

    def test_string_literal(self):
        tokens, _ = lex('"hello.mh"')
        assert tokens[0].kind is TokenKind.STRING_LIT
        assert tokens[0].value == "hello.mh"

    def test_string_escapes(self):
        tokens, _ = lex(r'"a\nb\t\\\""')
        assert tokens[0].value == 'a\nb\t\\"'

    def test_unterminated_string(self):
        _, diags = lex('"oops')
        assert diags.has_errors


class TestOperators:
    def test_maximal_munch(self):
        assert kinds("<< <= < == = >= >> >") == [
            TokenKind.SHL,
            TokenKind.LE,
            TokenKind.LT,
            TokenKind.EQ,
            TokenKind.ASSIGN,
            TokenKind.GE,
            TokenKind.SHR,
            TokenKind.GT,
        ]

    def test_compound_assignment(self):
        assert kinds("+= -= *= /= %=") == [
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
            TokenKind.STAR_ASSIGN,
            TokenKind.SLASH_ASSIGN,
            TokenKind.PERCENT_ASSIGN,
        ]

    def test_incdec(self):
        assert kinds("++ -- + -") == [
            TokenKind.PLUS_PLUS,
            TokenKind.MINUS_MINUS,
            TokenKind.PLUS,
            TokenKind.MINUS,
        ]

    def test_logical_and_bitwise(self):
        assert kinds("&& & || | ^ ~ !") == [
            TokenKind.AMP_AMP,
            TokenKind.AMP,
            TokenKind.PIPE_PIPE,
            TokenKind.PIPE,
            TokenKind.CARET,
            TokenKind.TILDE,
            TokenKind.BANG,
        ]

    def test_punctuation(self):
        assert kinds("( ) { } [ ] ; , ? :") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.SEMI,
            TokenKind.COMMA,
            TokenKind.QUESTION,
            TokenKind.COLON,
        ]


class TestTrivia:
    def test_line_comment(self):
        assert kinds("1 // comment with * and /\n2") == [TokenKind.INT_LIT, TokenKind.INT_LIT]

    def test_block_comment(self):
        assert kinds("1 /* multi\nline */ 2") == [TokenKind.INT_LIT, TokenKind.INT_LIT]

    def test_unterminated_block_comment(self):
        _, diags = lex("1 /* never ends")
        assert diags.has_errors

    def test_comment_at_eof(self):
        tokens, diags = lex("// only a comment")
        assert tokens[-1].kind is TokenKind.EOF
        assert not diags.has_errors

    def test_unknown_character_reported_and_skipped(self):
        tokens, diags = lex("1 $ 2")
        assert diags.has_errors
        assert [t.kind for t in tokens[:-1]] == [TokenKind.INT_LIT, TokenKind.INT_LIT]


class TestSpans:
    def test_token_spans_cover_text(self):
        text = "int x = 42;"
        tokens, _ = lex(text)
        for tok in tokens[:-1]:
            assert text[tok.span.start : tok.span.end] == tok.text

    def test_span_line_info(self):
        tokens, _ = lex("a\n  b")
        assert tokens[1].span.describe().endswith(":2:3")


def stream(text: str):
    """Every token as (kind, start, end, text, value), and every
    diagnostic as (message, start, end)."""
    tokens, diags = lex(text)
    return (
        [(t.kind.name, t.span.start, t.span.end, t.text, t.value) for t in tokens],
        [(d.message, d.span.start, d.span.end) for d in diags.diagnostics],
    )


def eof(at: int):
    return ("EOF", at, at, "", None)


class TestEdgeCases:
    """Tokens, spans, diagnostics and recovery at the scanner's corners."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a/b", [("IDENT", 0, 1, "a", None), ("SLASH", 1, 2, "/", None),
                     ("IDENT", 2, 3, "b", None), eof(3)]),
            ("a//b", [("IDENT", 0, 1, "a", None), eof(4)]),
            ("a/*b*/c", [("IDENT", 0, 1, "a", None), ("IDENT", 6, 7, "c", None), eof(7)]),
            ("a/=b", [("IDENT", 0, 1, "a", None), ("SLASH_ASSIGN", 1, 3, "/=", None),
                      ("IDENT", 3, 4, "b", None), eof(4)]),
            ("x/", [("IDENT", 0, 1, "x", None), ("SLASH", 1, 2, "/", None), eof(2)]),
            ("x//", [("IDENT", 0, 1, "x", None), eof(3)]),
            ("x/=", [("IDENT", 0, 1, "x", None), ("SLASH_ASSIGN", 1, 3, "/=", None), eof(3)]),
            ("/", [("SLASH", 0, 1, "/", None), eof(1)]),
            ("//", [eof(2)]),
            ("/**/", [eof(4)]),
            ("/*/ */x", [("IDENT", 6, 7, "x", None), eof(7)]),
        ],
    )
    def test_slash_comment_and_divide_assign(self, text, expected):
        assert stream(text) == (expected, [])

    @pytest.mark.parametrize("text", ["/*", "x/*"])
    def test_block_comment_opened_at_eof(self, text):
        start = len(text) - 2
        tokens, diags = stream(text)
        assert tokens[-1] == eof(len(text))
        assert diags == [("unterminated block comment", start, len(text))]

    def test_line_comment_at_eof_without_newline(self):
        assert stream("1 // no newline") == ([("INT_LIT", 0, 1, "1", 1), eof(15)], [])

    def test_unterminated_block_comment_runs_to_eof(self):
        assert stream("1 /* never\n ends") == (
            [("INT_LIT", 0, 1, "1", 1), eof(16)],
            [("unterminated block comment", 2, 16)],
        )

    def test_unterminated_string_stops_at_the_newline(self):
        assert stream('"oops\nx') == (
            [("STRING_LIT", 0, 5, '"oops', "oops"), ("IDENT", 6, 7, "x", None), eof(7)],
            [("unterminated string literal", 0, 5)],
        )

    def test_unterminated_string_at_eof(self):
        assert stream('"oops') == (
            [("STRING_LIT", 0, 5, '"oops', "oops"), eof(5)],
            [("unterminated string literal", 0, 5)],
        )

    def test_escaped_quote_does_not_close_a_string(self):
        assert stream('"a\\"') == (
            [("STRING_LIT", 0, 4, '"a\\"', 'a"'), eof(4)],
            [("unterminated string literal", 0, 4)],
        )

    def test_lone_backslash_at_eof_is_kept(self):
        assert stream('x "a\\') == (
            [("IDENT", 0, 1, "x", None), ("STRING_LIT", 2, 5, '"a\\', "a\\"), eof(5)],
            [("unterminated string literal", 2, 5)],
        )

    def test_every_string_escape(self):
        text = r'"\n\t\\\"\0\q"'
        assert stream(text) == ([("STRING_LIT", 0, 14, text, '\n\t\\"\0q'), eof(14)], [])

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0x", [("INT_LIT", 0, 2, "0x", 0), eof(2)]),
            ("0X", [("INT_LIT", 0, 2, "0X", 0), eof(2)]),
            ("0x;", [("INT_LIT", 0, 2, "0x", 0), ("SEMI", 2, 3, ";", None), eof(3)]),
            ("0xg", [("INT_LIT", 0, 2, "0x", 0), ("IDENT", 2, 3, "g", None), eof(3)]),
        ],
    )
    def test_hex_prefix_without_digits(self, text, expected):
        assert stream(text) == (expected, [("hex literal needs at least one digit", 0, 2)])

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0x1F", [("INT_LIT", 0, 4, "0x1F", 31), eof(4)]),
            ("0x1fG", [("INT_LIT", 0, 4, "0x1f", 31), ("IDENT", 4, 5, "G", None), eof(5)]),
            ("5x", [("INT_LIT", 0, 1, "5", 5), ("IDENT", 1, 2, "x", None), eof(2)]),
            ("007", [("INT_LIT", 0, 3, "007", 7), eof(3)]),
        ],
    )
    def test_number_boundaries(self, text, expected):
        assert stream(text) == (expected, [])

    def test_crlf_line_endings(self):
        tokens, _ = lex("a\r\nb\r\n")
        assert stream("a\r\nb\r\n") == (
            [("IDENT", 0, 1, "a", None), ("IDENT", 3, 4, "b", None), eof(6)], []
        )
        assert tokens[1].span.describe() == "t.mc:2:1"

    @pytest.mark.parametrize(
        "text, expected, diags",
        [
            ("@#`", [eof(3)], [("unexpected character '@'", 0, 1),
                               ("unexpected character '#'", 1, 2),
                               ("unexpected character '`'", 2, 3)]),
            ("a\x0cb", [("IDENT", 0, 1, "a", None), ("IDENT", 2, 3, "b", None), eof(3)],
             [("unexpected character '\\x0c'", 1, 2)]),
            ("é1 ½2", [("IDENT", 0, 2, "é1", None), ("INT_LIT", 4, 5, "2", 2), eof(5)],
             [("unexpected character '½'", 3, 4)]),
        ],
    )
    def test_unknown_characters(self, text, expected, diags):
        assert stream(text) == (expected, diags)

    def test_superscript_digit_is_an_unknown_character(self):
        # The hand-written scanner took '²' for a digit and crashed in int().
        assert stream("²1") == (
            [("INT_LIT", 1, 2, "1", 1), eof(2)], [("unexpected character '²'", 0, 1)]
        )

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a+++b", ["IDENT", "PLUS_PLUS", "PLUS", "IDENT"]),
            ("a--->b", ["IDENT", "MINUS_MINUS", "MINUS", "GT", "IDENT"]),
            ("<<=", ["SHL", "ASSIGN"]),
            ("!==", ["NE", "ASSIGN"]),
            ("&&&", ["AMP_AMP", "AMP"]),
            ("|||", ["PIPE_PIPE", "PIPE"]),
        ],
    )
    def test_maximal_munch_runs(self, text, expected):
        assert [t.name for t in kinds(text)] == expected


def token_stream_digest(preset: str) -> str:
    """sha256 over every token and diagnostic of a preset's files."""
    from repro.workload import generate_project, make_preset

    project = generate_project(make_preset(preset, seed=1))
    digest = hashlib.sha256()
    for path in sorted(project.files):
        diags = DiagnosticEngine()
        for tok in tokenize(SourceFile(path, project.files[path]), diags):
            fields = (path, tok.kind.name, tok.span.start, tok.span.end, tok.text, tok.value)
            digest.update(repr(fields).encode())
        for d in diags.diagnostics:
            digest.update(repr((d.message, d.span.start, d.span.end)).encode())
    return digest.hexdigest()


#: Digests of the hand-written scanner's output that the regex scanner
#: replaced; regenerate with ``token_stream_digest(preset)`` only for a
#: change that is meant to alter the token stream.
TOKEN_STREAM_DIGESTS = {
    "small": "937f39ad45485b37b8f9e7b0a2daadee3264c20fb74796a8cc35a351ef654859",
    "medium": "a5622061508a7350bd0af7e9288832721c94efb1df5714a58e1633a8e9c50dc5",
}


@pytest.mark.parametrize("preset", sorted(TOKEN_STREAM_DIGESTS))
def test_token_stream_of_generated_projects(preset):
    assert token_stream_digest(preset) == TOKEN_STREAM_DIGESTS[preset]
