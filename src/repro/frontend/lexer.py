"""Tokenizer for the MiniC language.

MiniC is a C-like language: integer/bool scalars, fixed-size integer
arrays, functions, globals, ``include`` directives, and the usual C
expression and statement grammar.  The lexer is a hand-written scanner
producing a flat token list; it recovers from bad characters by emitting
an error diagnostic and skipping, so the parser always receives a
well-formed stream terminated by an EOF token.
"""

from __future__ import annotations

import enum

from repro._struct import FrozenStruct
from repro.frontend.diagnostics import DiagnosticEngine
from repro.frontend.source import SourceFile, SourceSpan


class TokenKind(enum.Enum):
    """All MiniC token kinds."""

    # Literals and identifiers
    IDENT = "identifier"
    INT_LIT = "integer literal"
    STRING_LIT = "string literal"

    # Keywords
    KW_INT = "int"
    KW_BOOL = "bool"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_DO = "do"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_CONST = "const"
    KW_EXTERN = "extern"
    KW_INCLUDE = "include"

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    QUESTION = "?"
    COLON = ":"

    # Operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AMP_AMP = "&&"
    PIPE_PIPE = "||"
    BANG = "!"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    SHL = "<<"
    SHR = ">>"

    EOF = "end of file"


KEYWORDS: dict[str, TokenKind] = {
    "int": TokenKind.KW_INT,
    "bool": TokenKind.KW_BOOL,
    "void": TokenKind.KW_VOID,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "for": TokenKind.KW_FOR,
    "do": TokenKind.KW_DO,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "const": TokenKind.KW_CONST,
    "extern": TokenKind.KW_EXTERN,
    "include": TokenKind.KW_INCLUDE,
}

# Multi-character operators, longest first so maximal munch works.
_MULTI_CHAR_OPS: list[tuple[str, TokenKind]] = [
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.AMP_AMP),
    ("||", TokenKind.PIPE_PIPE),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
]

_SINGLE_CHAR_OPS: dict[str, TokenKind] = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    "?": TokenKind.QUESTION,
    ":": TokenKind.COLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "=": TokenKind.ASSIGN,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.BANG,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "^": TokenKind.CARET,
    "~": TokenKind.TILDE,
}


class Token(FrozenStruct):
    """One lexed token with its source span and (for literals) value."""

    _fields = ("kind", "span", "text", "value")

    def __init__(
        self, kind: TokenKind, span: SourceSpan, text: str, value: int | str | None = None
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "value", value)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


class Lexer:
    """Scans a :class:`SourceFile` into a list of tokens."""

    def __init__(self, source: SourceFile, diags: DiagnosticEngine | None = None):
        self.source = source
        self.diags = diags or DiagnosticEngine()
        self._pos = 0
        self._text = source.text

    def tokenize(self) -> list[Token]:
        """Scan the whole file; always ends with an EOF token."""
        tokens: list[Token] = []
        while True:
            tok = self._next_token()
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                return tokens

    # -- scanning helpers -------------------------------------------------

    def _span(self, start: int) -> SourceSpan:
        return SourceSpan(self.source, start, self._pos)

    def _peek(self, ahead: int = 0) -> str:
        idx = self._pos + ahead
        return self._text[idx] if idx < len(self._text) else ""

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments (line and block)."""
        text = self._text
        while self._pos < len(text):
            ch = text[self._pos]
            if ch in " \t\r\n":
                self._pos += 1
            elif ch == "/" and self._peek(1) == "/":
                end = text.find("\n", self._pos)
                self._pos = len(text) if end == -1 else end + 1
            elif ch == "/" and self._peek(1) == "*":
                end = text.find("*/", self._pos + 2)
                if end == -1:
                    self.diags.error(
                        "unterminated block comment", SourceSpan(self.source, self._pos, len(text))
                    )
                    self._pos = len(text)
                else:
                    self._pos = end + 2
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        start = self._pos
        text = self._text
        if start >= len(text):
            return Token(TokenKind.EOF, SourceSpan(self.source, start, start), "")

        ch = text[start]

        if ch.isalpha() or ch == "_":
            return self._lex_ident(start)
        if ch.isdigit():
            return self._lex_number(start)
        if ch == '"':
            return self._lex_string(start)

        for op, kind in _MULTI_CHAR_OPS:
            if text.startswith(op, start):
                self._pos = start + len(op)
                return Token(kind, self._span(start), op)
        if ch in _SINGLE_CHAR_OPS:
            self._pos = start + 1
            return Token(_SINGLE_CHAR_OPS[ch], self._span(start), ch)

        # Unknown character: report, skip it, and continue.
        self._pos = start + 1
        self.diags.error(f"unexpected character {ch!r}", self._span(start))
        return self._next_token()

    def _lex_ident(self, start: int) -> Token:
        text = self._text
        pos = start
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        self._pos = pos
        word = text[start:pos]
        kind = KEYWORDS.get(word, TokenKind.IDENT)
        return Token(kind, self._span(start), word)

    def _lex_number(self, start: int) -> Token:
        text = self._text
        pos = start
        base = 10
        if text.startswith(("0x", "0X"), start):
            base = 16
            pos = start + 2
            while pos < len(text) and (text[pos] in "0123456789abcdefABCDEF"):
                pos += 1
            digits = text[start + 2 : pos]
            if not digits:
                self._pos = pos
                self.diags.error("hex literal needs at least one digit", self._span(start))
                return Token(TokenKind.INT_LIT, self._span(start), text[start:pos], 0)
        else:
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            digits = text[start:pos]
        self._pos = pos
        value = int(digits, base)
        return Token(TokenKind.INT_LIT, self._span(start), text[start:pos], value)

    def _lex_string(self, start: int) -> Token:
        text = self._text
        pos = start + 1
        chars: list[str] = []
        while pos < len(text) and text[pos] != '"':
            if text[pos] == "\\" and pos + 1 < len(text):
                esc = text[pos + 1]
                chars.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0"}.get(esc, esc))
                pos += 2
            elif text[pos] == "\n":
                break
            else:
                chars.append(text[pos])
                pos += 1
        if pos >= len(text) or text[pos] != '"':
            self._pos = pos
            self.diags.error("unterminated string literal", self._span(start))
            return Token(TokenKind.STRING_LIT, self._span(start), text[start:pos], "".join(chars))
        self._pos = pos + 1
        return Token(TokenKind.STRING_LIT, self._span(start), text[start : pos + 1], "".join(chars))


def tokenize(source: SourceFile, diags: DiagnosticEngine | None = None) -> list[Token]:
    """Convenience wrapper: lex ``source`` and return its tokens."""
    return Lexer(source, diags).tokenize()
