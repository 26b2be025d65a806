"""Tokenizer for the MiniC language.

MiniC is a C-like language: integer/bool scalars, fixed-size integer
arrays, functions, globals, ``include`` directives, and the usual C
expression and statement grammar.  The lexer is one compiled regular
expression: each match is the trivia (whitespace and comments) before
a token plus the token, and the named group that matched says what the
token is.  Error alternatives (``0x`` without digits, an unterminated
comment or string, an unknown character) report a diagnostic and the
scan resumes after them, so the parser always receives a well-formed
stream terminated by an EOF token.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.frontend.diagnostics import DiagnosticEngine
from repro.frontend.source import SourceFile, SourceSpan


class TokenKind(enum.Enum):
    """All MiniC token kinds."""

    # Members are singletons: hash by identity in C, not by name in Python.
    __hash__ = object.__hash__

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

#: Every operator and punctuation token by its text (the kinds whose
#: value is not a word).
_OPERATORS: dict[str, TokenKind] = {
    kind.value: kind for kind in TokenKind if not kind.value[0].isalpha()
}

_TOKEN = re.compile(
    r"""
    (?:[ \t\r\n]+ | //[^\n]*\n? | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*
    (?:
        (?P<ident>[A-Za-z_]\w*)
      | (?P<comment>/\*[\s\S]*)
      | (?P<op><< | >> | [<>=!]= | && | \|\| | \+\+ | -- | [-+*/%]=
          | [-+*/%(){}\[\];,?:=<>!&|^~])
      | (?P<hex>0[xX][0-9a-fA-F]+)
      | (?P<badhex>0[xX])
      | (?P<int>\d+)
      | (?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")
      | (?P<open_string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*\\?)
      | (?P<word>[^\W\d]\w*)
      | (?P<eof>\Z)
      | (?P<bad>[\s\S])
    )
    """,
    re.VERBOSE,
)
#: Builds a named tuple from a tuple of its fields at C speed, without
#: the generated ``__new__``'s Python frame.
_new = tuple.__new__
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "0": "\0"}


def _unescape(match: re.Match) -> str:
    char = match.group(1)
    return _ESCAPES.get(char, char)


class Token(NamedTuple):
    """One lexed token with its source span and (for literals) value."""

    kind: TokenKind
    span: SourceSpan
    text: str
    value: int | str | None = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


class Lexer:
    """Scans a :class:`SourceFile` into a list of tokens."""

    def __init__(self, source: SourceFile, diags: DiagnosticEngine | None = None):
        self.source = source
        self.diags = diags or DiagnosticEngine()

    def tokenize(self) -> list[Token]:
        """Scan the whole file; always ends with an EOF token."""
        tokens: list[Token] = []
        end = len(self.source.text)
        self._scan(tokens, 0, end)
        eof = _new(SourceSpan, (self.source, end, end))
        tokens.append(_new(Token, (TokenKind.EOF, eof, "", None)))
        return tokens

    def _scan(self, tokens: list[Token], pos: int, endpos: int) -> None:
        """Append the tokens of ``text[pos:endpos]`` to ``tokens``."""
        source, text, append = self.source, self.source.text, tokens.append
        keywords, operators, ident = KEYWORDS, _OPERATORS, TokenKind.IDENT
        for match in _TOKEN.finditer(text, pos, endpos):
            group = match.lastgroup
            start = match.start(group)
            end = match.end()
            word = text[start:end]
            span = _new(SourceSpan, (source, start, end))
            if group == "ident":
                append(_new(Token, (keywords.get(word, ident), span, word, None)))
            elif group == "op":
                append(_new(Token, (operators[word], span, word, None)))
            elif group == "int":
                append(_new(Token, (TokenKind.INT_LIT, span, word, int(word))))
            elif group == "hex":
                append(_new(Token, (TokenKind.INT_LIT, span, word, int(word, 16))))
            elif group == "string":
                value = word[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(_unescape, value)
                append(_new(Token, (TokenKind.STRING_LIT, span, word, value)))
            elif group == "eof":
                return
            elif group == "open_string":
                self.diags.error("unterminated string literal", span)
                value = _ESCAPE.sub(_unescape, word[1:])
                append(_new(Token, (TokenKind.STRING_LIT, span, word, value)))
            elif group == "badhex":
                self.diags.error("hex literal needs at least one digit", span)
                append(_new(Token, (TokenKind.INT_LIT, span, word, 0)))
            elif group == "comment":
                self.diags.error("unterminated block comment", span)
            elif group == "word" and word[0].isalpha():
                append(_new(Token, (keywords.get(word, ident), span, word, None)))
            else:
                # An unknown character (or a word starting with a numeric
                # character that is not a digit): report it, skip it, and
                # scan the rest of the word on its own.
                span = _new(SourceSpan, (source, start, start + 1))
                self.diags.error(f"unexpected character {word[0]!r}", span)
                if end > start + 1:
                    self._scan(tokens, start + 1, end)


def tokenize(source: SourceFile, diags: DiagnosticEngine | None = None) -> list[Token]:
    """Convenience wrapper: lex ``source`` and return its tokens."""
    return Lexer(source, diags).tokenize()
