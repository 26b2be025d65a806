"""Frontend for the MiniC language: lexing, parsing, semantic analysis.

The frontend turns source text into a type-checked AST.  It is the first
stage of the ``repro`` compiler pipeline and is deliberately structured
like a conventional production frontend (Clang-style):

- :mod:`repro.frontend.source` — source files, positions, and spans.
- :mod:`repro.frontend.diagnostics` — error/warning reporting.
- :mod:`repro.frontend.lexer` — tokenization.
- :mod:`repro.frontend.ast` — AST node definitions and visitors.
- :mod:`repro.frontend.parser` — recursive-descent parser.
- :mod:`repro.frontend.sema` — symbol tables and type checking.
- :mod:`repro.frontend.includes` — ``include`` directive resolution.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Diagnostic",
    "DiagnosticEngine",
    "Severity",
    "Lexer",
    "Token",
    "TokenKind",
    "Parser",
    "parse_source",
    "Sema",
    "analyze",
    "SourceFile",
    "SourceSpan",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.frontend.diagnostics": ("Diagnostic", "DiagnosticEngine", "Severity"),
    "repro.frontend.lexer": ("Lexer", "Token", "TokenKind"),
    "repro.frontend.parser": ("Parser", "parse_source"),
    "repro.frontend.sema": ("Sema", "analyze"),
    "repro.frontend.source": ("SourceFile", "SourceSpan"),
})
