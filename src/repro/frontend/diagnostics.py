"""Diagnostic reporting: errors, warnings, and notes with source locations.

The :class:`DiagnosticEngine` collects diagnostics during a compilation.
Stages (lexer, parser, sema) report through it rather than raising, so a
single run can surface multiple problems; a :class:`CompileError` is only
raised at stage boundaries when errors make continuing pointless.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro._struct import FrozenStruct, Struct

if TYPE_CHECKING:  # pragma: no cover
    from repro.frontend.source import SourceSpan


class Severity(enum.Enum):
    """How serious a diagnostic is."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Diagnostic(FrozenStruct):
    """One reported problem, optionally anchored to a source span."""

    _fields = ("severity", "message", "span")

    def __init__(
        self, severity: Severity, message: str, span: SourceSpan | None = None
    ) -> None:
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "span", span)

    def render(self, *, show_snippet: bool = True) -> str:
        """Format the diagnostic as a human-readable multi-line string."""
        loc = f"{self.span.describe()}: " if self.span else ""
        out = [f"{loc}{self.severity}: {self.message}"]
        if show_snippet and self.span is not None:
            line, col = self.span.file.line_col(self.span.start)
            try:
                text = self.span.file.line_text(line)
            except ValueError:
                return "\n".join(out)
            out.append(text)
            width = max(1, min(self.span.end, len(text) + 1) - self.span.start)
            out.append(" " * (col - 1) + "^" + "~" * (width - 1))
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render(show_snippet=False)


class CompileError(Exception):
    """Raised when a compilation stage cannot proceed.

    Carries the diagnostics accumulated up to the failure so callers can
    display them all.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        summary = "; ".join(str(d) for d in diagnostics[:5])
        if len(diagnostics) > 5:
            summary += f" (+{len(diagnostics) - 5} more)"
        super().__init__(summary or "compilation failed")


class DiagnosticEngine(Struct):
    """Accumulates diagnostics for one compilation."""

    _fields = ("diagnostics",)

    def __init__(self, diagnostics: list[Diagnostic] | None = None) -> None:
        self.diagnostics = [] if diagnostics is None else diagnostics

    def report(self, severity: Severity, message: str, span: SourceSpan | None = None) -> Diagnostic:
        diag = Diagnostic(severity, message, span)
        self.diagnostics.append(diag)
        return diag

    def error(self, message: str, span: SourceSpan | None = None) -> Diagnostic:
        return self.report(Severity.ERROR, message, span)

    def warning(self, message: str, span: SourceSpan | None = None) -> Diagnostic:
        return self.report(Severity.WARNING, message, span)

    def note(self, message: str, span: SourceSpan | None = None) -> Diagnostic:
        return self.report(Severity.NOTE, message, span)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def check(self) -> None:
        """Raise :class:`CompileError` if any errors were reported."""
        if self.has_errors:
            raise CompileError(self.errors)

    def render_all(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)
