"""Source files, positions, and spans.

Every token and AST node carries a :class:`SourceSpan` so diagnostics can
point at the offending code.  A :class:`SourceFile` owns the text of one
translation unit (or header) and knows how to map byte offsets to
line/column pairs.
"""

from __future__ import annotations

import bisect
import re
from typing import NamedTuple

from repro._struct import Struct

_NEWLINE = re.compile("\n")


class SourceFile:
    """An in-memory source file with offset -> line/column mapping.

    Parameters
    ----------
    name:
        Display name (usually a path) used in diagnostics.
    text:
        Full file contents.
    """

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.text = text
        self._starts: list[int] | None = None

    @property
    def _line_starts(self) -> list[int]:
        """Offsets of the first character of each line, line 0 first.

        Computed on first use: only diagnostics map offsets to lines.
        """
        if self._starts is None:
            self._starts = [0] + [m.end() for m in _NEWLINE.finditer(self.text)]
        return self._starts

    def line_col(self, offset: int) -> tuple[int, int]:
        """Return the 1-based ``(line, column)`` of a byte offset."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        offset = min(offset, len(self.text))
        line = bisect.bisect_right(self._line_starts, offset) - 1
        col = offset - self._line_starts[line]
        return line + 1, col + 1

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line number (without newline)."""
        if line < 1 or line > len(self._line_starts):
            raise ValueError(f"line {line} out of range for {self.name}")
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    @property
    def num_lines(self) -> int:
        return len(self._line_starts)

    def __repr__(self) -> str:
        return f"SourceFile({self.name!r}, {len(self.text)} bytes)"


class SourceSpan(NamedTuple):
    """A half-open ``[start, end)`` byte range inside a source file."""

    file: SourceFile
    start: int
    end: int

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Return the smallest span covering both ``self`` and ``other``."""
        file, start, end = self
        if file is not other.file:
            # Spans from different files (e.g. across an include) cannot be
            # merged meaningfully; keep the first.
            return self
        other_start, other_end = other.start, other.end
        return _new(SourceSpan, (
            file,
            start if start <= other_start else other_start,
            end if end >= other_end else other_end,
        ))

    @property
    def text(self) -> str:
        return self.file.text[self.start : self.end]

    def describe(self) -> str:
        """Human-readable ``file:line:col`` location string."""
        line, col = self.file.line_col(self.start)
        return f"{self.file.name}:{line}:{col}"

    def __repr__(self) -> str:
        return f"SourceSpan({self.describe()})"


#: Builds a named tuple from a tuple of its fields at C speed, without
#: the generated ``__new__``'s Python frame.
_new = tuple.__new__


class SourceManager(Struct):
    """Registry of all source files seen during a compilation.

    Keeps files alive and deduplicates them by name so that headers
    included by several translation units are loaded once.
    """

    _fields = ("files",)

    def __init__(self, files: dict[str, SourceFile] | None = None) -> None:
        self.files = {} if files is None else files

    def add(self, name: str, text: str) -> SourceFile:
        """Register (or replace) a file's contents and return it."""
        sf = SourceFile(name, text)
        self.files[name] = sf
        return sf

    def get(self, name: str) -> SourceFile | None:
        return self.files.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.files

    def __len__(self) -> int:
        return len(self.files)
