"""Source files, positions, and spans.

Every token and AST node carries a :class:`SourceSpan` so diagnostics can
point at the offending code.  A :class:`SourceFile` owns the text of one
translation unit (or header) and knows how to map byte offsets to
line/column pairs.
"""

from __future__ import annotations

import bisect

from repro._struct import FrozenStruct, Struct


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
        # Byte offsets of the first character of each line, line 0 first.
        self._line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self._line_starts.append(i + 1)

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


class SourceSpan(FrozenStruct):
    """A half-open ``[start, end)`` byte range inside a source file."""

    _fields = ("file", "start", "end")

    def __init__(self, file: SourceFile, start: int, end: int) -> None:
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Return the smallest span covering both ``self`` and ``other``."""
        if self.file is not other.file:
            # Spans from different files (e.g. across an include) cannot be
            # merged meaningfully; keep the first.
            return self
        return SourceSpan(self.file, min(self.start, other.start), max(self.end, other.end))

    @property
    def text(self) -> str:
        return self.file.text[self.start : self.end]

    def describe(self) -> str:
        """Human-readable ``file:line:col`` location string."""
        line, col = self.file.line_col(self.start)
        return f"{self.file.name}:{line}:{col}"

    def __repr__(self) -> str:
        return f"SourceSpan({self.describe()})"


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
