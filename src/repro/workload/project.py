"""In-memory project representation."""

from __future__ import annotations

from pathlib import Path

from repro._struct import Struct
from repro.frontend.includes import MemoryFileProvider


class Project(Struct):
    """A MiniC project: file texts keyed by relative path."""

    _fields = ("name", "files")

    def __init__(self, name: str, files: dict[str, str] | None = None) -> None:
        self.name = name
        self.files = {} if files is None else files

    @property
    def unit_paths(self) -> list[str]:
        """Translation units (.mc files), sorted for determinism."""
        return sorted(p for p in self.files if p.endswith(".mc"))

    @property
    def header_paths(self) -> list[str]:
        return sorted(p for p in self.files if p.endswith(".mh"))

    def provider(self) -> MemoryFileProvider:
        return MemoryFileProvider(self.files)

    @property
    def total_lines(self) -> int:
        return sum(text.count("\n") + 1 for text in self.files.values())

    def count_functions(self) -> int:
        """Number of function *definitions* across translation units."""
        from repro.frontend.parser import parse_source

        count = 0
        for path in self.unit_paths:
            program, _ = parse_source(path, self.files[path])
            count += sum(1 for f in program.functions if f.is_definition)
        return count

    def write_to(self, directory: str | Path) -> None:
        """Materialize the project on disk (for the CLI tools)."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        for path, text in self.files.items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)

    @classmethod
    def read_from(cls, directory: str | Path, name: str | None = None) -> "Project":
        """Load every .mc/.mh file below ``directory``."""
        root = Path(directory)
        files = {}
        for path in sorted(root.rglob("*")):
            if path.suffix in (".mc", ".mh") and path.is_file():
                files[str(path.relative_to(root))] = path.read_text()
        return cls(name or root.name, files)
