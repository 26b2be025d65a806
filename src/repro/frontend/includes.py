"""Resolution of ``include`` directives.

MiniC modules import interfaces textually, C-style: a translation unit
(``.mc``) names header files (``.mh``) whose declarations become visible.
Headers may contain only *declarations*: ``extern`` globals, ``const``
globals with constant initializers, function declarations (no bodies),
and further ``include`` directives.

The resolver produces a :class:`ResolvedUnit`: the unit's own AST, the
merged item list fed to sema (header items first, in topological include
order), and the transitive set of header paths — which the build system
uses for dependency tracking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.frontend.diagnostics import CompileError, DiagnosticEngine
from repro.frontend.source import SourceFile

# The build system imports this module for the providers and
# scan_includes on every build; the lexer, parser and AST load only
# when a unit is actually resolved.
if TYPE_CHECKING:  # pragma: no cover
    from repro.frontend import ast


class IncludeError(Exception):
    """A header could not be found, parsed, or is ill-formed."""


@dataclass
class ResolvedUnit:
    """A translation unit with all its includes resolved."""

    #: The unit's own parsed AST (still containing IncludeDirectives).
    program: ast.Program
    #: Items visible to sema: header declarations then the unit's items.
    merged: ast.Program
    #: Transitive header paths, in first-seen (topological) order.
    headers: list[str]
    diags: DiagnosticEngine


class FileProvider:
    """Abstracts how header text is fetched.

    The default implementation reads from the filesystem relative to a
    root directory; tests and the workload generator supply an in-memory
    mapping instead.
    """

    def read(self, path: str) -> str:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError


class DiskFileProvider(FileProvider):
    """Reads files below ``root`` on the local filesystem."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def read(self, path: str) -> str:
        return (self.root / path).read_text()

    def exists(self, path: str) -> bool:
        return (self.root / path).is_file()


class MemoryFileProvider(FileProvider):
    """Serves files from an in-memory ``{path: text}`` mapping."""

    def __init__(self, files: dict[str, str]):
        self.files = dict(files)

    def read(self, path: str) -> str:
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def exists(self, path: str) -> bool:
        return path in self.files


def _parse_file(name: str, text: str, diags: DiagnosticEngine) -> ast.Program:
    from repro.frontend.lexer import Lexer
    from repro.frontend.parser import Parser

    source = SourceFile(name, text)
    tokens = Lexer(source, diags).tokenize()
    return Parser(tokens, diags).parse_program()


def _check_header_item(item: ast.Node, header: str, diags: DiagnosticEngine) -> bool:
    """Headers may only declare; definitions of storage/code are rejected."""
    from repro.frontend import ast

    if isinstance(item, ast.IncludeDirective):
        return True
    if isinstance(item, ast.FunctionDecl):
        if item.is_definition:
            diags.error(
                f"header '{header}' must not define function '{item.name}'", item.span
            )
            return False
        return True
    if isinstance(item, ast.GlobalVarDecl):
        if item.is_extern or item.is_const:
            return True
        diags.error(
            f"header '{header}' global '{item.name}' must be 'extern' or 'const'", item.span
        )
        return False
    return True


class IncludeResolver:
    """Resolves includes for translation units, caching parsed headers."""

    def __init__(self, provider: FileProvider):
        self.provider = provider
        self._header_cache: dict[str, ast.Program] = {}

    def resolve(self, unit_name: str, unit_text: str) -> ResolvedUnit:
        """Parse ``unit_text`` and pull in every transitively included header.

        Raises :class:`CompileError` for syntax errors anywhere and
        :class:`IncludeError` for missing or cyclic headers.
        """
        from repro.frontend import ast

        diags = DiagnosticEngine()
        program = _parse_file(unit_name, unit_text, diags)
        if diags.has_errors:
            raise CompileError(diags.errors)

        header_order: list[str] = []
        header_items: list[ast.Node] = []
        visiting: list[str] = []

        def visit_header(path: str, included_from: str) -> None:
            if path in header_order:
                return
            if path in visiting:
                cycle = " -> ".join([*visiting, path])
                raise IncludeError(f"include cycle: {cycle}")
            if not self.provider.exists(path):
                raise IncludeError(f"header '{path}' included from '{included_from}' not found")
            visiting.append(path)
            try:
                header_ast = self._header_cache.get(path)
                if header_ast is None:
                    header_ast = _parse_file(path, self.provider.read(path), diags)
                    if diags.has_errors:
                        raise CompileError(diags.errors)
                    self._header_cache[path] = header_ast
                for inner in header_ast.includes:
                    visit_header(inner.path, path)
                header_order.append(path)
                for item in header_ast.items:
                    if isinstance(item, ast.IncludeDirective):
                        continue
                    if _check_header_item(item, path, diags):
                        header_items.append(item)
            finally:
                visiting.pop()

        for directive in program.includes:
            visit_header(directive.path, unit_name)
        if diags.has_errors:
            raise CompileError(diags.errors)

        unit_items = [i for i in program.items if not isinstance(i, ast.IncludeDirective)]
        merged = ast.Program(program.span, [*header_items, *unit_items])
        return ResolvedUnit(program=program, merged=merged, headers=header_order, diags=diags)

    def invalidate(self, path: str) -> None:
        """Drop a cached header (its file changed)."""
        self._header_cache.pop(path, None)

    def invalidate_all(self) -> None:
        self._header_cache.clear()


_INCLUDE_LINE = re.compile(r'^\s*include\s+"([^"\n]+)"\s*;', re.MULTILINE)


def scan_includes(text: str) -> list[str]:
    """Cheaply extract the direct include paths of a source text.

    Used by the build system's dependency scanner on every file of every
    build, so it must be fast: a line-oriented regex rather than a full
    parse (the same trade ninja's depfile scanners make).  ``include``
    directives are only valid at the start of a line at top level, which
    the regex captures exactly; commented-out includes inside block
    comments are conservatively still reported (a false dependency can
    only cause an extra rebuild, never a missed one).
    """
    return _INCLUDE_LINE.findall(text)
