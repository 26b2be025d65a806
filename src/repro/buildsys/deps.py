"""Header dependency tracking: who includes what, and has it changed.

The build system must answer one question per translation unit on every
build: *could this unit's compilation differ from the cached one?*  The
answer is yes exactly when the unit's own text or the text of any
transitively included header changed.  This module computes the
include closure and content digests cheaply — the same regex-scan trade
ninja's depfile parsers make — while the full parser in
:mod:`repro.frontend.includes` remains the semantic authority during
actual compilation.

Robustness requirements (the scanner runs on whatever is in the tree,
including mid-edit broken states):

- **Missing headers** are tolerated: they appear in the closure with a
  ``None`` digest, so the file *appearing* later is itself a change
  that triggers a rebuild.  The compiler proper reports the error.
- **Include cycles** terminate: the closure walk keeps a visited set.
  The compiler proper rejects the cycle with a diagnostic.
"""

from __future__ import annotations

import hashlib

from repro._struct import Struct
from repro.frontend.includes import FileProvider, scan_includes
from repro.obs.metrics import MetricsRegistry


def content_digest(text: str) -> str:
    """Stable content digest used for all up-to-date checks.

    A digest match is trusted to mean "identical text", so we keep the
    full SHA-256 rather than a truncated hash: a collision here would
    silently skip a required rebuild.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DependencySnapshot(Struct):
    """One translation unit's dependency fingerprint at one instant.

    Comparing two snapshots for equality of ``source_digest`` and
    ``dep_digests`` is the build system's entire rebuild test: the dep
    map covers the include *closure*, so a change in the set of
    included files (added, removed, or newly missing) differs as
    surely as a change in any file's text.
    """

    _fields = ("path", "source_digest", "dep_digests")

    def __init__(
        self,
        path: str,
        source_digest: str | None,
        dep_digests: dict[str, str | None],
    ) -> None:
        self.path = path
        #: Digest of the unit's own text; ``None`` if the file is missing.
        self.source_digest = source_digest
        #: Transitive include closure: path -> digest (``None`` = missing).
        self.dep_digests = dep_digests


class DependencyScanner:
    """Scans ``include`` closures, caching per build.

    One instance lives for one build: file texts, digests, and direct
    include lists are cached so a header shared by every unit is read
    and scanned once, not once per unit.
    """

    def __init__(
        self, provider: FileProvider, *, metrics: MetricsRegistry | None = None
    ):
        self.provider = provider
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._text: dict[str, str | None] = {}
        self._direct: dict[str, list[str]] = {}

    # -- raw file access ----------------------------------------------------

    def read(self, path: str) -> str | None:
        """File text, or ``None`` for a missing file."""
        if path not in self._text:
            self._text[path] = (
                self.provider.read(path) if self.provider.exists(path) else None
            )
            self.metrics.inc("deps.files_read")
            if self._text[path] is None:
                self.metrics.inc("deps.files_missing")
        else:
            self.metrics.inc("deps.cache_hits")
        return self._text[path]

    def digest(self, path: str) -> str | None:
        text = self.read(path)
        if text is None:
            return None
        self.metrics.inc("deps.digests")
        return content_digest(text)

    # -- include graph ------------------------------------------------------

    def direct_includes(self, path: str) -> list[str]:
        """Direct ``include`` targets of ``path`` (empty if missing)."""
        if path not in self._direct:
            text = self.read(path)
            self._direct[path] = scan_includes(text) if text is not None else []
        return self._direct[path]

    def include_closure(self, path: str) -> list[str]:
        """Transitive includes of ``path``, in first-seen order.

        Cycle-safe and missing-tolerant (see the module docstring).
        ``path`` itself is not part of its own closure.
        """
        order: list[str] = []
        seen = {path}

        def visit(current: str) -> None:
            for included in self.direct_includes(current):
                if included in seen:
                    continue
                seen.add(included)
                order.append(included)
                visit(included)

        visit(path)
        return order

    def snapshot(self, unit_path: str) -> DependencySnapshot:
        """The unit's current dependency fingerprint."""
        deps = {p: self.digest(p) for p in self.include_closure(unit_path)}
        self.metrics.inc("deps.snapshots")
        return DependencySnapshot(unit_path, self.digest(unit_path), deps)
