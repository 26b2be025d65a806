"""Header dependency tracking: what a unit's last compile read, and has it changed.

The build system must answer one question per translation unit on every
build: *could this unit's compilation differ from the cached one?*  The
answer is yes exactly when the unit's own text or the text of a header
its last compile read changed.  The build DB records those headers —
the ones the front end actually resolved, with the digests of the texts
it parsed — so nothing here scans source for ``include`` directives.
A unit can start reading another header only if its own text or a
header it read changed, so the recorded set is complete (the observed
dependencies of LaForge, rather than a declared set that can miss one).

A recorded header that is missing now digests as ``None``, which
differs from its recorded digest and forces the recompile that reports
the error.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro._struct import Struct
from repro.frontend.includes import FileProvider, content_digest

__all__ = ["DependencyScanner", "DependencySnapshot", "content_digest"]


class DependencySnapshot(Struct):
    """One translation unit's dependency fingerprint at one instant.

    Comparing two snapshots for equality of ``source_digest`` and
    ``dep_digests`` is the build system's entire rebuild test.
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
        #: The headers the unit's last compile read: path -> digest
        #: (``None`` = missing now).
        self.dep_digests = dep_digests


class DependencyScanner:
    """Digests units and the headers their last compiles read, once per build.

    One instance lives for one build: a header shared by every unit is
    read and digested once, not once per unit.
    """

    def __init__(self, provider: FileProvider):
        self.provider = provider
        self._digests: dict[str, str | None] = {}

    def digest(self, path: str) -> str | None:
        """The file's content digest, or ``None`` for a missing file."""
        if path not in self._digests:
            provider = self.provider
            self._digests[path] = (
                content_digest(provider.read(path)) if provider.exists(path) else None
            )
        return self._digests[path]

    def snapshot(self, unit_path: str, headers: Iterable[str] = ()) -> DependencySnapshot:
        """The unit's current digest and those of ``headers`` (the ones
        its last compile read)."""
        return DependencySnapshot(
            unit_path, self.digest(unit_path), {h: self.digest(h) for h in headers}
        )
