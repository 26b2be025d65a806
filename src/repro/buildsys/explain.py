"""Why was this unit rebuilt?  The build system's explainability layer.

Incremental systems live or die by being able to *explain* their
decisions: a surprising rebuild (or a surprising skip) is undebuggable
from a one-line status.  :func:`rebuild_reason` classifies one unit's
scheduling decision by diffing the digests its record holds (its source
and the headers its last compile read) against the current ones — the
same comparison
:meth:`~repro.buildsys.builddb.BuildDatabase.up_to_date` makes, kept in
one place so the explanation can never disagree with the decision.

:func:`explain_unit` renders the full ``reprobuild explain <unit>``
payload: the reason plus the unit's most expensive passes from the
per-pass counters the build database records at compile time.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.buildsys.builddb import BuildDatabase, UnitRecord
from repro.buildsys.deps import DependencyScanner, DependencySnapshot

#: ``RebuildReason.kind`` values, in decision precedence order.
REASON_KINDS = (
    "missing-record",
    "source-missing",
    "options-changed",
    "source-changed",
    "deps-changed",
    "up-to-date",
)


class RebuildReason(Struct):
    """One unit's scheduling verdict and the evidence behind it."""

    _fields = (
        "path", "kind", "source_changed", "changed_deps", "vanished_deps",
        "recorded_options", "options",
    )

    def __init__(
        self,
        path: str,
        kind: str,
        source_changed: bool = False,
        changed_deps: list[str] | None = None,
        vanished_deps: list[str] | None = None,
        recorded_options: str = "",
        options: str = "",
    ) -> None:
        self.path = path
        #: One of :data:`REASON_KINDS`.
        self.kind = kind
        #: Did the unit's own text change (digest mismatch)?
        self.source_changed = source_changed
        #: Headers the last compile read whose text changed since.
        self.changed_deps = [] if changed_deps is None else changed_deps
        #: Headers the last compile read that are missing now.
        self.vanished_deps = [] if vanished_deps is None else vanished_deps
        #: Object options of the recorded compile and of this build (see
        #: :attr:`~repro.driver.CompilerOptions.object_options`).
        self.recorded_options = recorded_options
        self.options = options

    @property
    def is_up_to_date(self) -> bool:
        return self.kind == "up-to-date"

    @property
    def deps_changed(self) -> bool:
        return bool(self.changed_deps or self.vanished_deps)

    def describe(self) -> str:
        """One human-readable line: the verdict and its evidence."""
        if self.kind == "up-to-date":
            return f"{self.path}: up to date (source and the headers it read unchanged)"
        if self.kind == "missing-record":
            return f"{self.path}: rebuild — no build record (never built or cache lost)"
        if self.kind == "source-missing":
            return f"{self.path}: rebuild — source file is missing"
        parts = []
        if self.kind == "options-changed":
            parts.append(
                f"compiler options changed "
                f"(built with {self.recorded_options or 'unrecorded options'}, "
                f"now {self.options or 'none'})"
            )
        if self.source_changed:
            parts.append("source text changed")
        detail = [(self.changed_deps, "edited"), (self.vanished_deps, "now missing")]
        header_bits = [
            f"{', '.join(paths)} ({label})" for paths, label in detail if paths
        ]
        if header_bits:
            parts.append(f"a header it read changed: {'; '.join(header_bits)}")
        return f"{self.path}: rebuild — {'; '.join(parts)}"

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "source_changed": self.source_changed,
            "changed_deps": list(self.changed_deps),
            "vanished_deps": list(self.vanished_deps),
            "recorded_options": self.recorded_options,
            "options": self.options,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RebuildReason":
        return cls(
            path=payload["path"],
            kind=payload["kind"],
            source_changed=bool(payload.get("source_changed", False)),
            changed_deps=list(payload.get("changed_deps", [])),
            vanished_deps=list(payload.get("vanished_deps", [])),
            recorded_options=payload.get("recorded_options", ""),
            options=payload.get("options", ""),
        )


def rebuild_reason(
    record: UnitRecord | None,
    snapshot: DependencySnapshot,
    options: str,
) -> RebuildReason:
    """Classify one unit's up-to-date check for a build with object ``options``.

    ``snapshot`` digests the headers ``record`` lists.
    ``reason.is_up_to_date`` is *exactly*
    ``BuildDatabase.up_to_date(snapshot, options)`` for the record the
    snapshot was checked against — the builder schedules from this
    verdict, so explanation and decision cannot drift.
    """
    if record is None:
        return RebuildReason(path=snapshot.path, kind="missing-record")
    if snapshot.source_digest is None:
        return RebuildReason(path=snapshot.path, kind="source-missing")

    reason = RebuildReason(
        path=snapshot.path,
        kind="up-to-date",
        recorded_options=record.options,
        options=options,
    )
    reason.source_changed = record.source_digest != snapshot.source_digest
    current = snapshot.dep_digests
    for path, digest in sorted(record.dep_digests.items()):
        if current.get(path) is None:
            reason.vanished_deps.append(path)
        elif current[path] != digest:
            reason.changed_deps.append(path)

    if reason.options != record.options:
        reason.kind = "options-changed"
    elif reason.source_changed:
        reason.kind = "source-changed"
    elif reason.deps_changed:
        reason.kind = "deps-changed"
    return reason


def top_passes(stats: dict[str, list[int]], n: int = 5) -> list[tuple[str, list[int]]]:
    """The ``n`` most expensive passes of a recorded compile.

    ``stats`` maps each pass to its [executed, dormant, bypassed, work]
    (what :attr:`UnitRecord.stats` stores); ordered by executed work,
    ties by name for stable output.
    """
    return sorted(stats.items(), key=lambda kv: (-kv[1][3], kv[0]))[:n]


def explain_unit(
    db: BuildDatabase,
    scanner: DependencyScanner,
    path: str,
    options: str,
    *,
    top: int = 5,
) -> str:
    """The full ``reprobuild explain <unit>`` text for one unit, as a
    build with object ``options`` would decide it from the files
    ``scanner`` reads."""
    record = db.units.get(path)
    snapshot = scanner.snapshot(path, record.dep_digests if record else ())
    reason = rebuild_reason(record, snapshot, options)
    lines = [reason.describe()]
    if record is None:
        return "\n".join(lines)

    if record.wall_time > 0.0:
        lines.append(
            f"  last compiled in {record.wall_time * 1000:.1f} ms"
            f" by {record.worker}"
        )
    if record.memo:
        lines.append(
            f"  memo: the last compile reused the machine code of "
            f"{record.functions_reused}/{len(record.memo)} functions"
        )
    ranked = top_passes(record.stats, top)
    if ranked:
        lines.append(f"  top {len(ranked)} passes of the last compile (by work):")
        for name, (executed, dormant, bypassed, work) in ranked:
            lines.append(
                f"    {name}: work={work} executed={executed}"
                f" dormant={dormant} bypassed={bypassed}"
            )
    return "\n".join(lines)
