"""Why was this unit rebuilt?  The build system's explainability layer.

Incremental systems live or die by being able to *explain* their
decisions: a surprising rebuild (or a surprising skip) is undebuggable
from a one-line status.  :func:`rebuild_reason` classifies one unit's
scheduling decision by diffing its recorded dependency fingerprint
against the current one — the same comparison
:meth:`~repro.buildsys.builddb.BuildDatabase.up_to_date` makes, kept in
one place so the explanation can never disagree with the decision.

:func:`explain_unit` renders the full ``reprobuild explain <unit>``
payload: the reason plus the unit's most expensive passes from the
per-unit statistics the build database records at compile time.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.buildsys.builddb import BuildDatabase, UnitRecord
from repro.buildsys.deps import DependencySnapshot

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
        "path", "kind", "source_changed", "changed_deps", "added_deps", "removed_deps",
        "appeared_deps", "vanished_deps", "recorded_options", "options",
    )

    def __init__(
        self,
        path: str,
        kind: str,
        source_changed: bool = False,
        changed_deps: list[str] | None = None,
        added_deps: list[str] | None = None,
        removed_deps: list[str] | None = None,
        appeared_deps: list[str] | None = None,
        vanished_deps: list[str] | None = None,
        recorded_options: str = "",
        options: str = "",
    ) -> None:
        self.path = path
        #: One of :data:`REASON_KINDS`.
        self.kind = kind
        #: Did the unit's own text change (digest mismatch)?
        self.source_changed = source_changed
        #: Headers present before and now whose digest differs.
        self.changed_deps = [] if changed_deps is None else changed_deps
        #: Headers in the closure now but not in the recorded closure.
        self.added_deps = [] if added_deps is None else added_deps
        #: Headers in the recorded closure but no longer included.
        self.removed_deps = [] if removed_deps is None else removed_deps
        #: Headers recorded as *missing* at build time that now exist.
        self.appeared_deps = [] if appeared_deps is None else appeared_deps
        #: Headers that existed at build time but are missing now.
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
        return bool(
            self.changed_deps
            or self.added_deps
            or self.removed_deps
            or self.appeared_deps
            or self.vanished_deps
        )

    def describe(self) -> str:
        """One human-readable line: the verdict and its evidence."""
        if self.kind == "up-to-date":
            return f"{self.path}: up to date (source and include closure unchanged)"
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
        detail = [
            (self.changed_deps, "edited"),
            (self.added_deps, "added to closure"),
            (self.removed_deps, "left closure"),
            (self.appeared_deps, "previously missing, now present"),
            (self.vanished_deps, "now missing"),
        ]
        header_bits = [
            f"{', '.join(paths)} ({label})" for paths, label in detail if paths
        ]
        if header_bits:
            parts.append(f"header closure changed: {'; '.join(header_bits)}")
        return f"{self.path}: rebuild — {'; '.join(parts)}"

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "source_changed": self.source_changed,
            "changed_deps": list(self.changed_deps),
            "added_deps": list(self.added_deps),
            "removed_deps": list(self.removed_deps),
            "appeared_deps": list(self.appeared_deps),
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
            added_deps=list(payload.get("added_deps", [])),
            removed_deps=list(payload.get("removed_deps", [])),
            appeared_deps=list(payload.get("appeared_deps", [])),
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
    recorded, current = record.dep_digests, snapshot.dep_digests
    for path in sorted(set(recorded) | set(current)):
        if path not in recorded:
            reason.added_deps.append(path)
        elif path not in current:
            reason.removed_deps.append(path)
        elif recorded[path] != current[path]:
            if recorded[path] is None:
                reason.appeared_deps.append(path)
            elif current[path] is None:
                reason.vanished_deps.append(path)
            else:
                reason.changed_deps.append(path)

    if reason.options != record.options:
        reason.kind = "options-changed"
    elif reason.source_changed:
        reason.kind = "source-changed"
    elif reason.deps_changed:
        reason.kind = "deps-changed"
    return reason


def top_passes(stats: dict, n: int = 5) -> list[tuple[str, dict]]:
    """The ``n`` most expensive passes from a recorded stats payload.

    ``stats`` is a :meth:`BypassStatistics.to_dict` payload (what
    :class:`UnitRecord.stats` stores); ordered by executed work, ties
    by name for stable output.
    """
    by_pass = stats.get("by_pass", {})
    ranked = sorted(by_pass.items(), key=lambda kv: (-kv[1].get("work", 0), kv[0]))
    return ranked[:n]


def explain_unit(
    db: BuildDatabase,
    snapshot: DependencySnapshot,
    options: str,
    *,
    top: int = 5,
) -> str:
    """The full ``reprobuild explain <unit>`` text for one unit, as a
    build with object ``options`` would decide it."""
    record = db.units.get(snapshot.path)
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
        for name, counters in ranked:
            lines.append(
                f"    {name}: work={counters.get('work', 0)}"
                f" executed={counters.get('executed', 0)}"
                f" dormant={counters.get('dormant', 0)}"
                f" bypassed={counters.get('bypassed', 0)}"
            )
    return "\n".join(lines)
