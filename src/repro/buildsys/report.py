"""Per-build accounting: what was rebuilt, why, what it cost, what it made.

The experiments compare *end-to-end builds*, so the numbers the
benchmarks consume live here rather than on individual compilations:
wall-clock for the whole build, the deterministic pass-work cost model
summed over recompiled units, and the aggregated bypass statistics that
show the stateful mechanism at work.

A report is machine-readable: :meth:`BuildReport.to_json` /
:meth:`BuildReport.from_json` round-trip a stable, versioned schema
(``reprobuild --report-json``), and :meth:`BuildReport.describe`
renders its human one-liner from the *same* :meth:`to_dict` payload —
text and JSON cannot disagree.  The linked image itself is the one
field excluded from serialization (it is an artifact, not accounting).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.backend.linker import LinkedImage
from repro.buildsys.explain import RebuildReason
from repro.core.statistics import BypassStatistics

#: Current schema: v2 adds ``summary.state_bytes`` (and a top-level
#: ``profile`` table, no longer written and ignored on read); v3 adds
#: the integer wall time ``ns`` to every ``bypass.by_pass`` entry.  All
#: are absent-tolerant, so v1 and v2 payloads still load.
REPORT_SCHEMA_VERSION = 3

#: Schemas :meth:`BuildReport.from_dict` can still read.  Anything
#: *newer* than the current version is rejected outright — a future
#: writer may have changed field meanings this reader cannot know about.
READABLE_REPORT_SCHEMAS = (1, 2, 3)


@dataclass
class UnitBuildResult:
    """One translation unit actually recompiled during a build."""

    path: str
    wall_time: float
    pass_work: int
    stats: BypassStatistics
    #: Statefulness overhead for this unit (0 for stateless builds).
    fingerprint_time: float = 0.0
    fingerprint_count: int = 0
    #: Who compiled it: "main" (in-process) or "pid-<n>" (a pool worker).
    worker: str = "main"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "wall_time": self.wall_time,
            "pass_work": self.pass_work,
            "stats": self.stats.to_dict(),
            "fingerprint_time": self.fingerprint_time,
            "fingerprint_count": self.fingerprint_count,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "UnitBuildResult":
        return cls(
            path=payload["path"],
            wall_time=float(payload["wall_time"]),
            pass_work=int(payload["pass_work"]),
            stats=BypassStatistics.from_dict(payload.get("stats", {})),
            fingerprint_time=float(payload.get("fingerprint_time", 0.0)),
            fingerprint_count=int(payload.get("fingerprint_count", 0)),
            worker=payload.get("worker", "main"),
        )


@dataclass
class BuildReport:
    """Everything one :meth:`IncrementalBuilder.build` call produced."""

    #: Units recompiled this build, in schedule order.
    compiled: list[UnitBuildResult] = field(default_factory=list)
    #: Units whose cached objects were reused, in schedule order.
    up_to_date: list[str] = field(default_factory=list)
    #: Pass/bypass counters aggregated over all recompiled units.
    bypass: BypassStatistics = field(default_factory=BypassStatistics)
    #: Why each unit was (or wasn't) scheduled, keyed by path — every
    #: unit in the build appears, up-to-date ones included.
    reasons: dict[str, RebuildReason] = field(default_factory=dict)
    #: Wall-clock seconds for the whole build: dependency scanning,
    #: up-to-date checks, compilations, and linking.
    total_wall_time: float = 0.0
    #: Wall-clock seconds scanning dependency closures.
    scan_time: float = 0.0
    link_time: float = 0.0
    #: Dormancy records in the live compiler state (0 when stateless).
    state_records: int = 0
    #: Serialized size of the live compiler state in bytes (0 when
    #: stateless) — the dashboard's state-growth axis.
    state_bytes: int = 0
    #: The linked executable (``None`` when built with link_output=False).
    image: LinkedImage | None = None
    #: Concurrent compile jobs actually used for this build.
    jobs: int = 1
    #: Wall-clock seconds for the whole compile phase (all workers);
    #: equals the summed per-unit times when serial, less when parallel.
    compile_phase_time: float = 0.0
    #: Snapshot of the build's metrics registry
    #: (:meth:`~repro.obs.metrics.MetricsRegistry.to_dict` payload).
    metrics: dict = field(default_factory=dict)
    #: Whether the build linked an image.  The image itself is excluded
    #: from serialization, so deserialized reports carry the fact
    #: through this flag (kept in sync by :attr:`linked`).
    was_linked: bool = False

    @property
    def num_recompiled(self) -> int:
        return len(self.compiled)

    @property
    def linked(self) -> bool:
        return self.image is not None or self.was_linked

    @property
    def num_workers(self) -> int:
        """Distinct workers that actually compiled at least one unit."""
        return len({unit.worker for unit in self.compiled})

    @property
    def parallel_speedup(self) -> float:
        """Summed per-unit compile seconds over compile-phase wall time.

        ~1.0 for serial builds; approaches ``jobs`` under perfect
        scaling.  Defined as 1.0 (not a 0.0 sentinel) when nothing was
        compiled or no phase time was measured, so serial and no-op
        builds report a meaningful neutral value.
        """
        if not self.compiled or self.compile_phase_time <= 0.0:
            return 1.0
        return self.compile_wall_time / self.compile_phase_time

    @property
    def total_pass_work(self) -> int:
        """Deterministic cost model: IR instructions visited by executed passes."""
        return sum(unit.pass_work for unit in self.compiled)

    @property
    def compile_wall_time(self) -> float:
        """Seconds spent inside the compiler proper (excludes scan/link)."""
        return sum(unit.wall_time for unit in self.compiled)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """The stable report schema (everything but the linked image)."""
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "summary": {
                "recompiled": self.num_recompiled,
                "up_to_date": len(self.up_to_date),
                "jobs": self.jobs,
                "workers": self.num_workers,
                "parallel_speedup": self.parallel_speedup,
                "total_wall_time": self.total_wall_time,
                "scan_time": self.scan_time,
                "compile_phase_time": self.compile_phase_time,
                "compile_wall_time": self.compile_wall_time,
                "link_time": self.link_time,
                "total_pass_work": self.total_pass_work,
                "state_records": self.state_records,
                "state_bytes": self.state_bytes,
                "linked": self.linked,
            },
            "compiled": [unit.to_dict() for unit in self.compiled],
            "up_to_date": list(self.up_to_date),
            "bypass": self.bypass.to_dict(),
            "reasons": {
                path: reason.to_dict()
                for path, reason in sorted(self.reasons.items())
            },
            "metrics": self.metrics,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "BuildReport":
        schema = payload.get("schema")
        if schema not in READABLE_REPORT_SCHEMAS:
            if isinstance(schema, int) and schema > REPORT_SCHEMA_VERSION:
                raise ValueError(
                    f"build report schema v{schema} is newer than this "
                    f"reader supports (current v{REPORT_SCHEMA_VERSION}, "
                    f"readable {READABLE_REPORT_SCHEMAS}); upgrade repro "
                    "to read reports written by a newer version"
                )
            raise ValueError(
                f"unreadable build report schema {schema!r}; "
                f"readable versions: {READABLE_REPORT_SCHEMAS}"
            )
        summary = payload.get("summary", {})
        report = cls(
            compiled=[UnitBuildResult.from_dict(u) for u in payload.get("compiled", [])],
            up_to_date=list(payload.get("up_to_date", [])),
            bypass=BypassStatistics.from_dict(payload.get("bypass", {})),
            reasons={
                path: RebuildReason.from_dict(entry)
                for path, entry in payload.get("reasons", {}).items()
            },
            total_wall_time=float(summary.get("total_wall_time", 0.0)),
            scan_time=float(summary.get("scan_time", 0.0)),
            link_time=float(summary.get("link_time", 0.0)),
            state_records=int(summary.get("state_records", 0)),
            state_bytes=int(summary.get("state_bytes", 0)),
            jobs=int(summary.get("jobs", 1)),
            compile_phase_time=float(summary.get("compile_phase_time", 0.0)),
            metrics=payload.get("metrics", {}),
            was_linked=bool(summary.get("linked", False)),
        )
        return report

    @classmethod
    def from_json(cls, text: str) -> "BuildReport":
        return cls.from_dict(json.loads(text))

    def write_json(self, path: str | Path) -> int:
        """Write the JSON report atomically; returns bytes written.

        No checksum frame — external tools (``jq``, dashboards) read
        the file verbatim — but the temp+rename protocol still means a
        killed build never leaves a half-written report behind.
        """
        from repro.persist import atomic_write

        data = self.to_json(indent=2).encode("utf-8")
        return atomic_write(Path(path), data, checksum=False)

    def describe(self) -> str:
        """One-line human summary (the ``reprobuild`` status format).

        Rendered from :meth:`to_dict` so the text and JSON forms are
        two views of one payload.
        """
        s = self.to_dict()["summary"]
        line = (
            f"{s['recompiled']} recompiled, {s['up_to_date']} up-to-date, "
            f"{s['total_wall_time']:.3f}s total"
        )
        if s["jobs"] > 1:
            line += (
                f" (-j {s['jobs']}: {s['workers']} workers, "
                f"{s['parallel_speedup']:.2f}x parallel speedup)"
            )
        return line
