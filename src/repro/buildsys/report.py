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
from pathlib import Path

from repro._struct import Struct
from repro.backend.linker import LinkedImage
from repro.buildsys.explain import RebuildReason
from repro.core.statistics import BypassStatistics

#: Current schema: v2 adds ``summary.state_bytes`` (and a top-level
#: ``profile`` table, no longer written and ignored on read); v3 adds
#: the integer wall time ``ns`` to every ``bypass.by_pass`` entry; v4
#: replaces ``summary.state_records``/``state_bytes`` with the whole
#: state summary as a top-level ``state`` dict; v5 adds the top-level
#: ``memo`` dict (functions whose machine code was reused vs compiled).
#: All are absent-tolerant, so v1-v4 payloads still load.
REPORT_SCHEMA_VERSION = 5

#: Schemas :meth:`BuildReport.from_dict` can still read.  Anything
#: *newer* than the current version is rejected outright — a future
#: writer may have changed field meanings this reader cannot know about.
READABLE_REPORT_SCHEMAS = (1, 2, 3, 4, 5)


class UnitBuildResult(Struct):
    """One translation unit actually recompiled during a build."""

    _fields = (
        "path", "wall_time", "pass_work", "stats", "fingerprint_time",
        "fingerprint_count", "worker",
    )

    def __init__(
        self,
        path: str,
        wall_time: float,
        pass_work: int,
        stats: BypassStatistics,
        fingerprint_time: float = 0.0,
        fingerprint_count: int = 0,
        worker: str = "main",
    ) -> None:
        self.path = path
        self.wall_time = wall_time
        self.pass_work = pass_work
        self.stats = stats
        #: Statefulness overhead for this unit (0 for stateless builds).
        self.fingerprint_time = fingerprint_time
        self.fingerprint_count = fingerprint_count
        #: Who compiled it: "main" (in-process) or "pid-<n>" (a pool worker).
        self.worker = worker

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


class BuildReport(Struct):
    """Everything one :meth:`IncrementalBuilder.build` call produced."""

    _fields = (
        "compiled", "up_to_date", "bypass", "reasons", "total_wall_time", "scan_time",
        "link_time", "state", "image", "jobs",
        "compile_phase_time", "metrics", "was_linked", "memo",
    )

    def __init__(
        self,
        compiled: list[UnitBuildResult] | None = None,
        up_to_date: list[str] | None = None,
        bypass: BypassStatistics | None = None,
        reasons: dict[str, RebuildReason] | None = None,
        total_wall_time: float = 0.0,
        scan_time: float = 0.0,
        link_time: float = 0.0,
        state: dict | None = None,
        image: LinkedImage | None = None,
        jobs: int = 1,
        compile_phase_time: float = 0.0,
        metrics: dict | None = None,
        was_linked: bool = False,
        memo: dict | None = None,
    ) -> None:
        #: Units recompiled this build, in schedule order.
        self.compiled = [] if compiled is None else compiled
        #: Units whose cached objects were reused, in schedule order.
        self.up_to_date = [] if up_to_date is None else up_to_date
        #: Pass/bypass counters aggregated over all recompiled units.
        self.bypass = BypassStatistics() if bypass is None else bypass
        #: Why each unit was (or wasn't) scheduled, keyed by path — every
        #: unit in the build appears, up-to-date ones included.
        self.reasons = {} if reasons is None else reasons
        #: Wall-clock seconds for the whole build: dependency scanning,
        #: up-to-date checks, compilations, and linking.
        self.total_wall_time = total_wall_time
        #: Wall-clock seconds scanning dependency closures.
        self.scan_time = scan_time
        self.link_time = link_time
        #: The live compiler state's size and GC counters at end of build
        #: (:meth:`~repro.core.state.CompilerState.size_summary` shape;
        #: empty when stateless).
        self.state = {} if state is None else state
        #: The linked executable (``None`` when built with link_output=False
        #: or when the link was only checked).
        self.image = image
        #: Concurrent compile jobs actually used for this build.
        self.jobs = jobs
        #: Wall-clock seconds for the whole compile phase (all workers);
        #: equals the summed per-unit times when serial, less when parallel.
        self.compile_phase_time = compile_phase_time
        #: Snapshot of the build's metrics registry
        #: (:meth:`~repro.obs.metrics.MetricsRegistry.to_dict` payload).
        self.metrics = {} if metrics is None else metrics
        #: Whether the build checked its link: linked an image, or checked
        #: the link from the units' link interfaces.  The image itself is
        #: excluded from serialization, so deserialized reports carry the
        #: fact through this flag (kept in sync by :attr:`linked`).
        self.was_linked = was_linked
        #: Memo policy: ``{"functions_reused": n, "functions_compiled": m}``
        #: over the recompiled units (empty under other policies).  Reused
        #: functions have no pass runs, so they are not in :attr:`bypass`.
        self.memo = {} if memo is None else memo

    @property
    def state_records(self) -> int:
        """Dormancy records in the live compiler state (0 when stateless)."""
        return int(self.state.get("records", 0))

    @property
    def state_bytes(self) -> int:
        """On-disk size of the live compiler state (0 when stateless)."""
        return int(self.state.get("bytes", 0))

    @property
    def num_recompiled(self) -> int:
        return len(self.compiled)

    @property
    def linked(self) -> bool:
        """Did this build check its link (with or without an image)?"""
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
                "linked": self.linked,
            },
            "compiled": [unit.to_dict() for unit in self.compiled],
            "up_to_date": list(self.up_to_date),
            "bypass": self.bypass.to_dict(),
            "state": self.state,
            "memo": self.memo,
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
        state = payload.get("state")
        if state is None:  # v1-v3 kept only these two, in the summary
            state = {
                "records": int(summary.get("state_records", 0)),
                "bytes": int(summary.get("state_bytes", 0)),
            }
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
            state=state,
            jobs=int(summary.get("jobs", 1)),
            compile_phase_time=float(summary.get("compile_phase_time", 0.0)),
            metrics=payload.get("metrics", {}),
            was_linked=bool(summary.get("linked", False)),
            memo=payload.get("memo", {}),
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
