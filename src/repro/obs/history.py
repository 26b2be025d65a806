"""The cross-build history store: one append-only JSONL beside the DB.

Single-build observability (traces, reports) answers "what did this
build do"; the questions the stateful compiler actually lives or dies
by — is the bypass rate holding up, is a pass slowly regressing, is the
state growing without bound — are *cross-build* questions.  This module
persists every build's accounting so they become answerable.

``<db>.history.jsonl`` holds one :class:`HistoryRecord` per line,
``{schema, seq, timestamp, label, report}``, where ``report`` is the
build's :class:`~repro.buildsys.report.BuildReport` payload (its
``to_dict`` dict — this module stays below the build system in the
layering, so it never imports it).  Each fact is stored once, in the
report; the per-pass and compiler-state summaries the analytics in
:mod:`repro.obs.drift` and :mod:`repro.obs.dashboard` read are views
over it.

The file is the only artifact.  An append is a single ``O_APPEND``
write, with no fsync, so concurrent builds sharing a history interleave
whole lines, never fragments; a build killed mid-write leaves a torn
final line, which every reader drops.  :meth:`BuildHistory.next_seq`
reads back from the end of the file only as far as the last line that
parses, so a build's history step costs the same whatever the
history's length.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro._struct import Struct
from repro.persist import atomic_write  # noqa: F401 (perfbench/traced_build.py wraps it by name)
from repro.persist import io as io_seam

#: v2 keeps the state summary only in ``report.state`` and the per-pass
#: table only in ``report.bypass.by_pass``; v1 lines also carried both
#: beside the report (``state``, ``passes``) and still load.
HISTORY_SCHEMA_VERSION = 2

#: Per-pass counter keys in :attr:`HistoryRecord.passes`.
_PASS_KEYS = ("executed", "dormant", "bypassed", "work")

#: Bytes :meth:`BuildHistory.next_seq` reads per step back from the end.
_TAIL_CHUNK = 16 * 1024


def default_history_path(db_path: str | Path) -> Path:
    """The history file that rides beside a build database."""
    return Path(f"{db_path}.history.jsonl")


class HistoryRecord(Struct):
    """One build's accounting, as persisted in the history store."""

    _fields = ("seq", "timestamp", "label", "report")

    def __init__(
        self,
        seq: int,
        timestamp: float,
        label: str = "",
        report: dict | None = None,
    ) -> None:
        self.seq = seq
        #: Unix wall-clock time the record was written (not perf_counter).
        self.timestamp = timestamp
        self.label = label
        #: The full build-report payload (``BuildReport.to_dict`` schema).
        self.report = {} if report is None else report

    # -- derived views the analytics read ------------------------------------

    @property
    def summary(self) -> dict:
        return self.report.get("summary", {})

    @property
    def state(self) -> dict:
        """Compiler-state size/GC counters at end of build
        (:meth:`~repro.core.state.CompilerState.size_summary` shape;
        empty for a stateless build)."""
        return self.report.get("state", {})

    @property
    def passes(self) -> dict[str, dict]:
        """Per-pass ``{executed, dormant, bypassed, work, wall}``, with
        ``wall`` in seconds from each ``bypass.by_pass`` entry's ``ns``
        (0 in reports older than schema 3)."""
        passes = {}
        for name, counters in self.report.get("bypass", {}).get("by_pass", {}).items():
            entry = {key: int(counters.get(key, 0)) for key in _PASS_KEYS}
            entry["wall"] = int(counters.get("ns", 0)) / 1e9
            passes[name] = entry
        return passes

    @property
    def recompiled(self) -> int:
        return int(self.summary.get("recompiled", 0))

    @property
    def up_to_date(self) -> int:
        return int(self.summary.get("up_to_date", 0))

    @property
    def total_wall_time(self) -> float:
        return float(self.summary.get("total_wall_time", 0.0))

    @property
    def bypass_rate(self) -> float:
        bypass = self.report.get("bypass", {})
        executed = int(bypass.get("executions", 0))
        bypassed = int(bypass.get("bypassed", 0))
        total = executed + bypassed
        return bypassed / total if total else 0.0

    @property
    def skip_rate(self) -> float:
        """The share of the build's optimization work that was skipped.

        1 − (executed ÷ pass runs) × (compiled ÷ keyed functions): a
        bypassed pass run is skipped, and so, under the memo policy, is
        every pass of a function whose machine code was reused (those
        functions have no pass runs at all).  A build that reuses every
        function reads 1.0; with no reused function it equals
        :attr:`bypass_rate`.
        """
        reused, compiled = self.functions_reused, self.functions_compiled
        if not reused:
            return self.bypass_rate
        bypass = self.report.get("bypass", {})
        executed = int(bypass.get("executions", 0))
        runs = executed + int(bypass.get("bypassed", 0))
        ran = executed / runs if runs else 1.0
        return 1.0 - ran * compiled / (compiled + reused)

    @property
    def functions_reused(self) -> int:
        """Functions whose machine code the memo policy reused (0 before
        report schema 5 and under other policies)."""
        return int(self.report.get("memo", {}).get("functions_reused", 0))

    @property
    def functions_compiled(self) -> int:
        """Functions the memo policy keyed but compiled."""
        return int(self.report.get("memo", {}).get("functions_compiled", 0))

    @property
    def state_records(self) -> int:
        return int(self.state.get("records", 0))

    @property
    def state_bytes(self) -> int:
        return int(self.state.get("bytes", 0))

    @property
    def gc_reclaimed(self) -> int:
        return int(self.state.get("gc_reclaimed_last", 0))

    @property
    def gc_past_age_limit(self) -> bool:
        """Whether this build's GC could have found a record to reclaim.

        Records are stamped with the build counter, which starts at 1,
        and GC drops those last used before ``build_counter -
        gc_max_age``: nothing is old enough until the counter passes
        ``gc_max_age + 1``.  True for a record written before the two
        counters were kept.
        """
        state = self.state
        if "build_counter" not in state or "gc_max_age" not in state:
            return True
        return int(state["build_counter"]) > int(state["gc_max_age"]) + 1

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": HISTORY_SCHEMA_VERSION,
            "seq": self.seq,
            "timestamp": self.timestamp,
            "label": self.label,
            "report": self.report,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HistoryRecord":
        report = payload.get("report", {})
        if "state" in payload and "state" not in report:
            # A v1 line: the state summary sat beside a v1-v3 report.
            report = {**report, "state": payload["state"]}
        return cls(
            seq=int(payload["seq"]),
            timestamp=float(payload["timestamp"]),
            label=payload.get("label", ""),
            report=report,
        )


class LoadStats(Struct):
    """What reading a history file found besides the usable records."""

    _fields = ("lines", "loaded", "truncated", "corrupt", "newer_schema")

    def __init__(
        self,
        lines: int = 0,
        loaded: int = 0,
        truncated: bool = False,
        corrupt: int = 0,
        newer_schema: int = 0,
    ) -> None:
        self.lines = lines
        self.loaded = loaded
        #: Unparsable final line (a build died mid-append); recovered by drop.
        self.truncated = truncated
        #: Unparsable non-final lines (should not happen; counted, skipped).
        self.corrupt = corrupt
        #: Records written by a newer reprobuild (schema ahead); skipped.
        self.newer_schema = newer_schema


class BuildHistory:
    """Reader/writer for one append-only history file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    # -- writing -------------------------------------------------------------

    def append(self, record: HistoryRecord) -> None:
        """Append one record as a single ``O_APPEND`` write, so records
        from concurrent builds never interleave mid-line."""
        line = json.dumps(record.to_dict(), separators=(",", ":"), sort_keys=True)
        view = memoryview(line.encode("utf-8") + b"\n")
        backend = io_seam.backend()
        fd = backend.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            while view:
                view = view[backend.write(fd, view):]
        finally:
            backend.close(fd)

    def next_seq(self) -> int:
        """The sequence number the next appended build should use.

        One past the last record :meth:`read` would load, found by
        reading back from the end of the file only as far as the last
        line that parses (a torn final line is skipped).
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return 1
        with handle:
            end = handle.seek(0, os.SEEK_END)
            partial = b""
            while end > 0:
                start = max(0, end - _TAIL_CHUNK)
                handle.seek(start)
                lines = (handle.read(end - start) + partial).split(b"\n")
                # The first piece may begin before ``start``: finish it
                # with the next step's bytes.
                partial = lines.pop(0) if start else b""
                for line in reversed(lines):
                    record = self._parse_line(line, LoadStats())
                    if record is not None:
                        return record.seq + 1
                end = start
        return 1

    # -- reading -------------------------------------------------------------

    def read(self) -> tuple[list[HistoryRecord], LoadStats]:
        """Load every readable record, tolerating torn/foreign lines."""
        stats = LoadStats()
        if not self.path.is_file():
            return [], stats
        raw = self.path.read_bytes()
        records: list[HistoryRecord] = []
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        stats.lines = len(lines)
        for position, line in enumerate(lines):
            corrupt_before = stats.corrupt
            record = self._parse_line(line, stats)
            if record is not None:
                records.append(record)
            elif stats.corrupt > corrupt_before and position == len(lines) - 1:
                # A torn final line is expected damage (a build killed
                # mid-append); anything unparsable earlier is not.
                stats.corrupt -= 1
                stats.truncated = True
        stats.loaded = len(records)
        return records, stats

    def records(self) -> list[HistoryRecord]:
        """Just the records (see :meth:`read` for the load diagnostics)."""
        return self.read()[0]

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _parse_line(line: bytes, stats: LoadStats) -> HistoryRecord | None:
        if not line.strip():
            return None
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("history line is not an object")
            schema = payload.get("schema")
            if not isinstance(schema, int):
                raise ValueError("history line has no schema")
            if schema > HISTORY_SCHEMA_VERSION:
                stats.newer_schema += 1
                return None
            return HistoryRecord.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            stats.corrupt += 1
            return None
