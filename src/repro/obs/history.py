"""The cross-build history store: one append-only JSONL beside the DB.

Single-build observability (traces, reports) answers "what did this
build do"; the questions the stateful compiler actually lives or dies
by — is the bypass rate holding up, is a pass slowly regressing, is the
state growing without bound — are *cross-build* questions.  This module
persists every build's accounting so they become answerable:

- ``<db>.history.jsonl`` — one :class:`HistoryRecord` per line, append
  only, schema-versioned per record.  Appends are a single
  ``O_APPEND`` write so concurrent builds sharing a history file
  interleave whole lines, never fragments; the reader additionally
  recovers from a torn/truncated final line (a build killed mid-write)
  by dropping it.
- ``<db>.history.jsonl.idx`` — a small sidecar index (byte offsets per
  record) that makes ``tail(n)`` seek instead of scan.  The index is a
  cache, never a source of truth: when it disagrees with the JSONL it
  is rebuilt from the data.

A record embeds the full :class:`~repro.buildsys.report.BuildReport`
payload (as its ``to_dict`` dict — this module stays below the build
system in the layering, so it never imports it) plus pre-extracted
per-pass and compiler-state summaries the analytics in
:mod:`repro.obs.drift` and :mod:`repro.obs.dashboard` consume without
re-deriving.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro._struct import Struct
from repro.persist import atomic_write
from repro.persist import io as io_seam

HISTORY_SCHEMA_VERSION = 1

#: Per-pass counter keys extracted into :attr:`HistoryRecord.passes`.
_PASS_KEYS = ("executed", "dormant", "bypassed", "work")


def default_history_path(db_path: str | Path) -> Path:
    """The history file that rides beside a build database."""
    return Path(f"{db_path}.history.jsonl")


class HistoryRecord(Struct):
    """One build's accounting, as persisted in the history store."""

    _fields = ("seq", "timestamp", "label", "report", "state", "passes")

    def __init__(
        self,
        seq: int,
        timestamp: float,
        label: str = "",
        report: dict | None = None,
        state: dict | None = None,
        passes: dict | None = None,
    ) -> None:
        self.seq = seq
        #: Unix wall-clock time the record was written (not perf_counter).
        self.timestamp = timestamp
        self.label = label
        #: The full build-report payload (``BuildReport.to_dict`` schema).
        self.report = {} if report is None else report
        #: Compiler-state size/GC counters at end of build
        #: (:meth:`~repro.core.state.CompilerState.size_summary` shape).
        self.state = {} if state is None else state
        #: Per-pass ``{executed, dormant, bypassed, work, wall}`` rollup.
        self.passes = {} if passes is None else passes

    # -- derived views the analytics read ------------------------------------

    @property
    def summary(self) -> dict:
        return self.report.get("summary", {})

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
    def state_records(self) -> int:
        return int(self.state.get("records", self.summary.get("state_records", 0)))

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
        if "build_counter" not in self.state or "gc_max_age" not in self.state:
            return True
        return int(self.state["build_counter"]) > int(self.state["gc_max_age"]) + 1

    # -- construction --------------------------------------------------------

    @classmethod
    def from_report_payload(
        cls,
        seq: int,
        timestamp: float,
        report: dict,
        *,
        label: str = "",
        state: dict | None = None,
    ) -> "HistoryRecord":
        """Build a record from a ``BuildReport.to_dict`` payload.

        ``state`` defaults to whatever the report's metrics gauges say
        (populated by the incremental driver for stateful builds);
        per-pass wall times come from the ``ns`` of each
        ``bypass.by_pass`` entry (0 in reports older than schema 3).
        """
        metrics = report.get("metrics", {})
        if state is None:
            gauges = metrics.get("gauges", {})
            state = {
                "records": int(report.get("summary", {}).get("state_records", 0)),
                "bytes": int(gauges.get("state.bytes", 0)),
                "gc_runs": int(gauges.get("state.gc_runs", 0)),
                "gc_reclaimed_total": int(gauges.get("state.gc_reclaimed_total", 0)),
                "gc_reclaimed_last": int(gauges.get("state.gc_reclaimed_last", 0)),
            }
            for key in ("build_counter", "gc_max_age"):
                if f"state.{key}" in gauges:
                    state[key] = int(gauges[f"state.{key}"])

        passes: dict[str, dict] = {}
        for name, counters in report.get("bypass", {}).get("by_pass", {}).items():
            entry = {key: int(counters.get(key, 0)) for key in _PASS_KEYS}
            entry["wall"] = int(counters.get("ns", 0)) / 1e9
            passes[name] = entry

        return cls(
            seq=seq,
            timestamp=timestamp,
            label=label,
            report=report,
            state=state,
            passes=passes,
        )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": HISTORY_SCHEMA_VERSION,
            "seq": self.seq,
            "timestamp": self.timestamp,
            "label": self.label,
            "report": self.report,
            "state": self.state,
            "passes": self.passes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HistoryRecord":
        return cls(
            seq=int(payload["seq"]),
            timestamp=float(payload["timestamp"]),
            label=payload.get("label", ""),
            report=payload.get("report", {}),
            state=payload.get("state", {}),
            passes=payload.get("passes", {}),
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
    """Reader/writer for one append-only history file (+ index)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.index_path = Path(f"{path}.idx")

    # -- writing -------------------------------------------------------------

    def append(self, record: HistoryRecord) -> int:
        """Append one record; returns its byte offset in the file.

        The line is written with a single ``O_APPEND`` write so records
        from concurrent builds never interleave mid-line; the sidecar
        index is refreshed best-effort afterwards (a lost race there
        only costs a later index rebuild, never data).
        """
        line = json.dumps(record.to_dict(), separators=(",", ":"), sort_keys=True)
        data = line.encode("utf-8") + b"\n"
        backend = io_seam.backend()
        fd = backend.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            offset = os.fstat(fd).st_size
            view = memoryview(data)
            while view:
                view = view[backend.write(fd, view):]
        finally:
            backend.close(fd)
        self._refresh_index(record, offset, len(data))
        return offset

    def next_seq(self) -> int:
        """The sequence number the next appended build should use."""
        entries = self._load_index()
        if entries:
            return entries[-1][0] + 1
        records, _ = self.read()
        return records[-1].seq + 1 if records else 1

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

    def tail(self, n: int) -> list[HistoryRecord]:
        """The last ``n`` records, via the index when it is trustworthy."""
        if n <= 0:
            return []
        entries = self._load_index()
        if entries:
            records = []
            try:
                with open(self.path, "rb") as handle:
                    for seq, offset, length, _ in entries[-n:]:
                        handle.seek(offset)
                        payload = json.loads(handle.read(length))
                        records.append(HistoryRecord.from_dict(payload))
                return records
            except (ValueError, KeyError, OSError):
                pass  # stale index: fall through to the full read
        return self.records()[-n:]

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

    def _load_index(self) -> list[list]:
        """Index entries ``[seq, offset, length, timestamp]`` — or ``[]``
        whenever the index is missing, unreadable, or visibly stale."""
        if not self.index_path.is_file() or not self.path.is_file():
            return []
        try:
            payload = json.loads(self.index_path.read_text())
            if payload.get("schema") != HISTORY_SCHEMA_VERSION:
                return []
            entries = payload["entries"]
            size = self.path.stat().st_size
            covered = entries[-1][1] + entries[-1][2] if entries else 0
            if covered != size:  # appends the index missed, or truncation
                return []
            return entries
        except (ValueError, KeyError, IndexError, TypeError, OSError):
            return []

    def _refresh_index(self, record: HistoryRecord, offset: int, length: int) -> None:
        """Best-effort index update after an append (atomic rewrite).

        Written atomically but *not* durably (no fsync, no checksum):
        the index is a pure cache, and a torn or lost index only costs
        a rescan of the JSONL it describes.
        """
        entries = self._stale_tolerant_entries(upto=offset)
        entries.append([record.seq, offset, length, record.timestamp])
        payload = {"schema": HISTORY_SCHEMA_VERSION, "entries": entries}
        try:
            atomic_write(
                self.index_path,
                json.dumps(payload, separators=(",", ":")).encode("utf-8"),
                checksum=False,
                durable=False,
            )
        except OSError:
            pass  # the index is a cache; the JSONL is intact regardless

    def _stale_tolerant_entries(self, upto: int) -> list[list]:
        """Existing index entries covering exactly ``upto`` bytes, else a
        rescan of the JSONL up to that offset (concurrent writers race on
        the index, so it can lag the file it describes)."""
        if self.index_path.is_file():
            try:
                payload = json.loads(self.index_path.read_text())
                entries = payload.get("entries", [])
                covered = entries[-1][1] + entries[-1][2] if entries else 0
                if payload.get("schema") == HISTORY_SCHEMA_VERSION and covered == upto:
                    return entries
            except (ValueError, KeyError, IndexError, TypeError, OSError):
                pass
        return self._scan_entries(upto)

    def _scan_entries(self, upto: int) -> list[list]:
        """Rebuild index entries from the JSONL's first ``upto`` bytes."""
        entries: list[list] = []
        try:
            raw = self.path.read_bytes()[:upto]
        except OSError:
            return entries
        offset = 0
        for line in raw.split(b"\n"):
            length = len(line) + 1
            stats = LoadStats()
            record = self._parse_line(line, stats)
            if record is not None:
                entries.append([record.seq, offset, length, record.timestamp])
            offset += length
        return entries
