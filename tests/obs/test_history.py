"""BuildHistory durability: concurrency, torn lines, schema round-trip."""

import json
import threading

from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    BuildHistory,
    HistoryRecord,
    default_history_path,
)


def make_record(seq: int, **overrides) -> HistoryRecord:
    """A record with every schema field populated (nothing defaulted)."""
    fields = dict(
        seq=seq,
        timestamp=1_700_000_000.0 + seq,
        label=f"build-{seq}",
        report={
            "schema": 3,
            "summary": {
                "recompiled": 3,
                "up_to_date": 2,
                "total_wall_time": 0.5,
                "state_records": 100 + seq,
            },
            "bypass": {
                "executions": 40,
                "bypassed": 60,
                "by_pass": {
                    "dce": {
                        "executed": 5, "dormant": 1, "bypassed": 9, "work": 42,
                        "ns": 10_000_000,
                    }
                },
            },
        },
        state={
            "records": 100 + seq,
            "bytes": 5000 + seq,
            "gc_runs": seq,
            "gc_reclaimed_total": 7,
            "gc_reclaimed_last": 2,
        },
        passes={
            "dce": {"executed": 5, "dormant": 1, "bypassed": 9, "work": 42, "wall": 0.01}
        },
    )
    fields.update(overrides)
    return HistoryRecord(**fields)


def _timing(total: float) -> dict:
    return {"count": 2, "total": total, "min": total / 4, "max": total * 3 / 4,
            "mean": total / 2}


_PROFILE = {
    "schema": 1,
    "phases": {"compile": {"calls": 9, "tottime": 0.1}},
    "hotspots": [{"function": "manager.py:127(_run)", "calls": 9,
                  "tottime": 0.1, "cumtime": 0.3}],
}
_UNIT_STATS = {"executions": 5, "dormant_executions": 1, "bypassed": 15,
               "work_executed": 40, "by_pass": {}}

#: A serial stateful build's history line as earlier writers produced
#: it: a cProfile ``profile`` table beside the record and inside its
#: report, and per-worker ``source.<worker>.*`` copies of each unit
#: stage timing in ``report.metrics``.
LEGACY_LINE = json.dumps({
    "schema": 1,
    "seq": 7,
    "timestamp": 1_700_000_420.0,
    "label": "legacy",
    "report": {
        "schema": 3,
        "summary": {
            "recompiled": 2, "up_to_date": 1, "jobs": 1, "workers": 1,
            "parallel_speedup": 1.0, "total_wall_time": 0.5, "scan_time": 0.01,
            "compile_phase_time": 0.4, "compile_wall_time": 0.4,
            "link_time": 0.02, "total_pass_work": 80, "state_records": 57,
            "state_bytes": 9000, "linked": True,
        },
        "compiled": [
            {"path": "main.mc", "wall_time": 0.3, "pass_work": 50,
             "stats": _UNIT_STATS, "fingerprint_time": 0.01,
             "fingerprint_count": 6, "worker": "main"},
            {"path": "lib.mc", "wall_time": 0.1, "pass_work": 30,
             "stats": _UNIT_STATS, "fingerprint_time": 0.004,
             "fingerprint_count": 3, "worker": "main"},
        ],
        "up_to_date": ["util.mc"],
        "bypass": {
            "executions": 10, "dormant_executions": 2, "bypassed": 30,
            "work_executed": 80,
            "by_pass": {"dce": {"executed": 4, "dormant": 1, "bypassed": 6,
                                "work": 20, "ns": 3_000_000}},
        },
        "reasons": {},
        "metrics": {
            "counters": {"passes.executed": 10, "passes.bypassed": 30},
            "gauges": {"state.bytes": 9000},
            "timings": {
                f"{prefix}compile.{stage}_time": _timing(0.1)
                for prefix in ("", "source.driver.")
                for stage in ("frontend", "lowering", "passes", "backend")
            },
        },
        "profile": _PROFILE,
    },
    "state": {"records": 57, "bytes": 9000, "gc_runs": 3,
              "gc_reclaimed_total": 4, "gc_reclaimed_last": 1},
    "passes": {"dce": {"executed": 4, "dormant": 1, "bypassed": 6, "work": 20,
                       "wall": 0.003}},
    "profile": _PROFILE,
})


class TestRoundTrip:
    def test_every_field_survives_append_and_read(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        original = make_record(1)
        history.append(original)
        records, stats = history.read()
        assert stats.loaded == 1 and not stats.truncated and stats.corrupt == 0
        assert records[0].to_dict() == original.to_dict()

    def test_per_pass_wall_comes_from_by_pass_ns(self):
        original = make_record(1)
        rebuilt = HistoryRecord.from_report_payload(
            1, original.timestamp, original.report, state=original.state
        )
        assert rebuilt.passes == original.passes

    def test_derived_views(self, tmp_path):
        record = make_record(1)
        assert record.recompiled == 3
        assert record.up_to_date == 2
        assert record.total_wall_time == 0.5
        assert record.bypass_rate == 0.6
        assert record.state_records == 101
        assert record.state_bytes == 5001
        assert record.gc_reclaimed == 2

    def test_next_seq_continues_the_sequence(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        assert history.next_seq() == 1
        history.append(make_record(1))
        history.append(make_record(2))
        assert history.next_seq() == 3

    def test_next_seq_without_index(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        history.index_path.unlink()
        assert history.next_seq() == 2

    def test_legacy_line_with_profile_and_source_timings_loads(self, tmp_path):
        record = HistoryRecord.from_dict(json.loads(LEGACY_LINE))
        assert (record.seq, record.label, record.recompiled) == (7, "legacy", 2)
        assert record.state_records == 57 and record.bypass_rate == 0.75
        assert "profile" not in record.to_dict()

        history = BuildHistory(tmp_path / "h.jsonl")
        history.path.write_text(LEGACY_LINE + "\n")
        history.append(make_record(8))
        records, stats = history.read()
        assert [r.seq for r in records] == [7, 8]
        assert stats.corrupt == 0 and stats.newer_schema == 0

    def test_default_history_path_rides_beside_db(self):
        assert str(default_history_path("build.reprodb")).endswith(
            "build.reprodb.history.jsonl"
        )


class TestTornLines:
    def test_truncated_final_line_is_dropped_not_fatal(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        history.append(make_record(2))
        # A build killed mid-append leaves a partial line with no newline.
        with open(history.path, "ab") as handle:
            handle.write(b'{"schema": 1, "seq": 3, "timest')
        records, stats = history.read()
        assert [r.seq for r in records] == [1, 2]
        assert stats.truncated
        assert stats.corrupt == 0

    def test_corrupt_middle_line_is_counted_not_recovered(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        with open(history.path, "ab") as handle:
            handle.write(b"not json at all\n")
        history.append(make_record(2))
        records, stats = history.read()
        assert [r.seq for r in records] == [1, 2]
        assert stats.corrupt == 1
        assert not stats.truncated

    def test_newer_schema_records_are_skipped_and_counted(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        alien = make_record(2).to_dict()
        alien["schema"] = HISTORY_SCHEMA_VERSION + 41
        with open(history.path, "ab") as handle:
            handle.write(json.dumps(alien).encode() + b"\n")
        records, stats = history.read()
        assert [r.seq for r in records] == [1]
        assert stats.newer_schema == 1
        assert stats.corrupt == 0

    def test_missing_file_reads_empty(self, tmp_path):
        records, stats = BuildHistory(tmp_path / "absent.jsonl").read()
        assert records == [] and stats.lines == 0


class TestConcurrency:
    def test_concurrent_appends_never_interleave(self, tmp_path):
        """-j N builds sharing one history: whole lines, all present."""
        history = BuildHistory(tmp_path / "h.jsonl")

        def append_many(base: int) -> None:
            for k in range(25):
                history.append(make_record(base * 100 + k))

        writers = [threading.Thread(target=append_many, args=(b,)) for b in range(4)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=30)
            assert not writer.is_alive()

        records, stats = history.read()
        assert stats.corrupt == 0 and not stats.truncated
        assert len(records) == 100
        assert sorted(r.seq for r in records) == sorted(
            base * 100 + k for base in range(4) for k in range(25)
        )


class TestIndex:
    def test_tail_uses_index_and_matches_full_read(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        for seq in range(1, 11):
            history.append(make_record(seq))
        assert [r.seq for r in history.tail(3)] == [8, 9, 10]

    def test_tail_survives_missing_index(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        for seq in range(1, 6):
            history.append(make_record(seq))
        history.index_path.unlink()
        assert [r.seq for r in history.tail(2)] == [4, 5]

    def test_stale_index_is_ignored(self, tmp_path):
        """An index that disagrees with the file is a cache miss, not truth."""
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        history.index_path.write_text(
            json.dumps({"schema": HISTORY_SCHEMA_VERSION, "entries": [[9, 0, 1, 0.0]]})
        )
        assert [r.seq for r in history.tail(5)] == [1]

    def test_corrupt_index_is_ignored(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        history.index_path.write_text("garbage")
        assert [r.seq for r in history.tail(1)] == [1]
        assert history.next_seq() == 2

    def test_index_rebuilt_after_external_append(self, tmp_path):
        """A writer that bypassed the index (crash before refresh) only
        costs a rescan; the next append repairs the sidecar."""
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        with open(history.path, "ab") as handle:
            line = json.dumps(make_record(2).to_dict(), separators=(",", ":"))
            handle.write(line.encode() + b"\n")
        history.append(make_record(3))
        assert [r.seq for r in history.tail(3)] == [1, 2, 3]
