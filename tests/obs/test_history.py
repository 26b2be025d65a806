"""BuildHistory durability: concurrency, torn lines, schema round-trip,
back-compat with v1 histories, and the work one build's history step does."""

import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.cli import reprobuild_history_main, reprobuild_regress_main
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    BuildHistory,
    HistoryRecord,
    default_history_path,
)
from repro.persist import io as io_seam

DATA = Path(__file__).parent / "data"


def make_record(seq: int, **overrides) -> HistoryRecord:
    """A record with every schema field populated (nothing defaulted)."""
    fields = dict(
        seq=seq,
        timestamp=1_700_000_000.0 + seq,
        label=f"build-{seq}",
        report={
            "schema": 4,
            "summary": {"recompiled": 3, "up_to_date": 2, "total_wall_time": 0.5},
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
            "state": {
                "records": 100 + seq,
                "bytes": 5000 + seq,
                "gc_runs": seq,
                "gc_reclaimed_total": 7,
                "gc_reclaimed_last": 2,
            },
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
        assert make_record(1).passes == {
            "dce": {"executed": 5, "dormant": 1, "bypassed": 9, "work": 42, "wall": 0.01}
        }

    def test_line_holds_each_fact_once(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        raw = json.loads(history.path.read_text())
        assert set(raw) == {"schema", "seq", "timestamp", "label", "report"}
        assert raw["schema"] == HISTORY_SCHEMA_VERSION
        assert make_record(1).state == raw["report"]["state"]

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
        assert os.listdir(tmp_path) == ["h.jsonl"]
        assert history.next_seq() == 2

    def test_next_seq_skips_a_torn_final_line(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        history.append(make_record(2))
        with open(history.path, "ab") as handle:
            handle.write(b'{"schema": 2, "seq": 3, "timest')
        assert history.next_seq() == 3

    def test_next_seq_reads_back_across_long_lines(self, tmp_path):
        """Lines longer than one read step, and a torn tail longer still."""
        history = BuildHistory(tmp_path / "h.jsonl")
        padding = {"compiled": [{"path": "x" * 1000}] * 40}  # ~40 KB per line
        for seq in (1, 2):
            history.append(make_record(seq, report=dict(make_record(seq).report, **padding)))
        with open(history.path, "ab") as handle:
            handle.write(b'{"schema": 2, "seq": 3, "x": "' + b"y" * 70_000)
        assert history.next_seq() == 3
        assert BuildHistory(tmp_path / "empty.jsonl").next_seq() == 1

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
    """Histories once had a byte-offset sidecar, ``<history>.idx``.  One
    left behind by an older writer is never read, written or trusted."""

    def test_stale_index_is_ignored(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        index = tmp_path / "h.jsonl.idx"
        index.write_text(json.dumps({"schema": 1, "entries": [[9, 0, 1, 0.0]]}))
        assert history.next_seq() == 2
        history.append(make_record(2))
        assert [r.seq for r in history.records()] == [1, 2]
        assert json.loads(index.read_text())["entries"] == [[9, 0, 1, 0.0]]

    def test_corrupt_index_is_ignored(self, tmp_path):
        history = BuildHistory(tmp_path / "h.jsonl")
        history.append(make_record(1))
        (tmp_path / "h.jsonl.idx").write_text("garbage")
        assert [r.seq for r in history.records()] == [1]
        assert history.next_seq() == 2


@pytest.fixture()
def utc(monkeypatch):
    """Render local times as UTC, so printed timestamps are fixed."""
    monkeypatch.setenv("TZ", "UTC")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestV1History:
    """A history written before the v2 line shape: each record carried
    the state summary and the per-pass table beside a schema-3 report
    (which kept ``state.*`` gauges too), with a ``.idx`` sidecar."""

    @pytest.fixture()
    def v1(self, tmp_path):
        path = tmp_path / "build.reprodb.history.jsonl"
        shutil.copy(DATA / "v1.history.jsonl", path)
        shutil.copy(DATA / "v1.history.jsonl.idx", f"{path}.idx")
        return path

    def test_views_match_what_the_v1_reader_gave(self, v1):
        records, stats = BuildHistory(v1).read()
        assert stats.loaded == 5 and stats.corrupt == 0
        views = [
            {
                "seq": r.seq,
                "state_records": r.state_records,
                "state_bytes": r.state_bytes,
                "gc_reclaimed": r.gc_reclaimed,
                "gc_past_age_limit": r.gc_past_age_limit,
                "passes": r.passes,
                "bypass_rate": r.bypass_rate,
            }
            for r in records
        ]
        assert views == json.loads((DATA / "v1.views.json").read_text())
        assert any(r.bypass_rate > 0 for r in records)

    def test_next_seq_continues_and_v2_lines_follow(self, v1):
        history = BuildHistory(v1)
        assert history.next_seq() == 6
        history.append(make_record(6))
        assert [r.seq for r in history.records()] == [1, 2, 3, 4, 5, 6]
        assert history.next_seq() == 7
        assert (DATA / "v1.history.jsonl.idx").read_bytes() == Path(
            f"{v1}.idx"
        ).read_bytes()

    def test_history_command_prints_what_the_v1_reader_printed(self, v1, utc, capsys):
        assert reprobuild_history_main(["--history", str(v1)]) == 0
        assert capsys.readouterr().out == (DATA / "v1.history.txt").read_text()

    def test_regress_prints_what_the_v1_reader_printed(self, v1, capsys):
        assert reprobuild_regress_main(["--history", str(v1)]) == 0
        assert capsys.readouterr().out == (DATA / "v1.regress.txt").read_text()


def _bytes_read() -> int:
    """Bytes this process has read through read syscalls so far."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise AssertionError("no rchar in /proc/self/io")


class _RecordingBackend(io_seam.IOBackend):
    """Passthrough that records each file opened and each byte written."""

    def __init__(self):
        self.opened: list[str] = []
        self.written = b""

    def open(self, path, flags, mode=0o644):
        self.opened.append(path)
        return super().open(path, flags, mode)

    def write(self, fd, data):
        self.written += bytes(data)
        return super().write(fd, data)


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
class TestWorkCounts:
    """A build's history step is one tail read and one appended line,
    whatever the length of the history."""

    #: One build's line as ``reprobuild`` writes it (a real report).
    LINE = json.dumps(
        HistoryRecord.from_dict(
            json.loads((DATA / "v1.history.jsonl").read_text().splitlines()[-1])
        ).to_dict(),
        separators=(",", ":"),
        sort_keys=True,
    ).encode()

    def step(self, tmp_path, builds: int) -> tuple[int, _RecordingBackend]:
        path = tmp_path / f"{builds}.history.jsonl"
        path.write_bytes(b"".join(
            self.LINE.replace(b'"seq":5', b'"seq":%d' % seq) + b"\n"
            for seq in range(1, builds + 1)
        ))
        history = BuildHistory(path)
        backend = _RecordingBackend()
        before = _bytes_read()
        with io_seam.use_backend(backend):
            history.append(make_record(history.next_seq()))
        return _bytes_read() - before, backend

    def test_next_seq_and_append_read_and_write_o1_bytes(self, tmp_path):
        self.step(tmp_path, 1)  # warm up anything a first call loads
        short_read, _ = self.step(tmp_path, 20)
        long_read, backend = self.step(tmp_path, 2_000)

        path = tmp_path / "2000.history.jsonl"
        assert path.stat().st_size > 2_000 * len(self.LINE)
        # Equal but for the few bytes of /proc/self/io text the
        # measurement itself reads, whose length varies with its values.
        assert abs(long_read - short_read) < 64
        assert long_read < 64 * 1024
        # One line, appended to the history; no other file written.
        assert backend.opened == [str(path)]
        assert backend.written == json.dumps(
            make_record(2_001).to_dict(), separators=(",", ":"), sort_keys=True
        ).encode() + b"\n"
        assert sorted(os.listdir(tmp_path)) == [
            "1.history.jsonl", "20.history.jsonl", "2000.history.jsonl"
        ]
