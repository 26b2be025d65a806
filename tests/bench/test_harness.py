"""Smoke tests for every experiment runner (tiny configurations).

The real experiments run under ``benchmarks/``; these tests assert the
harness machinery produces sane, structurally correct results quickly.
"""

import pytest

from repro.bench.breakdown import pass_breakdown
from repro.bench.correctness import correctness_check
from repro.bench.dormancy import clean_build_dormancy, dormancy_persistence
from repro.bench.endtoend import default_variants, run_edit_trace
from repro.bench.overheads import overhead_report
from repro.bench.projects import project_characteristics
from repro.bench.sweeps import edit_size_sweep, fingerprint_ablation, granularity_ablation
from repro.bench.tables import format_table, geometric_mean


class TestTables:
    def test_format_alignment(self):
        out = format_table(["name", "value"], [["x", 1.5], ["long-name", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "---" in lines[2]
        assert len(lines) == 5

    def test_geomean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 0.0, 4.0]) == pytest.approx(2.0)  # zeros ignored


class TestRunners:
    def test_project_characteristics(self):
        rows = project_characteristics(["tiny"], seed=1)
        assert rows[0].preset == "tiny"
        assert rows[0].functions > 0 and rows[0].ir_instructions > 0

    def test_clean_build_dormancy(self):
        rows = clean_build_dormancy("tiny", seed=1)
        assert rows
        for row in rows:
            assert 0 <= row.ratio <= 1
            assert row.dormant <= row.executions

    def test_dormancy_persistence(self):
        result = dormancy_persistence("tiny", num_edits=2, seed=1)
        assert len(result.per_step) == 2
        assert 0 <= result.overall <= 1

    def test_edit_trace(self):
        traces = run_edit_trace("tiny", default_variants(), num_edits=2, seed=1)
        assert set(traces) == {"stateless", "stateful"}
        sf = traces["stateful"]
        assert len(sf.steps) == 2
        assert sf.clean_build_time > 0
        assert traces["stateful"].mean_bypass_ratio > 0

    def test_edit_size_sweep(self):
        points = edit_size_sweep("tiny", sizes=[1, 2], seed=1)
        assert [p.label for p in points] == ["1 functions", "2 functions"]
        for p in points:
            assert p.stateless_work >= p.stateful_work  # bypassing never adds work

    def test_pass_breakdown(self):
        rows = pass_breakdown("tiny", seed=1)
        names = {r.pass_name for r in rows}
        assert "mem2reg" in names and "gvn" in names
        for row in rows:
            assert row.stateful_work <= row.stateless_work

    def test_overheads(self):
        rows = overhead_report(["tiny"], seed=1)
        row = rows[0]
        assert row.state_bytes > 0 and row.state_records > 0
        assert row.fingerprint_count > 0

    def test_correctness_check(self):
        result = correctness_check("tiny", num_edits=2, seed=1)
        assert result.passed, (result.object_mismatches, result.behaviour_mismatches)
        assert result.builds_checked == 3  # clean + 2 edits

    def test_granularity_ablation(self):
        summary = granularity_ablation("tiny", num_edits=2, seed=1)
        assert set(summary) == {
            "none (stateless)",
            "coarse (function-level)",
            "fine (function x pass)",
            "memo (fine + code reuse)",
        }
        fine = summary["fine (function x pass)"]
        none = summary["none (stateless)"]
        assert fine.bypass_ratio > none.bypass_ratio == 0.0
        assert fine.total_work <= none.total_work

    def test_fingerprint_ablation(self):
        summary = fingerprint_ablation("tiny", num_edits=2, seed=1)
        assert set(summary) == {"canonical", "named"}
        # canonical is at least as effective at bypassing
        assert summary["canonical"].bypass_ratio >= summary["named"].bypass_ratio
