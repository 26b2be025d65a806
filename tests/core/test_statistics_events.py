"""Bypass statistics: the ledger fold, merging, (de)serialization."""

from repro.core.statistics import BypassStatistics
from repro.passmanager.ledger import BYPASSED, CHANGED, DORMANT, PassLedger, PassRun
from repro.passmanager.pipeline import build_pipeline


def run(position=0, pass_name="p", outcome=DORMANT, work=10, function="f"):
    return PassRun(function, position, pass_name, outcome, work, 1000)


def fold(*runs):
    return BypassStatistics.from_ledger(PassLedger(runs=list(runs)))


class TestSummarize:
    def test_module_prelude_excluded(self):
        stats = fold(
            run(position=-1, pass_name="inline", outcome=CHANGED),
            run(position=0, outcome=DORMANT),
        )
        assert stats.executions == 1
        assert "inline" not in stats.by_pass

    def test_ratios(self):
        stats = fold(
            run(position=0, outcome=DORMANT),
            run(position=1, outcome=CHANGED),
            run(position=2, outcome=BYPASSED, work=0),
            run(position=3, outcome=BYPASSED, work=0),
        )
        assert stats.dormancy_ratio == 0.5
        assert stats.bypass_ratio == 0.5

    def test_empty(self):
        stats = fold()
        assert stats.dormancy_ratio == 0.0 and stats.bypass_ratio == 0.0

    def test_merge(self):
        a = BypassStatistics(executions=2, dormant_executions=1, bypassed=3, work_executed=10)
        a.by_pass["x"] = {"executed": 2, "dormant": 1, "bypassed": 3, "work": 10}
        b = BypassStatistics(executions=1, dormant_executions=0, bypassed=1, work_executed=5)
        b.by_pass["x"] = {"executed": 1, "dormant": 0, "bypassed": 1, "work": 5}
        a.merge(b)
        assert a.executions == 3 and a.bypassed == 4 and a.work_executed == 15
        assert a.by_pass["x"]["work"] == 15


class TestMergeEdgeCases:
    def test_merge_empty_into_populated_is_identity(self):
        a = BypassStatistics(executions=2, dormant_executions=1, bypassed=3, work_executed=10)
        a.by_pass["x"] = {"executed": 2, "dormant": 1, "bypassed": 3, "work": 10}
        before = a.to_dict()
        a.merge(BypassStatistics())
        assert a.to_dict() == before

    def test_merge_populated_into_empty_copies(self):
        a = BypassStatistics()
        b = BypassStatistics(executions=1, dormant_executions=1, bypassed=0, work_executed=4)
        b.by_pass["y"] = {"executed": 1, "dormant": 1, "bypassed": 0, "work": 4}
        a.merge(b)
        assert a.to_dict() == b.to_dict()
        # The merge must copy, not alias, the per-pass dicts.
        a.by_pass["y"]["work"] = 99
        assert b.by_pass["y"]["work"] == 4

    def test_merge_disjoint_by_pass_keys(self):
        a = BypassStatistics(executions=1, work_executed=3)
        a.by_pass["cse"] = {"executed": 1, "dormant": 0, "bypassed": 0, "work": 3}
        b = BypassStatistics(executions=2, dormant_executions=1, work_executed=7)
        b.by_pass["gvn"] = {"executed": 2, "dormant": 1, "bypassed": 0, "work": 7}
        a.merge(b)
        assert set(a.by_pass) == {"cse", "gvn"}
        assert a.by_pass["cse"]["work"] == 3 and a.by_pass["gvn"]["work"] == 7
        assert a.executions == 3 and a.work_executed == 10

    def test_merge_then_ratios(self):
        a = BypassStatistics(executions=2, dormant_executions=2)
        b = BypassStatistics(executions=2, dormant_executions=0, bypassed=4)
        a.merge(b)
        assert a.dormancy_ratio == 0.5  # 2 dormant of 4 executions
        assert a.bypass_ratio == 0.5  # 4 bypassed of 8 scheduled runs

    def test_round_trip(self):
        a = BypassStatistics(executions=2, dormant_executions=1, bypassed=3, work_executed=10)
        a.by_pass["x"] = {"executed": 2, "dormant": 1, "bypassed": 3, "work": 10}
        clone = BypassStatistics.from_dict(a.to_dict())
        assert clone.to_dict() == a.to_dict()


class TestFromMetrics:
    def test_empty_registry(self):
        """An empty ledger folds to an empty table with no work."""
        stats = BypassStatistics.from_ledger(PassLedger())
        assert stats.executions == 0 and stats.by_pass == {}
        assert PassLedger().work == 0 and PassLedger().module_runs == 0


class TestPipelines:
    def test_position_names_stable(self):
        p = build_pipeline("O2")
        names = p.position_names()
        assert len(names) == p.num_function_passes
        assert names[0] == "0:mem2reg"
        assert names == build_pipeline("O2").position_names()

    def test_levels_differ(self):
        assert build_pipeline("O0").num_function_passes < build_pipeline("O1").num_function_passes
        assert build_pipeline("O1").num_function_passes < build_pipeline("O2").num_function_passes

    def test_unknown_level(self):
        import pytest

        with pytest.raises(ValueError):
            build_pipeline("O3")

    def test_describe(self):
        text = build_pipeline("O1").describe()
        assert "mem2reg" in text and "funcattrs" in text
