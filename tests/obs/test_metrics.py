"""MetricsRegistry: counters, gauges, timings, merge, round-trip."""

import pytest

from repro.obs.metrics import MetricsRegistry


class TestCounters:
    def test_inc_and_count(self):
        metrics = MetricsRegistry()
        metrics.inc("passes.executed")
        metrics.inc("passes.executed", 4)
        assert metrics.count("passes.executed") == 5

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().count("nope") == 0

    def test_counter_is_get_or_create(self):
        metrics = MetricsRegistry()
        assert metrics.counter("a") is metrics.counter("a")


class TestGauges:
    def test_set_overwrites(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("state.records", 10)
        metrics.set_gauge("state.records", 7)
        assert metrics.gauge("state.records").value == 7


class TestTimings:
    def test_observe_accumulates_summary(self):
        metrics = MetricsRegistry()
        for value in (0.2, 0.4, 0.6):
            metrics.observe("t", value)
        timing = metrics.timing("t")
        assert timing.count == 3
        assert timing.total == pytest.approx(1.2)
        assert timing.min == pytest.approx(0.2)
        assert timing.max == pytest.approx(0.6)
        assert timing.mean == pytest.approx(0.4)

    def test_empty_timing_mean_is_zero(self):
        assert MetricsRegistry().timing("t").mean == 0.0


class TestMerge:
    def test_merge_adds_counters_and_timings(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("passes.executed", 2)
        b.inc("passes.executed", 3)
        b.inc("passes.bypassed", 1)
        a.observe("t", 0.5)
        b.observe("t", 1.5)
        a.merge(b)
        assert a.count("passes.executed") == 5
        assert a.count("passes.bypassed") == 1
        assert a.timing("t").count == 2
        assert a.timing("t").total == pytest.approx(2.0)

    def test_merge_gauges_last_writer_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("g", 1)
        b.set_gauge("g", 9)
        a.merge(b)
        assert a.gauge("g").value == 9

    def test_merge_empty_is_identity(self):
        a = MetricsRegistry()
        a.inc("x")
        a.merge(MetricsRegistry())
        assert a.count("x") == 1


class TestSourceTags:
    """A merge keeps one timing per name: no per-worker ``source.*`` copies."""

    def test_untagged_merge_adds_no_source_timings(self):
        driver, worker = MetricsRegistry(), MetricsRegistry()
        worker.observe("t", 1.0)
        driver.merge(worker)
        assert all(not n.startswith("source.") for n in driver.timings)


class TestSerialization:
    def test_round_trip(self):
        metrics = MetricsRegistry()
        metrics.inc("passes.executed", 7)
        metrics.set_gauge("build.jobs", 4)
        metrics.observe("t", 0.25)
        payload = metrics.to_dict()
        clone = MetricsRegistry.from_dict(payload)
        assert clone.to_dict() == payload

    def test_to_dict_sorts_names(self):
        metrics = MetricsRegistry()
        metrics.inc("zz")
        metrics.inc("aa")
        assert list(metrics.to_dict()["counters"]) == ["aa", "zz"]
