"""Drift detectors over synthetic build histories."""

from repro.obs.drift import DriftConfig, detect_drift
from repro.obs.history import HistoryRecord


def make_record(
    seq: int,
    *,
    bypass_rate: float = 0.6,
    recompiled: int = 4,
    passes: dict | None = None,
    state_bytes: int = 50_000,
    state_records: int = 120,
    gc_reclaimed: int = 3,
) -> HistoryRecord:
    bypassed = int(round(bypass_rate * 100))
    return HistoryRecord(
        seq=seq,
        timestamp=1_700_000_000.0 + seq,
        label=None,
        report={
            "schema": 2,
            "summary": {"recompiled": recompiled, "up_to_date": 0},
            "bypass": {"executions": 100 - bypassed, "bypassed": bypassed},
        },
        state={
            "records": state_records,
            "bytes": state_bytes,
            "gc_reclaimed_last": gc_reclaimed,
        },
        passes=passes or {},
    )


def trace(n: int, **kwargs) -> list[HistoryRecord]:
    """A clean-build-then-incremental trace of n builds, all alike."""
    return [make_record(1, bypass_rate=0.0)] + [
        make_record(seq, **kwargs) for seq in range(2, n + 1)
    ]


def kinds(report) -> list[str]:
    return [finding.kind for finding in report.findings]


class TestCleanTrace:
    def test_steady_history_is_quiet(self):
        report = detect_drift(trace(8))
        assert report.clean
        assert report.builds_analyzed == 8
        assert "no drift" in report.describe()

    def test_order_independent(self):
        records = trace(8)
        assert detect_drift(list(reversed(records))).clean

    def test_empty_and_tiny_histories_are_quiet(self):
        assert detect_drift([]).clean
        assert detect_drift(trace(3)).clean


class TestBypassRate:
    def test_drop_beyond_threshold_is_flagged(self):
        records = trace(8)
        records[-1] = make_record(8, bypass_rate=0.2)
        report = detect_drift(records)
        assert kinds(report) == ["bypass-rate"]
        finding = report.findings[0]
        assert finding.seq == 8
        assert finding.baseline - finding.current > 0.15
        assert "bypass rate fell" in finding.message

    def test_small_drop_stays_quiet(self):
        records = trace(8)
        records[-1] = make_record(8, bypass_rate=0.5)  # -0.10 < 0.15
        assert detect_drift(records).clean

    def test_one_bad_build_does_not_poison_the_baseline(self):
        """Median baseline: a single earlier outlier neither triggers
        (it isn't latest) nor drags the baseline down."""
        records = trace(9)
        records[4] = make_record(5, bypass_rate=0.1)
        assert detect_drift(records).clean
        records[-1] = make_record(9, bypass_rate=0.2)
        assert kinds(detect_drift(records)) == ["bypass-rate"]

    def test_needs_min_builds_of_history(self):
        records = trace(4)  # only 3 comparable builds: below min_builds + 1
        records[-1] = make_record(4, bypass_rate=0.0)
        assert detect_drift(records).clean

    def test_noop_builds_are_not_comparable(self):
        """recompiled == 0 builds carry no dormancy signal either way."""
        records = trace(8)
        records += [make_record(9, bypass_rate=0.0, recompiled=0)]
        assert detect_drift(records).clean


class TestPassWall:
    @staticmethod
    def passes(ms_per_run: float, executed: int = 10) -> dict:
        return {"dce": {"executed": executed, "wall": ms_per_run * 1e-3 * executed}}

    def test_slowdown_beyond_factor_and_floor_is_flagged(self):
        records = trace(8, passes=self.passes(5.0))
        records[-1] = make_record(8, passes=self.passes(25.0))
        report = detect_drift(records)
        assert kinds(report) == ["pass-wall"]
        finding = report.findings[0]
        assert finding.metric == "passes.dce.wall"
        assert "5.0x" in finding.message

    def test_subfloor_jitter_is_quiet_despite_large_factor(self):
        """0.1 ms -> 0.5 ms is 5x but under the 2 ms absolute floor."""
        records = trace(8, passes=self.passes(0.1))
        records[-1] = make_record(8, passes=self.passes(0.5))
        assert detect_drift(records).clean

    def test_below_factor_is_quiet_despite_absolute_delta(self):
        records = trace(8, passes=self.passes(10.0))
        records[-1] = make_record(8, passes=self.passes(15.0))  # 1.5x < 2.0x
        assert detect_drift(records).clean

    def test_new_pass_without_baseline_is_quiet(self):
        records = trace(8)
        records[-1] = make_record(8, passes=self.passes(50.0))
        assert detect_drift(records).clean


class TestStateGrowth:
    @staticmethod
    def growing(n: int, *, start: int = 10_000, step: int = 2_000, gc: int = 0):
        return [
            make_record(
                seq,
                bypass_rate=0.0 if seq == 1 else 0.6,
                state_bytes=start + (seq - 1) * step,
                gc_reclaimed=gc,
            )
            for seq in range(1, n + 1)
        ]

    def test_monotone_growth_with_dead_gc_is_flagged(self):
        report = detect_drift(self.growing(8))
        assert kinds(report) == ["state-growth"]
        finding = report.findings[0]
        assert finding.current > finding.baseline * 1.5
        assert "GC" in finding.message

    def test_quiet_when_gc_reclaims_anything(self):
        assert detect_drift(self.growing(8, gc=1)).clean

    def test_quiet_when_growth_is_modest(self):
        # Strictly growing and zero reclaim, but < 1.5x end-to-end.
        assert detect_drift(self.growing(8, start=100_000, step=500)).clean

    def test_quiet_when_growth_plateaus(self):
        records = self.growing(8)
        records[-1] = make_record(8, state_bytes=records[-2].state_bytes)
        assert detect_drift(records).clean

    def test_needs_full_window(self):
        assert detect_drift(self.growing(5)).clean


class TestConfig:
    def test_thresholds_are_tunable(self):
        records = trace(8)
        records[-1] = make_record(8, bypass_rate=0.5)
        strict = DriftConfig(bypass_drop=0.05)
        assert kinds(detect_drift(records, strict)) == ["bypass-rate"]

    def test_findings_serialize(self):
        records = trace(8)
        records[-1] = make_record(8, bypass_rate=0.1)
        payload = detect_drift(records).findings[0].to_dict()
        assert payload["kind"] == "bypass-rate"
        assert set(payload) == {
            "kind", "metric", "baseline", "current", "message", "seq",
        }
