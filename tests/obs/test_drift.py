"""Drift detectors over synthetic build histories, and over histories
that real builds wrote."""

from repro.buildsys.builddb import BuildDatabase
from repro.cli import reprobuild_main
from repro.core.state import CompilerState
from repro.obs.drift import DriftConfig, detect_drift
from repro.obs.history import BuildHistory, HistoryRecord, default_history_path


def make_record(
    seq: int,
    *,
    bypass_rate: float = 0.6,
    recompiled: int = 4,
    by_pass: dict | None = None,
    state_bytes: int = 50_000,
    state_records: int = 120,
    gc_reclaimed: int = 3,
    build_counter: int | None = None,
    gc_max_age: int = 50,
) -> HistoryRecord:
    """``build_counter=None`` leaves out the GC clock, as a record written
    before it was kept does."""
    bypassed = int(round(bypass_rate * 100))
    state = {"records": state_records, "bytes": state_bytes, "gc_reclaimed_last": gc_reclaimed}
    if build_counter is not None:
        state.update(build_counter=build_counter, gc_max_age=gc_max_age)
    return HistoryRecord(
        seq=seq,
        timestamp=1_700_000_000.0 + seq,
        label=None,
        report={
            "schema": 4,
            "summary": {"recompiled": recompiled, "up_to_date": 0},
            "bypass": {
                "executions": 100 - bypassed,
                "bypassed": bypassed,
                "by_pass": by_pass or {},
            },
            "state": state,
        },
    )


def memo_record(seq: int, *, reused: int, compiled: int, bypass_rate: float) -> HistoryRecord:
    """A memo-policy build: ``reused`` functions took their old machine
    code, ``compiled`` went through the pipeline at ``bypass_rate``."""
    record = make_record(seq, bypass_rate=bypass_rate)
    record.report["memo"] = {"functions_reused": reused, "functions_compiled": compiled}
    return record


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


class TestMemoSkipRate:
    """Under the memo policy reused functions count as skipped work."""

    def memo_trace(self, n: int, functions: int = 40) -> list[HistoryRecord]:
        # Each edit build reuses 90% of the functions and bypasses 30%
        # of the rest's pass runs: 1 - 0.7 * 0.1 = 93% skipped.
        reused = functions * 9 // 10
        return [memo_record(1, reused=0, compiled=functions, bypass_rate=0.0)] + [
            memo_record(seq, reused=reused, compiled=functions - reused, bypass_rate=0.3)
            for seq in range(2, n + 1)
        ]

    def test_skip_rate_counts_reused_functions(self):
        assert memo_record(1, reused=6, compiled=0, bypass_rate=0.0).skip_rate == 1.0
        record = memo_record(1, reused=36, compiled=4, bypass_rate=0.3)
        assert abs(record.skip_rate - 0.93) < 1e-9
        # Without reuse the skipped share is the bypass rate.
        assert make_record(1, bypass_rate=0.6).skip_rate == 0.6
        assert memo_record(1, reused=0, compiled=9, bypass_rate=0.6).skip_rate == 0.6

    def test_reuse_without_bypasses_is_not_drift(self):
        records = self.memo_trace(8)
        # The compiled functions bypass nothing, but most were reused.
        records[-1] = memo_record(8, reused=36, compiled=4, bypass_rate=0.0)
        assert records[-1].bypass_rate == 0.0
        assert detect_drift(records).clean

    def test_real_drop_in_skipped_share_is_flagged(self):
        records = self.memo_trace(8)
        records[-1] = memo_record(8, reused=4, compiled=36, bypass_rate=0.0)
        report = detect_drift(records)
        assert kinds(report) == ["bypass-rate"]
        finding = report.findings[0]
        assert finding.metric == "skip_rate"
        assert abs(finding.current - 0.1) < 1e-9 and abs(finding.baseline - 0.93) < 1e-9

    def test_small_build_within_noise_is_quiet(self):
        """Six keyed functions: compiling two of them instead of one moves
        the share by a sixth, within the noise of so few functions."""
        records = self.memo_trace(8, functions=6)
        records[-1] = memo_record(8, reused=4, compiled=2, bypass_rate=0.0)
        assert detect_drift(records).clean
        records[-1] = memo_record(8, reused=0, compiled=6, bypass_rate=0.0)
        assert kinds(detect_drift(records)) == ["bypass-rate"]


class TestPassWall:
    @staticmethod
    def by_pass(ms_per_run: float, executed: int = 10) -> dict:
        return {"dce": {"executed": executed, "ns": round(ms_per_run * 1e6 * executed)}}

    def test_slowdown_beyond_factor_and_floor_is_flagged(self):
        records = trace(8, by_pass=self.by_pass(5.0))
        records[-1] = make_record(8, by_pass=self.by_pass(25.0))
        report = detect_drift(records)
        assert kinds(report) == ["pass-wall"]
        finding = report.findings[0]
        assert finding.metric == "passes.dce.wall"
        assert "5.0x" in finding.message

    def test_subfloor_jitter_is_quiet_despite_large_factor(self):
        """0.1 ms -> 0.5 ms is 5x but under the 2 ms absolute floor."""
        records = trace(8, by_pass=self.by_pass(0.1))
        records[-1] = make_record(8, by_pass=self.by_pass(0.5))
        assert detect_drift(records).clean

    def test_below_factor_is_quiet_despite_absolute_delta(self):
        records = trace(8, by_pass=self.by_pass(10.0))
        records[-1] = make_record(8, by_pass=self.by_pass(15.0))  # 1.5x < 2.0x
        assert detect_drift(records).clean

    def test_new_pass_without_baseline_is_quiet(self):
        records = trace(8)
        records[-1] = make_record(8, by_pass=self.by_pass(50.0))
        assert detect_drift(records).clean


class TestStateGrowth:
    @staticmethod
    def growing(
        n: int,
        *,
        start: int = 10_000,
        step: int = 2_000,
        gc: int = 0,
        first_counter: int | None = None,
    ):
        return [
            make_record(
                seq,
                bypass_rate=0.0 if seq == 1 else 0.6,
                state_bytes=start + (seq - 1) * step,
                gc_reclaimed=gc,
                build_counter=None if first_counter is None else first_counter + seq - 1,
            )
            for seq in range(1, n + 1)
        ]

    def test_monotone_growth_with_dead_gc_is_flagged(self):
        report = detect_drift(self.growing(8))
        assert kinds(report) == ["state-growth"]
        finding = report.findings[0]
        assert finding.current > finding.baseline * 1.5
        assert "GC" in finding.message

    def test_quiet_while_the_state_is_younger_than_the_gc_age(self):
        """Builds 1-8 of a state with a 50-build GC age: no record can be
        old enough to reclaim, so zero reclaim is correct."""
        assert detect_drift(self.growing(8, first_counter=1)).clean

    def test_flagged_once_every_gc_in_the_window_could_reclaim(self):
        # Window = seqs 3-8; its GC runs are seqs 4-8.  A record stamped
        # build 1 is past the cutoff of a 50-build age from build 52 on.
        assert detect_drift(self.growing(8, first_counter=48)).clean  # 51..55
        report = detect_drift(self.growing(8, first_counter=49))  # 52..56
        assert kinds(report) == ["state-growth"]

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


class TestStateGrowthFromRealBuilds:
    """Six ``reprobuild`` runs that each edit every function, so every
    build adds records and leaves the previous build's unused."""

    @staticmethod
    def source(build: int) -> str:
        functions = "".join(
            f"int f{k}(int x) {{ int y = x * {build + 2} + {k}; "
            f"if (y > 10) y = y - {build}; return y; }}\n"
            for k in range(4)
        )
        return functions + "int main() { return f0(1) + f1(2) + f2(3) + f3(4); }\n"

    def history(self, tmp_path, *, gc_max_age: int) -> list[HistoryRecord]:
        proj, db = tmp_path / "proj", tmp_path / "b.db"
        proj.mkdir()
        argv = [str(proj), "--stateful", "--db", str(db)]
        for build in range(1, 7):
            (proj / "main.mc").write_text(self.source(build))
            assert reprobuild_main(argv) == 0
            if build == 1:
                database = BuildDatabase.load(db)
                database.live_state.gc_max_age = gc_max_age
                database.save(db)
        return BuildHistory(default_history_path(db)).records()

    @staticmethod
    def kill_gc(monkeypatch) -> None:
        """A GC that runs but never reclaims anything."""

        def collect_nothing(state: CompilerState) -> int:
            state.gc_runs += 1
            state.last_gc_reclaimed = 0
            return 0

        monkeypatch.setattr(CompilerState, "collect_garbage", collect_nothing)

    def test_dead_gc_past_the_age_limit_is_flagged(self, tmp_path, monkeypatch):
        self.kill_gc(monkeypatch)
        records = self.history(tmp_path, gc_max_age=0)
        assert [r.gc_reclaimed for r in records] == [0] * 6
        assert kinds(detect_drift(records)) == ["state-growth"]

    def test_working_gc_past_the_age_limit_is_quiet(self, tmp_path):
        records = self.history(tmp_path, gc_max_age=0)
        assert sum(r.gc_reclaimed for r in records) > 0
        assert detect_drift(records).clean

    def test_young_state_is_quiet_even_with_dead_gc(self, tmp_path, monkeypatch):
        """Six builds against the default 50-build age, as the build-health
        job runs: the state grows past the factor with zero reclaim, and
        that is correct."""
        self.kill_gc(monkeypatch)
        records = self.history(tmp_path, gc_max_age=CompilerState().gc_max_age)
        sizes = [r.state_bytes for r in records]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] > sizes[0] * DriftConfig().state_growth_factor
        assert detect_drift(records).clean


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
