"""Fingerprint-collision audit: confirms records, catches tampering."""

import pytest

from repro.buildsys.audit import audit_fingerprint_collisions
from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.core.policies import SkipPolicy
from repro.driver import CompilerOptions
from repro.frontend.includes import MemoryFileProvider

FILES = {
    "util.mh": (
        "const int SCALE = 3;\n"
        "int util_scale(int x);\n"
        "int util_clamp(int x, int lo, int hi);\n"
    ),
    "util.mc": (
        'include "util.mh";\n'
        "int util_scale(int x) { return x * SCALE; }\n"
        "int util_clamp(int x, int lo, int hi) {\n"
        "  if (x < lo) return lo;\n"
        "  if (x > hi) return hi;\n"
        "  return x;\n"
        "}\n"
    ),
    "extra.mc": "int unused_helper(int x) { return x - 1; }\n",
    "main.mc": (
        'include "util.mh";\n'
        "int checksum(int a, int b) { return a * 31 + b; }\n"
        "int main() { print(util_scale(14)); return 0; }\n"
    ),
}
UNITS = ["extra.mc", "main.mc", "util.mc"]
SERIAL = BuildOptions(jobs=1)


def build_history(files=FILES, **options) -> BuildDatabase:
    """Clean build + one edit rebuild: leaves dormant records behind."""
    options.setdefault("stateful", True)
    db = BuildDatabase()
    IncrementalBuilder(
        MemoryFileProvider(files), UNITS, CompilerOptions(**options), db, SERIAL
    ).build(link_output=False)
    edited = dict(files, **{"main.mc": files["main.mc"].replace("14", "21")})
    IncrementalBuilder(
        MemoryFileProvider(edited), UNITS, CompilerOptions(**options), db, SERIAL
    ).build(link_output=False)
    return db


def run_audit(db, files=FILES, *, sample=50, seed=0, **options):
    options.setdefault("stateful", True)
    edited = dict(files, **{"main.mc": files["main.mc"].replace("14", "21")})
    return audit_fingerprint_collisions(
        MemoryFileProvider(edited),
        UNITS,
        CompilerOptions(**options),
        db.live_state,
        sample=sample,
        seed=seed,
    )


class TestCleanAudit:
    def test_healthy_store_confirms_every_sampled_pair(self):
        db = build_history()
        result = run_audit(db)
        assert result.ok
        assert result.audited > 0
        assert result.confirmed == result.audited
        assert result.mismatches == []
        assert result.units  # something actually recompiled
        assert "zero collisions" in result.describe()

    def test_sample_bounds_the_work(self):
        db = build_history()
        small = run_audit(db, sample=1)
        assert small.audited >= 1
        assert len(small.units) <= len(UNITS)

    def test_audit_leaves_live_state_untouched(self):
        db = build_history()
        state = db.live_state
        before = dict(state.records)
        counter = state.build_counter
        run_audit(db)
        assert state.build_counter == counter
        assert set(state.records) == set(before)
        for key, rec in state.records.items():
            assert rec == before[key]

    def test_result_serializes(self):
        payload = run_audit(build_history()).to_dict()
        assert payload["ok"] is True
        assert payload["audited"] == payload["confirmed"]
        assert isinstance(payload["units"], list)


class TestTampering:
    def test_corrupted_fingerprint_out_is_caught(self):
        """Simulate a collision: a dormant record whose stored outcome
        no longer matches reality must surface as a mismatch."""
        db = build_history()
        state = db.live_state
        tampered = 0
        for key, record in state.records.items():
            if record.dormant:
                state.records[key] = record._replace(
                    fingerprint_out="0" * len(record.fingerprint_out)
                )
                tampered += 1
        assert tampered > 0
        result = run_audit(db)
        assert not result.ok
        assert any(m["kind"] == "dormant-bypass" for m in result.mismatches)
        assert "MISMATCH" in result.describe()
        mismatch = result.mismatches[0]
        assert {"kind", "unit", "function", "position", "pass", "detail"} <= set(
            mismatch
        )


class TestPreconditions:
    def test_stateless_options_rejected(self):
        db = build_history()
        with pytest.raises(ValueError, match="stateful"):
            run_audit(db, stateful=False)

    def test_coarse_policy_rejected(self):
        db = build_history()
        with pytest.raises(ValueError, match="fine-grained"):
            run_audit(db, policy=SkipPolicy.COARSE)

    def test_incompatible_state_rejected(self):
        db = build_history(opt_level="O1")
        with pytest.raises(ValueError, match="incompatible"):
            run_audit(db, opt_level="O2")
