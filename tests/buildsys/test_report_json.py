"""BuildReport JSON schema: round-trip, describe/JSON consistency, serial fields."""

import json

import pytest

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.buildsys.report import (
    READABLE_REPORT_SCHEMAS,
    REPORT_SCHEMA_VERSION,
    BuildReport,
)
from repro.driver import CompilerOptions
from repro.frontend.includes import MemoryFileProvider

FILES = {
    "lib.mh": "int twice(int x);\n",
    "lib.mc": 'include "lib.mh";\nint twice(int x) { return x * 2; }\n',
    "main.mc": 'include "lib.mh";\nint main() { print(twice(21)); return 0; }\n',
}
UNITS = ["lib.mc", "main.mc"]


def build(files=FILES, db=None, build_options=None, **options):
    return IncrementalBuilder(
        MemoryFileProvider(files),
        UNITS,
        CompilerOptions(**options),
        db if db is not None else BuildDatabase(),
        build_options or BuildOptions(jobs=1),
    ).build()


def as_v3(payload: dict) -> dict:
    """``payload`` as a schema-3 writer produced it: the state summary
    as two summary fields and as ``state.*`` gauges."""
    old = json.loads(json.dumps(payload))
    state = old.pop("state")
    old["schema"] = 3
    old["summary"].update(state_records=state["records"], state_bytes=state["bytes"])
    old["metrics"]["gauges"].update({f"state.{k}": v for k, v in state.items()})
    return old


class TestSchema:
    def test_round_trip_preserves_payload(self):
        report = build(stateful=True)
        clone = BuildReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()

        # A schema-2 payload, whose per-pass entries carry no "ns", loads
        # with every counter it does carry.
        v2 = json.loads(report.to_json())
        v2["schema"] = 2
        for stats in [v2["bypass"]] + [unit["stats"] for unit in v2["compiled"]]:
            for counters in stats["by_pass"].values():
                del counters["ns"]
        loaded = BuildReport.from_dict(v2).to_dict()
        assert loaded == v2 | {"schema": REPORT_SCHEMA_VERSION}

    def test_schema_mismatch_rejected(self):
        payload = build().to_dict()
        payload["schema"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            BuildReport.from_dict(payload)

    def test_reasons_serialized_for_every_unit(self):
        db = BuildDatabase()
        build(db=db)
        edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("21", "22")})
        payload = build(edited, db=db).to_dict()
        assert set(payload["reasons"]) == set(UNITS)
        assert payload["reasons"]["main.mc"]["kind"] == "source-changed"
        assert payload["reasons"]["lib.mc"]["kind"] == "up-to-date"

    def test_state_summary_is_one_dict(self):
        db = BuildDatabase()
        payload = build(db=db, stateful=True).to_dict()
        assert payload["state"] == db.state_summary
        assert payload["state"]["records"] > 0
        assert not [k for k in payload["summary"] if k.startswith("state")]
        assert not [g for g in payload["metrics"]["gauges"] if g.startswith("state.")]
        assert build().to_dict()["state"] == {}

    def test_metrics_embedded(self):
        payload = build(stateful=True).to_dict()
        counters = payload["metrics"]["counters"]
        assert counters["passes.executed"] > 0
        # Phase durations live in the summary only; the registry keeps
        # just the timings no other record holds.
        timings = payload["metrics"]["timings"]
        assert set(timings) <= {"state.merge_time"}

    def test_write_json(self, tmp_path):
        out = tmp_path / "report.json"
        report = build()
        assert report.write_json(out) == out.stat().st_size
        assert json.loads(out.read_text())["schema"] == REPORT_SCHEMA_VERSION

    def test_image_excluded_from_serialization(self):
        report = build()
        assert report.image is not None
        assert report.to_dict()["summary"]["linked"] is True
        assert BuildReport.from_json(report.to_json()).image is None


class TestVersionSkew:
    """The satellite: old payloads load, future payloads fail loudly."""

    def test_current_schema_is_readable(self):
        assert REPORT_SCHEMA_VERSION in READABLE_REPORT_SCHEMAS

    def test_v1_payload_still_loads(self):
        # A pre-history report: no state_bytes.
        current = build(stateful=True)
        payload = as_v3(current.to_dict())
        payload["schema"] = 1
        payload["summary"].pop("state_bytes")
        report = BuildReport.from_dict(payload)
        assert report.state_bytes == 0
        assert report.state_records == current.state_records > 0

    def test_v2_round_trips_new_fields(self):
        report = build(stateful=True)
        clone = BuildReport.from_json(report.to_json())
        assert clone.state_bytes == report.state_bytes > 0

    def test_v3_payload_with_profile_key_loads(self):
        # Earlier writers added a top-level cProfile table; readers
        # ignore it and never write it back.
        payload = as_v3(build(stateful=True).to_dict())
        assert "profile" not in payload
        payload["profile"] = {
            "schema": 1,
            "phases": {"compile": {"calls": 9, "tottime": 0.1}},
            "hotspots": [{"function": "manager.py:127(_run)", "calls": 9,
                          "tottime": 0.1, "cumtime": 0.3}],
        }
        report = BuildReport.from_json(json.dumps(payload))
        assert report.state_bytes == payload["summary"]["state_bytes"] > 0
        assert report.state_records == payload["summary"]["state_records"] > 0
        assert report.num_recompiled == payload["summary"]["recompiled"]
        assert "profile" not in report.to_dict()

    def test_future_schema_rejected_with_upgrade_hint(self):
        payload = build().to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="v99.*newer than this reader"):
            BuildReport.from_dict(payload)

    def test_garbage_schema_rejected(self):
        payload = build().to_dict()
        for schema in (None, "2", -1):
            payload["schema"] = schema
            with pytest.raises(ValueError, match="unreadable"):
                BuildReport.from_dict(payload)


class TestSerialFields:
    """The satellite fix: no 0.0/unset sentinels on the serial path."""

    def test_serial_build_has_meaningful_timings(self):
        summary = build().to_dict()["summary"]
        assert summary["jobs"] == 1 and summary["workers"] == 1
        assert summary["total_wall_time"] > 0.0
        assert summary["scan_time"] > 0.0
        assert summary["compile_phase_time"] > 0.0
        assert summary["compile_wall_time"] > 0.0
        assert summary["parallel_speedup"] == pytest.approx(1.0, rel=0.2)

    def test_noop_build_speedup_is_neutral(self):
        db = BuildDatabase()
        build(db=db)
        summary = build(db=db).to_dict()["summary"]
        assert summary["recompiled"] == 0
        assert summary["parallel_speedup"] == 1.0  # not a 0.0 sentinel

    def test_empty_report_defaults(self):
        report = BuildReport()
        assert report.parallel_speedup == 1.0
        assert report.num_workers == 0


class TestDescribe:
    def test_describe_renders_from_to_dict(self):
        report = build()
        summary = report.to_dict()["summary"]
        text = report.describe()
        assert f"{summary['recompiled']} recompiled" in text
        assert f"{summary['up_to_date']} up-to-date" in text
        assert f"{summary['total_wall_time']:.3f}s" in text

    def test_describe_parallel_block_matches_json(self):
        report = build(build_options=BuildOptions(jobs=4), stateful=True)
        summary = report.to_dict()["summary"]
        assert summary["jobs"] == 2  # capped at the dirty-unit count
        text = report.describe()
        assert f"-j {summary['jobs']}" in text
        assert f"{summary['parallel_speedup']:.2f}x" in text
