"""The compiler state on disk as a sorted binary table, end to end.

A stateful build probes the base's rows instead of decoding them, so
these tests pin what must not change with the format: garbage
collection past ``gc_max_age`` (same records reclaimed, at the same
build, serial or parallel), objects byte-identical to a stateless
build, the upgrade from an older base in the DB's state section (v5
JSON, a v6 base that started with a generation line, a v7 header), and
a state write that encodes each record once.
"""

import json
import shutil

import pytest

from repro.buildsys.builddb import DB_SCHEMA_VERSION, BuildDatabase
from repro.cli import reprobuild_main
from repro.core import state as state_module
from repro.core.state import CompilerState, DormancyRecord, RecordTable, pack_rows
from repro.persist import atomic_write, read_artifact
from repro.workload import apply_edit, generate_project, make_preset
from repro.workload.edits import Edit, EditKind, random_edit_sequence

#: Enough edit builds for the first records to pass ``gc_max_age`` (50).
BUILDS = 64


def run(proj, db, *flags) -> dict:
    """One in-process ``reprobuild``; returns its report's state summary."""
    report = db.parent / f"{db.name}.report.json"
    argv = [str(proj), "--db", str(db), "--no-history", "--no-lock",
            "--report-json", str(report), *flags]
    assert reprobuild_main(argv) == 0
    return json.loads(report.read_text()).get("state")


def objects(db) -> dict[str, str]:
    return {p: r.object_json for p, r in BuildDatabase.load(db).units.items()}


def records(db) -> dict:
    return dict(BuildDatabase.load(db).live_state.records.items())


class DictModel:
    """Today's garbage collection on a plain dict, fed by spying on the
    live state's lookups and writes during a serial build."""

    def __init__(self, monkeypatch):
        self.records: dict = {}
        self.events: list = []
        self.gc_scans = 0
        lookup, remember, fold = (
            CompilerState.lookup, CompilerState.remember, CompilerState._fold
        )

        def spy_lookup(state, position, fingerprint):
            record = lookup(state, position, fingerprint)
            self.events.append(((position, fingerprint), record, state.build_counter))
            return record

        def spy_remember(state, position, fingerprint_in, dormant, fingerprint_out):
            remember(state, position, fingerprint_in, dormant, fingerprint_out)
            record = DormancyRecord(dormant, fingerprint_out, state.build_counter)
            self.events.append(((position, fingerprint_in), record, None))

        def spy_fold(state, *cutoff):
            self.gc_scans += bool(cutoff)  # a fold with a cutoff is GC's scan
            return fold(state, *cutoff)

        monkeypatch.setattr(CompilerState, "lookup", spy_lookup)
        monkeypatch.setattr(CompilerState, "remember", spy_remember)
        monkeypatch.setattr(CompilerState, "_fold", spy_fold)

    def build(self, build_counter: int, gc_max_age: int) -> tuple[int, bool]:
        """Replay one build's events; ``(records reclaimed, any old enough)``."""
        for key, record, counter in self.events:
            if counter is None:  # a write
                self.records[key] = record
            else:  # a lookup: hits exactly the keys the dict holds
                assert (record is None) == (key not in self.records), key
                if record is not None:
                    self.records[key] = self.records[key]._replace(last_used_build=counter)
                    assert record == self.records[key]
        self.events.clear()
        cutoff = build_counter - gc_max_age
        stale = [k for k, r in self.records.items() if r.last_used_build < cutoff]
        for key in stale:
            del self.records[key]
        return len(stale), bool(stale)


@pytest.fixture(scope="module")
def trace():
    spec = make_preset("small", seed=2)
    specs = [spec]
    for edit in random_edit_sequence(spec, BUILDS, seed=2):
        specs.append(apply_edit(specs[-1], edit))
    return specs


class TestGarbageCollectionPastMaxAge:
    def test_serial_and_parallel_match_a_dict_model(self, tmp_path, monkeypatch, trace):
        model = DictModel(monkeypatch)
        proj = tmp_path / "proj"
        dbs = {v: tmp_path / v / "build.reprodb" for v in ("j1", "j2", "stateless")}
        for db in dbs.values():
            db.parent.mkdir()
        reclaimed_builds = quiet_builds = 0
        for spec in trace:
            shutil.rmtree(proj, ignore_errors=True)
            generate_project(spec).write_to(proj)
            run(proj, dbs["stateless"])
            scans = model.gc_scans
            serial = run(proj, dbs["j1"], "--stateful", "--policy", "fine", "-j", "1")
            scanned = model.gc_scans > scans
            reclaimed, old_enough = model.build(serial["build_counter"], serial["gc_max_age"])
            parallel = run(proj, dbs["j2"], "--stateful", "--policy", "fine", "-j", "2")
            model.events.clear()  # the model follows the serial build only

            assert serial["gc_reclaimed_last"] == reclaimed == parallel["gc_reclaimed_last"]
            assert serial["records"] == len(model.records) == parallel["records"]
            assert records(dbs["j1"]) == model.records == records(dbs["j2"])
            # The GC bound: a build with nothing old enough scans nothing.
            assert scanned == old_enough
            reclaimed_builds += reclaimed > 0
            quiet_builds += not scanned
            assert objects(dbs["j1"]) == objects(dbs["stateless"]) == objects(dbs["j2"])
        assert serial["build_counter"] == BUILDS + 1
        assert reclaimed_builds and quiet_builds >= 50


class TestDenseFold:
    def test_a_header_edit_build_matches_a_dict_model(self, tmp_path, monkeypatch):
        """A fine-policy build after an edit to a header every unit
        includes refreshes most of the table, so its fold merges the
        whole table; the state it leaves equals a dict model's, and its
        table equals one packed from scratch."""
        model = DictModel(monkeypatch)
        merged: list[int] = []
        merge = RecordTable._merge

        def spy_merge(table, rows):
            merged.append(len(rows))
            return merge(table, rows)

        monkeypatch.setattr(RecordTable, "_merge", spy_merge)
        proj, db = tmp_path / "proj", tmp_path / "build.reprodb"
        spec = make_preset("small", seed=2)
        for spec in (spec, apply_edit(spec, Edit(EditKind.HEADER_CONST, "mod0"))):
            shutil.rmtree(proj, ignore_errors=True)
            generate_project(spec).write_to(proj)
            summary = run(proj, db, "--stateful", "--policy", "fine", "-j", "1")
            model.build(summary["build_counter"], summary["gc_max_age"])
        state = BuildDatabase.load(db).live_state
        assert len(merged) == 1 and merged[0] * state_module.DENSE_SPLICE_RATIO > len(model.records)
        assert dict(state.records.items()) == model.records
        assert state._table.data == b"".join(sorted(pack_rows(model.records.items())))


def v5_base(state) -> bytes:
    """``state`` as v5 wrote its base: a generation line and JSON rows."""
    v5 = {
        "schema": 5, "pipeline": state.pipeline_signature,
        "fingerprint_mode": state.fingerprint_mode,
        "build_counter": state.build_counter, "gc_max_age": state.gc_max_age,
        "gc_runs": state.gc_runs, "gc_reclaimed": state.gc_reclaimed_total,
        "records": [
            [pos, fp, r.last_used_build, int(r.dormant),
             "" if r.fingerprint_out == fp else r.fingerprint_out]
            for (pos, fp), r in sorted(state.records.items())
        ],
    }
    return b"0123456789abcdef\n" + json.dumps(v5).encode()


def v6_base(state) -> bytes:
    """``state`` as v6 wrote its base: a generation line, the header
    line, the binary rows.  This generation's hex digits are all
    decimal, so the first line reads as a JSON number."""
    head, _, rows = state.to_json().partition(b"\n")
    header = {**json.loads(head), "schema": 6}
    return b"1234567890123456\n" + json.dumps(header).encode() + b"\n" + rows


def v7_base(state) -> bytes:
    """``state`` as v7 wrote its base: the header line had no record
    count and no last reclaim count."""
    head, _, rows = state.to_json().partition(b"\n")
    header = json.loads(head)
    v7 = {
        "schema": 7, "pipeline": header["pipeline"],
        "fingerprint_mode": header["fingerprint_mode"],
        "build_counter": header["build_counter"], "gc_max_age": header["gc_max_age"],
        "gc_runs": header["gc_runs"], "gc_reclaimed": header["gc_reclaimed_total"],
        "oldest": header["oldest"],
    }
    return json.dumps(v7).encode() + b"\n" + rows


def replace_state_section(db, section: bytes) -> None:
    """Rewrite the DB file ``db`` with ``section`` as its state section."""
    prefix, _, body = read_artifact(db).partition(b"\n")
    sizes = json.loads(prefix)
    head, end = sizes["header"], sizes["header"] + sizes["state"]
    prefix = b'{"schema":%d,"header":%d,"state":%d}\n' % (
        DB_SCHEMA_VERSION, head, len(section)
    )
    atomic_write(db, prefix + body[:head] + section + body[end:])


class TestOldBases:
    @pytest.mark.parametrize(
        "old_base", [v5_base, v6_base, v7_base], ids=["v5", "v6", "v7"]
    )
    def test_loads_as_no_state_and_next_build_rewrites_it(self, tmp_path, trace, old_base):
        proj, db = tmp_path / "proj", tmp_path / "build.reprodb"
        generate_project(trace[0]).write_to(proj)
        run(proj, db, "--stateful", "--policy", "fine")
        replace_state_section(db, old_base(BuildDatabase.load(db).live_state))
        loaded = BuildDatabase.load(db)
        assert loaded.units and loaded.state_size_summary() is None
        assert loaded.live_state is None

        shutil.rmtree(proj)
        generate_project(trace[1]).write_to(proj)
        summary = run(proj, db, "--stateful", "--policy", "fine")
        # Only bypasses were lost.
        assert summary["build_counter"] == 1 and summary["records"] > 0
        loaded = BuildDatabase.load(db).live_state
        assert loaded is not None and loaded.num_records == summary["records"]
        assert not list(tmp_path.glob("build.reprodb.state*"))
        stateless = tmp_path / "stateless.reprodb"
        run(proj, stateless)
        assert objects(db) == objects(stateless)


class TestStageEncodesOnce:
    @pytest.fixture()
    def packed(self, monkeypatch):
        """Counts the records encoded into rows."""
        counts = []
        real = state_module.pack_rows

        def pack_rows(items):
            rows = real(items)
            counts.append(len(rows))
            return rows

        monkeypatch.setattr(state_module, "pack_rows", pack_rows)
        return counts

    def saved(self, path, n: int) -> BuildDatabase:
        """A DB saved at ``path`` with an ``n``-record state, loaded again."""
        state = CompilerState(pipeline_signature="sig")
        state.begin_build()
        for i in range(n):
            state.remember(i % 5, f"{i:032x}", True, f"{i:032x}")
        BuildDatabase(live_state=state).save(path)
        return BuildDatabase.load(path)

    def test_a_compacting_stage_encodes_each_record_once(self, tmp_path, packed):
        db = self.saved(tmp_path / "db", 400)
        state = db.live_state
        state.begin_build()
        for i in range(400):  # refresh every record: the delta is the state
            state.lookup(i % 5, f"{i:032x}")
        packed.clear()
        db.save_changes()
        assert packed == [400]

    def test_a_stage_encodes_only_what_was_written(self, tmp_path, packed):
        db = self.saved(tmp_path / "db", 400)
        state = db.live_state
        state.begin_build()
        for i in range(10):
            state.lookup(i % 5, f"{i:032x}")
        packed.clear()
        db.save_changes()
        assert packed == [10]  # spliced into the table's rows, which stay bytes
        assert BuildDatabase.load(tmp_path / "db").live_state.records == state.records
