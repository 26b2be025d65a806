"""BuildDatabase: up-to-date checks and (de)serialization round trips."""

import json

import pytest

from repro.buildsys.builddb import (
    DB_SCHEMA_VERSION,
    BuildDatabase,
    CorruptDatabaseError,
)
from repro.buildsys.deps import DependencySnapshot, content_digest
from repro.core.state import CompilerState
from repro.ir.fingerprint import stable_hash
from repro.persist import atomic_write, read_artifact


def split_payload(payload):
    """A payload's prefix line, deflated header, state section and
    deflated objects."""
    head, _, body = payload.partition(b"\n")
    sizes = json.loads(head)
    end = sizes["header"] + sizes["state"]
    return head + b"\n", body[:sizes["header"]], body[sizes["header"]:end], body[end:]


def join_payload(header, state, objects):
    """The payload of these sections, under a prefix line that fits them."""
    prefix = b'{"schema":%d,"header":%d,"state":%d}\n' % (
        DB_SCHEMA_VERSION, len(header), len(state)
    )
    return prefix + header + state + objects


def snapshot_of(path, text, deps=None):
    return DependencySnapshot(path, content_digest(text), dict(deps or {}))


def sample_db():
    db = BuildDatabase()
    db.record_unit(
        snapshot_of("main.mc", "int main() { return 0; }", {"a.mh": content_digest("x")}),
        '{"format": "repro-object-v1"}',
    )
    state = CompilerState(pipeline_signature="p1|p2", fingerprint_mode="canonical")
    state.begin_build()
    state.remember(0, stable_hash("in"), True, stable_hash("in"))
    state.remember(1, stable_hash("in"), False, stable_hash("out"))
    db.live_state = state
    return db


class TestUpToDate:
    def test_unknown_unit_is_dirty(self):
        assert not BuildDatabase().up_to_date(snapshot_of("m.mc", "x"), "")

    def test_recorded_unit_is_clean(self):
        db = BuildDatabase()
        snap = snapshot_of("m.mc", "x", {"h.mh": content_digest("h")})
        db.record_unit(snap, "{}")
        assert db.up_to_date(snap, "")

    def test_source_change_dirties(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x"), "{}")
        assert not db.up_to_date(snapshot_of("m.mc", "y"), "")

    def test_dep_change_dirties(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x", {"h.mh": "d1"}), "{}")
        assert not db.up_to_date(snapshot_of("m.mc", "x", {"h.mh": "d2"}), "")
        assert not db.up_to_date(snapshot_of("m.mc", "x", {}), "")
        assert not db.up_to_date(snapshot_of("m.mc", "x", {"h.mh": "d1", "i.mh": None}), "")

    def test_missing_source_is_dirty(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x"), "{}")
        assert not db.up_to_date(DependencySnapshot("m.mc", None, {}), "")

    def test_prune_drops_vanished_units(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("keep.mc", "a"), "{}")
        db.record_unit(snapshot_of("gone.mc", "b"), "{}")
        assert db.prune(["keep.mc"]) == ["gone.mc"]
        assert list(db.units) == ["keep.mc"]


class TestRoundTrip:
    def test_units_and_state_survive(self, tmp_path):
        db = sample_db()
        path = tmp_path / "build.db"
        size = db.save(path)
        assert size == len(path.read_bytes()) and size > 0

        loaded = BuildDatabase.load(path)
        assert loaded.units.keys() == db.units.keys()
        record = loaded.units["main.mc"]
        assert record.source_digest == db.units["main.mc"].source_digest
        assert record.dep_digests == db.units["main.mc"].dep_digests
        assert record.object_json == db.units["main.mc"].object_json

        assert loaded.live_state is not None
        assert loaded.live_state.pipeline_signature == "p1|p2"
        assert loaded.live_state.build_counter == 1
        assert loaded.live_state.records == db.live_state.records

    def test_stateless_db_round_trips_without_state(self, tmp_path):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x"), "{}")
        db.save(tmp_path / "db")
        loaded = BuildDatabase.load(tmp_path / "db")
        assert loaded.live_state is None
        assert "m.mc" in loaded.units

    def test_missing_file_loads_empty(self, tmp_path):
        db = BuildDatabase.load(tmp_path / "nope")
        assert db.units == {} and db.live_state is None

    def test_corrupt_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        path.write_text("{not json")
        with pytest.raises(CorruptDatabaseError):
            BuildDatabase.load(path)

    def test_save_load_to_json_is_byte_identical(self, tmp_path):
        db = sample_db()
        db.units["main.mc"].stats = {"gvn": [3, 1, 2, 40], "dce": [1, 1, 0, 0]}
        db.units["main.mc"].wall_time = 0.0123456789
        path = tmp_path / "db"
        db.save(path)
        loaded = BuildDatabase.load(path)
        assert loaded.to_json() == read_artifact(path)
        assert loaded.units["main.mc"].stats == {"gvn": [3, 1, 2, 40], "dce": [1, 1, 0, 0]}
        # The header is stored deflated: its digests do not appear verbatim.
        assert db.units["main.mc"].source_digest.encode() not in read_artifact(path)

    def test_the_state_is_one_section_of_the_file(self, tmp_path, monkeypatch):
        db = sample_db()
        path = tmp_path / "db"
        db.save(path)
        _, _, state, _ = split_payload(read_artifact(path))
        assert state == db.live_state.to_json()
        assert [p.name for p in tmp_path.iterdir()] == ["db"]

        # Loaded and saved again without reading the state: the section
        # is written back as it was, and never decoded.
        decoded = []
        from_json = CompilerState.from_json
        monkeypatch.setattr(
            CompilerState, "from_json",
            staticmethod(lambda data: decoded.append(1) or from_json(data)),
        )
        loaded = BuildDatabase.load(path)
        summary = loaded.state_size_summary()
        loaded.record_unit(snapshot_of("util.mc", "int u() { return 1; }"), "{}")
        loaded.save(path)
        assert split_payload(read_artifact(path))[2] == state and decoded == []
        # The summary read from the section's header line is the state's own.
        assert summary == db.live_state.size_summary()
        assert summary["bytes"] == len(state) and summary["records"] == 2
        assert BuildDatabase.load(path).live_state.records == db.live_state.records
        assert decoded == [1]

    def test_a_state_set_without_reading_replaces_the_section(self, tmp_path):
        path = tmp_path / "db"
        sample_db().save(path)
        loaded = BuildDatabase.load(path)
        other = CompilerState(pipeline_signature="p3")
        loaded.live_state = other
        assert loaded.state_size_summary() == other.size_summary()
        loaded.save_changes()
        assert BuildDatabase.load(path).live_state.pipeline_signature == "p3"

    def test_a_stateless_db_has_an_empty_state_section(self, tmp_path):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x"), "{}")
        assert db.to_json().startswith(b'{"schema":%d,' % DB_SCHEMA_VERSION)
        assert split_payload(db.to_json())[2] == b""
        assert db.state_size_summary() is None

    def test_a_recompiled_unit_replaces_its_loaded_header_line(self, tmp_path):
        db = sample_db()
        db.record_unit(snapshot_of("util.mc", "int u() { return 1; }"), "{}")
        path = tmp_path / "db"
        db.save(path)
        loaded = BuildDatabase.load(path)
        loaded.record_unit(
            snapshot_of("main.mc", "int main() { return 7; }", {"b.mh": content_digest("y")}),
            '{"format": "repro-object-v1", "edited": true}',
            stats={"dce": [1, 0, 0, 3]},
        )
        loaded.save(path)
        again = BuildDatabase.load(path)
        assert again.units == loaded.units
        assert again.units["main.mc"].dep_digests == {"b.mh": content_digest("y")}
        assert again.units["util.mc"] == db.units["util.mc"]
        assert again.to_json() == read_artifact(path)

    def test_schema_mismatch_loads_empty(self, tmp_path):
        head, _, body = sample_db().to_json().partition(b"\n")
        header = json.loads(head)
        header["schema"] = DB_SCHEMA_VERSION + 1
        path = tmp_path / "db"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        assert BuildDatabase.load(path).units == {}

class TestCorruptionContract:
    """Corrupt DB files raise the typed error — never ``EOFError`` or
    a bare parse exception — and ``load_or_empty`` recovers cleanly."""

    def test_zero_byte_file_raises_typed_error(self, tmp_path):
        # Regression: an interrupted first save used to surface as a
        # bare parse error; it must be CorruptDatabaseError instead.
        path = tmp_path / "db"
        path.write_bytes(b"")
        with pytest.raises(CorruptDatabaseError) as excinfo:
            BuildDatabase.load(path)
        assert "empty" in str(excinfo.value)

    def test_truncated_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        sample_db().save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptDatabaseError):
            BuildDatabase.load(path)

    def test_bitflip_fails_checksum(self, tmp_path):
        path = tmp_path / "db"
        sample_db().save(path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip a payload byte; the frame header survives
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptDatabaseError) as excinfo:
            BuildDatabase.load(path)
        assert "checksum" in str(excinfo.value)

    def test_non_object_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CorruptDatabaseError):
            BuildDatabase.load(path)

    def test_corruption_never_raises_untyped(self, tmp_path):
        # Whatever garbage is on disk, load either succeeds or raises
        # exactly the typed error the CLI knows how to recover from.
        for i, garbage in enumerate(
            [b"", b"\x00" * 40, b"{", b'{"schema": 2, "units": 3}',
             b'{"schema": 2}', b"%repro-artifact v1 nonsense",
             b"%repro-artifact v1 sha256=00 len=9999\n{}"]
        ):
            path = tmp_path / f"db{i}"
            path.write_bytes(garbage)
            try:
                BuildDatabase.load(path)
            except CorruptDatabaseError:
                pass

    def test_load_or_empty_recovers_with_diagnosis(self, tmp_path):
        path = tmp_path / "db"
        path.write_bytes(b"")
        db, err = BuildDatabase.load_or_empty(path)
        assert db.units == {} and db.live_state is None
        assert isinstance(err, CorruptDatabaseError)

        sample_db().save(path)
        db, err = BuildDatabase.load_or_empty(path)
        assert err is None and "main.mc" in db.units

    def test_save_is_checksummed_frame(self, tmp_path):
        path = tmp_path / "db"
        size = sample_db().save(path)
        blob = path.read_bytes()
        assert len(blob) == size
        assert blob.startswith(b"%repro-artifact ")

    def test_legacy_unframed_db_still_loads(self, tmp_path):
        # Files written before the checksummed-frame upgrade are plain
        # JSON; they load (unverified) rather than being invalidated.
        db = sample_db()
        path = tmp_path / "db"
        path.write_bytes(db.to_json())
        loaded = BuildDatabase.load(path)
        assert loaded.units.keys() == db.units.keys()

    def test_object_lengths_that_do_not_add_up_raise_typed_error(self, tmp_path):
        # Correctly framed, so the checksum passes: the lengths in the
        # header line must cover the body exactly.
        path = tmp_path / "db"
        payload = sample_db().to_json()
        for damaged in (payload + b"\0", payload[:-1]):
            atomic_write(path, damaged)
            with pytest.raises(CorruptDatabaseError, match="object"):
                BuildDatabase.load(path)
            db, err = BuildDatabase.load_or_empty(path)
            assert db.units == {} and isinstance(err, CorruptDatabaseError)

    def test_object_that_does_not_inflate_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        prefix, header, state, objects = split_payload(sample_db().to_json())
        atomic_write(path, prefix + header + state + bytes(len(objects)))
        record = BuildDatabase.load(path).units["main.mc"]
        with pytest.raises(CorruptDatabaseError, match="does not inflate"):
            record.object_json

    def test_header_that_overruns_the_body_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        prefix, header, state, objects = split_payload(sample_db().to_json())
        size = len(header) + len(state) + len(objects) + 1
        atomic_write(
            path,
            b'{"schema":%d,"header":%d,"state":0}\n' % (DB_SCHEMA_VERSION, size)
            + header + state + objects,
        )
        with pytest.raises(CorruptDatabaseError, match="header .* overruns"):
            BuildDatabase.load(path)
        db, err = BuildDatabase.load_or_empty(path)
        assert db.units == {} and isinstance(err, CorruptDatabaseError)

    def test_header_that_does_not_inflate_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        prefix, header, state, objects = split_payload(sample_db().to_json())
        atomic_write(path, prefix + bytes(len(header)) + state + objects)
        with pytest.raises(CorruptDatabaseError, match="header does not inflate"):
            BuildDatabase.load(path)
        db, err = BuildDatabase.load_or_empty(path)
        assert db.units == {} and isinstance(err, CorruptDatabaseError)

    def test_reprobuild_rebuilds_when_an_object_does_not_inflate(self, tmp_path, capsys):
        self.rebuilds_when_damaged(tmp_path, capsys, "objects")

    def test_reprobuild_rebuilds_when_the_header_does_not_inflate(self, tmp_path, capsys):
        self.rebuilds_when_damaged(tmp_path, capsys, "header")

    def rebuilds_when_damaged(self, tmp_path, capsys, damaged):
        from repro.cli import reprobuild_main

        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "a.mc").write_text("int b(int x);\nint main() { print(b(4)); return 0; }\n")
        (proj / "b.mc").write_text("int b(int x) { return x * 2; }\n")
        path = tmp_path / "build.reprodb"
        argv = [str(proj), "--db", str(path), "--stateful", "--no-history", "--no-lock", "--run"]
        assert reprobuild_main(argv) == 0
        clean = {p: r.object_json for p, r in BuildDatabase.load(path).units.items()}
        prefix, header, state, objects = split_payload(read_artifact(path))
        if damaged == "objects":
            atomic_write(path, prefix + header + state + bytes(len(objects)))
        else:
            atomic_write(path, prefix + bytes(len(header)) + state + objects)
        capsys.readouterr()

        assert reprobuild_main(argv) == 0
        out, err = capsys.readouterr()
        assert out.split() == ["8"]
        assert "does not inflate" in err and "full rebuild" in err
        assert "Traceback" not in err and "2 recompiled" in err
        db = BuildDatabase.load(path)
        assert {p: r.object_json for p, r in db.units.items()} == clean

    def test_bad_state_file_keeps_units(self, tmp_path):
        # A compiler-state schema bump must not blow away the object cache.
        path = tmp_path / "db"
        _, header, state, objects = split_payload(sample_db().to_json())
        # The state's header line, then binary rows.
        head, _, table = state.partition(b"\n")
        head = json.loads(head)
        head["schema"] = -1
        state = json.dumps(head).encode() + b"\n" + table
        atomic_write(path, join_payload(header, state, objects))
        loaded = BuildDatabase.load(path)
        assert "main.mc" in loaded.units
        assert loaded.state_size_summary() is None and loaded.live_state is None

    def test_a_state_section_without_a_header_line_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        _, header, state, objects = split_payload(sample_db().to_json())
        atomic_write(path, join_payload(header, state.replace(b"\n", b" "), objects))
        with pytest.raises(CorruptDatabaseError, match="state section"):
            BuildDatabase.load(path)
        db, err = BuildDatabase.load_or_empty(path)
        assert db.units == {} and db.live_state is None
        assert isinstance(err, CorruptDatabaseError)
