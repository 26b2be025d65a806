"""Compiler-state store tests: records, GC, serialization, compatibility."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.buildsys.builddb import StateStore
from repro.cli import reproc_main
from repro.core import state as state_module
from repro.core.state import (
    ROW_BYTES,
    CompilerState,
    DormancyRecord,
    RecordTable,
    STATE_SCHEMA_VERSION,
    pack_rows,
    pipeline_signature_of,
)
from repro.ir.fingerprint import stable_hash
from repro.passmanager.pipeline import build_pipeline


def digest(name: str) -> str:
    """A fingerprint as compiles make them, named for the test's reader."""
    return stable_hash(name)


def make_state(**kwargs) -> CompilerState:
    return CompilerState(pipeline_signature="sig", fingerprint_mode="canonical", **kwargs)


def save(path, state) -> StateStore:
    store = StateStore(path)
    store.stage(state)
    store.flush()
    return store


def reproc_state(tmp_path, path, *flags) -> CompilerState:
    """Compile a unit with ``reproc --state-file path``; the state it left."""
    source = tmp_path / "u.mc"
    source.write_text("int f(int x) { return x * 2 + 1; }\nint main() { return f(3); }\n")
    argv = [str(source), "--stateful", "--state-file", str(path), *flags]
    assert reproc_main(argv) == 0
    return StateStore(path).load()


class TestRecords:
    def test_remember_and_lookup(self):
        state = make_state()
        state.remember(3, digest("fp1"), True, digest("fp1"))
        record = state.lookup(3, digest("fp1"))
        assert record is not None and record.dormant
        assert record.fingerprint_out == digest("fp1")

    def test_lookup_miss(self):
        state = make_state()
        assert state.lookup(0, digest("nope")) is None

    def test_position_isolation(self):
        state = make_state()
        state.remember(1, digest("fp"), True, digest("fp"))
        assert state.lookup(2, digest("fp")) is None

    def test_changed_record(self):
        state = make_state()
        state.remember(0, digest("in"), False, digest("out"))
        record = state.lookup(0, digest("in"))
        assert not record.dormant and record.fingerprint_out == digest("out")

    def test_lookup_refreshes_gc_timestamp(self):
        state = make_state()
        state.remember(0, digest("fp"), True, digest("fp"))
        state.begin_build()
        state.begin_build()
        record = state.lookup(0, digest("fp"))
        assert record.last_used_build == state.build_counter


class TestGarbageCollection:
    def test_stale_records_collected(self):
        state = make_state(gc_max_age=3)
        state.remember(0, digest("old"), True, digest("old"))
        for _ in range(5):
            state.begin_build()
        removed = state.collect_garbage()
        assert removed == 1 and state.num_records == 0

    def test_fresh_records_kept(self):
        state = make_state(gc_max_age=3)
        state.begin_build()
        state.remember(0, digest("fresh"), True, digest("fresh"))
        assert state.collect_garbage() == 0
        assert state.num_records == 1

    def test_recently_used_records_survive(self):
        state = make_state(gc_max_age=3)
        state.remember(0, digest("hot"), True, digest("hot"))
        for _ in range(5):
            state.begin_build()
            state.lookup(0, digest("hot"))  # refresh
        assert state.collect_garbage() == 0


class TestSerialization:
    def test_round_trip(self):
        state = make_state()
        state.begin_build()
        state.remember(0, digest("a"), True, digest("a"))
        state.remember(1, digest("a"), False, digest("b"))
        restored = CompilerState.from_json(state.to_json())
        assert restored.num_records == 2
        assert restored.build_counter == 1
        assert restored.lookup(1, digest("a")).fingerprint_out == digest("b")

    def test_schema_mismatch_rejected(self):
        text = make_state().to_json().replace(
            f'"schema":{STATE_SCHEMA_VERSION}'.encode(), b'"schema":1'
        )
        with pytest.raises(ValueError):
            CompilerState.from_json(text)

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "state.json"
        state = make_state()
        state.remember(0, digest("x"), True, digest("x"))
        save(path, state)
        assert state.stored_bytes == path.stat().st_size
        loaded = StateStore(path).load()
        assert loaded.records == state.records
        assert loaded.stored_bytes == state.stored_bytes

    def test_load_missing_file_gives_fresh(self, tmp_path):
        path = tmp_path / "nope.json"
        assert StateStore(path).load() is None
        # reproc compiles with a fresh state and writes it.
        state = reproc_state(tmp_path, path)
        assert state.build_counter == 1 and state.num_records > 0

    def test_load_corrupt_file_gives_fresh(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert StateStore(path).load() is None
        assert reproc_state(tmp_path, path).build_counter == 1

    def test_load_incompatible_pipeline_gives_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        o2 = reproc_state(tmp_path, path)
        assert reproc_state(tmp_path, path).build_counter == 2  # compatible: kept
        o1 = reproc_state(tmp_path, path, "-O", "1")
        assert o1.build_counter == 1
        assert o1.pipeline_signature == pipeline_signature_of(build_pipeline("O1"))
        assert o1.pipeline_signature != o2.pipeline_signature

    def test_load_incompatible_fingerprint_mode_gives_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        reproc_state(tmp_path, path)
        named = reproc_state(tmp_path, path, "--fingerprint-mode", "named")
        assert named.build_counter == 1 and named.fingerprint_mode == "named"

    def test_reproc_keeps_one_state_file(self, tmp_path):
        path = tmp_path / "st"
        first = reproc_state(tmp_path, path)
        second = reproc_state(tmp_path, path)
        assert second.build_counter == 2 and second.num_records == first.num_records
        assert [p.name for p in tmp_path.glob("st*")] == ["st"]

    def test_a_leftover_log_is_ignored(self, tmp_path):
        path = tmp_path / "state"
        state = make_state()
        state.remember(0, digest("x"), True, digest("x"))
        save(path, state)
        log = tmp_path / "state.log"
        log.write_bytes(b"\n0123456789abcdef not an entry of this state\n")
        assert StateStore(path).load().records == state.records
        state.remember(1, digest("y"), True, digest("y"))
        save(path, state)
        assert StateStore(path).load().records == state.records
        assert log.read_bytes() == b"\n0123456789abcdef not an entry of this state\n"


class TestPipelineSignature:
    def test_signature_reflects_positions(self):
        sig0 = pipeline_signature_of(build_pipeline("O0"))
        sig2 = pipeline_signature_of(build_pipeline("O2"))
        assert sig0 != sig2
        assert pipeline_signature_of(build_pipeline("O2")) == sig2

    def test_signature_has_indexed_names(self):
        sig = pipeline_signature_of(build_pipeline("O1"))
        assert sig.startswith("0:mem2reg")


class TestSnapshotDelta:
    """The build's snapshot/delta-merge protocol."""

    def test_snapshot_is_isolated(self):
        state = make_state(build_counter=7)
        state.remember(0, digest("a"), True, digest("a"))
        snap = state.snapshot()
        assert snap.build_counter == 7 and snap.num_records == 1

        # Writes to the snapshot never reach the original...
        snap.remember(1, digest("b"), False, digest("b2"))
        assert state.lookup(1, digest("b")) is None
        # ...and neither does a lookup's refreshed GC timestamp.
        snap.build_counter = 99
        snap.lookup(0, digest("a"))
        assert state.records[(0, digest("a"))].last_used_build == 7

    def test_delta_holds_only_the_snapshots_writes(self):
        # A snapshot folds its parent's overlay first, so the records
        # written before it never ride along in its delta.
        state = make_state(build_counter=3)
        state.remember(0, digest("before"), True, digest("before"))
        snap = state.snapshot()
        assert snap.delta().records == {}
        assert snap.records[(0, digest("before"))] == state.records[(0, digest("before"))]
        snap.remember(1, digest("after"), False, digest("after2"))
        assert set(snap.delta().records) == {(1, digest("after"))}
        assert state.num_records == 1 and snap.num_records == 2

    def test_delta_contains_writes_and_lookup_refreshes(self):
        state = make_state(build_counter=3)
        state.remember(0, digest("old"), True, digest("old"))
        state.remember(0, digest("untouched"), True, digest("untouched"))
        state.build_counter = 4
        snap = state.snapshot()
        snap.lookup(0, digest("old"))             # refresh only
        snap.lookup(5, digest("miss"))            # miss: not in the delta
        snap.remember(1, digest("new"), False, digest("new2"))
        delta = snap.delta()
        assert set(delta.records) == {(0, digest("old")), (1, digest("new"))}
        assert delta.build_counter == 4
        # Everything a unit wrote is stamped with its build tick.
        assert all(r.last_used_build == 4 for r in delta.records.values())

    def test_records_are_immutable(self):
        snap = make_state().snapshot()
        snap.remember(0, digest("a"), True, digest("a"))
        delta = snap.delta()
        record = delta.records[(0, digest("a"))]
        assert record is snap.records[(0, digest("a"))]  # shared, not copied
        for field in DormancyRecord._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert snap.records[(0, digest("a"))] == DormancyRecord(True, digest("a"), 0)

    def test_lookup_hit_replaces_the_record(self):
        state = make_state(build_counter=1)
        state.remember(0, digest("a"), True, digest("a"))
        old = state.records[(0, digest("a"))]
        state.begin_build()
        assert state.lookup(0, digest("a")).last_used_build == 2
        assert old.last_used_build == 1  # the old record is unchanged

    def test_merge_disjoint_deltas_is_order_independent(self):
        def worker_delta(position, fp):
            snap = make_state(build_counter=2).snapshot()
            snap.remember(position, fp, True, fp)
            return snap.delta()

        a, b = worker_delta(0, digest("f1")), worker_delta(3, digest("f2"))
        ab, ba = make_state(build_counter=2), make_state(build_counter=2)
        ab.merge_delta(a), ab.merge_delta(b)
        ba.merge_delta(b), ba.merge_delta(a)
        assert ab.records == ba.records
        assert ab.num_records == 2

    def test_merge_same_key_is_last_writer_wins(self):
        from repro.core.state import StateDelta

        state = make_state(build_counter=5)
        first = StateDelta(5, {(0, digest("f")): DormancyRecord(True, digest("f"), 5)})
        second = StateDelta(5, {(0, digest("f")): DormancyRecord(False, digest("f2"), 5)})
        state.merge_delta(first)
        state.merge_delta(second)
        assert state.num_records == 1
        record = state.records[(0, digest("f"))]
        assert not record.dormant and record.fingerprint_out == digest("f2")

    def test_merge_keeps_freshest_gc_timestamp(self):
        from repro.core.state import StateDelta

        state = make_state(build_counter=10, records={(0, digest("f")): DormancyRecord(True, digest("f"), 9)})
        stale_delta = StateDelta(10, {(0, digest("f")): DormancyRecord(True, digest("f"), 4)})
        state.merge_delta(stale_delta)
        assert state.records[(0, digest("f"))].last_used_build == 9

    def test_gc_after_merge_prunes_like_serial(self):
        # A record only consulted through a unit's snapshot must survive
        # GC exactly as if the live state had been consulted; an untouched
        # ancient record must be pruned either way.
        def run(merge_parallel):
            state = make_state(build_counter=50, gc_max_age=10, records={
                (0, digest("hot")): DormancyRecord(True, digest("hot"), 49),
                (0, digest("cold")): DormancyRecord(True, digest("cold"), 5),
            })
            state.build_counter = 51
            if merge_parallel:
                snap = state.snapshot()
                snap.lookup(0, digest("hot"))
                state.merge_delta(snap.delta())
            else:
                state.lookup(0, digest("hot"))
            state.collect_garbage()
            return dict(state.records)

        assert run(True) == run(False)
        assert (0, digest("cold")) not in run(True)


def fp(i: int) -> str:
    """A fingerprint as compiles make them: 32 lowercase hex digits."""
    return f"{i:032x}"


def table_state(n: int, **kwargs) -> CompilerState:
    """A state of ``n`` digest-keyed records read back from its base,
    so every record sits in the binary table."""
    state = make_state(**kwargs)
    state.begin_build()
    for i in range(n):
        state.remember(i % 7, fp(i), i % 2 == 0, fp(i) if i % 2 == 0 else fp(i + 10_000))
    return CompilerState.from_json(state.to_json())


class TestRecordTable:
    """The base: a header line and a sorted table of 38-byte rows."""

    def test_base_is_fixed_width_rows(self):
        state = table_state(50)
        head, _, table = state.to_json().partition(b"\n")
        assert len(table) == 50 * ROW_BYTES
        assert CompilerState.from_json(head + b"\n" + table).records == state.records

    def test_load_and_miss_build_no_record(self, monkeypatch):
        from repro.core import state as state_module

        built = []
        real = state_module._record
        monkeypatch.setattr(
            state_module, "_record", lambda *a: built.append(a) or real(*a)
        )
        base = table_state(200).to_json()
        built.clear()
        state = CompilerState.from_json(base)
        assert state.num_records == 200 and built == []
        assert state.lookup(3, fp(999_999)) is None and built == []
        record = state.lookup(10 % 7, fp(10))
        assert record == DormancyRecord(True, fp(10), 1) and len(built) == 1

    def test_lookup_matches_exact_keys_only(self):
        state = table_state(100)
        assert state.lookup(3, fp(3)) is not None
        assert state.lookup(4, fp(3)) is None  # other position
        assert state.lookup(3, fp(10)) is not None
        assert state.lookup(1, fp(1)).fingerprint_out == fp(10_001)

    @pytest.mark.parametrize("key", [
        (3, fp(10).upper()),  # would read back as another string
        (3, fp(3)[:-1]),
        (3, "not-a-digest"),
    ])
    def test_a_key_no_row_can_hold_is_refused(self, key):
        with pytest.raises(ValueError):
            table_state(20).lookup(*key)

    def test_overlay_shadows_the_table(self):
        state = table_state(20)
        state.begin_build()
        state.remember(0, fp(0), False, fp(5))
        state.remember(0, fp(12345), True, fp(12345))
        assert state.num_records == 21 == len(dict(state.records.items()))
        assert state.records[(0, fp(0))] == DormancyRecord(False, fp(5), 2)
        reloaded = CompilerState.from_json(state.to_json())
        assert reloaded.records == state.records and reloaded.num_records == 21

    @pytest.mark.parametrize("position,fp_in,fp_out", [
        (500, fp(1), fp(1)),  # a position beyond a byte
        (0, "not-a-digest", "not-a-digest"),
        (2, fp(2), "not-a-digest"),
    ])
    def test_a_record_no_row_can_hold_is_refused(self, tmp_path, position, fp_in, fp_out):
        state = make_state()
        state.remember(position, fp_in, False, fp_out)
        with pytest.raises(ValueError):
            state.to_json()
        state = table_state(50)
        store = StateStore(tmp_path / "state")
        store.stage(state)
        with pytest.raises(ValueError):  # probing the table, or packing the rows
            state.remember(position, fp_in, False, fp_out)
            store.stage(state)
        store.flush()  # the last good encoding
        assert StateStore(tmp_path / "state").load().num_records == 50

    def test_records_map_is_read_only(self):
        state = table_state(3)
        with pytest.raises(TypeError):
            state.records[(0, fp(0))] = DormancyRecord(True, fp(0), 9)

    def test_snapshot_shares_the_table(self):
        state = table_state(30, build_counter=4)
        snap = state.snapshot()
        snap.build_counter = 9
        snap.lookup(0, fp(0))
        snap.remember(0, fp(777), True, fp(777))
        assert state.records[(0, fp(0))].last_used_build == 5
        assert (0, fp(777)) not in state.records
        assert snap.num_records == 31 and state.num_records == 30


class TestGarbageBound:
    """GC answers "can anything be old enough?" without a scan."""

    def test_no_scan_while_nothing_can_be_old_enough(self, monkeypatch):
        state = table_state(40, gc_max_age=5)
        scans = []
        real = CompilerState._fold
        monkeypatch.setattr(
            CompilerState, "_fold", lambda self, *a: scans.append(a) or real(self, *a)
        )
        for _ in range(5):  # the cutoff climbs to 1, the records' build
            state.begin_build()
            assert state.collect_garbage() == 0
        assert scans == [] and state.gc_runs == 5
        state.begin_build()
        assert state.collect_garbage() == 40 and scans == [(2,)]
        assert state.num_records == 0 and state.last_gc_reclaimed == 40

    def test_reclaims_like_a_dict(self):
        state = table_state(60, gc_max_age=3)
        model = dict(state.records.items())
        for build in range(2, 12):
            state.begin_build()
            for i in range(build, 60, 5):  # refresh a few, add one
                key = (i % 7, fp(i))
                if state.lookup(*key) is not None:
                    model[key] = model[key]._replace(last_used_build=build)
            state.remember(0, fp(50_000 + build), True, fp(50_000 + build))
            model[(0, fp(50_000 + build))] = DormancyRecord(True, fp(50_000 + build), build)
            stale = [k for k, r in model.items() if r.last_used_build < build - 3]
            for key in stale:
                del model[key]
            assert state.collect_garbage() == len(stale)
            assert state.num_records == len(model)
            assert dict(state.records.items()) == model

    def test_a_tightened_bound_travels_in_the_base(self, tmp_path, monkeypatch):
        path = tmp_path / "state"
        state = make_state(gc_max_age=5)
        state.begin_build()
        for i in range(5):  # the oldest records, last used in build 1
            state.remember(0, fp(i), True, fp(i))
        state.build_counter = 3
        for i in range(5, 205):
            state.remember(1, fp(i), True, fp(i))
        save(path, state)

        def build(*refresh):
            store = StateStore(path)
            state = store.load()
            state.begin_build()
            for i in refresh:
                assert state.lookup(0, fp(i)) is not None
            reclaimed = state.collect_garbage()
            store.stage(state)
            store.flush()
            return reclaimed

        scans = []
        real = CompilerState._fold

        def spy(self, *cutoff):
            if cutoff:  # a fold with a cutoff is GC's scan
                scans.append(cutoff)
            return real(self, *cutoff)

        monkeypatch.setattr(CompilerState, "_fold", spy)
        assert build(*range(5)) == 0 and scans == []  # build 4: all refreshed
        assert build() == 0 and build() == 0 and scans == []  # builds 5, 6
        # Build 7: the bound (1) is stale, so GC scans, finds nothing
        # older than 2, and tightens it to 3 in the base.
        assert build() == 0 and scans == [(2,)]
        assert StateStore(path).load()._oldest == 3
        assert build() == 0 and scans == [(2,)]  # build 8: cutoff 3, no scan


#: Fingerprints from a small pool, so overlays shadow table rows.
_fingerprints = st.integers(min_value=0, max_value=40).map(fp)
_records = st.dictionaries(
    st.tuples(st.integers(min_value=-3, max_value=3), _fingerprints),
    st.builds(DormancyRecord, st.booleans(), _fingerprints, st.integers(0, 12)),
    max_size=60,
)


class TestFold:
    """The splice of the overlay into the table, against a dict model."""

    @settings(max_examples=200, deadline=None)
    @given(
        table=_records, overlay=_records,
        cutoff=st.one_of(st.none(), st.integers(min_value=0, max_value=14)),
        # The galloping splice (never dense), the whole-table merge
        # (always dense), or the measured crossover.
        dense_ratio=st.sampled_from([0, 1 << 30, state_module.DENSE_SPLICE_RATIO]),
    )
    def test_matches_a_dict_model(self, table, overlay, cutoff, dense_ratio):
        with mock.patch.object(state_module, "DENSE_SPLICE_RATIO", dense_ratio):
            self._check_fold(table, overlay, cutoff)

    def _check_fold(self, table, overlay, cutoff):
        state = make_state()
        state._table = RecordTable(b"".join(sorted(pack_rows(table.items()))))
        state._count = len(table)
        state._oldest = min((r.last_used_build for r in table.values()), default=1 << 32)
        for key, record in overlay.items():
            state._store(key, record, key not in table)
        model = {**table, **overlay}
        assert state.num_records == len(model)

        reclaimed = state._fold() if cutoff is None else state._fold(cutoff)
        kept = {k: r for k, r in model.items() if cutoff is None or r.last_used_build >= cutoff}
        assert reclaimed == len(model) - len(kept)
        assert state._table.data == b"".join(sorted(pack_rows(kept.items())))
        assert state.num_records == len(kept) == state._table.count
        assert dict(state.records.items()) == kept
        # The GC bound stays a lower bound on every record's last use.
        assert state._oldest <= min((r.last_used_build for r in kept.values()), default=1 << 32)
