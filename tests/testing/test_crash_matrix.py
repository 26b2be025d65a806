"""The crash-recovery matrix: every artifact, every fault point.

For each persistent artifact (build DB with its compiler-state section,
``reproc``'s standalone state file, history JSONL)
the write path is first enumerated fault-free, then replayed once per IO
operation with a crash (or torn write, or IO error) injected exactly
there.  After every injected fault, reopening the artifact must yield
either the last good version, the complete new version, or a cleanly
diagnosed full-rebuild fallback — never an unhandled exception.
"""

import errno
import json
import shutil

import pytest

from repro.buildsys.builddb import BuildDatabase, CorruptDatabaseError
from repro.buildsys.deps import DependencySnapshot, content_digest
from repro.core.state import CompilerState
from repro.ir.fingerprint import stable_hash
from repro.obs.history import BuildHistory, HistoryRecord
from repro.persist import CorruptArtifactError, atomic_write, read_artifact
from repro.testing import (
    KILL,
    KILL_AFTER,
    TORN,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    count_io_ops,
    inject_faults,
)

FAULT_KINDS = (KILL, KILL_AFTER, TORN)


def digest(name):
    """A fingerprint as compiles make them, so every record is a table row."""
    return stable_hash(name)


def snapshot_of(path, text, deps=None):
    return DependencySnapshot(path, content_digest(text), deps or {})


def make_db(units):
    db = BuildDatabase()
    for name in units:
        db.record_unit(
            snapshot_of(name, f"source of {name}", {"h.mh": content_digest("h")}),
            "{}",
            stats={"gvn": [2, 1, 0, 7]},
            wall_time=0.001,
        )
    state = CompilerState(pipeline_signature="p1|p2")
    state.begin_build()
    for i, name in enumerate(units):
        state.remember(i % 3, digest(name), True, digest(name))
    db.live_state = state
    return db


def make_state(n):
    state = CompilerState(pipeline_signature="sig")
    state.begin_build()
    for i in range(n):
        fp_in, dormant = digest(f"in{i}"), i % 2 == 0
        state.remember(i % 30, fp_in, dormant, fp_in if dormant else digest(f"out{i}"))
    return state


def make_record(seq):
    return HistoryRecord(
        seq=seq,
        timestamp=float(seq),
        label=f"build-{seq}",
        report={"summary": {"recompiled": seq, "total_wall_time": 0.1 * seq}},
    )


def run_faulted(scenario, plan):
    """Run ``scenario`` under ``plan``; injected faults are 'the crash'."""
    with inject_faults(plan) as backend:
        try:
            scenario()
        except (InjectedCrash, OSError):
            pass
    return backend


def sweep_plans(total_ops):
    """Every (kind, index) crash plus errno storms at every index."""
    for index in range(total_ops):
        for kind in FAULT_KINDS:
            yield f"{kind}@{index}", FaultPlan([FaultSpec(kind, None, index)])
        # count=99 defeats the bounded retry, so the error surfaces.
        yield f"eio@{index}", FaultPlan.errno_at(index, code=errno.EIO, count=99)
        yield f"enospc@{index}", FaultPlan.errno_at(index, code=errno.ENOSPC, count=99)


class TestBuildDatabaseMatrix:
    def test_every_fault_point_recovers(self, tmp_path):
        path = tmp_path / "build.reprodb"
        old = make_db(["a.mc", "b.mc"])
        new = make_db(["a.mc", "b.mc", "c.mc"])

        old.save(path)
        old_payload = read_artifact(path)
        total = count_io_ops(lambda: new.save(path)).total_ops
        assert total >= 5
        new_payload = read_artifact(path)

        checked = 0
        for label, plan in sweep_plans(total):
            old.save(path)
            run_faulted(lambda: new.save(path), plan)

            db, corruption = BuildDatabase.load_or_empty(path)
            units = set(db.units)
            if corruption is not None:
                # Diagnosed corruption -> clean full rebuild, never a crash.
                assert units == set(), label
            else:
                assert units in (set(old.units), set(new.units)), label
                # What loaded encodes back to the bytes one save wrote,
                # and its state is the one saved with its units.
                assert db.to_json() in (old_payload, new_payload), label
                saved = new if units == set(new.units) else old
                assert db.live_state.records == saved.live_state.records, label
            checked += 1
        assert checked == total * 5

    def test_every_damaged_header_byte_is_diagnosed(self, tmp_path):
        # Framed anew, so the checksum passes: each byte of the prefix
        # line and the deflated header, changed, must give a typed error
        # or (a changed schema number) an empty DB — never wrong units.
        path = tmp_path / "build.reprodb"
        payload = make_db(["a.mc", "b.mc"]).to_json()
        prefix = payload.partition(b"\n")[0]
        end = len(prefix) + 1 + json.loads(prefix)["header"]
        for offset in range(end):
            damaged = bytearray(payload)
            damaged[offset] ^= 0x01
            atomic_write(path, bytes(damaged))
            try:
                db = BuildDatabase.load(path)
            except CorruptDatabaseError:
                continue
            assert db.units == {}, offset

    def test_strict_load_never_raises_untyped(self, tmp_path):
        # The matrix again, but through the strict loader: anything it
        # raises must be the one typed error the CLI knows about.
        path = tmp_path / "build.reprodb"
        old = make_db(["a.mc"])
        new = make_db(["a.mc", "b.mc"])
        old.save(path)
        total = count_io_ops(lambda: new.save(path)).total_ops
        for label, plan in sweep_plans(total):
            old.save(path)
            run_faulted(lambda: new.save(path), plan)
            try:
                BuildDatabase.load(path)
            except CorruptDatabaseError:
                pass  # typed, catchable, recoverable
            # anything else propagates and fails the test


def saved_state_db(path, records):
    """A DB saved at ``path`` with a ``records``-record state; returns
    its units and the state's records as a fresh load sees them."""
    for stale in path.parent.glob(f"{path.name}*"):
        stale.unlink()
    db = BuildDatabase()
    db.record_unit(snapshot_of("a.mc", "source of a.mc"), "{}")
    db.live_state = make_state(records)
    db.save(path)
    loaded = BuildDatabase.load(path)
    return set(loaded.units), snapshot_records(loaded.live_state)


def touch_state(db, *, add, reclaim=False, tag="new"):
    """Change the units and the state like a compiling build would."""
    db.record_unit(snapshot_of(f"{tag}.mc", f"source of {tag}.mc"), "{}")
    state = db.live_state
    state.begin_build()
    assert state.lookup(0, digest("in0")) is not None
    for i in range(add):
        state.remember(i % 30, digest(f"{tag}{i}"), True, digest(f"{tag}{i}"))
    if reclaim:
        state.gc_max_age = 0  # everything this build did not touch
    state.collect_garbage()
    return db


def snapshot_records(state):
    return dict(state.records)  # records are immutable: a shallow copy is a snapshot


#: (name, records saved, records added, GC reclaims) — the kinds of
#: state a compiling build writes: a few records refreshed and added,
#: most reclaimed, or many more than were saved.
STATE_SCENARIOS = [
    ("refresh", 40, 2, False),
    ("gc", 40, 2, True),
    ("grow", 4, 40, False),
]


class TestStateBaseMatrix:
    """The build DB's state section under a fault at every op of
    :meth:`BuildDatabase.save_changes`, which rewrites the file."""

    @pytest.mark.parametrize(
        "name,saved,add,reclaim", STATE_SCENARIOS, ids=[s[0] for s in STATE_SCENARIOS]
    )
    def test_every_fault_point_recovers(self, tmp_path, name, saved, add, reclaim):
        path = tmp_path / "build.reprodb"

        def staged():
            old = saved_state_db(path, saved)
            db = touch_state(BuildDatabase.load(path), add=add, reclaim=reclaim)
            return old, db, (set(db.units), snapshot_records(db.live_state))

        old, db, new = staged()
        assert (db.live_state.last_gc_reclaimed > 0) == reclaim, name
        enumeration = count_io_ops(db.save_changes)
        ops = [op for op, _ in enumeration.log]
        loaded = BuildDatabase.load(path)
        assert (set(loaded.units), loaded.live_state.records) == new

        for label, plan in sweep_plans(len(ops)):
            old, db, new = staged()
            run_faulted(db.save_changes, plan)

            reopened, corruption = BuildDatabase.load_or_empty(path)
            state = reopened.live_state  # must never raise
            records = snapshot_records(state) if state is not None else {}
            index = plan.specs[0].index
            torn_rename = plan.specs[0].kind == TORN and ops[index] == "replace"
            # Old units with old records or new units with new records,
            # never a mixture; an empty DB only where a non-atomic
            # rename tore the file (the lenient-cache fallback).
            assert (set(reopened.units), records) in (old, new) or (
                torn_rename and corruption is not None and not reopened.units
                and state is None
            ), label
            assert [p.name for p in tmp_path.glob("build.reprodb.state*")] == [], label

            # The next build's write lands and reads back intact.
            if state is not None:
                touch_state(reopened, add=1, tag="after")
                expected = snapshot_records(state)
                reopened.save_changes()
                assert BuildDatabase.load(path).live_state.records == expected, label


def save_state(path, state):
    """Write ``state`` to a standalone state file, as ``reproc`` does."""
    atomic_write(path, state.to_json())


def load_state(path):
    """The state ``reproc`` reads from ``path``, or ``None`` for none usable."""
    try:
        return CompilerState.from_json(read_artifact(path))
    except (OSError, CorruptArtifactError, ValueError, KeyError, TypeError):
        return None


class TestStateFileMatrix:
    def test_every_fault_point_recovers(self, tmp_path):
        path = tmp_path / "state.json"
        old, new = make_state(4), make_state(7)

        save_state(path, old)
        total = count_io_ops(lambda: save_state(path, new)).total_ops

        for label, plan in sweep_plans(total):
            save_state(path, old)
            run_faulted(lambda: save_state(path, new), plan)
            loaded = load_state(path)
            # Last-good, fully-new, or none (the lenient-cache fallback).
            records = loaded.num_records if loaded is not None else 0
            assert records in (4, 7, 0), label


class TestHistoryMatrix:
    def history_with(self, path, n):
        history = BuildHistory(path)
        for seq in range(1, n + 1):
            history.append(make_record(seq))
        return history

    def test_every_fault_point_preserves_prefix(self, tmp_path):
        sample = self.history_with(tmp_path / "enum.jsonl", 2)
        total = count_io_ops(lambda: sample.append(make_record(3))).total_ops
        assert total == 3  # open, one write, close: no other file

        case = 0
        for label, plan in sweep_plans(total):
            case += 1
            history = self.history_with(tmp_path / f"h{case}.jsonl", 2)
            run_faulted(lambda: history.append(make_record(3)), plan)

            records, stats = history.read()  # must never raise
            seqs = [r.seq for r in records]
            # Appends never touch earlier records: the old prefix
            # survives verbatim; the new record is all-or-nothing
            # (a torn final line is dropped and reported).
            assert seqs in ([1, 2], [1, 2, 3]), (label, seqs)
            assert stats.corrupt == 0, label

    def test_index_sidecar_faults_never_poison_tail(self, tmp_path):
        sample = self.history_with(tmp_path / "enum.jsonl", 2)
        total = count_io_ops(lambda: sample.append(make_record(3))).total_ops

        case = 0
        for label, plan in sweep_plans(total):
            case += 1
            history = self.history_with(tmp_path / f"i{case}.jsonl", 2)
            run_faulted(lambda: history.append(make_record(3)), plan)

            # A history has no sidecar index, even after a faulted
            # append, and next_seq()'s read of the file's tail agrees
            # with a full scan whatever the append left there.
            records = history.records()
            assert not history.path.with_name(f"{history.path.name}.idx").exists(), label
            assert history.next_seq() == (records[-1].seq + 1 if records else 1), label


def stateless_objects(proj):
    """Object JSON per unit of a clean stateless build of ``proj``."""
    from repro.buildsys.incremental import IncrementalBuilder
    from repro.driver import CompilerOptions
    from repro.workload.project import Project

    project = Project.read_from(proj)
    db = BuildDatabase()
    IncrementalBuilder(
        project.provider(), project.unit_paths, CompilerOptions(), db
    ).build(link_output=False)
    return {path: record.object_json for path, record in db.units.items()}


def built_objects(db_path):
    return {p: r.object_json for p, r in BuildDatabase.load(db_path).units.items()}


#: ``reprobuild --stateful`` under the paper's policy, which keeps a
#: compiler state in the DB, and under the default memo policy.
POLICIES = pytest.mark.parametrize(
    "policy", [("--policy", "fine"), ()], ids=["fine", "memo"]
)


class TestEndToEndCrashRecovery:
    """A real reprobuild killed mid-persist, then run again."""

    @pytest.fixture()
    def project_dir(self, tmp_path):
        from repro.workload.generator import generate_project
        from repro.workload.spec import make_preset

        generate_project(make_preset("tiny", seed=3)).write_to(tmp_path / "proj")
        return tmp_path

    @POLICIES
    def test_build_killed_during_db_save_rebuilds_cleanly(self, project_dir, capsys, policy):
        from repro.cli import reprobuild_main

        db_path = project_dir / "build.reprodb"
        argv = [
            str(project_dir / "proj"), "--db", str(db_path),
            "--stateful", *policy, "--no-history", "--no-lock", "-j", "1",
        ]
        assert reprobuild_main(argv) == 0

        # Kill every nth write across an edit build's persistence...
        unit = sorted((project_dir / "proj").glob("*.mc"))[0]
        for index in range(0, 12, 3):
            unit.write_text(unit.read_text() + f"\n// edit {index}\n")
            with inject_faults(FaultPlan.kill_at(index, "write")):
                try:
                    reprobuild_main(argv)
                except InjectedCrash:
                    pass
            capsys.readouterr()
            # ...and the next build must always succeed without help.
            assert reprobuild_main(argv) == 0, f"write#{index}"
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert not list(project_dir.glob("build.reprodb.state*"))

    @POLICIES
    def test_stateful_edit_build_killed_at_every_io_op(self, project_dir, capsys, policy):
        from repro.cli import reprobuild_main
        from repro.workload import Edit, EditKind, apply_edit, generate_project
        from repro.workload.spec import make_preset

        proj, db_path = project_dir / "proj", project_dir / "build.reprodb"
        argv = [
            str(proj), "--db", str(db_path),
            "--stateful", *policy, "--no-history", "--no-lock", "-j", "1",
        ]
        spec = make_preset("tiny", seed=3)
        assert reprobuild_main(argv) == 0
        saved = project_dir / "saved"
        saved.mkdir()
        for f in project_dir.glob("build.reprodb*"):
            shutil.copy(f, saved / f.name)
        module = spec.modules[0]
        edited = apply_edit(spec, Edit(EditKind.BODY, module.name, module.functions[0].name))

        def edit_build():
            generate_project(edited).write_to(proj)
            return reprobuild_main(argv)

        total = count_io_ops(edit_build).total_ops
        reference = stateless_objects(proj)
        for index in range(total):
            for kind in (KILL, TORN):
                for f in project_dir.glob("build.reprodb*"):
                    f.unlink()
                for f in saved.iterdir():
                    shutil.copy(f, project_dir / f.name)
                generate_project(spec).write_to(proj)
                try:
                    run_faulted(edit_build, FaultPlan([FaultSpec(kind, None, index)]))
                finally:
                    capsys.readouterr()
                # The next build recovers by itself, without a traceback,
                # and its objects are the stateless compiler's.
                assert reprobuild_main(argv) == 0, (kind, index)
                assert "Traceback" not in capsys.readouterr().err
                assert built_objects(db_path) == reference, (kind, index)
                # Under the fine policy the state lives in the DB file.
                state = BuildDatabase.load(db_path).live_state
                assert (state is not None) == bool(policy), (kind, index)
                assert not list(project_dir.glob("build.reprodb.state*")), (kind, index)
