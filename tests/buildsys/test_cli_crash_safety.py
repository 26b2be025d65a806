"""reprobuild's recovery behaviour on damaged or unwritable build DBs."""

import errno

import pytest

from repro.cli import reprobuild_main
from repro.persist import frame, read_artifact
from repro.testing import FaultPlan, inject_faults
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset


@pytest.fixture()
def project(tmp_path):
    generate_project(make_preset("tiny", seed=2)).write_to(tmp_path / "proj")
    return tmp_path


def build_argv(project, **extra):
    argv = [
        str(project / "proj"), "--db", str(project / "build.reprodb"),
        "--stateful", "--no-history", "--no-lock",
    ]
    for flag in extra.get("flags", ()):
        argv.append(flag)
    return argv


class TestCorruptDatabaseRecovery:
    @pytest.mark.parametrize("damage", [
        b"",                                  # zero-byte file
        b"\x00\x01\x02 not json",             # binary garbage
        b'{"schema": 4, "units"',             # truncated JSON
        frame(b'{"schema": 4}')[:-4],          # truncated framed artifact
    ])
    def test_damaged_db_triggers_clean_full_rebuild(self, project, capsys, damage):
        db = project / "build.reprodb"
        db.write_bytes(damage)

        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err

        assert rc == 0
        assert "corrupt build database" in err
        assert "full rebuild" in err
        assert "Traceback" not in err
        # The rebuild replaced the damaged file with a valid one...
        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 0
        assert "corrupt" not in err  # ...so the second run is quiet.

    def test_bitflipped_db_is_caught_by_checksum(self, project, capsys):
        db = project / "build.reprodb"
        assert reprobuild_main(build_argv(project)) == 0
        capsys.readouterr()

        blob = bytearray(db.read_bytes())
        blob[-2] ^= 0x40  # flip one bit inside the JSON payload
        db.write_bytes(bytes(blob))

        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 0
        assert "corrupt build database" in err
        assert "checksum" in err

    def test_explain_treats_corrupt_db_as_empty(self, project, capsys):
        db = project / "build.reprodb"
        db.write_bytes(b"\xff\xfe garbage")
        rc = reprobuild_main(["explain", str(project / "proj"), "--db", str(db)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "corrupt build database" in captured.err
        assert "Traceback" not in captured.err


class TestSaveFailure:
    def test_unwritable_db_fails_with_message_not_traceback(self, project, capsys):
        # An errno storm longer than the retry budget makes every save
        # attempt fail, as if the disk went away mid-build.
        plan = FaultPlan.errno_at(0, code=errno.EROFS, op="open", count=999)
        with inject_faults(plan):
            rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 1
        assert "failed to save build database" in err
        assert "Traceback" not in err

    def test_enospc_during_save_cleans_up_and_reports(self, project, capsys):
        plan = FaultPlan.errno_at(0, code=errno.ENOSPC, op="write", count=999)
        with inject_faults(plan):
            rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 1
        assert "failed to save build database" in err
        # No temp litter next to the DB after the failure.
        leftovers = [p for p in project.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_state_save_failure_is_only_a_warning(self, project, capsys):
        # reproc's standalone state file is a cache: losing it costs
        # speed, not correctness, so the compile still succeeds.
        from repro.cli import reproc_main

        unit = next((project / "proj").glob("*.mc"))
        state_path = project / "state.json"
        plan = FaultPlan.errno_at(0, code=errno.EROFS, op="open", count=999)
        with inject_faults(plan):
            rc = reproc_main([
                str(unit), "--stateful", "--state-file", str(state_path),
            ])
        err = capsys.readouterr().err
        assert rc == 0
        assert "state" in err and "Traceback" not in err
        assert not state_path.exists()


class TestLegacyCompatibility:
    def test_unframed_legacy_db_still_loads(self, project, capsys):
        # A DB written before checksummed framing must keep working.
        from repro.buildsys.builddb import BuildDatabase

        db_path = project / "build.reprodb"
        assert reprobuild_main(build_argv(project)) == 0
        capsys.readouterr()

        db_path.write_bytes(read_artifact(db_path))  # strip the frame
        loaded = BuildDatabase.load(db_path)
        assert set(loaded.units)  # records survived

        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 0 and "corrupt" not in err
