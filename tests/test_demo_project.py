"""End-to-end integration over the hand-written demo project.

The demo project (examples/demo_project) is real MiniC written by hand
— insertion sort + a PRNG — complementing the generated workloads.  It
exercises the full stack from disk: CLI build, incremental rebuilds
(stateless and stateful), cross-module linking, and execution.
"""

import shutil
from pathlib import Path

import pytest

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.cli import reprobuild_main
from repro.driver import CompilerOptions
from repro.vm.machine import VirtualMachine
from repro.workload.project import Project

DEMO = Path(__file__).parent.parent / "examples" / "demo_project"
EXPECTED_OUTPUT = ["1", "97", "97", "907", "57"]


@pytest.fixture
def demo_copy(tmp_path):
    target = tmp_path / "demo"
    shutil.copytree(DEMO, target)
    return target


class TestDemoProject:
    def test_cli_build_and_run(self, demo_copy, tmp_path, capsys):
        db = tmp_path / "build.db"
        code = reprobuild_main([str(demo_copy), "--db", str(db), "--run"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.split() == EXPECTED_OUTPUT

    def test_stateful_rebuild_after_edit(self, demo_copy, tmp_path, capsys):
        db = tmp_path / "build.db"
        # The fine policy: the memo policy bypasses no pass.
        fine = ["--db", str(db), "--stateful", "--policy", "fine"]
        assert reprobuild_main([str(demo_copy), *fine]) == 0
        capsys.readouterr()
        # Edit main only: tweak the seed.
        main = demo_copy / "main.mc"
        main.write_text(main.read_text().replace("rng_seed(42)", "rng_seed(43)"))
        assert reprobuild_main([str(demo_copy), *fine, "--run"]) == 0
        captured = capsys.readouterr()
        assert "1 recompiled, 2 up-to-date" in captured.err
        assert "bypassed" in captured.err
        assert captured.out.split()[0] == "1"  # still sorted

    def test_header_edit_rebuilds_dependents(self, demo_copy, tmp_path, capsys):
        db = tmp_path / "build.db"
        reprobuild_main([str(demo_copy), "--db", str(db)])
        capsys.readouterr()
        header = demo_copy / "sort.mh"
        header.write_text(header.read_text().replace("SORT_MAX = 64", "SORT_MAX = 128"))
        reprobuild_main([str(demo_copy), "--db", str(db)])
        captured = capsys.readouterr()
        # sort.mc and main.mc include sort.mh; rng.mc does not.
        assert "2 recompiled, 1 up-to-date" in captured.err

    def test_opt_levels_agree_on_behaviour(self, demo_copy):
        project = Project.read_from(demo_copy)
        outputs = []
        for level in ("O0", "O1", "O2"):
            report = IncrementalBuilder(
                project.provider(),
                project.unit_paths,
                CompilerOptions(opt_level=level),
                BuildDatabase(),
            ).build()
            outputs.append(VirtualMachine(report.image).run())
        assert outputs[0].same_behaviour(outputs[1])
        assert outputs[1].same_behaviour(outputs[2])
        assert [str(v) for v in outputs[0].output] == EXPECTED_OUTPUT

    def test_stateful_objects_match_stateless(self, demo_copy):
        project = Project.read_from(demo_copy)
        dbs = {}
        for name, stateful in (("sl", False), ("sf", True)):
            db = BuildDatabase()
            IncrementalBuilder(
                project.provider(),
                project.unit_paths,
                CompilerOptions(opt_level="O2", stateful=stateful),
                db,
            ).build()
            dbs[name] = db
        for path in project.unit_paths:
            assert dbs["sl"].units[path].object_json == dbs["sf"].units[path].object_json
