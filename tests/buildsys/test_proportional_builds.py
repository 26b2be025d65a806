"""Work in proportion to the edit: link skipping, link failures, object
options, and what a no-op or edit build is allowed to decode and write."""

import json
import zlib

import pytest

from repro.backend.objfile import ObjectFile
from repro.buildsys import builddb, incremental
from repro.buildsys.builddb import BuildDatabase
from repro.cli import reprobuild_main
from repro.core.state import CompilerState
from repro.workload import Edit, EditKind, apply_edit, generate_project, make_preset

FILES = {
    "a.mc": "int b_old(int x);\nint c_twice(int x);\n"
            "int main() { print(b_old(2)); print(c_twice(4)); return 0; }\n",
    "b.mc": "int b_old(int x) { return x + 1; }\n",
    "c.mc": "int c_twice(int x) { return x * 2; }\n",
    "d.mc": "int d_unused(int x) { return x - 1; }\n",
}


@pytest.fixture()
def tree(tmp_path):
    proj = tmp_path / "proj"
    proj.mkdir()
    for name, text in FILES.items():
        (proj / name).write_text(text)
    return tmp_path


def run(tree, capsys, *flags, stateful=True):
    argv = [
        str(tree / "proj"), "--db", str(tree / "build.reprodb"),
        "--no-history", "--no-lock", "-j", "1", *flags,
    ]
    if stateful:
        argv.append("--stateful")
    rc = reprobuild_main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return rc, out, err


def write(tree, name, text):
    (tree / "proj" / name).write_text(text)


class TestLinkSkip:
    def test_noop_build_skips_link_but_run_still_runs(self, tree, capsys):
        assert run(tree, capsys, "--report-json", str(tree / "r1.json"))[0] == 0
        assert json.loads((tree / "r1.json").read_text())["summary"]["linked"]

        rc, _, err = run(tree, capsys, "--report-json", str(tree / "r2.json"))
        assert rc == 0 and "0 recompiled" in err
        assert not json.loads((tree / "r2.json").read_text())["summary"]["linked"]

        rc, out, _ = run(tree, capsys, "--run")
        assert rc == 0 and out.split() == ["3", "8"]

    def test_reverted_failed_unit_must_relink_and_fail(self, tree, capsys):
        assert run(tree, capsys)[0] == 0
        # a.mc now needs a symbol only the new b.mc defines, and the new
        # b.mc does not compile: a.mc's new object is recorded, b.mc's not.
        write(tree, "a.mc", FILES["a.mc"].replace("b_old", "b_new"))
        write(tree, "b.mc", "int b_new(int x) { return undefined_var; }\n")
        assert run(tree, capsys)[0] == 1
        # Reverting b.mc leaves nothing dirty, yet these link inputs never
        # linked: the build must link, and the link must fail.
        write(tree, "b.mc", FILES["b.mc"])
        rc, _, err = run(tree, capsys)
        assert rc == 1
        assert "link failed" in err and "@b_new" in err

    def test_deleting_a_unit_forces_relink(self, tree, capsys):
        assert run(tree, capsys)[0] == 0
        (tree / "proj" / "d.mc").unlink()
        rc, _, err = run(tree, capsys, "--report-json", str(tree / "r.json"))
        assert rc == 0 and "0 recompiled" in err
        assert json.loads((tree / "r.json").read_text())["summary"]["linked"]

        (tree / "proj" / "c.mc").unlink()
        rc, _, err = run(tree, capsys)
        assert rc == 1 and "@c_twice" in err


class TestLinkFailure:
    def test_unresolved_symbol_exits_1_and_keeps_the_build_incremental(
        self, tree, capsys
    ):
        assert run(tree, capsys)[0] == 0
        write(tree, "b.mc", "int b_renamed(int x) { return x + 1; }\n")
        rc, _, err = run(tree, capsys)
        assert rc == 1
        assert "link failed" in err and "unresolved function @b_old" in err
        db = BuildDatabase.load(tree / "build.reprodb")
        assert "b_renamed" in ObjectFile.from_json(db.units["b.mc"].object_json).functions
        assert db.linked is None

        # Nothing changed, but the link is not done: it fails again.
        rc, _, err = run(tree, capsys)
        assert rc == 1 and "0 recompiled" not in err and "link failed" in err

        write(tree, "b.mc", "int b_old(int x) { return x + 5; }\n")
        rc, out, err = run(tree, capsys, "--run")
        assert rc == 0
        assert "1 recompiled, 3 up-to-date" in err
        assert out.split() == ["7", "8"]


class TestObjectOptions:
    def test_opt_level_change_rebuilds_every_unit(self, tree, capsys):
        assert run(tree, capsys, "-O", "2")[0] == 0
        rc, _, err = run(tree, capsys, "-O", "0", "--explain")
        assert rc == 0 and "4 recompiled, 0 up-to-date" in err
        assert "compiler options changed (built with -O2, now -O0)" in err

        # The objects are exactly what a clean -O0 build produces.
        clean = BuildDatabase()
        from repro.buildsys.incremental import IncrementalBuilder
        from repro.driver import CompilerOptions
        from repro.workload.project import Project

        project = Project.read_from(tree / "proj")
        IncrementalBuilder(
            project.provider(), project.unit_paths, CompilerOptions(opt_level="O0"), clean
        ).build(link_output=False)
        db = BuildDatabase.load(tree / "build.reprodb")
        assert {p: r.object_json for p, r in db.units.items()} == {
            p: r.object_json for p, r in clean.units.items()
        }

        explain = ["explain", str(tree / "proj"), "--db", str(tree / "build.reprodb")]
        assert reprobuild_main([*explain, "-O", "0", "a.mc"]) == 0
        assert "up to date" in capsys.readouterr().out
        assert reprobuild_main([*explain, "a.mc"]) == 0
        assert "compiler options changed" in capsys.readouterr().out


def count_calls(monkeypatch):
    """Count calls of the decode/encode/link/write entry points, and
    the deflates and inflates in this process: of stored objects, and
    of the DB header (inflated by every load, deflated by every write)."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in (
        (CompilerState, "from_json"),
        (ObjectFile, "from_json"),
    ):
        monkeypatch.setattr(
            owner, attr, staticmethod(counted(f"{owner.__name__}.{attr}", getattr(owner, attr)))
        )
    monkeypatch.setattr(
        CompilerState, "to_json", counted("CompilerState.to_json", CompilerState.to_json)
    )
    monkeypatch.setattr(zlib, "compress", counted("deflate", zlib.compress))
    monkeypatch.setattr(zlib, "decompress", counted("inflate", zlib.decompress))
    monkeypatch.setattr(incremental, "link", counted("link", incremental.link))
    monkeypatch.setattr(builddb, "atomic_write", counted("atomic_write", builddb.atomic_write))
    return calls


class TestWorkCounts:
    @pytest.mark.parametrize("stateful", [True, False])
    def test_noop_build_decodes_links_and_writes_nothing(
        self, tree, capsys, monkeypatch, stateful
    ):
        # The fine policy: the memo policy keeps no state to report.
        policy = ("--policy", "fine") if stateful else ()
        assert run(tree, capsys, *policy, stateful=stateful)[0] == 0
        calls = count_calls(monkeypatch)
        rc, _, err = run(
            tree, capsys, "--report-json", str(tree / "r.json"), *policy, stateful=stateful
        )
        assert rc == 0 and "0 recompiled" in err
        assert calls == {"inflate": 1}  # the DB header
        if stateful:
            # The state summary still reports, from the persisted one.
            state = json.loads((tree / "r.json").read_text())["state"]
            assert state["records"] > 0 and state["bytes"] > 0
            assert "gc_runs" in state

    def test_edit_build_reads_and_writes_state_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # Every compiling build reads the state file once and rewrites
        # it once, whatever the edit; nothing is written beside it.
        spec = make_preset("small", seed=4)
        generate_project(spec).write_to(tmp_path / "proj")
        assert run(tmp_path, capsys, "--policy", "fine")[0] == 0
        calls = count_calls(monkeypatch)
        for i in range(8):
            module = spec.modules[i % len(spec.modules)]
            spec = apply_edit(spec, Edit(EditKind.BODY, module.name, module.functions[0].name))
            generate_project(spec).write_to(tmp_path / "proj")
            calls.clear()
            rc, _, err = run(tmp_path, capsys, "--policy", "fine")
            assert rc == 0 and "1 recompiled" in err
            assert calls.get("CompilerState.from_json", 0) == 1
            assert calls.get("CompilerState.to_json", 0) == 1
            assert [p.name for p in tmp_path.glob("build.reprodb.state*")] == [
                "build.reprodb.state"
            ]

    def test_noop_run_links_but_loads_and_writes_nothing(self, tree, capsys, monkeypatch):
        assert run(tree, capsys)[0] == 0
        calls = count_calls(monkeypatch)
        rc, out, _ = run(tree, capsys, "--run")
        assert rc == 0 and out.split() == ["3", "8"]
        # Each cached object is inflated once, to be decoded and linked;
        # the one more inflate is the DB header.
        assert calls == {
            "link": 1, "ObjectFile.from_json": len(FILES), "inflate": len(FILES) + 1
        }

    def test_edit_build_checks_the_link_without_decoding(self, tree, capsys, monkeypatch):
        assert run(tree, capsys)[0] == 0
        calls = count_calls(monkeypatch)
        write(tree, "b.mc", "int b_old(int x) { return x + 5; }\n")
        rc, _, err = run(tree, capsys, "--report-json", str(tree / "r.json"))
        assert rc == 0 and "1 recompiled, 3 up-to-date" in err
        assert "ObjectFile.from_json" not in calls and "link" not in calls
        assert json.loads((tree / "r.json").read_text())["summary"]["linked"]
        # The fresh object is deflated once and the DB header once; the
        # memo inflates at most the dirty unit's previous object, the
        # load the header, and the DB write nothing.
        assert calls["deflate"] == 2 and calls["inflate"] <= 2

        # --run still links: the fresh object in memory, the rest decoded.
        write(tree, "b.mc", "int b_old(int x) { return x + 6; }\n")
        calls.clear()
        rc, out, _ = run(tree, capsys, "--run")
        assert rc == 0 and out.split() == ["8", "8"]
        assert calls["link"] == 1 and calls["ObjectFile.from_json"] == len(FILES) - 1
        assert calls["deflate"] == 2 and calls["inflate"] == len(FILES) + 1

    def test_clean_pool_build_deflates_nothing_in_the_parent(
        self, tree, capsys, monkeypatch
    ):
        calls = count_calls(monkeypatch)
        assert run(tree, capsys, "-j", "2")[0] == 0
        # The pool ran: each object was deflated by the worker that
        # compiled it; the parent deflated only the DB header.
        assert calls["deflate"] == 1 and "inflate" not in calls
        db = BuildDatabase.load(tree / "build.reprodb")
        assert all(r.worker.startswith("pid-") for r in db.units.values())
