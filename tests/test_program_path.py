"""``reprobuild`` run as a command: the process ends with ``os._exit``.

Each build here runs exactly as the console script and the benchmark
run it, ``python -c "...sys.exit(reprobuild_main())"``, in a fresh
interpreter.  The process skips interpreter teardown, so these checks
are about what must not be lost: the exit code, complete output lines,
every file the build wrote, and no worker process left behind.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.buildsys.builddb import BuildDatabase
from repro.obs.history import BuildHistory
from repro.persist import BuildLock, default_lock_path
from tests.conftest import SRC

DEMO = Path(__file__).resolve().parent.parent / "examples" / "demo_project"
COMMAND = "import sys; from repro.cli import reprobuild_main; sys.exit(reprobuild_main())"
BUILD_LINE = re.compile(r"^build: \d+ recompiled, \d+ up-to-date, \d+\.\d{3}s total.*$", re.M)
STATE_LINE = re.compile(
    r"^state: \d+ records \(\d+ bytes of a \d+-byte build DB\); "
    r"bypassed \d+/\d+ pass runs$",
    re.M,
)


def reprobuild(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    # Buffered stdio, as in a terminal session's pipes and files, so a
    # missing flush before the exit would lose output.
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONUNBUFFERED"
    }
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-c", COMMAND, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def tree(tmp_path):
    shutil.copytree(DEMO, tmp_path / "proj")
    return tmp_path


def edit(tree: Path, name: str, old: str, new: str) -> None:
    path = tree / "proj" / name
    path.write_text(path.read_text().replace(old, new))


def test_build_output_and_files_survive_the_exit(tree):
    flags = (
        "--db", "b.db", "--stateful", "--policy", "fine", "-j", "1", "--report-json", "r.json"
    )
    proc = reprobuild(tree, "proj", *flags, "--trace-out", "t.json", "--run")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "97", "97", "907", "57"]
    assert proc.stderr.endswith("\n")
    assert BUILD_LINE.search(proc.stderr) and STATE_LINE.search(proc.stderr)

    edit(tree, "main.mc", "rng_seed(42)", "rng_seed(7)")
    proc = reprobuild(tree, "proj", *flags)
    assert proc.returncode == 0, proc.stderr
    assert "1 recompiled, 2 up-to-date" in BUILD_LINE.search(proc.stderr).group()
    assert STATE_LINE.search(proc.stderr)

    db = BuildDatabase.load(tree / "b.db")
    assert sorted(db.units) == ["main.mc", "rng.mc", "sort.mc"]
    assert db.linked == db.link_key(sorted(db.units))
    assert db.live_state is not None and db.live_state.num_records > 0
    assert not list(tree.glob("b.db.state*"))  # the state is a section of b.db
    records, stats = BuildHistory(tree / "b.db.history.jsonl").read()
    assert [r.summary["recompiled"] for r in records] == [3, 1] and stats.corrupt == 0
    assert json.loads((tree / "r.json").read_text())["summary"]["recompiled"] == 1
    assert json.loads((tree / "t.json").read_text())["traceEvents"]


def test_compile_error_exits_1_with_its_diagnostic(tree):
    edit(tree, "sort.mc", "return", "retur")
    proc = reprobuild(tree, "proj", "--db", "b.db", "-j", "1")
    assert proc.returncode == 1
    assert "sort.mc:" in proc.stderr and proc.stderr.endswith("\n")
    assert sorted(BuildDatabase.load(tree / "b.db").units) == ["main.mc", "rng.mc"]


def test_link_error_exits_1(tree):
    edit(tree, "rng.mc", "int rng_seed(", "int rng_seed_renamed(")
    proc = reprobuild(tree, "proj", "--db", "b.db", "-j", "1")
    assert proc.returncode == 1
    assert proc.stderr.endswith(
        "reprobuild: link failed: unresolved function @rng_seed called from @main\n"
    )
    assert BuildDatabase.load(tree / "b.db").linked is None


def test_usage_errors_exit_2(tree):
    proc = reprobuild(tree, "missing-dir", "--db", "b.db")
    assert proc.returncode == 2
    assert proc.stderr == "reprobuild: no such directory: missing-dir\n"
    assert reprobuild(tree, "proj", "-j", "0").returncode == 2


def test_locked_directory_exits_3(tree):
    with BuildLock(default_lock_path(tree / "b.db"), timeout=0):
        proc = reprobuild(tree, "proj", "--db", "b.db", "--lock-timeout", "0")
    assert proc.returncode == 3
    assert "build directory is locked" in proc.stderr
    assert not (tree / "b.db").exists()


def test_pool_build_leaves_no_worker_alive(tree):
    proc = reprobuild(
        tree, "proj", "--db", "b.db", "--stateful", "-j", "2", "--report-json", "r.json"
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tree / "r.json").read_text())
    workers = {unit["worker"] for unit in report["compiled"]}
    pids = [int(w.removeprefix("pid-")) for w in workers if w.startswith("pid-")]
    assert pids, workers
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
