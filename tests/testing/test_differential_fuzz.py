"""Differential-correctness fuzzing: stateful == stateless, always.

Each trace generates a project, applies a random edit sequence, and
after every step builds it stateless from scratch (the reference) and
stateful incrementally under both the fine and the memo policy, each
at every job count of the trace (here -j 1 and -j 4), asserting
bit-identical linked images, identical per-unit objects, and the same
dormancy records and per-pass counts across job counts.  The corpus
is twenty-five seeds.
"""

import os
import subprocess
import sys

import pytest

from repro.testing import run_differential_trace
from tests.conftest import SRC

#: The fixed corpus: 25 seeds, as the acceptance criteria require.
SEEDS = list(range(1, 26))


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_trace_converges(seed, tmp_path):
    result = run_differential_trace(
        preset="tiny",
        seed=seed,
        num_edits=3,
        jobs=(1, 4),
        workdir=tmp_path,
    )
    assert result.ok, result.describe()
    assert result.steps == 4  # initial build + 3 edits
    assert result.objects_compared > 0


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_trace_with_vm_execution(seed, tmp_path):
    # A deeper check on a few seeds: the linked images must not just be
    # bit-identical, they must *behave* identically under the VM.
    result = run_differential_trace(
        preset="tiny",
        seed=seed,
        num_edits=2,
        jobs=(1, 4),
        workdir=tmp_path,
        execute=True,
    )
    assert result.ok, result.describe()


@pytest.mark.parametrize("opt_level", ["O0", "O1"])
def test_trace_at_other_opt_levels(opt_level, tmp_path):
    # The law must hold at every pipeline the compiler ships, not just
    # the default O2 (different pipelines -> different bypass records).
    result = run_differential_trace(
        preset="tiny",
        seed=7,
        num_edits=2,
        jobs=(1, 4),
        opt_level=opt_level,
        workdir=tmp_path,
    )
    assert result.ok, result.describe()


def test_fuzzer_cli_entry_point(capsys):
    # The CI job drives this module directly; keep that path honest.
    from repro.testing.differential import main

    rc = main(["--traces", "2", "--seed", "1", "--jobs", "1,4", "--edits", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2/2" in out


def test_fuzzer_runs_as_a_module_without_runtime_warning(tmp_path):
    # ``python -m`` imports the package first; an eager re-export of the
    # fuzzer from ``repro.testing`` makes runpy warn that the module was
    # already imported.  CI runs the fuzzer with that warning as an error.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning",
            "-m", "repro.testing.differential",
            "--traces", "1", "--edits", "1", "--jobs", "1",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "1/1 traces clean" in proc.stdout
