"""The shipped examples must keep running (they are executable docs)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "program output: [0, 1, 7, 2, 5, 8]" in out
        assert "byte-identical" in out
        assert "bypassed" in out

    def test_inspect_pipeline(self):
        out = run_example("inspect_pipeline.py")
        assert "define @dot3" in out
        assert "mem2reg" in out and "CHANGED" in out and "dormant" in out
        assert "dormancy records" in out

    def test_toolchain_tour(self):
        out = run_example("toolchain_tour.py")
        assert "int gcd(int a, int b)" in out  # formatter output
        assert "object tour.mc" in out  # disassembly (truncated to 25 lines)
        assert "program output: [" in out  # the VM run

    def test_editloop_tiny(self):
        out = run_example("editloop.py", "tiny", "2")
        assert "clean build" in out
        assert "TOTAL" in out
        assert "end-to-end" in out
