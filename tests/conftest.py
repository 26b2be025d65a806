"""Shared test helpers and fixtures."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.frontend.ast import IncludeDirective, Program
from repro.frontend.includes import IncludeResolver, MemoryFileProvider
from repro.frontend.parser import parse_source
from repro.frontend.sema import Sema, analyze
from repro.ir.structure import Module
from repro.ir.verifier import verify_module
from repro.lowering import lower_program
from repro.vm.interp import ExecutionResult, run_module


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(body: str, cwd: str | Path) -> dict:
    """Run ``body`` in a fresh interpreter with ``src/`` on the path.

    ``body`` leaves its findings in a dict named ``result``; the dict
    comes back with one more key, ``modules``: every module the process
    had loaded when ``body`` finished.
    """
    script = (
        body
        + "\nimport sys\nresult['modules'] = sorted(sys.modules)\n"
        + "import json\nprint(json.dumps(result))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def frontend(source: str, headers: dict[str, str] | None = None):
    """Parse + resolve includes + sema; returns (merged_program, sema)."""
    resolver = IncludeResolver(MemoryFileProvider(headers or {}))
    unit = resolver.resolve("test.mc", source)
    sema = analyze(unit.merged)
    return unit.merged, sema


def lower(source: str, headers: dict[str, str] | None = None) -> Module:
    """Compile source to verified (unoptimized) IR."""
    program, sema = frontend(source, headers)
    module = lower_program(program, sema, "test.mc")
    verify_module(module)
    return module


def execute(source: str, headers: dict[str, str] | None = None, **kwargs) -> ExecutionResult:
    """Lower and interpret; convenience for behavioural tests."""
    return run_module(lower(source, headers), **kwargs)


def parse_ok(source: str) -> Program:
    program, _ = parse_source("test.mc", source)
    return program


@pytest.fixture
def tiny_project():
    """A small deterministic generated project."""
    from repro.workload.generator import generate_project
    from repro.workload.spec import make_preset

    return generate_project(make_preset("tiny", seed=7))
