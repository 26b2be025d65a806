"""repro — a stateful compiler enabling fine-grained incremental builds.

Reproduction of *"Enabling Fine-Grained Incremental Builds by Making
Compiler Stateful"* (Han, Zhao, Kim — CGO 2024) as a complete Python
toolchain:

- a MiniC compiler (frontend, SSA IR, 16-pass optimizer, register
  machine backend, VM);
- the paper's contribution: per-(function, pass) dormancy state
  persisted across builds with safe bypassing
  (:mod:`repro.core`);
- an incremental build system, workload generators, and a benchmark
  harness regenerating every table/figure of the evaluation.

Quickstart::

    from repro import Compiler, CompilerOptions, MemoryFileProvider

    provider = MemoryFileProvider({})
    compiler = Compiler(provider, CompilerOptions(opt_level="O2", stateful=True))
    result = compiler.compile_source("hello.mc", "int main() { print(42); return 0; }")

See ``examples/`` for full scenarios.
"""

from repro.buildsys import BuildDatabase, BuildOptions, BuildReport, IncrementalBuilder
from repro.core import BypassStatistics, CompilerState, SkipPolicy, StatefulPassManager
from repro.driver import Compiler, CompilerOptions, CompileResult
from repro.frontend.includes import DiskFileProvider, MemoryFileProvider
from repro.obs import MetricsRegistry, Tracer
from repro.vm import IRInterpreter, VirtualMachine, run_module
from repro.workload import (
    Project,
    apply_edit,
    generate_project,
    make_preset,
    random_edit_sequence,
)

__version__ = "1.0.0"

__all__ = [
    "BuildDatabase",
    "BuildOptions",
    "BuildReport",
    "IncrementalBuilder",
    "CompilerState",
    "SkipPolicy",
    "StatefulPassManager",
    "BypassStatistics",
    "Compiler",
    "CompilerOptions",
    "CompileResult",
    "DiskFileProvider",
    "MemoryFileProvider",
    "MetricsRegistry",
    "Tracer",
    "IRInterpreter",
    "VirtualMachine",
    "run_module",
    "Project",
    "apply_edit",
    "generate_project",
    "make_preset",
    "random_edit_sequence",
    "__version__",
]
