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

from repro._lazy import lazy_exports

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

# Each name loads its layer on first access: ``import repro.cli`` must
# not pay for the compiler, the VM or the workload generator.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.buildsys": ("BuildDatabase", "BuildOptions", "BuildReport", "IncrementalBuilder"),
    "repro.core": ("BypassStatistics", "CompilerState", "SkipPolicy", "StatefulPassManager"),
    "repro.driver": ("Compiler", "CompilerOptions", "CompileResult"),
    "repro.frontend.includes": ("DiskFileProvider", "MemoryFileProvider"),
    "repro.obs": ("MetricsRegistry", "Tracer"),
    "repro.vm": ("IRInterpreter", "VirtualMachine", "run_module"),
    "repro.workload": (
        "Project",
        "apply_edit",
        "generate_project",
        "make_preset",
        "random_edit_sequence",
    ),
})
