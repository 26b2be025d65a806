#!/usr/bin/env python3
"""Quickstart: compile and run MiniC, then recompile statefully.

Demonstrates the one-minute tour of the library:

1. compile a program with the conventional (stateless) compiler;
2. execute it on the register-machine VM;
3. recompile the identical source with the *stateful* compiler and
   watch every dormant pass get bypassed while the output stays
   byte-identical.

Run:  python examples/quickstart.py
"""

from repro import Compiler, CompilerOptions, MemoryFileProvider, VirtualMachine
from repro.backend.linker import link

SOURCE = """
int collatz_steps(int n) {
  int steps = 0;
  while (n != 1 && steps < 1000) {
    if (n % 2 == 0) n = n / 2;
    else n = 3 * n + 1;
    steps++;
  }
  return steps;
}

int main() {
  for (int i = 1; i <= 6; ++i) print(collatz_steps(i));
  return 0;
}
"""


def main() -> None:
    provider = MemoryFileProvider({})

    # --- 1. conventional compile ---------------------------------------
    compiler = Compiler(provider, CompilerOptions(opt_level="O2"))
    result = compiler.compile_source("collatz.mc", SOURCE)
    print(f"compiled: {result.module.num_instructions} IR instructions, "
          f"{result.object_file.num_instructions} machine instructions")

    # --- 2. run on the VM ----------------------------------------------
    image = link([result.object_file])
    outcome = VirtualMachine(image).run()
    print(f"program output: {outcome.output}  (exit {outcome.exit_code})")

    # --- 3. stateful recompile ------------------------------------------
    stateful = Compiler(provider, CompilerOptions(opt_level="O2", stateful=True))
    stateful.state.begin_build()
    first = stateful.compile_source("collatz.mc", SOURCE)
    stateful.state.begin_build()
    second = stateful.compile_source("collatz.mc", SOURCE)

    for label, res in (("first build ", first), ("second build", second)):
        stats = res.stats
        print(f"{label}: {stats.executions:3d} pass runs, "
              f"{stats.dormant_executions:3d} dormant, "
              f"{stats.bypassed:3d} bypassed")

    assert first.object_file.to_json() == second.object_file.to_json()
    assert first.object_file.to_json() == result.object_file.to_json()
    print("stateful output is byte-identical to the stateless compiler's ✓")


if __name__ == "__main__":
    main()
