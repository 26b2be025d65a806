"""Fingerprint-keyed records are shared across functions and modules.

A consequence of keying dormancy by (position, fingerprint) rather than
by function name: two structurally identical functions — in the same or
different translation units — share records, so the second one bypasses
its dormant passes on its *first* ever compile.
"""

from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.passmanager.ledger import BYPASSED


IDENTICAL_BODY = """
  int s = 0;
  for (int i = 0; i < (x & 7); ++i) s += i * x;
  return s;
"""


def stateful_compiler():
    return Compiler(
        MemoryFileProvider({}), CompilerOptions(opt_level="O2", stateful=True)
    )


class TestRecordSharing:
    def test_identical_functions_share_records_within_a_unit(self):
        src = (
            f"int first(int x) {{ {IDENTICAL_BODY} }}\n"
            f"int second(int x) {{ {IDENTICAL_BODY} }}\n"
        )
        compiler = stateful_compiler()
        compiler.state.begin_build()
        result = compiler.compile_source("twins.mc", src)
        per_function = {}
        for run in result.ledger.runs:
            if run.position < 0:
                continue
            entry = per_function.setdefault(run.function, [0, 0])
            entry[0 if run.outcome == BYPASSED else 1] += 1
        # Functions run alphabetically: "first" populates the records,
        # "second" (identical IR) bypasses its dormant tail immediately.
        assert per_function["first"][0] == 0          # nothing to bypass yet
        assert per_function["second"][0] > 0          # shared records hit

    def test_identical_functions_share_records_across_units(self):
        compiler = stateful_compiler()
        compiler.state.begin_build()
        a = compiler.compile_source("a.mc", f"int fa(int x) {{ {IDENTICAL_BODY} }}\n")
        b = compiler.compile_source("b.mc", f"int fb(int x) {{ {IDENTICAL_BODY} }}\n")
        stats_a, stats_b = a.stats, b.stats
        assert stats_a.bypassed == 0
        assert stats_b.bypassed > 0  # first-ever compile of b.mc still bypasses

    def test_different_bodies_do_not_share(self):
        compiler = stateful_compiler()
        compiler.state.begin_build()
        compiler.compile_source("a.mc", "int fa(int x) { return x + 1; }\n")
        result = compiler.compile_source("b.mc", "int fb(int x) { return x * 3 - 7; }\n")
        # Different IR: entry fingerprints differ, so no position-0 hit
        # (later positions may still coincide once both reduce to small
        # canonical forms — that is correct sharing, not a bug).
        first_positions = [
            r for r in result.ledger.runs if r.position == 0 and r.function == "fb"
        ]
        assert all(r.outcome != BYPASSED for r in first_positions)
