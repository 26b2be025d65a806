"""Stateful pass manager tests — the core mechanism of the paper."""

from repro.core.policies import SkipPolicy
from repro.core.state import CompilerState, pipeline_signature_of
from repro.core.stateful import StatefulPassManager
from repro.core.statistics import BypassStatistics
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import IncludeResolver, MemoryFileProvider
from repro.frontend.sema import analyze
from repro.ir import print_module, verify_module
from repro.lowering import lower_program
from repro.passmanager import build_pipeline
from repro.passmanager.ledger import BYPASSED, CHANGED
from repro.vm.interp import run_module

SRC = """
int helper(int x) { return x * 2 + 1; }
int hot(int n) {
  int acc = 0;
  for (int i = 0; i < (n & 7); ++i) acc += helper(i);
  return acc;
}
int main() { print(hot(20)); return 0; }
"""


def lower_src(src=SRC):
    resolver = IncludeResolver(MemoryFileProvider({}))
    unit = resolver.resolve("t.mc", src)
    sema = analyze(unit.merged)
    return lower_program(unit.merged, sema, "t.mc")


def fresh_state() -> CompilerState:
    pipeline = build_pipeline("O2")
    return CompilerState(
        pipeline_signature=pipeline_signature_of(pipeline), fingerprint_mode="canonical"
    )


def stateful_run(state, src=SRC, policy=SkipPolicy.FINE_GRAINED):
    module = lower_src(src)
    manager = StatefulPassManager(build_pipeline("O2"), state, policy=policy)
    ledger = manager.run(module)
    verify_module(module)
    return module, ledger, manager


def summarize(ledger):
    return BypassStatistics.from_ledger(ledger)


class TestBypassing:
    def test_first_build_executes_everything(self):
        state = fresh_state()
        state.begin_build()
        _, ledger, _ = stateful_run(state)
        stats = summarize(ledger)
        assert stats.bypassed == 0
        assert stats.executions > 0
        assert state.num_records == stats.executions

    def test_second_build_bypasses_dormant(self):
        state = fresh_state()
        state.begin_build()
        _, ledger1, _ = stateful_run(state)
        state.begin_build()
        _, ledger2, _ = stateful_run(state)
        s1, s2 = summarize(ledger1), summarize(ledger2)
        assert s2.bypassed == s1.dormant_executions
        assert s2.executions == s1.executions - s1.dormant_executions
        assert s2.dormant_executions == 0  # everything dormant got skipped

    def test_outputs_identical_with_and_without_state(self):
        state = fresh_state()
        state.begin_build()
        m1, *_ = stateful_run(state)
        state.begin_build()
        m2, *_ = stateful_run(state)
        assert print_module(m1) == print_module(m2)
        assert run_module(m1).same_behaviour(run_module(m2))

    def test_steady_state_single_fingerprint_per_function(self):
        state = fresh_state()
        state.begin_build()
        stateful_run(state)
        state.begin_build()
        _, _, manager = stateful_run(state)
        module = lower_src()
        functions = len(module.defined_functions())
        # Chain reuse: exactly one hash per function at pipeline entry.
        assert manager.ledger.fingerprints == functions

    def test_edited_function_reruns_only_its_passes(self):
        state = fresh_state()
        state.begin_build()
        stateful_run(state)
        state.begin_build()
        edited = SRC.replace("x * 2 + 1", "x * 3 + 1")
        _, ledger, _ = stateful_run(state, edited)
        per_function = {}
        for run in ledger.runs:
            if run.position < 0:
                continue
            entry = per_function.setdefault(run.function, [0, 0])
            entry[0] += 0 if run.outcome == BYPASSED else 1
            entry[1] += 1
        # helper changed -> most of its passes execute; untouched
        # functions keep their bypass level... (helper was inlined, so
        # callers' IR changed too; at minimum nothing is fully re-run
        # without need: total executed < total scheduled)
        executed = sum(e[0] for e in per_function.values())
        scheduled = sum(e[1] for e in per_function.values())
        assert executed < scheduled


class TestPolicies:
    def test_coarse_policy_is_all_or_nothing_per_function(self):
        state = fresh_state()
        state.begin_build()
        _, ledger1, _ = stateful_run(state, policy=SkipPolicy.COARSE)
        state.begin_build()
        _, ledger2, _ = stateful_run(state, policy=SkipPolicy.COARSE)

        def by_function(ledger):
            out = {}
            for run in ledger.runs:
                if run.position < 0:
                    continue
                entry = out.setdefault(run.function, {"executed": 0, "skipped": 0, "changed": 0})
                if run.outcome == BYPASSED:
                    entry["skipped"] += 1
                else:
                    entry["executed"] += 1
                    entry["changed"] += 1 if run.outcome == CHANGED else 0
            return out

        first, second = by_function(ledger1), by_function(ledger2)
        for fn_name, counters in second.items():
            # All-or-nothing: a function is either fully skipped or fully run.
            assert counters["executed"] == 0 or counters["skipped"] == 0
            # Skipped exactly when the previous pipeline was fully dormant.
            was_fully_dormant = first[fn_name]["changed"] == 0
            assert (counters["skipped"] > 0) == was_fully_dormant

    def test_coarse_skips_whole_pipeline_for_stable_ir(self):
        # Feed the same *already optimized* module through the pipeline
        # twice: the second pass over it is fully dormant, so a third
        # run under coarse policy skips everything.
        state = fresh_state()
        module = lower_src()
        # Iterate until the pipeline reaches its fixpoint and coarse
        # records cover every function; then everything is skipped.
        for build in range(5):
            state.begin_build()
            manager = StatefulPassManager(
                build_pipeline("O2"), state, policy=SkipPolicy.COARSE
            )
            ledger = manager.run(module)
            stats = summarize(ledger)
            if stats.executions == 0:
                assert stats.bypassed > 0
                break
        else:
            raise AssertionError("coarse policy never reached full bypass")

    def test_fine_beats_coarse_on_bypass_count(self):
        state_fine, state_coarse = fresh_state(), fresh_state()
        state_fine.begin_build()
        stateful_run(state_fine, policy=SkipPolicy.FINE_GRAINED)
        state_coarse.begin_build()
        stateful_run(state_coarse, policy=SkipPolicy.COARSE)
        state_fine.begin_build()
        _, ledger_f, _ = stateful_run(state_fine, policy=SkipPolicy.FINE_GRAINED)
        state_coarse.begin_build()
        _, ledger_c, _ = stateful_run(state_coarse, policy=SkipPolicy.COARSE)
        assert summarize(ledger_f).bypassed > summarize(ledger_c).bypassed


class TestSafety:
    def test_stateful_equals_stateless_object_output(self):
        provider = MemoryFileProvider({})
        stateless = Compiler(provider, CompilerOptions(opt_level="O2", stateful=False))
        ref = stateless.compile_source("t.mc", SRC)

        stateful = Compiler(provider, CompilerOptions(opt_level="O2", stateful=True))
        stateful.state.begin_build()
        first = stateful.compile_source("t.mc", SRC)
        stateful.state.begin_build()
        second = stateful.compile_source("t.mc", SRC)

        assert first.object_file.to_json() == ref.object_file.to_json()
        assert second.object_file.to_json() == ref.object_file.to_json()

    def test_stale_state_never_applied_after_pipeline_change(self):
        # State built under O2 must not be consulted by an O1 compiler.
        o2 = build_pipeline("O2")
        state = CompilerState(pipeline_signature=pipeline_signature_of(o2))
        assert not state.compatible_with(
            pipeline_signature_of(build_pipeline("O1")), "canonical"
        )

    def test_fingerprint_mode_change_invalidates(self):
        state = fresh_state()
        assert not state.compatible_with(state.pipeline_signature, "named")

    def test_compiler_adopts_only_a_compatible_state(self):
        provider = MemoryFileProvider({})
        o2 = CompilerOptions(opt_level="O2", stateful=True)
        state = Compiler(provider, o2).state
        assert Compiler(provider, o2, state=state).state is state
        for options in (
            CompilerOptions(opt_level="O1", stateful=True),
            CompilerOptions(opt_level="O2", stateful=True, fingerprint_mode="named"),
        ):
            fresh = Compiler(provider, options, state=state).state
            assert fresh is not state and fresh.num_records == 0

    def test_named_mode_also_safe(self):
        pipeline = build_pipeline("O2")
        state = CompilerState(
            pipeline_signature=pipeline_signature_of(pipeline), fingerprint_mode="named"
        )
        state.begin_build()
        module1 = lower_src()
        StatefulPassManager(build_pipeline("O2"), state).run(module1)
        state.begin_build()
        module2 = lower_src()
        manager = StatefulPassManager(build_pipeline("O2"), state)
        manager.state.fingerprint_mode = "named"
        StatefulPassManager(build_pipeline("O2"), state).run(module2)
        assert print_module(module1) == print_module(module2)
