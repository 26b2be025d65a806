"""The pass ledger: one outcome row per (function, position), and its views."""

import pytest

from repro.core.statistics import BypassStatistics
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.obs.metrics import MetricsRegistry
from repro.passmanager.ledger import BYPASSED, CHANGED, DORMANT, PassLedger, PassRun
from repro.passmanager.pipeline import build_pipeline


def run(position=0, pass_name="p", outcome=DORMANT, work=10, function="f", ns=1000):
    return PassRun(function, position, pass_name, outcome, work, ns)


def unit_source(functions: int) -> str:
    """``functions`` small distinct functions (all reachable from main)."""
    defs = [
        f"int f{i}(int x) {{ int y = x * {i + 2}; return y + {i}; }}"
        for i in range(functions - 1)
    ]
    calls = " + ".join(f"f{i}({i})" for i in range(functions - 1)) or "0"
    return "\n".join(defs + [f"int main() {{ print({calls}); return 0; }}"]) + "\n"


class TestPassLedger:
    def test_dormant_classification(self):
        ledger = PassLedger(runs=[
            run(outcome=CHANGED), run(outcome=DORMANT), run(outcome=BYPASSED, work=0),
        ])
        stats = BypassStatistics.from_ledger(ledger)
        # Dormant = executed but unchanged; a bypassed run is neither.
        assert stats.executions == 2
        assert stats.dormant_executions == 1
        assert stats.bypassed == 1

    def test_aggregates(self):
        ledger = PassLedger(runs=[
            run(pass_name="a", outcome=CHANGED, work=5, ns=7),
            run(pass_name="a", outcome=DORMANT, work=3, ns=4),
            run(pass_name="b", outcome=BYPASSED, work=0, ns=0),
            run(position=-1, pass_name="inline", outcome=CHANGED, work=9),
        ])
        stats = BypassStatistics.from_ledger(ledger)
        assert ledger.work == 17  # every executed run, module prelude included
        assert ledger.module_runs == 1
        assert stats.work_executed == 8  # function passes only
        assert stats.by_pass == {
            "a": {"executed": 2, "dormant": 1, "bypassed": 0, "work": 8, "ns": 11},
            "b": {"executed": 0, "dormant": 0, "bypassed": 1, "work": 0, "ns": 0},
        }

    def test_merge_equals_fold_of_concatenated_rows(self):
        first = [run(pass_name="a", outcome=CHANGED), run(pass_name="b")]
        second = [run(pass_name="a", outcome=BYPASSED, work=0), run(pass_name="c")]
        merged = BypassStatistics.from_ledger(PassLedger(runs=first))
        merged.merge(BypassStatistics.from_ledger(PassLedger(runs=second)))
        together = BypassStatistics.from_ledger(PassLedger(runs=first + second))
        assert merged.to_dict() == together.to_dict()


@pytest.fixture
def registry_calls(monkeypatch):
    """Count every MetricsRegistry.inc/observe/set_gauge call."""
    calls = []
    for attr in ("inc", "observe", "set_gauge"):
        original = getattr(MetricsRegistry, attr)

        def counted(self, *args, _original=original, **kwargs):
            calls.append(args[0])
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, attr, counted)
    return calls


class TestViews:
    @pytest.mark.parametrize("stateful", [False, True])
    def test_registry_calls_do_not_grow_with_the_unit(self, stateful, registry_calls):
        counts = {}
        for functions in (1, 30):
            compiler = Compiler(
                MemoryFileProvider({}), CompilerOptions(stateful=stateful)
            )
            for _build in range(2):  # second stateful build bypasses
                if stateful:
                    compiler.state.begin_build()
                registry_calls.clear()
                compiler.compile_source("unit.mc", unit_source(functions))
            counts[functions] = len(registry_calls)
        assert counts[1] == counts[30]

    @pytest.mark.parametrize("stateful", [False, True])
    def test_fold_covers_every_scheduled_run(self, stateful):
        compiler = Compiler(MemoryFileProvider({}), CompilerOptions(stateful=stateful))
        length = build_pipeline("O2").num_function_passes
        for _build in range(2):
            if stateful:
                compiler.state.begin_build()
            result = compiler.compile_source("unit.mc", unit_source(30))
            stats = result.stats
            functions = len(result.module.defined_functions())
            assert stats.executions + stats.bypassed == functions * length
        if stateful:
            assert stats.bypassed > 0

    def test_registry_counters_match_ledger_fold(self):
        """The published counters and the bypass table are one fold."""
        for stateful in (False, True):
            compiler = Compiler(
                MemoryFileProvider({}), CompilerOptions(stateful=stateful)
            )
            for _build in range(2):
                if stateful:
                    compiler.state.begin_build()
                result = compiler.compile_source("unit.mc", unit_source(3))
            stats, ledger = result.stats, result.ledger
            assert stats.to_dict() == BypassStatistics.from_ledger(ledger).to_dict()
            counters = result.metrics.to_dict()["counters"]
            assert counters["passes.executed"] == stats.executions
            assert counters["passes.work"] == stats.work_executed
            assert counters["passes.bypassed"] == stats.bypassed
            assert counters["passes.dormant"] == stats.dormant_executions
            assert counters["passes.module_executed"] == ledger.module_runs
            assert result.pass_work == ledger.work
            if stateful:
                assert counters["state.lookups"] == ledger.lookups
                assert counters["state.records_refreshed"] == ledger.hits
                assert counters["fingerprint.count"] == ledger.fingerprints > 0
                assert ledger.lookups >= ledger.hits >= stats.bypassed > 0
            else:
                assert "state.lookups" not in counters
                assert ledger.fingerprints == ledger.lookups == 0
