"""Compiler driver: source text -> object file, stateless or stateful.

This is the programmatic equivalent of invoking ``reproc``: it runs the
frontend, lowering, the (possibly stateful) pass pipeline, and the
backend, returning the object file plus the pass ledger the build
system and experiments consume.  Stage durations go to the tracer as
``phase`` spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.backend.objfile import ObjectFile, compile_module_to_object
from repro.core.state import CompilerState, pipeline_signature_of
from repro.core.stateful import StatefulPassManager
from repro.core.statistics import BypassStatistics
from repro.frontend.includes import FileProvider, IncludeResolver
from repro.frontend.sema import analyze
from repro.ir.structure import Module
from repro.ir.verifier import verify_module
from repro.lowering import lower_program
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.options import CompilerOptions
from repro.passmanager.ledger import PassLedger
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import PassPipeline, build_pipeline

# objfile and includes defer code generation and parsing so that a build
# that compiles nothing skips them.  Importing the driver means compiling,
# so load them now: a -j N build imports the driver before its process
# pool forks, and every worker then inherits the whole compiler.
import repro.backend.isel  # noqa: F401
import repro.backend.peephole  # noqa: F401
import repro.backend.regalloc  # noqa: F401
import repro.frontend.parser  # noqa: F401


@dataclass
class CompileResult:
    """Everything produced by compiling one translation unit."""

    module: Module
    object_file: ObjectFile
    #: Every pass run of this unit and its state traffic.
    ledger: PassLedger
    #: The ledger's function-pass rows folded into the bypass table.
    stats: BypassStatistics
    headers: list[str] = field(default_factory=list)
    #: This unit's counters, published from the ledger.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def pass_work(self) -> int:
        return self.ledger.work


class Compiler:
    """A compiler instance, optionally stateful.

    One instance per build: the stateful variant carries a
    :class:`CompilerState` that callers load before and save after the
    build (the build system does this).
    """

    def __init__(
        self,
        provider: FileProvider,
        options: CompilerOptions | None = None,
        state: CompilerState | None = None,
        *,
        tracer: NullTracer = NULL_TRACER,
    ):
        self.provider = provider
        self.options = options or CompilerOptions()
        self.tracer = tracer
        self.resolver = IncludeResolver(provider)
        self.pipeline: PassPipeline = build_pipeline(self.options.opt_level)
        if self.options.stateful:
            self.state = state or CompilerState(
                pipeline_signature=pipeline_signature_of(self.pipeline),
                fingerprint_mode=self.options.fingerprint_mode,
            )
        else:
            self.state = None

    @property
    def pipeline_signature(self) -> str:
        return pipeline_signature_of(self.pipeline)

    def _make_pass_manager(self) -> PassManager:
        if self.options.stateful:
            assert self.state is not None
            return StatefulPassManager(
                build_pipeline(self.options.opt_level),
                self.state,
                policy=self.options.policy,
                verify_each=self.options.verify_each,
                tracer=self.tracer,
            )
        return PassManager(
            build_pipeline(self.options.opt_level),
            verify_each=self.options.verify_each,
            tracer=self.tracer,
        )

    def compile_source(self, name: str, text: str) -> CompileResult:
        """Compile one translation unit's text to an object file."""
        tracer = self.tracer
        unit_start = time.perf_counter()

        start = time.perf_counter()
        unit = self.resolver.resolve(name, text)
        sema = analyze(unit.merged)
        tracer.add("frontend", "phase", start, time.perf_counter() - start, unit=name)

        start = time.perf_counter()
        module = lower_program(unit.merged, sema, name)
        tracer.add("lowering", "phase", start, time.perf_counter() - start, unit=name)

        manager = self._make_pass_manager()
        start = time.perf_counter()
        ledger = manager.run(module)
        tracer.add("passes", "phase", start, time.perf_counter() - start, unit=name)

        if self.options.verify_output:
            verify_module(module)

        start = time.perf_counter()
        object_file = compile_module_to_object(module)
        tracer.add("backend", "phase", start, time.perf_counter() - start, unit=name)
        tracer.add(name, "unit", unit_start, time.perf_counter() - unit_start)

        stats = BypassStatistics.from_ledger(ledger)
        metrics = MetricsRegistry()
        counters = [
            ("passes.executed", stats.executions),
            ("passes.work", stats.work_executed),
            ("passes.bypassed", stats.bypassed),
            ("passes.dormant", stats.dormant_executions),
            ("passes.module_executed", ledger.module_runs),
        ]
        if self.options.stateful:
            counters += [
                ("state.lookups", ledger.lookups),
                ("state.records_refreshed", ledger.hits),
                ("state.records_written", ledger.records_written),
                ("fingerprint.count", ledger.fingerprints),
            ]
        for counter, value in counters:
            metrics.inc(counter, value)

        return CompileResult(
            module=module,
            object_file=object_file,
            ledger=ledger,
            stats=stats,
            headers=list(unit.headers),
            metrics=metrics,
        )

    def compile_file(self, path: str) -> CompileResult:
        """Compile a translation unit read through the file provider."""
        return self.compile_source(path, self.provider.read(path))
