"""Compiler driver: source text -> object file, stateless or stateful.

This is the programmatic equivalent of invoking ``reproc``: it runs the
frontend, lowering, the (possibly stateful) pass pipeline, and the
backend, returning the object file plus rich timing/event information
the build system and experiments consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.backend.objfile import ObjectFile, compile_module_to_object
from repro.core.policies import SkipPolicy
from repro.core.state import CompilerState, pipeline_signature_of
from repro.core.stateful import StatefulOverhead, StatefulPassManager
from repro.frontend.includes import FileProvider, IncludeResolver
from repro.frontend.sema import analyze
from repro.ir.structure import Module
from repro.ir.verifier import verify_module
from repro.lowering import lower_program
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passmanager.events import PassEventLog
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import PassPipeline, build_pipeline


@dataclass
class CompilerOptions:
    """Configuration for one compiler instance."""

    opt_level: str = "O2"
    stateful: bool = False
    policy: SkipPolicy = SkipPolicy.FINE_GRAINED
    fingerprint_mode: str = "canonical"
    #: Verify IR after every pass (testing only; large slowdown).
    verify_each: bool = False
    #: Verify the final module before codegen.
    verify_output: bool = True

    @property
    def object_options(self) -> str:
        """The options an object file depends on, as the build DB records them.

        Only the optimization level: stateful and stateless compiles
        emit identical objects (property #1), and the policy,
        fingerprint mode and verification flags never change codegen.
        """
        return f"-{self.opt_level}"


@dataclass
class CompileTimings:
    """Wall-clock seconds per stage for one translation unit."""

    frontend: float = 0.0
    lowering: float = 0.0
    passes: float = 0.0
    backend: float = 0.0

    @property
    def total(self) -> float:
        return self.frontend + self.lowering + self.passes + self.backend


@dataclass
class CompileResult:
    """Everything produced by compiling one translation unit."""

    module: Module
    object_file: ObjectFile
    events: PassEventLog
    timings: CompileTimings
    headers: list[str] = field(default_factory=list)
    overhead: StatefulOverhead | None = None
    #: The pass manager's accounting for this unit (always present).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def pass_work(self) -> int:
        return self.events.total_work


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
        timings = CompileTimings()
        unit_start = time.perf_counter()

        start = time.perf_counter()
        unit = self.resolver.resolve(name, text)
        sema = analyze(unit.merged)
        timings.frontend = time.perf_counter() - start
        self.tracer.add("frontend", "phase", start, timings.frontend, unit=name)

        start = time.perf_counter()
        module = lower_program(unit.merged, sema, name)
        timings.lowering = time.perf_counter() - start
        self.tracer.add("lowering", "phase", start, timings.lowering, unit=name)

        manager = self._make_pass_manager()
        start = time.perf_counter()
        events = manager.run(module)
        timings.passes = time.perf_counter() - start
        self.tracer.add("passes", "phase", start, timings.passes, unit=name)

        if self.options.verify_output:
            verify_module(module)

        start = time.perf_counter()
        object_file = compile_module_to_object(module)
        timings.backend = time.perf_counter() - start
        self.tracer.add("backend", "phase", start, timings.backend, unit=name)
        self.tracer.add(
            name, "unit", unit_start, time.perf_counter() - unit_start
        )

        metrics = manager.metrics
        metrics.observe("compile.frontend_time", timings.frontend)
        metrics.observe("compile.lowering_time", timings.lowering)
        metrics.observe("compile.passes_time", timings.passes)
        metrics.observe("compile.backend_time", timings.backend)

        overhead = manager.overhead if isinstance(manager, StatefulPassManager) else None
        return CompileResult(
            module=module,
            object_file=object_file,
            events=events,
            timings=timings,
            headers=list(unit.headers),
            overhead=overhead,
            metrics=metrics,
        )

    def compile_file(self, path: str) -> CompileResult:
        """Compile a translation unit read through the file provider."""
        return self.compile_source(path, self.provider.read(path))
