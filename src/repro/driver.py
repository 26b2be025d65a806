"""Compiler driver: source text -> object file, stateless or stateful.

This is the programmatic equivalent of invoking ``reproc``: it runs the
frontend, lowering, the (possibly stateful) pass pipeline, and the
backend, returning the object file plus the pass ledger the build
system and experiments consume.  Stage durations go to the tracer as
``phase`` spans.

Under the memo policy the caller hands in the unit's previous object
and the memo keys of the compile that made it; functions whose keys
still match skip the pass pipeline and code generation, and the
backend copies their machine code from that object.  A memo compiler
carries no dormancy state (:attr:`Compiler.state` is ``None``).
"""

from __future__ import annotations

import time

import repro.backend
from repro._struct import Struct
from repro.backend.objfile import ObjectFile, compile_module_to_object
from repro.core.state import CompilerState, pipeline_signature_of
from repro.core.stateful import MemoPassManager, StatefulPassManager
from repro.core.statistics import BypassStatistics
from repro.frontend.includes import FileProvider, IncludeResolver
from repro.frontend.sema import analyze
from repro.ir.fingerprint import stable_hash
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


class CompileResult(Struct):
    """Everything produced by compiling one translation unit."""

    _fields = (
        "module", "object_file", "ledger", "stats", "headers", "metrics", "memo_keys",
        "reused",
    )

    def __init__(
        self,
        module: Module,
        object_file: ObjectFile,
        ledger: PassLedger,
        stats: BypassStatistics,
        headers: list[str] | None = None,
        metrics: MetricsRegistry | None = None,
        memo_keys: dict[str, str] | None = None,
        reused: list[str] | None = None,
    ) -> None:
        #: The IR after the pipeline; a reused function is left as it
        #: entered the pipeline.
        self.module = module
        self.object_file = object_file
        #: Every pass run of this unit and its state traffic.
        self.ledger = ledger
        #: The ledger's function-pass rows folded into the bypass table.
        self.stats = stats
        self.headers = [] if headers is None else headers
        #: This unit's counters, published from the ledger.
        self.metrics = MetricsRegistry() if metrics is None else metrics
        #: Memo policy: every defined function's memo key (empty otherwise).
        self.memo_keys = {} if memo_keys is None else memo_keys
        #: Memo policy: the functions whose machine code was reused.
        self.reused = [] if reused is None else reused

    @property
    def pass_work(self) -> int:
        return self.ledger.work


class Compiler:
    """A compiler instance, optionally stateful.

    One instance per build: under the fine and coarse policies the
    stateful variant carries a :class:`CompilerState` that callers load
    before and save after the build (the build system does this); under
    the memo policy it carries none.
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
        if self.options.keeps_state:
            self.state = state or CompilerState(
                pipeline_signature=pipeline_signature_of(self.pipeline),
                fingerprint_mode=self.options.fingerprint_mode,
            )
        else:
            self.state = None

    @property
    def pipeline_signature(self) -> str:
        return pipeline_signature_of(self.pipeline)

    @property
    def memo_context(self) -> str:
        """What every memo key of this compiler shares: a digest of the
        pipeline signature, the object options and the backend version."""
        return stable_hash(
            f"{self.pipeline_signature}\0{self.options.object_options}"
            f"\0backend@{repro.backend.VERSION}"
        )

    def _make_pass_manager(self, previous_keys: dict[str, str] | None = None) -> PassManager:
        pipeline = build_pipeline(self.options.opt_level)
        common = {"verify_each": self.options.verify_each, "tracer": self.tracer}
        if self.state is not None:
            return StatefulPassManager(
                pipeline, self.state, policy=self.options.policy, **common
            )
        if self.options.stateful:
            return MemoPassManager(
                pipeline,
                memo_context=self.memo_context,
                previous_keys=previous_keys,
                fingerprint_mode=self.options.fingerprint_mode,
                **common,
            )
        return PassManager(pipeline, **common)

    def compile_source(
        self, name: str, text: str, *, previous: tuple[str, dict[str, str]] | None = None
    ) -> CompileResult:
        """Compile one translation unit's text to an object file.

        ``previous`` is the object JSON of the unit's last successful
        compile and that compile's memo keys; only the memo policy
        reads it.
        """
        tracer = self.tracer
        unit_start = time.perf_counter()

        start = time.perf_counter()
        unit = self.resolver.resolve(name, text)
        sema = analyze(unit.merged)
        tracer.add("frontend", "phase", start, time.perf_counter() - start, unit=name)

        start = time.perf_counter()
        module = lower_program(unit.merged, sema, name)
        tracer.add("lowering", "phase", start, time.perf_counter() - start, unit=name)

        previous_object, previous_keys = previous or ("", None)
        manager = self._make_pass_manager(previous_keys)
        start = time.perf_counter()
        ledger = manager.run(module)
        tracer.add("passes", "phase", start, time.perf_counter() - start, unit=name)
        memo_keys, reused = manager.memo_keys, manager.reused

        # A reused function's IR never reaches the backend.
        verify_module(module, skip=reused)

        start = time.perf_counter()
        object_file = compile_module_to_object(
            module, previous_object=previous_object, reuse=reused
        )
        tracer.add("backend", "phase", start, time.perf_counter() - start, unit=name)
        tracer.add(name, "unit", unit_start, time.perf_counter() - unit_start)

        stats = BypassStatistics.from_ledger(ledger)
        metrics = MetricsRegistry()
        counters = [
            ("passes.executed", stats.executions),
            ("passes.work", stats.work_executed),
            ("passes.bypassed", stats.bypassed),
        ]
        if self.state is not None:
            counters += [
                ("state.lookups", ledger.lookups),
                ("state.records_refreshed", ledger.hits),
                ("state.records_written", ledger.records_written),
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
            memo_keys=memo_keys,
            reused=reused,
        )

    def compile_file(
        self, path: str, *, previous: tuple[str, dict[str, str]] | None = None
    ) -> CompileResult:
        """Compile a translation unit read through the file provider."""
        return self.compile_source(path, self.provider.read(path), previous=previous)
