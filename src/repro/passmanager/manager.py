"""Pass manager: executes a pipeline over a module, keeping a ledger.

This is the *stateless* manager — every pass runs on every function,
exactly what a conventional compiler does.  The stateful variant
(:class:`repro.core.stateful.StatefulPassManager`) subclasses this and
overrides its decision points :meth:`reuses`, :meth:`should_skip` and
:meth:`on_pass_executed`.

Accounting: each scheduled pass appends one row to the manager's
:class:`~repro.passmanager.ledger.PassLedger` — the one record every
pass statistic, counter and figure is derived from.  With a
:class:`~repro.obs.trace.Tracer` enabled, each executed pass and each
function pipeline also becomes a span; with the default null tracer
the manager makes no tracer call at all.
"""

from __future__ import annotations

import logging
import time

from repro.ir.structure import Function, Module
from repro.ir.verifier import verify_module
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passmanager.ledger import (
    BYPASSED,
    CHANGED,
    DORMANT,
    PRELUDE_POSITION,
    PassLedger,
    PassRun,
)
from repro.passmanager.pipeline import PassPipeline

logger = logging.getLogger(__name__)


class PassManager:
    """Runs a pipeline over modules.

    Parameters
    ----------
    pipeline:
        The optimization plan.
    verify_each:
        Verify the whole module after every pass — slow; enabled in
        tests to catch pass bugs at their source.
    tracer:
        Span sink for pass/pipeline timing (default: disabled).
    """

    def __init__(
        self,
        pipeline: PassPipeline,
        *,
        verify_each: bool = False,
        tracer: NullTracer = NULL_TRACER,
    ):
        self.pipeline = pipeline
        self.verify_each = verify_each
        self.tracer = tracer
        self.ledger = PassLedger()
        #: Each function's memo key, and the functions :meth:`reuses`
        #: skipped; only the memo policy fills them.
        self.memo_keys: dict[str, str] = {}
        self.reused: list[str] = []

    # -- hooks the stateful subclass overrides -----------------------------

    def begin_function(self, fn: Function, module: Module) -> None:
        """Called before the function pipeline starts on ``fn``."""

    def reuses(self, fn: Function, module: Module) -> bool:
        """Decide whether ``fn`` skips its whole pipeline (its machine
        code is reused); called after :meth:`begin_function`."""
        return False

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        """Decide whether to bypass the pass at ``position`` for ``fn``."""
        return False

    def on_pass_executed(
        self, fn: Function, module: Module, position: int, changed: bool
    ) -> None:
        """Called after the pass at ``position`` ran on ``fn``."""

    def end_function(self, fn: Function, module: Module) -> None:
        """Called after the function pipeline finishes on ``fn``."""

    # -- execution -----------------------------------------------------------

    def run(self, module: Module) -> PassLedger:
        """Run prelude + function pipeline over ``module``."""
        runs = self.ledger.runs
        for module_pass in self.pipeline.module_prelude:
            start = time.perf_counter_ns()
            stats = module_pass.run_on_module(module)
            ns = time.perf_counter_ns() - start
            runs.append(PassRun(
                "<module>", PRELUDE_POSITION, module_pass.name,
                CHANGED if stats.changed else DORMANT, stats.work, ns,
            ))
            if self.tracer.enabled:
                self.tracer.add(
                    module_pass.name, "pass", start / 1e9, ns / 1e9,
                    function="<module>",
                )
            if self.verify_each:
                verify_module(module)

        for fn in sorted(module.defined_functions(), key=lambda f: f.name):
            self._run_function_pipeline(fn, module)
        logger.debug("module %s: %d pass runs", module.name, len(runs))
        return self.ledger

    def _run_function_pipeline(self, fn: Function, module: Module) -> None:
        tracing = self.tracer.enabled
        runs = self.ledger.runs
        pipeline_start = time.perf_counter() if tracing else 0.0
        self.begin_function(fn, module)
        if self.reuses(fn, module):
            if tracing:
                self.tracer.add(
                    f"reuse {fn.name}", "pipeline", pipeline_start,
                    time.perf_counter() - pipeline_start, function=fn.name,
                )
            return
        for position, function_pass in enumerate(self.pipeline.function_passes):
            if self.should_skip(fn, module, position):
                runs.append(
                    PassRun(fn.name, position, function_pass.name, BYPASSED, 0, 0)
                )
                continue
            start = time.perf_counter_ns()
            stats = function_pass.run_on_function(fn, module)
            ns = time.perf_counter_ns() - start
            self.on_pass_executed(fn, module, position, stats.changed)
            runs.append(PassRun(
                fn.name, position, function_pass.name,
                CHANGED if stats.changed else DORMANT, stats.work, ns,
            ))
            if tracing:
                self.tracer.add(
                    function_pass.name, "pass", start / 1e9, ns / 1e9,
                    function=fn.name, changed=stats.changed, work=stats.work,
                )
            if self.verify_each:
                verify_module(module)
        self.end_function(fn, module)
        if tracing:
            self.tracer.add(
                f"pipeline {fn.name}",
                "pipeline",
                pipeline_start,
                time.perf_counter() - pipeline_start,
                function=fn.name,
            )
