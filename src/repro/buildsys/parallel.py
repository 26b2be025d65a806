"""Parallel compilation of dirty translation units (``reprobuild -j``).

The make/ninja lever the serial driver left on the table: once the
scheduler knows which units are dirty, their compilations are
independent *except* for the shared :class:`~repro.core.state.CompilerState`.
This module runs them on a :mod:`concurrent.futures` worker pool and
keeps statefulness safe with the snapshot/delta protocol:

1. the build driver advances the live state one build tick, then takes
   one read-only :meth:`~repro.core.state.CompilerState.snapshot`;
2. every worker compiles each of its units against a private copy of
   that snapshot (never the live state), tracking the dormancy records
   it creates or refreshes;
3. each unit's result travels back as a picklable :class:`UnitOutcome`
   carrying the object JSON, the bypass statistics, and a
   :class:`~repro.core.state.StateDelta`;
4. the driver merges deltas into the live state in translation-unit
   order — deterministic regardless of completion order.

Workers are processes, one compiler per unit as with ``make -j``: the
compiler is CPU-bound Python, so only processes run it in parallel.
``jobs=1`` takes the builder's serial loop instead and is
behavior-identical to the pre-parallel builder.  A process pool that
cannot start or breaks (no fork in a sandbox, a killed worker) logs a
warning and the same units compile in-process, one after another.

Workers return *data*, not exceptions: a failed unit comes back as an
outcome with diagnostics attached (``CompileError`` does not survive
pickling faithfully), and the driver re-raises for the earliest failed
unit in schedule order so parallel error reporting is deterministic too.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.state import CompilerState, StateDelta
from repro.core.statistics import BypassStatistics
from repro.frontend.diagnostics import CompileError, Diagnostic
from repro.frontend.includes import FileProvider, IncludeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.options import CompilerOptions

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Executor

logger = logging.getLogger(__name__)

#: Environment override for the default job count, honored when a
#: caller does not pass explicit :class:`BuildOptions` (the CI matrix
#: uses it to run the whole suite at ``-j 4``).
JOBS_ENV_VAR = "REPRO_BUILD_JOBS"


@dataclass
class BuildOptions:
    """Build-system knobs, as opposed to per-compiler :class:`CompilerOptions`.

    ``jobs=None`` means "use every core" (``os.cpu_count()``); the
    library default is an explicit 1 so programmatic callers keep the
    serial behavior unless they opt in, while the CLI opts in for them.
    """

    #: Maximum concurrent unit compilations; ``None`` = CPU count.
    jobs: int | None = 1

    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return os.cpu_count() or 1
        return max(1, self.jobs)

    @classmethod
    def from_env(cls) -> "BuildOptions":
        """Defaults, with the job count overridable via ``REPRO_BUILD_JOBS``.

        Like ``reprobuild -j``, the value must be a positive integer;
        anything else is logged and ignored.
        """
        options = cls()
        jobs = os.environ.get(JOBS_ENV_VAR)
        if jobs:
            try:
                value = int(jobs)
            except ValueError:
                value = 0
            if value >= 1:
                options.jobs = value
            else:
                logger.warning(
                    "ignoring %s=%r: not a positive integer", JOBS_ENV_VAR, jobs
                )
        return options


@dataclass
class UnitOutcome:
    """One unit's compilation result in picklable, mergeable form.

    Everything the build driver needs and nothing it doesn't: the
    object file as JSON (the same representation the build DB caches),
    the folded bypass table instead of the pass ledger's rows, and the
    state delta instead of a whole mutated state.
    """

    path: str
    object_json: str = ""
    stats: BypassStatistics = field(default_factory=BypassStatistics)
    pass_work: int = 0
    wall_time: float = 0.0
    fingerprint_time: float = 0.0
    fingerprint_count: int = 0
    delta: StateDelta | None = None
    #: Which worker compiled it: "main" (in-process) or "pid-<n>".
    worker: str = "main"
    #: The unit's metrics registry, merged into the build's by the driver.
    metrics: MetricsRegistry | None = None
    #: Trace spans from the worker's tracer (empty unless tracing), with
    #: the wall-clock epoch the driver needs to re-base them.
    spans: list[SpanRecord] = field(default_factory=list)
    epoch_wall: float = 0.0
    #: "compile" | "include" | None; diagnostics ride along for re-raise.
    error_kind: str | None = None
    error_message: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error_kind is not None

    def exception(self) -> CompileError | IncludeError:
        """The recorded failure, rebuilt as the original exception type."""
        if self.error_kind == "include":
            return IncludeError(self.error_message)
        return CompileError(self.diagnostics)


# -- the worker side ---------------------------------------------------------
#
# The pool ships the (provider, options, state snapshot) triple once per
# worker process via the initializer instead of once per task.  Worker
# state is read-only: every task takes its own copy of the snapshot so
# outcomes are independent of which worker ran which unit.

_WORKER_CONTEXT: dict = {}


def _init_worker(
    provider: FileProvider,
    options: CompilerOptions,
    state: CompilerState | None,
    trace: bool = False,
) -> None:
    _WORKER_CONTEXT["provider"] = provider
    _WORKER_CONTEXT["options"] = options
    _WORKER_CONTEXT["state"] = state
    _WORKER_CONTEXT["trace"] = trace


def compile_unit(
    provider: FileProvider,
    options: CompilerOptions,
    state: CompilerState | None,
    path: str,
    *,
    worker: str = "main",
    trace: bool = False,
) -> UnitOutcome:
    """Compile one unit against a private state copy; never raises.

    ``state`` is the build-wide snapshot (``None`` for stateless
    builds); the copy taken here is what makes the outcome independent
    of scheduling — the unit sees exactly the records that existed when
    the build started, as the snapshot/delta protocol promises.

    With ``trace=True`` the unit compiles under its own
    :class:`~repro.obs.trace.Tracer`; the spans (and the wall-clock
    epoch needed to re-base them) ship back inside the outcome.
    """
    from repro.driver import Compiler

    outcome = UnitOutcome(path=path, worker=worker)
    worker_state = None
    if state is not None:
        worker_state = state.snapshot()
        worker_state.begin_delta_tracking()
    tracer = Tracer(track=worker) if trace else NULL_TRACER
    compiler = Compiler(provider, options, state=worker_state, tracer=tracer)

    start = time.perf_counter()
    try:
        result = compiler.compile_file(path)
    except CompileError as exc:
        outcome.error_kind = "compile"
        outcome.error_message = str(exc)
        outcome.diagnostics = list(exc.diagnostics)
        return outcome
    except IncludeError as exc:
        outcome.error_kind = "include"
        outcome.error_message = str(exc)
        return outcome
    outcome.wall_time = time.perf_counter() - start

    outcome.object_json = result.object_file.to_json()
    outcome.stats = result.stats
    outcome.metrics = result.metrics
    outcome.pass_work = result.pass_work
    outcome.fingerprint_time = result.ledger.fingerprint_ns / 1e9
    outcome.fingerprint_count = result.ledger.fingerprints
    if worker_state is not None:
        outcome.delta = worker_state.extract_delta()
    if trace:
        outcome.spans = tracer.spans
        outcome.epoch_wall = tracer.epoch_wall
    return outcome


def _compile_unit_task(path: str) -> UnitOutcome:
    """Pool entry point: compile ``path`` using the worker context."""
    return compile_unit(
        _WORKER_CONTEXT["provider"],
        _WORKER_CONTEXT["options"],
        _WORKER_CONTEXT["state"],
        path,
        worker=f"pid-{os.getpid()}",
        trace=_WORKER_CONTEXT.get("trace", False),
    )


# -- the driver side ---------------------------------------------------------


def _make_pool(jobs: int, initargs: tuple) -> Executor:
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=initargs
    )


def _run_pool(jobs: int, initargs: tuple, paths: list[str]) -> dict[str, UnitOutcome]:
    from concurrent.futures import as_completed

    outcomes: dict[str, UnitOutcome] = {}
    with _make_pool(jobs, initargs) as pool:
        futures = {pool.submit(_compile_unit_task, path): path for path in paths}
        for future in as_completed(futures):
            if future.cancelled():
                continue
            outcome = future.result()  # raises BrokenExecutor on pool death
            outcomes[outcome.path] = outcome
            if outcome.failed:
                # Fail fast like a serial build: units already running
                # finish (and are recorded), queued ones are abandoned.
                for other in futures:
                    other.cancel()
    return outcomes


def compile_units(
    provider: FileProvider,
    options: CompilerOptions,
    state: CompilerState | None,
    paths: list[str],
    *,
    jobs: int,
    trace: bool = False,
) -> dict[str, UnitOutcome]:
    """Compile ``paths`` on a process pool; returns outcomes keyed by path.

    Failed units are present with diagnostics attached; units abandoned
    after a failure are absent.  A pool that cannot start or dies (no
    fork in the sandbox, a killed worker) degrades to compiling every
    unit in-process, in order, stopping at the first failure —
    compilation is deterministic and nothing has been merged yet, so a
    full retry is safe.
    """
    from concurrent.futures import BrokenExecutor

    try:
        return _run_pool(jobs, (provider, options, state, trace), paths)
    except (BrokenExecutor, OSError) as exc:
        logger.warning("process pool unavailable (%s); compiling serially", exc)
    outcomes: dict[str, UnitOutcome] = {}
    for path in paths:
        outcome = compile_unit(provider, options, state, path, trace=trace)
        outcomes[path] = outcome
        if outcome.failed:
            break
    return outcomes
