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

Executors: ``process`` (the default; real CPU parallelism for this
CPU-bound compiler), ``thread`` (no pickling, used automatically as a
fallback when process pools are unavailable — e.g. sandboxes without
fork), and ``serial`` (force the classic in-process loop).  ``jobs=1``
always takes the serial path and is behavior-identical to the
pre-parallel builder.

Workers return *data*, not exceptions: a failed unit comes back as an
outcome with diagnostics attached (``CompileError`` does not survive
pickling faithfully), and the driver re-raises for the earliest failed
unit in schedule order so parallel error reporting is deterministic too.
"""

from __future__ import annotations

import os
import threading
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

#: Environment override for the default job count, honored when a
#: caller does not pass explicit :class:`BuildOptions` (the CI matrix
#: uses it to run the whole suite at ``-j 4``).
JOBS_ENV_VAR = "REPRO_BUILD_JOBS"
EXECUTOR_ENV_VAR = "REPRO_BUILD_EXECUTOR"

_EXECUTORS = ("process", "thread", "serial")


@dataclass
class BuildOptions:
    """Build-system knobs, as opposed to per-compiler :class:`CompilerOptions`.

    ``jobs=None`` means "use every core" (``os.cpu_count()``); the
    library default is an explicit 1 so programmatic callers keep the
    serial behavior unless they opt in, while the CLI opts in for them.
    """

    #: Maximum concurrent unit compilations; ``None`` = CPU count.
    jobs: int | None = 1
    #: ``process`` | ``thread`` | ``serial``.
    executor: str = "process"

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; options: {_EXECUTORS}"
            )

    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return os.cpu_count() or 1
        return max(1, self.jobs)

    @classmethod
    def from_env(cls) -> "BuildOptions":
        """Defaults, overridable via ``REPRO_BUILD_JOBS``/``_EXECUTOR``."""
        options = cls()
        jobs = os.environ.get(JOBS_ENV_VAR)
        if jobs:
            try:
                options.jobs = int(jobs)
            except ValueError:
                pass
        executor = os.environ.get(EXECUTOR_ENV_VAR)
        if executor in _EXECUTORS:
            options.executor = executor
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
    #: Which worker compiled it: "main", "pid-<n>", or a thread name.
    worker: str = "main"
    #: The unit's metrics registry, merged into the build's by the driver.
    metrics: MetricsRegistry | None = None
    #: Callers-stripped ``cProfile`` stats table (empty unless the build
    #: runs with ``--profile``); the driver absorbs it into the
    #: ``compile-workers`` phase of the build profiler.
    profile: dict = field(default_factory=dict)
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

    def raise_error(self) -> None:
        """Re-raise the recorded failure as the original exception type."""
        if self.error_kind == "include":
            raise IncludeError(self.error_message)
        if self.error_kind == "compile":
            raise CompileError(self.diagnostics)


# -- the worker side ---------------------------------------------------------
#
# Process pools ship the (provider, options, state snapshot) triple once
# per worker via the initializer instead of once per task; threads share
# the module global directly.  Worker state is read-only: every task
# takes its own copy of the snapshot so outcomes are independent of
# which worker ran which unit.

_WORKER_CONTEXT: dict = {}


def _init_worker(
    provider: FileProvider,
    options: CompilerOptions,
    state: CompilerState | None,
    trace: bool = False,
    profile: bool = False,
) -> None:
    _WORKER_CONTEXT["provider"] = provider
    _WORKER_CONTEXT["options"] = options
    _WORKER_CONTEXT["state"] = state
    _WORKER_CONTEXT["trace"] = trace
    _WORKER_CONTEXT["profile"] = profile


def _worker_name() -> str:
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return thread.name


def compile_unit(
    provider: FileProvider,
    options: CompilerOptions,
    state: CompilerState | None,
    path: str,
    *,
    worker: str = "main",
    trace: bool = False,
    profile: bool = False,
) -> UnitOutcome:
    """Compile one unit against a private state copy; never raises.

    ``state`` is the build-wide snapshot (``None`` for stateless
    builds); the copy taken here is what makes the outcome independent
    of scheduling — the unit sees exactly the records that existed when
    the build started, as the snapshot/delta protocol promises.

    With ``trace=True`` the unit compiles under its own
    :class:`~repro.obs.trace.Tracer`; the spans (and the wall-clock
    epoch needed to re-base them) ship back inside the outcome.  With
    ``profile=True`` the compile runs under ``cProfile`` and the
    callers-stripped stats table ships back in ``outcome.profile``.
    """
    from repro.driver import Compiler

    outcome = UnitOutcome(path=path, worker=worker)
    worker_state = None
    if state is not None:
        worker_state = state.snapshot()
        worker_state.begin_delta_tracking()
    tracer = Tracer(track=worker) if trace else NULL_TRACER
    compiler = Compiler(provider, options, state=worker_state, tracer=tracer)

    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
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
    finally:
        if profiler is not None:
            profiler.disable()
    outcome.wall_time = time.perf_counter() - start
    if profiler is not None:
        from repro.obs.profiling import profile_stats_table

        outcome.profile = profile_stats_table(profiler)

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
        worker=_worker_name(),
        trace=_WORKER_CONTEXT.get("trace", False),
        profile=_WORKER_CONTEXT.get("profile", False),
    )


# -- the driver side ---------------------------------------------------------


def _make_pool(executor: str, jobs: int, initargs: tuple) -> Executor:
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    if executor == "thread":
        return ThreadPoolExecutor(
            max_workers=jobs,
            thread_name_prefix="reprobuild",
            initializer=_init_worker,
            initargs=initargs,
        )
    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=initargs
    )


def _run_pool(
    executor: str, jobs: int, initargs: tuple, paths: list[str]
) -> dict[str, UnitOutcome]:
    from concurrent.futures import as_completed

    outcomes: dict[str, UnitOutcome] = {}
    with _make_pool(executor, jobs, initargs) as pool:
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
    executor: str = "process",
    trace: bool = False,
    profile: bool = False,
) -> dict[str, UnitOutcome]:
    """Compile ``paths`` concurrently; returns outcomes keyed by path.

    Failed units are present with diagnostics attached; units abandoned
    after a failure are absent.  A process pool that cannot start or
    dies (no fork in the sandbox, unpicklable provider) degrades to a
    thread pool — compilation is deterministic and nothing has been
    merged yet, so a full retry is safe.
    """
    from concurrent.futures import BrokenExecutor

    initargs = (provider, options, state, trace, profile)
    if executor == "process":
        try:
            return _run_pool("process", jobs, initargs, paths)
        except (BrokenExecutor, OSError):
            return _run_pool("thread", jobs, initargs, paths)
    return _run_pool("thread", jobs, initargs, paths)
