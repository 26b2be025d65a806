"""Parallel compilation of dirty translation units (``reprobuild -j``).

The make/ninja lever the serial driver left on the table: once the
scheduler knows which units are dirty, their compilations are
independent *except* for the shared :class:`~repro.core.state.CompilerState`.
This module runs them on a :mod:`concurrent.futures` worker pool and
keeps statefulness safe with the snapshot/delta protocol:

1. the build driver advances the live state one build tick and hands
   it to the pool; the workers fork with their own copy of it, and the
   driver changes nothing in it until every outcome is back;
2. every worker compiles each of its units against a
   :meth:`~repro.core.state.CompilerState.snapshot` of that state (a
   shallow copy: records are immutable), tracking the dormancy records
   it creates or refreshes;
3. each unit's result travels back as a picklable :class:`UnitOutcome`
   carrying the object JSON, the bypass statistics, and a
   :class:`~repro.core.state.StateDelta`;
4. the driver merges deltas into the live state in translation-unit
   order — deterministic regardless of completion order.

Workers are processes, one compiler per unit as with ``make -j``: the
compiler is CPU-bound Python, so only processes run it in parallel.
``jobs=1`` takes the builder's serial loop instead.  A process pool
that cannot start or breaks (no fork in a sandbox, a killed worker)
logs a warning and :func:`compile_units` returns ``None``; the builder
then compiles the same units in that serial loop.

Workers return *data*, not exceptions: a failed unit comes back as an
outcome with diagnostics attached (``CompileError`` does not survive
pickling faithfully), and the driver re-raises for the earliest failed
unit in schedule order so parallel error reporting is deterministic too.
"""

from __future__ import annotations

import logging
import os
import time
from typing import TYPE_CHECKING

from repro._struct import Struct
from repro.core.state import CompilerState, StateDelta
from repro.core.statistics import BypassStatistics
from repro.frontend.diagnostics import CompileError, Diagnostic
from repro.frontend.includes import FileProvider, IncludeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.options import CompilerOptions

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Executor

    from repro.driver import CompileResult

logger = logging.getLogger(__name__)

#: Environment override for the default job count, honored when a
#: caller does not pass explicit :class:`BuildOptions` (the CI matrix
#: uses it to run the whole suite at ``-j 4``).
JOBS_ENV_VAR = "REPRO_BUILD_JOBS"

#: A unit's last object JSON and the memo keys of the compile that made
#: it, or ``None``: what the memo policy reuses machine code from.
Previous = tuple[str, dict[str, str]] | None


class BuildOptions(Struct):
    """Build-system knobs, as opposed to per-compiler :class:`CompilerOptions`.

    ``jobs=None`` means "use every core" (``os.cpu_count()``); the
    library default is an explicit 1 so programmatic callers keep the
    serial behavior unless they opt in, while the CLI opts in for them.
    """

    _fields = ("jobs",)

    def __init__(self, jobs: int | None = 1) -> None:
        #: Maximum concurrent unit compilations; ``None`` = CPU count.
        self.jobs = jobs

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


class UnitOutcome(Struct):
    """One unit's compilation result in picklable, mergeable form.

    Everything the build driver needs and nothing it doesn't: the
    object file as JSON (the same representation the build DB caches),
    the folded bypass table instead of the pass ledger's rows, and the
    state delta instead of a whole mutated state.
    """

    _fields = (
        "path", "object_json", "symbols", "stats", "pass_work", "wall_time", "fingerprint_time",
        "fingerprint_count", "delta", "worker", "metrics", "spans", "epoch_wall",
        "error_kind", "error_message", "diagnostics", "memo", "functions_reused",
    )

    def __init__(
        self,
        path: str,
        object_json: str = "",
        symbols: dict | None = None,
        stats: BypassStatistics | None = None,
        pass_work: int = 0,
        wall_time: float = 0.0,
        fingerprint_time: float = 0.0,
        fingerprint_count: int = 0,
        delta: StateDelta | None = None,
        worker: str = "main",
        metrics: MetricsRegistry | None = None,
        spans: list[SpanRecord] | None = None,
        epoch_wall: float = 0.0,
        error_kind: str | None = None,
        error_message: str = "",
        diagnostics: list[Diagnostic] | None = None,
        memo: dict[str, str] | None = None,
        functions_reused: int = 0,
    ) -> None:
        self.path = path
        self.object_json = object_json
        #: The object's link interface, computed beside its JSON.
        self.symbols = symbols
        self.stats = BypassStatistics() if stats is None else stats
        self.pass_work = pass_work
        self.wall_time = wall_time
        self.fingerprint_time = fingerprint_time
        self.fingerprint_count = fingerprint_count
        self.delta = delta
        #: Which worker compiled it: "main" (in-process) or "pid-<n>".
        self.worker = worker
        #: The unit's metrics registry, merged into the build's by the driver.
        self.metrics = metrics
        #: Trace spans from the worker's tracer (empty unless tracing), with
        #: the wall-clock epoch the driver needs to re-base them.
        self.spans = [] if spans is None else spans
        self.epoch_wall = epoch_wall
        #: "compile" | "include" | None; diagnostics ride along for re-raise.
        self.error_kind = error_kind
        self.error_message = error_message
        self.diagnostics = [] if diagnostics is None else diagnostics
        #: The memo keys the DB records beside the object, and how many
        #: functions reused the previous object's code.
        self.memo = {} if memo is None else memo
        self.functions_reused = functions_reused

    @classmethod
    def from_result(
        cls, path: str, result: CompileResult, wall_time: float, *, worker: str = "main"
    ) -> UnitOutcome:
        """A successful compilation in the form the build DB records it.

        The object's JSON and its link interface are computed here, for
        the serial loop and the pool workers alike.
        """
        return cls(
            path=path,
            object_json=result.object_file.to_json(),
            symbols=result.object_file.link_symbols(),
            stats=result.stats,
            pass_work=result.pass_work,
            wall_time=wall_time,
            fingerprint_time=result.ledger.fingerprint_ns / 1e9,
            fingerprint_count=result.ledger.fingerprints,
            worker=worker,
            metrics=result.metrics,
            memo=result.memo_keys,
            functions_reused=len(result.reused),
        )

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
# The pool ships the (provider, options, state) triple once per worker
# process via the initializer instead of once per task.  Worker state is
# read-only: every task takes its own snapshot of it so outcomes are
# independent of which worker ran which unit.

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
    previous: Previous = None,
    worker: str = "main",
    trace: bool = False,
) -> UnitOutcome:
    """Compile one unit against a private state snapshot; never raises.

    ``state`` is the state as the build started (``None`` for stateless
    builds); the snapshot taken here is what makes the outcome
    independent of scheduling — the unit sees exactly the records that
    existed when the build started, as the snapshot/delta protocol
    promises.
    ``previous`` is the unit's last object JSON and memo keys, for the
    memo policy (``None`` = none).

    With ``trace=True`` the unit compiles under its own
    :class:`~repro.obs.trace.Tracer`; the spans (and the wall-clock
    epoch needed to re-base them) ship back inside the outcome.
    """
    from repro.driver import Compiler

    worker_state = None
    if state is not None:
        worker_state = state.snapshot()
        worker_state.begin_delta_tracking()
    tracer = Tracer(track=worker) if trace else NULL_TRACER
    compiler = Compiler(provider, options, state=worker_state, tracer=tracer)

    start = time.perf_counter()
    try:
        result = compiler.compile_file(path, previous=previous)
    except CompileError as exc:
        return UnitOutcome(
            path=path,
            worker=worker,
            error_kind="compile",
            error_message=str(exc),
            diagnostics=list(exc.diagnostics),
        )
    except IncludeError as exc:
        return UnitOutcome(
            path=path, worker=worker, error_kind="include", error_message=str(exc)
        )
    outcome = UnitOutcome.from_result(
        path, result, time.perf_counter() - start, worker=worker
    )
    if worker_state is not None:
        outcome.delta = worker_state.extract_delta()
    if trace:
        outcome.spans = tracer.spans
        outcome.epoch_wall = tracer.epoch_wall
    return outcome


def _compile_unit_task(path: str, previous: Previous) -> UnitOutcome:
    """Pool entry point: compile ``path`` using the worker context."""
    return compile_unit(
        _WORKER_CONTEXT["provider"],
        _WORKER_CONTEXT["options"],
        _WORKER_CONTEXT["state"],
        path,
        previous=previous,
        worker=f"pid-{os.getpid()}",
        trace=_WORKER_CONTEXT.get("trace", False),
    )


# -- the driver side ---------------------------------------------------------


def _make_pool(jobs: int, initargs: tuple) -> Executor:
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=initargs
    )


def _run_pool(
    jobs: int, initargs: tuple, paths: list[str], previous: dict[str, Previous]
) -> dict[str, UnitOutcome]:
    from concurrent.futures import as_completed

    outcomes: dict[str, UnitOutcome] = {}
    with _make_pool(jobs, initargs) as pool:
        futures = {
            pool.submit(_compile_unit_task, path, previous.get(path)): path
            for path in paths
        }
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
    previous: dict[str, Previous] | None = None,
) -> dict[str, UnitOutcome] | None:
    """Compile ``paths`` on a process pool; returns outcomes keyed by path.

    ``state`` is the live state (``None`` for stateless builds); the
    caller must not change it until this returns.  ``previous`` maps a
    unit to its last object JSON and memo keys (units without one are
    absent); each task carries its own.

    Failed units are present with diagnostics attached; units abandoned
    after a failure are absent.  A pool that cannot start or dies (no
    fork in the sandbox, a killed worker) logs a warning and returns
    ``None``: the caller compiles the units itself — compilation is
    deterministic and nothing has been merged yet, so a full retry is
    safe.
    """
    from concurrent.futures import BrokenExecutor

    previous = {} if previous is None else previous
    try:
        return _run_pool(jobs, (provider, options, state, trace), paths, previous)
    except (BrokenExecutor, OSError) as exc:
        logger.warning("process pool unavailable (%s); compiling serially", exc)
        return None
