"""Compilation of dirty translation units, in process or on a pool (``reprobuild -j``).

Once the scheduler knows which units are dirty, their compilations are
independent *except* for the shared :class:`~repro.core.state.CompilerState`.
Every build compiles them with one protocol, whatever its ``-j``:

1. the build driver advances the live state one build tick; nothing
   changes it until every unit is compiled;
2. :func:`compile_unit` compiles each unit on its process's one
   :class:`~repro.driver.Compiler` against a
   :meth:`~repro.core.state.CompilerState.snapshot` of that state (it
   shares the record table and starts with an empty overlay), so every
   unit sees exactly the records that existed when the build started;
3. each unit's result is a picklable :class:`UnitOutcome` carrying the
   object JSON deflated as the build DB stores it (so pool workers
   deflate in parallel and ship the smaller form), the bypass
   statistics, and the snapshot's overlay as a
   :class:`~repro.core.state.StateDelta`;
4. the driver merges the successful outcomes in translation-unit order
   and re-raises the earliest failure, so the build's result follows
   from its inputs, not from its schedule.

``jobs=1`` compiles the units in order in this process, on the build's
compiler, and stops at the first failure.  ``jobs > 1`` runs them on a
process pool — the compiler is CPU-bound Python, so only processes run
it in parallel — whose workers each build one compiler from the
picklable ``(provider, options)`` and inherit the live state through
the fork.  A pool that cannot start or breaks (no fork in a sandbox, a
killed worker) has merged nothing: it logs a warning and the same
units compile in process.

Outcomes are *data*, not exceptions: a failed unit comes back as an
outcome with diagnostics attached (``CompileError`` does not survive
pickling faithfully), and :meth:`UnitOutcome.exception` rebuilds it.
"""

from __future__ import annotations

import logging
import os
import time
from typing import TYPE_CHECKING

from repro._struct import Struct
from repro.buildsys.builddb import deflate
from repro.buildsys.deps import content_digest
from repro.core.state import CompilerState, StateDelta
from repro.core.statistics import BypassStatistics
from repro.frontend.diagnostics import CompileError, Diagnostic
from repro.frontend.includes import FileProvider, IncludeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.options import CompilerOptions

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Executor

    from repro.driver import CompileResult, Compiler

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
    object file's JSON deflated and its digest (the representation the
    build DB stores), the folded bypass table instead of the pass
    ledger's rows, and the state delta instead of a whole mutated state.
    An in-process compile also keeps the decoded object
    (:attr:`object_file`), so a link needs no decode; a pool worker
    drops it before the outcome is pickled.
    """

    _fields = (
        "path", "object_blob", "object_digest", "symbols", "stats", "pass_work", "wall_time",
        "fingerprint_time", "fingerprint_count", "delta", "worker", "metrics", "spans",
        "epoch_wall", "error_kind", "error_message", "diagnostics", "memo", "functions_reused",
    )

    def __init__(
        self,
        path: str,
        object_blob: bytes = b"",
        object_digest: str = "",
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
        #: The object's JSON, deflated (:func:`~repro.buildsys.builddb.deflate`).
        self.object_blob = object_blob
        #: Content digest of the object's JSON.
        self.object_digest = object_digest
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
        #: The decoded object, or ``None`` (not a field: it is the blob's twin).
        self.object_file = None

    @classmethod
    def from_result(
        cls, path: str, result: CompileResult, wall_time: float, *, worker: str = "main"
    ) -> UnitOutcome:
        """A successful compilation in the form the build DB records it.

        The object's JSON, deflated, its digest and its link interface
        are computed here, in process and on pool workers alike.
        """
        object_json = result.object_file.to_json()
        outcome = cls(
            path=path,
            object_blob=deflate(object_json),
            object_digest=content_digest(object_json),
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
        outcome.object_file = result.object_file
        return outcome

    @property
    def failed(self) -> bool:
        return self.error_kind is not None

    def exception(self) -> CompileError | IncludeError:
        """The recorded failure, rebuilt as the original exception type."""
        if self.error_kind == "include":
            return IncludeError(self.error_message)
        return CompileError(self.diagnostics)


def compile_unit(
    compiler: Compiler, path: str, *, previous: Previous = None, worker: str = "main"
) -> UnitOutcome:
    """Compile one unit against a snapshot of ``compiler.state``; never raises.

    The only way a build compiles a unit, in process and on pool workers
    alike.  ``compiler.state`` is the state as the build started
    (``None`` for stateless and memo builds); the unit compiles against
    a snapshot of it and the outcome carries what the snapshot wrote,
    so it does not depend on which units compiled before it.
    ``previous`` is the unit's last object JSON and memo keys, for the
    memo policy (``None`` = none).
    """
    state = compiler.state
    snapshot = compiler.state = None if state is None else state.snapshot()
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
    finally:
        compiler.state = state
    outcome = UnitOutcome.from_result(
        path, result, time.perf_counter() - start, worker=worker
    )
    if snapshot is not None:
        outcome.delta = snapshot.delta()
    return outcome


# -- the pool: worker side ---------------------------------------------------
#
# Each worker process builds its one compiler in the initializer, from
# the picklable (provider, options) and the live state it inherits, and
# keeps it, header cache included, for every unit it compiles.

_WORKER: dict = {}


def _init_worker(
    provider: FileProvider,
    options: CompilerOptions,
    state: CompilerState | None,
    trace: bool = False,
) -> None:
    from repro.driver import Compiler

    name = f"pid-{os.getpid()}"
    tracer = Tracer(track=name) if trace else NULL_TRACER
    _WORKER["compiler"] = Compiler(provider, options, state=state, tracer=tracer)
    _WORKER["name"] = name


def _compile_unit_task(path: str, previous: Previous) -> UnitOutcome:
    """Pool entry point: compile ``path`` on the worker's compiler.

    The unit's spans (and the wall-clock epoch needed to re-base them)
    ship back inside the outcome; the decoded object does not.
    """
    compiler = _WORKER["compiler"]
    outcome = compile_unit(compiler, path, previous=previous, worker=_WORKER["name"])
    outcome.object_file = None
    tracer = compiler.tracer
    if tracer.enabled:
        outcome.spans = list(tracer.spans)
        outcome.epoch_wall = tracer.epoch_wall
        tracer.spans.clear()
    return outcome


# -- the pool: driver side ---------------------------------------------------


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
                # Fail fast as -j 1 does: units already running
                # finish (and are recorded), queued ones are abandoned.
                for other in futures:
                    other.cancel()
    return outcomes


def compile_units(
    compiler: Compiler,
    paths: list[str],
    *,
    jobs: int,
    previous: dict[str, Previous] | None = None,
) -> dict[str, UnitOutcome]:
    """Compile ``paths`` with :func:`compile_unit`; returns outcomes keyed by path.

    ``compiler`` is the build's; its state is the live state, which the
    caller must not change until this returns.  ``previous`` maps a unit
    to its last object JSON and memo keys (units without one are
    absent).  ``jobs > 1`` runs a process pool of that many workers.

    Failed units are present with diagnostics attached; units abandoned
    after a failure are absent.  A pool that cannot start or dies logs a
    warning, and the units compile in process instead: compilation is
    deterministic and nothing has been merged yet, so a full retry is
    safe.
    """
    previous = {} if previous is None else previous
    if jobs > 1:
        from concurrent.futures import BrokenExecutor

        initargs = (compiler.provider, compiler.options, compiler.state, compiler.tracer.enabled)
        try:
            return _run_pool(jobs, initargs, paths, previous)
        except (BrokenExecutor, OSError) as exc:
            logger.warning("process pool unavailable (%s); compiling serially", exc)
    outcomes: dict[str, UnitOutcome] = {}
    for path in paths:
        outcome = outcomes[path] = compile_unit(compiler, path, previous=previous.get(path))
        if outcome.failed:
            break
    return outcomes
