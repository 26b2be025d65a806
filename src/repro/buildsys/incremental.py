"""The incremental build driver: decide, compile, link.

:class:`IncrementalBuilder` is the ninja/make analogue both compiler
variants plug into.  Per build it:

1. digests every translation unit and the headers its last compile
   read, as the build database recorded them (:mod:`repro.buildsys.deps`);
2. schedules recompilation for exactly the units whose own digest or
   the digest of one of those headers changed — recording a
   :class:`~repro.buildsys.explain.RebuildReason` per unit so the
   decision is explainable afterwards (``reprobuild explain``);
3. compiles dirty units through one :class:`repro.driver.Compiler` —
   stateless or stateful per :class:`~repro.driver.CompilerOptions`
   (under the memo policy each unit gets its recorded object and memo
   keys, from which unchanged functions take their machine code), in
   process or on a worker pool (longest expected compile first) per
   :class:`~repro.buildsys.parallel.BuildOptions`, always with
   :func:`~repro.buildsys.parallel.compile_unit`: under a policy that
   keeps dormancy state each unit compiles against a snapshot of the
   state as the build started, and the driver merges the returned
   deltas in unit order, so results are the same at every ``-j``; each
   compiled unit's record lists the headers its front end read;
4. reuses cached objects for up-to-date units (inflated and decoded
   only if the build links them);
5. links everything into one runnable :class:`~repro.backend.linker.LinkedImage`
   — or, when the caller only needs the link *checked*
   (``skip_unchanged_link=True``), checks it from each unit's stored
   link interface without decoding any object, and skips even that
   when the database says these exact link inputs already linked.

Work is proportional to the edit: a build that compiles no unit never
loads the compiler state, never ticks its GC clock and stages nothing
for :meth:`BuildDatabase.save_changes` to write; its report's state
summary comes from the one the database persisted.  A memo-policy
build keeps no compiler state at all
(:attr:`~repro.options.CompilerOptions.keeps_state`): it neither reads
nor writes ``<db>.state``, and its report has no state summary.

The baseline file-level skipping (step 2/4) is deliberately identical
for both variants: the paper's mechanism is measured as the *additional*
win inside the units a competent build system already decided to
recompile.

Observability: the builder accepts a :class:`~repro.obs.trace.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry`.  Spans cover the
whole hierarchy (build → phase → unit → pass pipeline → pass); on the
worker-pool path each worker's spans travel back in its picklable
outcome and are re-based onto the driver timeline with worker
attribution.  Every layer (scanner, compiler driver, compiler state)
reports into the one registry, whose snapshot lands in
:attr:`BuildReport.metrics`; the driver publishes each unit's pass
counters from its pass ledger, on pool workers as in process.

Failure handling is transactional per unit: when a dirty unit fails to
compile, every unit that compiled successfully is still recorded in the
database (and, stateful, its records merged into the live state) before
the earliest failure in unit order propagates — a rebuild after the fix
recompiles only the broken unit.  A :class:`~repro.backend.linker.LinkError`
propagates the same way, after the database has been brought up to
date and marked as not linked.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING

from repro.backend.linker import LinkedImage, check_link, link
from repro.backend.objfile import ObjectFile
from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.deps import DependencyScanner, DependencySnapshot
from repro.buildsys.explain import rebuild_reason
from repro.buildsys.parallel import BuildOptions, Previous, UnitOutcome, compile_units
from repro.buildsys.report import BuildReport, UnitBuildResult
from repro.core.policies import SkipPolicy
from repro.core.statistics import BypassStatistics
from repro.frontend.includes import FileProvider
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.options import CompilerOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.driver import Compiler

logger = logging.getLogger(__name__)


class IncrementalBuilder:
    """Builds one project tree incrementally against a build database.

    A builder instance is one build invocation; the durable artifact is
    the :class:`BuildDatabase`, which callers keep (in memory or via
    ``save``/``load``) across invocations exactly like a developer's
    build directory.
    """

    def __init__(
        self,
        provider: FileProvider,
        unit_paths: list[str],
        options: CompilerOptions | None = None,
        db: BuildDatabase | None = None,
        build_options: BuildOptions | None = None,
        *,
        tracer: NullTracer = NULL_TRACER,
        metrics: MetricsRegistry | None = None,
    ):
        self.provider = provider
        self.unit_paths = list(unit_paths)
        self.options = options or CompilerOptions()
        self.db = db if db is not None else BuildDatabase()
        self.build_options = (
            build_options if build_options is not None else BuildOptions.from_env()
        )
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- memo inputs --------------------------------------------------------

    def _previous(self, path: str) -> Previous:
        """What the memo policy reuses for ``path``: its recorded object
        and memo keys (``None`` without either, or under another policy)."""
        record = self.db.units.get(path)
        if (
            record is None
            or not record.memo
            or not self.options.stateful
            or self.options.policy is not SkipPolicy.MEMO
        ):
            return None
        return record.object_json, record.memo

    # -- the build ----------------------------------------------------------

    def build(
        self, *, link_output: bool = True, skip_unchanged_link: bool = False
    ) -> BuildReport:
        """Run one incremental build; returns the :class:`BuildReport`.

        ``link_output=False`` never links.  ``skip_unchanged_link=True``
        is for callers that need the link checked but not the image: the
        build checks symbol resolution from the units' stored link
        interfaces (:attr:`~repro.buildsys.builddb.UnitRecord.symbols`), or not at all
        when the DB says these exact link inputs last linked
        successfully; it never decodes an object or links, and
        ``report.image`` is ``None``.

        Raises :class:`repro.frontend.diagnostics.CompileError` (or
        :class:`repro.frontend.includes.IncludeError`) if a dirty unit
        fails to compile, and :class:`repro.backend.linker.LinkError` if
        the link fails; the database keeps its previous records plus
        the records of every unit that did compile, so a later build
        after the fix is still incremental.
        """
        build_start = time.perf_counter()
        report = BuildReport()

        scan_start = time.perf_counter()
        scanner, records = DependencyScanner(self.provider), self.db.units
        snapshots = {
            path: scanner.snapshot(path, records[path].dep_digests if path in records else ())
            for path in self.unit_paths
        }
        report.scan_time = time.perf_counter() - scan_start
        self.tracer.add("scan", "phase", scan_start, report.scan_time)

        options = self.options.object_options
        dirty: list[str] = []
        for path in self.unit_paths:
            reason = rebuild_reason(self.db.units.get(path), snapshots[path], options)
            report.reasons[path] = reason
            if reason.is_up_to_date:
                report.up_to_date.append(path)
            else:
                dirty.append(path)
        logger.info(
            "build: %d units, %d dirty, %d up-to-date",
            len(self.unit_paths),
            len(dirty),
            len(report.up_to_date),
        )

        # The compiler (front end, 18-pass pipeline, backend) is imported
        # and built only when there is something to compile.  A -j N
        # build imports it here, before the pool forks, so workers
        # inherit it instead of importing it each.  Only such a build
        # loads the state and ticks its GC clock; the compiler adopts it
        # only if it was recorded under the same pipeline and fingerprint
        # mode (not after an -O change), else its fresh state replaces it.
        compiler = None
        stateful = self.options.keeps_state and bool(dirty)
        if dirty:
            from repro.driver import Compiler

            compiler = Compiler(
                self.provider,
                self.options,
                state=self.db.live_state if stateful else None,
                tracer=self.tracer,
            )
        if stateful:
            self.db.live_state = compiler.state
            compiler.state.begin_build()

        jobs = min(self.build_options.resolved_jobs(), max(1, len(dirty)))
        report.jobs = jobs
        self.metrics.set_gauge("build.units", len(self.unit_paths))
        self.metrics.set_gauge("build.dirty", len(dirty))
        self.metrics.set_gauge("build.up_to_date", len(report.up_to_date))
        self.metrics.set_gauge("build.jobs", jobs)

        if self.options.stateful and self.options.policy is SkipPolicy.MEMO:
            report.memo = {"functions_reused": 0, "functions_compiled": 0}
        objects: dict[str, ObjectFile] = {}
        phase_start = time.perf_counter()
        error = self._compile(compiler, snapshots, dirty, report, objects, jobs)
        report.compile_phase_time = time.perf_counter() - phase_start
        if dirty:
            self.tracer.add("compile", "phase", phase_start, report.compile_phase_time)

        if stateful:
            if error is None:
                gc_start = time.perf_counter()
                compiler.state.collect_garbage()
                if self.tracer.enabled:
                    self.tracer.add(
                        "state-gc", "phase", gc_start, time.perf_counter() - gc_start
                    )
            self.db.stage_state()
        if self.options.keeps_state and self.db.state_summary is not None:
            report.state = dict(self.db.state_summary)

        if error is not None:
            report.metrics = self.metrics.to_dict()
            raise error

        self.db.prune(self.unit_paths)

        if link_output:
            key = self.db.link_key(self.unit_paths)
            if skip_unchanged_link and key == self.db.linked:
                self.metrics.inc("build.links_skipped")
            else:
                start = time.perf_counter()
                if key != self.db.linked:
                    self.db.mark_linked(None)  # not linked until it succeeds
                if skip_unchanged_link:
                    check_link([self.db.units[path].symbols for path in self.unit_paths])
                    report.was_linked = True
                else:
                    report.image = self._link(objects)
                self.db.mark_linked(key)
                report.link_time = time.perf_counter() - start
                self.tracer.add("link", "phase", start, report.link_time)

        report.total_wall_time = time.perf_counter() - build_start
        self.tracer.add(
            "build",
            "build",
            build_start,
            report.total_wall_time,
            units=len(self.unit_paths),
            recompiled=report.num_recompiled,
            jobs=jobs,
        )
        report.metrics = self.metrics.to_dict()
        return report

    # -- compiling ----------------------------------------------------------

    def _expected_cost(self, path: str) -> tuple[bool, float]:
        """How long ``path`` should take to compile, for longest-first
        submission to the pool: its last compile's wall time or, for a
        unit without one, its source length; the latter sort first."""
        record = self.db.units.get(path)
        if record is not None and record.wall_time > 0:
            return False, record.wall_time
        return True, len(self.provider.read(path)) if self.provider.exists(path) else 0

    def _compile(
        self,
        compiler: Compiler | None,
        snapshots: dict[str, DependencySnapshot],
        dirty: list[str],
        report: BuildReport,
        objects: dict[str, ObjectFile],
        jobs: int,
    ) -> Exception | None:
        """Compile ``dirty`` and fold the outcomes in translation-unit order.

        Every unit compiles against the live state as the build started,
        which nothing changes until all outcomes are back, so object
        records, report entries and state merges do not depend on the
        schedule.  Returns the earliest failure instead of raising so
        the caller can finish the database bookkeeping first.
        ``compiler`` is ``None`` exactly when ``dirty`` is empty.
        """
        if not dirty:
            return None
        outcomes = compile_units(
            compiler,
            dirty,
            jobs=jobs,
            previous={path: self._previous(path) for path in dirty},
            costs={path: self._expected_cost(path) for path in dirty} if jobs > 1 else None,
        )
        error: Exception | None = None
        for path in dirty:
            outcome = outcomes.get(path)
            if outcome is None:  # abandoned after an earlier unit failed
                continue
            if outcome.failed:
                if error is None:  # earliest failure in unit order wins
                    error = outcome.exception()
                continue
            if outcome.object_file is not None:
                objects[path] = outcome.object_file
            self._merge_outcome(outcome, snapshots[path], report, compiler)
        return error

    def _merge_outcome(
        self,
        outcome: UnitOutcome,
        snapshot: DependencySnapshot,
        report: BuildReport,
        compiler: Compiler,
    ) -> None:
        """Fold one successful outcome into the build products."""
        report.bypass.merge(outcome.stats)
        if report.memo:
            report.memo["functions_reused"] += outcome.functions_reused
            report.memo["functions_compiled"] += len(outcome.memo) - outcome.functions_reused
        if outcome.metrics is not None:
            self.metrics.merge(outcome.metrics)
        if outcome.spans:
            # Re-base the worker's spans onto the driver timeline; the
            # worker name attributes them to their own track.
            self.tracer.absorb(
                outcome.spans, outcome.epoch_wall, track=outcome.worker
            )
        report.compiled.append(
            UnitBuildResult(
                path=outcome.path,
                wall_time=outcome.wall_time,
                pass_work=outcome.pass_work,
                stats=outcome.stats,
                fingerprint_time=outcome.fingerprint_time,
                fingerprint_count=outcome.fingerprint_count,
                worker=outcome.worker,
            )
        )
        # No decode here: _link inflates and decodes the recorded
        # object only if it links.  The record's dependencies are the
        # headers this compile read.
        self.db.record_unit(
            DependencySnapshot(outcome.path, snapshot.source_digest, outcome.headers),
            object_blob=outcome.object_blob,
            object_digest=outcome.object_digest,
            options=self.options.object_options,
            stats=outcome.stats.counts(),
            wall_time=outcome.wall_time,
            worker=outcome.worker,
            symbols=outcome.symbols,
            memo=outcome.memo,
            functions_reused=outcome.functions_reused,
        )
        if outcome.delta is not None:
            compiler.state.merge_delta(outcome.delta)

    def _link(self, fresh: dict[str, ObjectFile]) -> LinkedImage:
        """Link fresh and cached objects in unit order."""
        objects = [
            fresh[path]
            if path in fresh
            else ObjectFile.from_json(self.db.units[path].object_json)
            for path in self.unit_paths
        ]
        return link(objects)


# Re-exported here because the build() return type is defined in
# report.py but callers naturally import it from the builder module.
__all__ = [
    "IncrementalBuilder",
    "BuildReport",
    "BuildOptions",
    "BypassStatistics",
]
