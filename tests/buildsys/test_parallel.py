"""Parallel builds: determinism vs serial, state merging, failure handling."""

import contextlib
import logging
import os
import textwrap

import pytest

from repro.buildsys import parallel
from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions, compile_unit
from repro.core.policies import SkipPolicy
from repro.driver import Compiler, CompilerOptions
from repro.frontend.diagnostics import CompileError
from repro.frontend.includes import MemoryFileProvider
from repro.obs.trace import DRIVER_TRACK, Tracer
from repro.vm.machine import VirtualMachine
from tests.conftest import run_fresh

FILES = {
    "util.mh": (
        "const int SCALE = 3;\n"
        "int util_scale(int x);\n"
        "int util_clamp(int x, int lo, int hi);\n"
    ),
    "util.mc": (
        'include "util.mh";\n'
        "int util_scale(int x) { return x * SCALE; }\n"
        "int util_clamp(int x, int lo, int hi) {\n"
        "  if (x < lo) return lo;\n"
        "  if (x > hi) return hi;\n"
        "  return x;\n"
        "}\n"
    ),
    "extra.mc": "int unused_helper(int x) { return x - 1; }\n",
    "main.mc": (
        'include "util.mh";\n'
        "int checksum(int a, int b) { return a * 31 + b; }\n"
        "int main() { print(util_scale(14)); return checksum(3, 4) - checksum(3, 4); }\n"
    ),
}
UNITS = ["extra.mc", "main.mc", "util.mc"]

#: The pool's task function, before any test replaces it.
COMPILE_UNIT_TASK = parallel._compile_unit_task


def die_on_main(path, previous):
    """A pool task whose worker process dies when it gets ``main.mc``."""
    if path == "main.mc":
        os._exit(1)
    return COMPILE_UNIT_TASK(path, previous)


#: A 4-process pool: every parallel test crosses the pickling boundary.
JOBS4 = BuildOptions(jobs=4)
SERIAL = BuildOptions(jobs=1)


def build(
    files,
    db,
    units=UNITS,
    build_options=JOBS4,
    link_output=True,
    tracer=None,
    **options,
):
    builder = IncrementalBuilder(
        MemoryFileProvider(files), units, CompilerOptions(**options), db, build_options,
        **({"tracer": tracer} if tracer is not None else {}),
    )
    return builder.build(link_output=link_output)


def image_key(image):
    return (image.code, image.functions, image.global_base, image.data)


@contextlib.contextmanager
def warnings_from(name):
    """Collect the WARNING records logged to logger ``name``.

    A handler on the logger itself, not pytest's root-level capture:
    the CLI's logging setup stops ``repro`` records from propagating.
    """
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


class TestBuildOptions:
    def test_jobs_none_means_cpu_count(self):
        assert BuildOptions(jobs=None).resolved_jobs() == (os.cpu_count() or 1)

    def test_from_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_JOBS", "4")
        assert BuildOptions.from_env().jobs == 4

    def test_from_env_warns_on_non_integer(self, monkeypatch):
        # Zero and negatives are rejected like `reprobuild -j`, not
        # silently clamped to a serial build.
        for value in ("four", "0", "-3"):
            monkeypatch.setenv("REPRO_BUILD_JOBS", value)
            with warnings_from("repro.buildsys.parallel") as warnings:
                options = BuildOptions.from_env()
            assert options.jobs == 1
            assert len(warnings) == 1 and repr(value) in warnings[0].getMessage()

    def test_from_env_defaults_serial_behavior(self, monkeypatch):
        monkeypatch.delenv("REPRO_BUILD_JOBS", raising=False)
        assert BuildOptions.from_env().resolved_jobs() == 1


class TestDeterminism:
    @pytest.mark.parametrize("stateful", [False, True])
    def test_parallel_matches_serial(self, stateful):
        db_s, db_p = BuildDatabase(), BuildDatabase()
        serial = build(FILES, db_s, build_options=SERIAL, stateful=stateful)
        parallel = build(FILES, db_p, stateful=stateful)

        assert parallel.jobs == 3  # capped at the dirty-unit count
        assert image_key(serial.image) == image_key(parallel.image)
        assert serial.state_records == parallel.state_records
        for path in UNITS:
            assert db_s.units[path].object_json == db_p.units[path].object_json
        assert VirtualMachine(parallel.image).run().output == [42]

    def test_process_pool_matches_serial(self):
        db_s, db_p = BuildDatabase(), BuildDatabase()
        serial = build(FILES, db_s, build_options=SERIAL, stateful=True)
        parallel = build(
            FILES, db_p, build_options=BuildOptions(jobs=4), stateful=True
        )
        assert image_key(serial.image) == image_key(parallel.image)
        assert serial.state_records == parallel.state_records
        # Every unit really crossed into a worker process.
        assert all(u.worker.startswith("pid-") for u in parallel.compiled)

    def test_incremental_rebuild_under_parallelism(self):
        db = BuildDatabase()
        build(FILES, db, stateful=True)
        edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("14", "21")})
        report = build(edited, db, stateful=True)
        assert [u.path for u in report.compiled] == ["main.mc"]
        assert report.jobs == 1  # one dirty unit: no pool spun up
        assert report.bypass.bypassed > 0  # records from the parallel clean build
        assert VirtualMachine(report.image).run().output == [63]

    def test_gc_prunes_like_serial_after_parallel_build(self):
        reports = {}
        for name, build_options in (("serial", SERIAL), ("parallel", JOBS4)):
            db = BuildDatabase()
            build(FILES, db, build_options=build_options, stateful=True)
            db.live_state.gc_max_age = 0  # prune everything this build didn't touch
            edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("14", "21")})
            reports[name] = (
                build(edited, db, build_options=build_options, stateful=True),
                db.live_state.num_records,
            )
        assert reports["serial"][1] == reports["parallel"][1]


#: One function's body in two units (under two names) and a header
#: constant both read: a header edit dirties both units again.
DUPLICATED = {
    "shared.mh": (
        "const int BIAS = 5;\nint mix(int a, int b);\nint left(int x);\nint right(int x);\n"
    ),
    "left.mc": (
        'include "shared.mh";\n'
        "int mix(int a, int b) {\n"
        "  int r = a;\n"
        "  if (b > a) { r = b - a; } else { r = a * 3 + b; }\n"
        "  return r;\n"
        "}\n"
        "int left(int x) {\n"
        "  int acc = 0;\n"
        "  for (int i = 0; i < x; i = i + 1) { acc = acc + i * 2 + 1; }\n"
        "  return acc + BIAS;\n"
        "}\n"
    ),
    "right.mc": (
        'include "shared.mh";\n'
        "int right(int x) {\n"
        "  int acc = 0;\n"
        "  for (int i = 0; i < x; i = i + 1) { acc = acc + i * 2 + 1; }\n"
        "  return acc + BIAS;\n"
        "}\n"
        "int main() { print(left(3) + right(4) + mix(2, 9)); return 0; }\n"
    ),
}


class TestSameBuildAtEveryJobCount:
    """A unit never sees records another unit wrote in the same build."""

    def test_duplicated_function_builds_alike_at_j1_and_j2(self):
        units = ["left.mc", "right.mc"]
        edited = dict(DUPLICATED, **{"shared.mh": DUPLICATED["shared.mh"].replace("5", "6")})
        seen = {}
        for build_options in (SERIAL, BuildOptions(jobs=2)):
            db, builds = BuildDatabase(), []
            for files in (DUPLICATED, edited):
                report = build(
                    files, db, units, build_options,
                    stateful=True, policy=SkipPolicy.FINE_GRAINED,
                )
                assert report.jobs == build_options.jobs
                counts = {
                    name: [c["executed"], c["dormant"], c["bypassed"], c["work"]]
                    for name, c in report.bypass.by_pass.items()
                }
                objects = {path: db.units[path].object_json for path in units}
                builds.append((counts, report.state_records, objects))
            seen[build_options.jobs] = builds
        assert seen[1] == seen[2]
        # The edit build bypassed: records from the clean build applied.
        edit_counts = seen[1][1][0]
        assert sum(bypassed for _, _, bypassed, _ in edit_counts.values()) > 0


class TestStateCounters:
    """Lookups and hits are counted where the pass manager runs: on workers too."""

    @pytest.mark.parametrize(
        "build_options",
        [SERIAL, BuildOptions(jobs=2)],
        ids=["j1", "j2-process"],
    )
    def test_edit_build_counts_every_hit(self, build_options):
        db = BuildDatabase()
        build(FILES, db, build_options=build_options, stateful=True)
        edited = dict(FILES, **{"util.mh": FILES["util.mh"].replace("3", "4")})
        report = build(edited, db, build_options=build_options, stateful=True)
        assert report.jobs == min(2, build_options.resolved_jobs())
        counters = report.metrics["counters"]
        lookups = counters.get("state.lookups", 0)
        hits = counters.get("state.records_refreshed", 0)
        bypassed = counters.get("passes.bypassed", 0)
        assert lookups >= hits >= bypassed > 0


class TestPoolForkOrder:
    """The compiler is imported before the pool forks, not in each worker."""

    def test_process_pool_forks_after_compiler_import(self, tmp_path):
        from repro.cli import reprobuild_main

        proj = tmp_path / "proj"
        proj.mkdir()
        for name, text in FILES.items():
            (proj / name).write_text(text)
        pool_db, serial_db = str(tmp_path / "pool.db"), str(tmp_path / "serial.db")
        argv = [str(proj), "--stateful", "--no-history"]
        assert reprobuild_main([*argv, "--db", pool_db, "-j", "1"]) == 0
        # A header edit dirties main.mc and util.mc: two units, a -j 2 pool.
        (proj / "util.mh").write_text(FILES["util.mh"].replace("3", "4"))

        result = run_fresh(textwrap.dedent(f"""
            import sys
            import repro.cli
            from repro.buildsys import parallel

            compiler = ["repro.driver", "repro.frontend.parser", "repro.backend.regalloc"]
            pools = []
            make_pool = parallel._make_pool

            def recording(jobs, initargs):
                pools.append([m for m in compiler if m not in sys.modules])
                return make_pool(jobs, initargs)

            parallel._make_pool = recording
            result = {{
                "driver_at_import": "repro.driver" in sys.modules,
                "rc": repro.cli.reprobuild_main({[*argv, "--db", pool_db, "-j", "2"]!r}),
                "pools": pools,
            }}
        """), tmp_path)
        assert result["rc"] == 0
        assert not result["driver_at_import"]
        assert result["pools"] == [[]]

        assert reprobuild_main([*argv, "--db", serial_db, "-j", "1"]) == 0
        pooled, serial = BuildDatabase.load(pool_db), BuildDatabase.load(serial_db)
        for path in UNITS:
            assert pooled.units[path].object_json == serial.units[path].object_json


class TestReportAttribution:
    def test_workers_and_speedup_reported(self):
        report = build(FILES, BuildDatabase())
        assert report.jobs > 1
        assert all(unit.worker.startswith("pid-") for unit in report.compiled)
        assert 1 <= report.num_workers <= report.jobs
        assert report.parallel_speedup > 0.0
        assert f"-j {report.jobs}" in report.describe()

    def test_serial_report_unchanged(self):
        report = build(FILES, BuildDatabase(), build_options=SERIAL)
        assert report.jobs == 1 and report.num_workers == 1
        assert all(unit.worker == "main" for unit in report.compiled)
        assert "-j" not in report.describe()


class TestSpanRebasing:
    """Worker spans must cross the pool boundary onto the driver timeline."""

    def test_worker_spans_rebased_with_attribution(self):
        tracer = Tracer()
        report = build(FILES, BuildDatabase(), tracer=tracer, stateful=True)
        assert report.jobs > 1
        spans = tracer.spans

        units = [s for s in spans if s.category == "unit"]
        assert sorted(s.name for s in units) == sorted(UNITS)
        # Every unit span was compiled on (and re-based onto) a worker
        # track, and the worker names match the report's attribution.
        unit_tracks = {s.name: s.track for s in units}
        reported = {u.path: u.worker for u in report.compiled}
        assert unit_tracks == reported
        assert all(track.startswith("pid-") for track in unit_tracks.values())

        # Pass and phase spans nest inside a unit span on the same
        # worker track — nesting survives the re-base.  (One worker may
        # compile several units, so each child belongs to exactly one.)
        children = [
            s for s in spans if s.category in ("pass", "pipeline", "phase")
            and s.track != DRIVER_TRACK
        ]
        assert children
        for child in children:
            owners = [u for u in units if u.encloses(child)]
            assert len(owners) == 1, (child.name, child.track)

        # The driver's own spans stay on the driver track and the build
        # span encloses every worker span after re-basing.
        (build_span,) = [s for s in spans if s.category == "build"]
        assert build_span.track == DRIVER_TRACK
        slack = 0.05  # wall-clock epochs on one machine agree well within this
        for span in units:
            assert build_span.start - slack <= span.start
            assert span.end <= build_span.end + slack

    def test_untraced_build_collects_nothing(self):
        report = build(FILES, BuildDatabase(), stateful=True)
        assert report.num_recompiled == len(UNITS)  # no tracer, still builds


class TestFailure:
    def test_failed_unit_reports_earliest_error_and_keeps_good_units(self):
        files = dict(FILES, **{"main.mc": "int main() { return undefined_fn(); }\n"})
        db = BuildDatabase()
        with pytest.raises(CompileError):
            build(files, db)
        # Deterministic DB contents despite arbitrary completion order:
        # every successfully compiled unit is recorded, the broken one is not.
        assert "main.mc" not in db.units
        assert set(db.units) <= {"extra.mc", "util.mc"}

        report = build(FILES, db)
        assert "main.mc" in [u.path for u in report.compiled]
        assert set(u.path for u in report.compiled) | set(report.up_to_date) == set(UNITS)
        assert VirtualMachine(report.image).run().output == [42]


class TestPoolFallback:
    """A process pool that cannot start falls back to in-process compiles."""

    @pytest.fixture(autouse=True)
    def no_process_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("cannot fork")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)

    def test_pool_that_cannot_start_builds_serially(self):
        db_s, db_p = BuildDatabase(), BuildDatabase()
        serial = build(FILES, db_s, build_options=SERIAL, stateful=True)
        with warnings_from("repro.buildsys.parallel") as warnings:
            fallback = build(FILES, db_p, build_options=JOBS4, stateful=True)

        assert fallback.num_recompiled == len(UNITS)
        assert image_key(serial.image) == image_key(fallback.image)
        assert serial.state_records == fallback.state_records
        for path in UNITS:
            assert db_s.units[path].object_json == db_p.units[path].object_json
        # No thread pool stood in for the processes.
        assert not any(u.worker.startswith("reprobuild") for u in fallback.compiled)
        assert len(warnings) == 1 and "cannot fork" in warnings[0].getMessage()

    def test_fallback_stops_at_first_failure(self):
        files = dict(FILES, **{"main.mc": "int main() { return undefined_fn(); }\n"})
        db = BuildDatabase()
        with pytest.raises(CompileError):
            build(files, db, stateful=True)
        # In schedule order: extra.mc compiled, main.mc failed, util.mc
        # was never started.
        assert set(db.units) == {"extra.mc"}


class TestBrokenPool:
    """A worker that dies mid-build breaks the pool; every unit then
    compiles in process, as at -j 1, against the live state."""

    def test_pool_that_breaks_mid_build_builds_serially(self, monkeypatch):
        db_s, db_p = BuildDatabase(), BuildDatabase()
        serial = build(FILES, db_s, build_options=SERIAL, stateful=True)
        monkeypatch.setattr(parallel, "_compile_unit_task", die_on_main)
        with warnings_from("repro.buildsys.parallel") as warnings:
            broken = build(FILES, db_p, build_options=JOBS4, stateful=True)

        assert len(warnings) == 1
        assert sorted(u.path for u in broken.compiled) == UNITS
        assert all(u.worker == "main" for u in broken.compiled)
        assert set(db_p.units) == set(UNITS)
        for path in UNITS:
            assert db_s.units[path].object_json == db_p.units[path].object_json
        assert image_key(serial.image) == image_key(broken.image)
        assert db_p.live_state.records == db_s.live_state.records
        assert db_p.live_state.build_counter == db_s.live_state.build_counter


class TestCompileUnitHelper:
    def test_outcome_round_trips_object_and_delta(self):
        compiler = Compiler(MemoryFileProvider(FILES), CompilerOptions(stateful=True))
        state = compiler.state
        outcome = compile_unit(compiler, "util.mc", worker="w0")
        assert not outcome.failed and outcome.worker == "w0"
        assert outcome.delta is not None and outcome.delta.num_records > 0
        # The unit wrote to a snapshot: the compiler's state stays pristine.
        assert compiler.state is state and state.num_records == 0

    def test_outcome_captures_compile_error(self):
        provider = MemoryFileProvider({"bad.mc": "int main() { return nope(); }\n"})
        outcome = compile_unit(Compiler(provider, CompilerOptions()), "bad.mc")
        assert outcome.failed and outcome.error_kind == "compile"
        assert outcome.diagnostics
        assert isinstance(outcome.exception(), CompileError)
        assert outcome.exception().diagnostics == outcome.diagnostics

    def test_outcome_captures_include_error(self):
        from repro.frontend.includes import IncludeError

        provider = MemoryFileProvider({"bad.mc": 'include "gone.mh";\nint main() { return 0; }\n'})
        outcome = compile_unit(Compiler(provider, CompilerOptions()), "bad.mc")
        assert outcome.failed and outcome.error_kind == "include"
        assert isinstance(outcome.exception(), IncludeError)
        assert str(outcome.exception()) == outcome.error_message


class TestLongestFirst:
    """The pool gets the units in descending order of expected compile
    cost; outcomes still merge in unit order."""

    def test_pool_submits_the_longest_expected_compile_first(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        started = []

        def task(path, previous):
            started.append(path)
            return COMPILE_UNIT_TASK(path, previous)

        # One in-process worker runs the tasks in submission order.
        monkeypatch.setattr(parallel, "_WORKER", {})
        monkeypatch.setattr(parallel, "_compile_unit_task", task)
        monkeypatch.setattr(
            parallel,
            "_make_pool",
            lambda jobs, initargs: ThreadPoolExecutor(
                1, initializer=parallel._init_worker, initargs=initargs
            ),
        )
        db = BuildDatabase()
        report = build(FILES, db)
        # No records yet: the longest source first.
        assert started == ["util.mc", "main.mc", "extra.mc"]
        assert [u.path for u in report.compiled] == UNITS

        for path, wall in zip(UNITS, [0.3, 0.1, 0.2]):
            db.units[path].wall_time = wall
        edited = {p: text + "// edited\n" if p.endswith(".mc") else text for p, text in FILES.items()}
        started.clear()
        report = build(edited, db)
        # The last compile's wall time decides.
        assert started == ["extra.mc", "util.mc", "main.mc"]
        assert [u.path for u in report.compiled] == UNITS
