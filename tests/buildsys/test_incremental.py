"""IncrementalBuilder: scheduling, caching, state persistence, linking."""

import pytest

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.driver import CompilerOptions
from repro.frontend.includes import IncludeError, MemoryFileProvider
from repro.vm.machine import VirtualMachine

# Each unit carries more than one function so that an edit leaves
# unchanged functions behind — the population the stateful compiler
# bypasses passes for on the rebuild.
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


def build(files, db, units=UNITS, link_output=True, build_options=None, **options):
    builder = IncrementalBuilder(
        MemoryFileProvider(files), units, CompilerOptions(**options), db, build_options
    )
    return builder.build(link_output=link_output)


def images_equal(a, b):
    return (
        a.code == b.code
        and a.functions == b.functions
        and a.global_base == b.global_base
        and a.data == b.data
    )


class TestScheduling:
    def test_clean_build_compiles_everything(self):
        db = BuildDatabase()
        report = build(FILES, db)
        assert report.num_recompiled == 3 and report.up_to_date == []
        assert sorted(db.units) == UNITS
        assert VirtualMachine(report.image).run().output == [42]

    def test_noop_rebuild_recompiles_nothing(self):
        db = BuildDatabase()
        first = build(FILES, db)
        # Digest-identical rewrite: a fresh provider with the same text.
        second = build(dict(FILES), db)
        assert second.num_recompiled == 0
        assert second.up_to_date == UNITS
        assert second.total_pass_work == 0
        assert images_equal(first.image, second.image)

    def test_body_edit_recompiles_one_unit(self):
        db = BuildDatabase()
        build(FILES, db)
        edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("14", "21")})
        report = build(edited, db)
        assert [u.path for u in report.compiled] == ["main.mc"]
        assert sorted(report.up_to_date) == ["extra.mc", "util.mc"]
        assert VirtualMachine(report.image).run().output == [63]

    def test_header_edit_recompiles_exactly_dependents(self):
        db = BuildDatabase()
        build(FILES, db)
        edited = dict(FILES, **{"util.mh": FILES["util.mh"].replace("= 3", "= 5")})
        report = build(edited, db)
        assert [u.path for u in report.compiled] == ["main.mc", "util.mc"]
        assert report.up_to_date == ["extra.mc"]
        assert VirtualMachine(report.image).run().output == [70]

    def test_removed_unit_is_pruned(self):
        db = BuildDatabase()
        build(FILES, db)
        remaining = {p: t for p, t in FILES.items() if p != "extra.mc"}
        report = build(remaining, db, units=["main.mc", "util.mc"])
        assert report.num_recompiled == 0
        assert "extra.mc" not in db.units

    def test_link_output_false_skips_linking(self):
        report = build(FILES, BuildDatabase(), link_output=False)
        assert report.image is None and report.link_time == 0.0
        assert report.num_recompiled == 3


class TestMidBuildFailure:
    def test_unit_2_of_3_fails_rebuild_after_fix_is_incremental(self):
        from repro.buildsys.parallel import BuildOptions
        from repro.frontend.diagnostics import CompileError

        # In process at -j 1 specifically (the pool analogue lives in
        # test_parallel.py): schedule order is [extra.mc, main.mc,
        # util.mc], so breaking the middle unit leaves a success before
        # the failure point and an unreached unit after it.
        serial = BuildOptions(jobs=1)
        broken = dict(FILES, **{"main.mc": "int main() { return missing_fn(); }\n"})
        db = BuildDatabase()
        with pytest.raises(CompileError):
            build(broken, db, stateful=True, build_options=serial)

        # The unit compiled before the failure is recorded; the broken
        # one is not; the one never reached is not.
        assert "extra.mc" in db.units
        assert "main.mc" not in db.units and "util.mc" not in db.units
        # Partial compiler state still landed in the DB.
        assert db.live_state is not None and db.live_state.num_records > 0

        report = build(FILES, db, stateful=True)
        assert "extra.mc" in report.up_to_date
        assert sorted(u.path for u in report.compiled) == ["main.mc", "util.mc"]
        assert VirtualMachine(report.image).run().output == [42]
        # And a further noop rebuild touches nothing at all.
        assert build(FILES, db, stateful=True).num_recompiled == 0


class TestMissingHeader:
    def test_build_fails_cleanly_then_recovers(self):
        files = {"main.mc": 'include "lib.mh";\nint main() { return LIB; }\n'}
        db = BuildDatabase()
        with pytest.raises(IncludeError):
            build(files, db, units=["main.mc"])
        assert db.units == {}  # nothing recorded for the failed unit

        files["lib.mh"] = "const int LIB = 9;\n"
        report = build(files, db, units=["main.mc"])
        assert report.num_recompiled == 1
        assert VirtualMachine(report.image).run().exit_code == 9
        # And the fixed tree is stable.
        assert build(files, db, units=["main.mc"]).num_recompiled == 0


class TestStateful:
    def test_edit_rebuild_bypasses_passes(self):
        db = BuildDatabase()
        clean = build(FILES, db, stateful=True)
        assert clean.state_records > 0
        assert db.live_state is not None

        edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("14", "15")})
        report = build(edited, db, stateful=True)
        assert report.num_recompiled == 1
        assert report.bypass.bypassed > 0
        assert sum(u.fingerprint_count for u in report.compiled) > 0

    def test_state_survives_db_round_trip(self, tmp_path):
        db = BuildDatabase()
        build(FILES, db, stateful=True)
        db.save(tmp_path / "build.db")

        reloaded = BuildDatabase.load(tmp_path / "build.db")
        edited = dict(FILES, **{"util.mc": FILES["util.mc"].replace("x *", "SCALE *")})
        report = build(edited, reloaded, stateful=True)
        assert report.num_recompiled == 1
        assert report.bypass.bypassed > 0  # records from before the round trip

    def test_incompatible_state_is_replaced(self):
        db = BuildDatabase()
        build(FILES, db, stateful=True, opt_level="O1")
        old_state = db.live_state
        report = build(dict(FILES), db, stateful=True, opt_level="O2")
        # Different pipeline: full recompile with a fresh state.
        assert db.live_state is not old_state
        assert report.bypass.bypassed == 0

    def test_stateful_objects_match_stateless(self):
        dbs = {}
        for stateful in (False, True):
            db = BuildDatabase()
            build(FILES, db, stateful=stateful)
            edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("14", "16")})
            build(edited, db, stateful=stateful)
            dbs[stateful] = db
        for path in UNITS:
            assert dbs[False].units[path].object_json == dbs[True].units[path].object_json

    def test_stateless_build_reports_no_state(self):
        report = build(FILES, BuildDatabase())
        assert report.state_records == 0
        assert report.bypass.bypassed == 0
        assert all(u.fingerprint_count == 0 for u in report.compiled)


class TestGcClock:
    def test_noop_builds_neither_age_nor_collect_the_state(self):
        # Regression: every build used to tick the GC clock, so 51 no-op
        # builds reclaimed every record and the next edit bypassed nothing.
        from repro.workload import Edit, EditKind, apply_edit, generate_project, make_preset

        spec = make_preset("small", seed=1)
        project = generate_project(spec)
        db = BuildDatabase()
        options = CompilerOptions(stateful=True)

        def build_tree(project):
            return IncrementalBuilder(
                project.provider(), project.unit_paths, options, db
            ).build(link_output=False)

        build_tree(project)
        records, clock = db.live_state.num_records, db.live_state.build_counter
        for _ in range(60):
            assert build_tree(project).num_recompiled == 0
        assert db.live_state.build_counter == clock
        assert db.live_state.num_records == records

        module = spec.modules[0]
        edited = apply_edit(spec, Edit(EditKind.BODY, module.name, module.functions[0].name))
        report = build_tree(generate_project(edited))
        assert report.num_recompiled == 1
        assert report.bypass.bypassed > 0


class TestLinkSkip:
    def test_unchanged_link_inputs_skip_decode_and_link(self):
        db = BuildDatabase()
        assert build(FILES, db).image is not None
        builder = IncrementalBuilder(MemoryFileProvider(FILES), UNITS, CompilerOptions(), db)
        report = builder.build(skip_unchanged_link=True)
        assert report.image is None and not report.linked
        assert report.metrics["counters"]["build.links_skipped"] == 1
        # An API caller that asks for the image always gets one.
        assert build(FILES, db).image is not None

    def test_edit_relinks(self):
        """New link inputs are checked from the units' link interfaces;
        the image is built only for a caller that asks for it."""
        db = BuildDatabase()
        build(FILES, db)
        edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("14", "15")})
        builder = IncrementalBuilder(MemoryFileProvider(edited), UNITS, CompilerOptions(), db)
        report = builder.build(skip_unchanged_link=True)
        assert report.image is None and report.linked
        assert "build.links_skipped" not in report.metrics["counters"]
        assert db.linked == db.link_key(UNITS)
        assert VirtualMachine(build(edited, db).image).run().output == [45]
