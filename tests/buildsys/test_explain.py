"""Rebuild reasons: the explanation must match the scheduling decision."""

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.deps import DependencyScanner
from repro.buildsys.explain import (
    RebuildReason,
    explain_unit,
    rebuild_reason,
    top_passes,
)
from repro.buildsys.incremental import IncrementalBuilder
from repro.driver import CompilerOptions
from repro.frontend.includes import MemoryFileProvider

FILES = {
    "shared.mh": "const int BASE = 10;\nint helper(int x);\n",
    "helper.mc": 'include "shared.mh";\nint helper(int x) { return x + BASE; }\n',
    "main.mc": 'include "shared.mh";\nint main() { print(helper(5)); return 0; }\n',
    "lone.mc": "int lone() { return 1; }\n",
}
UNITS = ["helper.mc", "lone.mc", "main.mc"]
#: What every build in this file records: the default ``-O2``.
OPTIONS = CompilerOptions().object_options


def built_db(files=FILES, **options):
    db = BuildDatabase()
    IncrementalBuilder(
        MemoryFileProvider(files), UNITS, CompilerOptions(**options), db
    ).build()
    return db


def snapshot_for(db, scanner, path):
    """What the builder checks: the unit and the headers its record lists."""
    record = db.units.get(path)
    return scanner.snapshot(path, record.dep_digests if record else ())


def reason_for(db, files, path):
    snapshot = snapshot_for(db, DependencyScanner(MemoryFileProvider(files)), path)
    return rebuild_reason(db.units.get(path), snapshot, OPTIONS)


class TestRebuildReason:
    def test_up_to_date_after_clean_build(self):
        db = built_db()
        for path in UNITS:
            reason = reason_for(db, FILES, path)
            assert reason.kind == "up-to-date" and reason.is_up_to_date
            assert "up to date" in reason.describe()

    def test_missing_record(self):
        reason = reason_for(BuildDatabase(), FILES, "main.mc")
        assert reason.kind == "missing-record"
        assert not reason.is_up_to_date
        assert "no build record" in reason.describe()

    def test_source_digest_change(self):
        db = built_db()
        edited = dict(FILES, **{"main.mc": FILES["main.mc"].replace("5", "6")})
        reason = reason_for(db, edited, "main.mc")
        assert reason.kind == "source-changed" and reason.source_changed
        assert not reason.deps_changed
        assert "source text changed" in reason.describe()

    def test_header_closure_change(self):
        db = built_db()
        edited = dict(FILES, **{"shared.mh": FILES["shared.mh"].replace("10", "11")})
        reason = reason_for(db, edited, "main.mc")
        assert reason.kind == "deps-changed"
        assert not reason.source_changed
        assert reason.changed_deps == ["shared.mh"]
        assert "a header it read changed" in reason.describe()
        assert "shared.mh" in reason.describe()
        # A unit that did not read the header is untouched by its edit.
        assert reason_for(db, edited, "lone.mc").is_up_to_date

    def test_header_vanishing_and_reappearing(self):
        db = built_db()
        gone = {k: v for k, v in FILES.items() if k != "shared.mh"}
        reason = reason_for(db, gone, "main.mc")
        assert reason.kind == "deps-changed"
        assert reason.vanished_deps == ["shared.mh"]

    def test_source_change_takes_precedence_over_deps(self):
        db = built_db()
        edited = dict(
            FILES,
            **{
                "main.mc": FILES["main.mc"].replace("5", "6"),
                "shared.mh": FILES["shared.mh"].replace("10", "11"),
            },
        )
        reason = reason_for(db, edited, "main.mc")
        assert reason.kind == "source-changed"
        assert reason.changed_deps == ["shared.mh"]  # evidence still collected

    def test_round_trip(self):
        db = built_db()
        edited = dict(FILES, **{"shared.mh": "const int BASE = 2;\nint helper(int x);\n"})
        reason = reason_for(db, edited, "main.mc")
        clone = RebuildReason.from_dict(reason.to_dict())
        assert clone == reason

    def test_verdict_matches_up_to_date_check(self):
        """The invariant: reason.is_up_to_date ≡ db.up_to_date(snapshot, options)."""
        db = built_db()
        variants = [
            FILES,
            dict(FILES, **{"main.mc": FILES["main.mc"] + "\n"}),
            dict(FILES, **{"shared.mh": FILES["shared.mh"] + "\n"}),
            {k: v for k, v in FILES.items() if k != "shared.mh"},
        ]
        for files in variants:
            scanner = DependencyScanner(MemoryFileProvider(files))
            for path in UNITS:
                snapshot = snapshot_for(db, scanner, path)
                for options in (OPTIONS, "-O0"):
                    reason = rebuild_reason(db.units.get(path), snapshot, options)
                    assert reason.is_up_to_date == db.up_to_date(snapshot, options), (
                        path,
                        options,
                        reason.kind,
                    )


class TestExplainUnit:
    def test_explains_with_last_compile_profile(self):
        db = built_db(stateful=True)
        text = explain_unit(db, DependencyScanner(MemoryFileProvider(FILES)), "main.mc", OPTIONS)
        assert "main.mc: up to date" in text
        assert "last compiled in" in text
        assert "top" in text and "work=" in text

    def test_never_built_unit_has_no_profile(self):
        scanner = DependencyScanner(MemoryFileProvider(FILES))
        text = explain_unit(BuildDatabase(), scanner, "main.mc", OPTIONS)
        assert "no build record" in text
        assert "last compiled" not in text

    def test_top_passes_ranked_by_work(self):
        # Each pass's [executed, dormant, bypassed, work], as the DB stores it.
        stats = {"cse": [1, 0, 0, 5], "gvn": [2, 1, 0, 9], "adce": [1, 1, 0, 9]}
        ranked = top_passes(stats, 2)
        assert [name for name, _ in ranked] == ["adce", "gvn"]  # ties by name
