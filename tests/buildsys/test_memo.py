"""The memo policy: unchanged functions reuse their previous machine code.

A function whose memo key equals the key its unit's last compile
recorded skips its whole pipeline and code generation; its code comes
from the unit's previous object.  The objects must stay byte-identical
to a stateless clean build.
"""

import json

import pytest

import repro.backend
from repro.backend.mir import MOp
from repro.buildsys.audit import audit_fingerprint_collisions
from repro.buildsys.builddb import BuildDatabase, StateStore
from repro.buildsys.deps import DependencyScanner, content_digest
from repro.buildsys.explain import explain_unit
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.buildsys.report import BuildReport
from repro.core.policies import SkipPolicy
from repro.core.state import pipeline_signature_of
from repro.core.stateful import memo_key
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.obs.history import HistoryRecord
from repro.passes import InlinerPass, LoopUnrollPass
from repro.passes.base import pass_signature
from repro.passmanager import pipeline as pipeline_module
from repro.persist import atomic_write, read_artifact
from repro.testing.differential import FUZZ_EDIT_MIX
from repro.workload import apply_edit, generate_project, make_preset
from repro.vm.machine import VirtualMachine
from repro.workload.edits import Edit, EditKind, random_edit_sequence

MEMO = CompilerOptions(stateful=True, policy=SkipPolicy.MEMO)

FILES = {
    "a.mc": (
        "int g(int p) {\n  int v = p * 3;\n  if (v > 4) { v = v - 1; }\n  return v;\n}\n"
        "int h(int x) { return g(x) + 7; }\n"
        "int main() { print(h(3)); return 0; }\n"
    ),
}


def build(files, db, options=MEMO, jobs=1):
    provider = MemoryFileProvider(dict(files))
    return IncrementalBuilder(
        provider, sorted(files), options, db, BuildOptions(jobs=jobs)
    ).build()


def objects(db):
    return {path: record.object_json for path, record in db.units.items()}


def stateless_objects(files):
    db = BuildDatabase()
    build(files, db, CompilerOptions())
    return objects(db)


def compile_keys(text, options=MEMO):
    compiler = Compiler(MemoryFileProvider({}), options)
    return compiler.compile_source("u.mc", text).memo_keys


class TestReuse:
    def test_comment_edit_reuses_every_function(self):
        db = BuildDatabase()
        first = build(FILES, db)
        assert first.memo == {"functions_reused": 0, "functions_compiled": 3}
        edited = {"a.mc": "// comment\n" + FILES["a.mc"]}
        report = build(edited, db)
        assert report.memo == {"functions_reused": 3, "functions_compiled": 0}
        # No pass ran, and none counts as bypassed.
        assert report.bypass.executions == 0 and report.bypass.bypassed == 0
        assert objects(db) == stateless_objects(edited)

    def test_body_edit_compiles_only_the_edited_function(self):
        db = BuildDatabase()
        build(FILES, db)
        edited = {"a.mc": FILES["a.mc"].replace("h(3)", "h(4)")}
        report = build(edited, db)
        assert report.memo == {"functions_reused": 2, "functions_compiled": 1}
        assert objects(db) == stateless_objects(edited)

    def test_fine_policy_records_no_keys_and_reuses_nothing(self):
        db = BuildDatabase()
        fine = CompilerOptions(stateful=True)
        build(FILES, db, fine)
        report = build({"a.mc": "// c\n" + FILES["a.mc"]}, db, fine)
        assert report.memo == {} and db.units["a.mc"].memo == {}

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_ten_edit_trace_is_byte_identical_to_stateless(self, jobs):
        spec = make_preset("small", seed=3)
        edits = random_edit_sequence(spec, 10, seed=3, mix=FUZZ_EDIT_MIX)
        db, reused = BuildDatabase(), 0
        for step in range(len(edits) + 1):
            if step:
                spec = apply_edit(spec, edits[step - 1])
            files = generate_project(spec).files
            report = build(files, db, jobs=jobs)
            reused += report.memo["functions_reused"]
            assert objects(db) == stateless_objects(files), edits[step - 1]
        assert reused > 0


def v6_payload(db):
    """``db`` as schema 6 wrote it: a JSON header line, then the objects."""
    records = sorted(db.units.values(), key=lambda r: r.path)
    header = json.loads(v5_payload(db))
    header["schema"] = 6
    for unit, record in zip(header["units"], records):
        del unit["object"]
        unit["object_bytes"] = len(record.object_blob)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return head + b"\n" + b"".join(r.object_blob for r in records)


def v5_payload(db):
    """``db`` as schema 5 wrote it: one JSON document, each object inline."""
    return json.dumps({
        "schema": 5,
        "units": [
            {
                "path": r.path,
                "source": r.source_digest,
                "deps": [[p, d] for p, d in sorted(r.dep_digests.items())],
                "options": r.options,
                "object": r.object_json,
                "object_digest": r.object_digest,
                "stats": r.stats,
                "wall": r.wall_time,
                "worker": r.worker,
                "symbols": r.symbols,
                "memo": r.memo,
                "reused": r.functions_reused,
            }
            for r in sorted(db.units.values(), key=lambda r: r.path)
        ],
        "linked": db.linked,
        "state": db.state_summary,
    }, separators=(",", ":")).encode("utf-8")


class TestLegacySchemas:
    FILES = dict(FILES, **{"b.mc": "int b(int x) { return x + 2; }\n"})

    @pytest.mark.parametrize("schema", [5, 6])
    def test_v5_and_v6_databases_load_empty_and_rebuild_clean(self, tmp_path, schema):
        # Their records list a scanned include closure, which could miss
        # a header the unit read: they are not migrated.
        path = tmp_path / "b.reprodb"
        db = BuildDatabase()
        build(self.FILES, db)
        atomic_write(path, v5_payload(db) if schema == 5 else v6_payload(db))

        old = BuildDatabase.load(path)
        assert old.units == {} and old.linked is None
        report = build(self.FILES, old)
        assert report.num_recompiled == len(self.FILES)
        assert objects(old) == stateless_objects(self.FILES)
        old.save_changes()
        assert read_artifact(path).startswith(b'{"schema":7,')
        assert objects(BuildDatabase.load(path)) == objects(old)

    def test_v4_database_loads_empty_and_rebuilds_clean(self, tmp_path):
        path = tmp_path / "b.reprodb"
        db = BuildDatabase()
        build(self.FILES, db)
        # The DB as schema 4 wrote it: no unit carries memo keys.
        payload = json.loads(v5_payload(db))
        payload["schema"] = 4
        for unit in payload["units"]:
            del unit["memo"], unit["reused"]
        atomic_write(path, json.dumps(payload).encode("utf-8"))

        old = BuildDatabase.load(path)
        assert old.units == {} and old.linked is None
        report = build(self.FILES, old)
        assert report.num_recompiled == len(self.FILES)
        assert report.memo["functions_reused"] == 0
        assert objects(old) == stateless_objects(self.FILES)


class TestKey:
    """Each fact that decides a function's code changes its key."""

    def test_callee_purity_flip(self):
        pure = "int g(int p) { return p * 3; }\nint f(int x) { g(x); return x; }\n"
        impure = pure.replace("return p * 3;", "print(p); return p * 3;")
        options = CompilerOptions(stateful=True, policy=SkipPolicy.MEMO, opt_level="O1")
        assert compile_keys(pure, options)["f"] != compile_keys(impure, options)["f"]

    def test_block_rename(self):
        fn = Compiler(MemoryFileProvider({}), MEMO).compile_source(
            "u.mc", FILES["a.mc"]
        ).module.functions["g"]
        before = memo_key(fn, "fp", "ctx")
        fn.blocks[-1].name = "renamed"
        assert memo_key(fn, "fp", "ctx") != before

    def test_function_rename(self):
        renamed = FILES["a.mc"].replace("h(", "k(")
        assert compile_keys(FILES["a.mc"])["h"] != compile_keys(renamed)["k"]
        assert compile_keys(FILES["a.mc"])["g"] == compile_keys(renamed)["g"]

    def test_name_counter(self):
        fn = Compiler(MemoryFileProvider({}), MEMO).compile_source(
            "u.mc", FILES["a.mc"]
        ).module.functions["g"]
        before = memo_key(fn, "fp", "ctx")
        fn.next_name()
        assert memo_key(fn, "fp", "ctx") != before

    def test_opt_level(self):
        o1 = CompilerOptions(stateful=True, policy=SkipPolicy.MEMO, opt_level="O1")
        assert compile_keys(FILES["a.mc"])["g"] != compile_keys(FILES["a.mc"], o1)["g"]

    def test_pipeline_signature(self, monkeypatch):
        before = compile_keys(FILES["a.mc"])
        bigger_inliner(monkeypatch)
        assert all(before[name] != key for name, key in compile_keys(FILES["a.mc"]).items())

    def test_backend_version_stops_reuse(self, monkeypatch):
        db = BuildDatabase()
        build(FILES, db)
        before = compile_keys(FILES["a.mc"])
        monkeypatch.setattr(repro.backend, "VERSION", repro.backend.VERSION + 1)
        assert all(before[name] != key for name, key in compile_keys(FILES["a.mc"]).items())
        edited = {"a.mc": "// c\n" + FILES["a.mc"]}
        assert build(edited, db).memo == {"functions_reused": 0, "functions_compiled": 3}
        assert build({"a.mc": "// d\n" + FILES["a.mc"]}, db).memo["functions_reused"] == 3


def bigger_inliner(monkeypatch, threshold=40):
    """Make every pipeline the driver builds inline more."""
    real = pipeline_module.build_pipeline

    def build_pipeline(opt_level):
        pipeline = real(opt_level)
        for module_pass in pipeline.module_prelude:
            if isinstance(module_pass, InlinerPass):
                module_pass.size_threshold = threshold
        return pipeline

    monkeypatch.setattr("repro.driver.build_pipeline", build_pipeline)


class TestPipelineSignature:
    def test_covers_parameters_and_versions(self, monkeypatch):
        assert pass_signature(InlinerPass(25)) != pass_signature(InlinerPass(40))
        assert pass_signature(LoopUnrollPass(max_trip=8)) != pass_signature(LoopUnrollPass())
        signature = pipeline_signature_of(pipeline_module.build_pipeline("O2"))
        assert "inline@1(size_threshold=25)" in signature
        monkeypatch.setattr(LoopUnrollPass, "VERSION", 2)
        assert pipeline_signature_of(pipeline_module.build_pipeline("O2")) != signature

    def test_a_parameter_change_empties_the_state_and_the_memo(self, monkeypatch):
        # The memo lives in the build DB; the dormancy state only under
        # the fine (or coarse) policy.
        db, fine_db, fine = BuildDatabase(), BuildDatabase(), CompilerOptions(stateful=True)
        build(FILES, db)
        build(FILES, fine_db, fine)
        assert build({"a.mc": "// c\n" + FILES["a.mc"]}, db).memo["functions_reused"] == 3
        bigger_inliner(monkeypatch)
        report = build({"a.mc": "// d\n" + FILES["a.mc"]}, db)
        assert report.memo == {"functions_reused": 0, "functions_compiled": 3}
        report = build({"a.mc": "// d\n" + FILES["a.mc"]}, fine_db, fine)
        counters = report.metrics["counters"]
        assert counters["state.records_refreshed"] == 0 and report.bypass.bypassed == 0
        # The old records are gone: the state holds this build's alone.
        assert fine_db.live_state.build_counter == 1
        assert fine_db.live_state.num_records == counters["state.records_written"]


class TestNoDormancyState:
    """A memo build keeps no compiler state: it reads and writes only the
    build DB, where its memo keys live."""

    @pytest.fixture()
    def state_loads(self, monkeypatch):
        """The state files read, in order."""
        loads = []
        real = StateStore.load

        def load(store):
            loads.append(store.base_path.name)
            return real(store)

        monkeypatch.setattr(StateStore, "load", load)
        return loads

    @staticmethod
    def trace(seed, edits):
        spec = make_preset("small", seed=seed)
        yield generate_project(spec)
        for edit in random_edit_sequence(spec, edits, seed=seed, mix=FUZZ_EDIT_MIX):
            spec = apply_edit(spec, edit)
            yield generate_project(spec)

    @staticmethod
    def saved_build(project, path, options, jobs=1):
        """One build against the DB at ``path``, saved as the CLI saves it."""
        db = BuildDatabase.load(path)
        report = IncrementalBuilder(
            project.provider(), project.unit_paths, options, db, BuildOptions(jobs=jobs)
        ).build()
        db.save_changes()
        return db, report

    @staticmethod
    def stateless(project):
        db = BuildDatabase()
        IncrementalBuilder(project.provider(), project.unit_paths, CompilerOptions(), db).build()
        return objects(db)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memo_builds_touch_only_the_build_db(self, tmp_path, state_loads, jobs):
        path, reused = tmp_path / "b.reprodb", 0
        for project in self.trace(seed=3, edits=4):
            db, report = self.saved_build(project, path, MEMO, jobs)
            counters = report.metrics["counters"]
            assert counters.get("state.lookups", 0) == 0
            assert counters.get("state.records_written", 0) == 0
            assert report.state == {} and report.bypass.bypassed == 0
            # One entry fingerprint per function, reused or compiled.
            keyed = report.memo["functions_reused"] + report.memo["functions_compiled"]
            assert sum(unit.fingerprint_count for unit in report.compiled) == keyed
            assert objects(db) == self.stateless(project)
            reused += report.memo["functions_reused"]
        assert reused > 0
        assert state_loads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.reprodb"]

    def test_switching_policies_keeps_the_state_for_fine_builds(self, tmp_path, state_loads):
        path = tmp_path / "b.reprodb"
        state = tmp_path / "b.reprodb.state"
        fine = CompilerOptions(stateful=True)
        projects = list(self.trace(seed=5, edits=3))
        # A fine build leaves the state the memo builds must not touch.
        self.saved_build(projects[0], path, fine)
        for step, options in enumerate([MEMO, fine, MEMO], start=1):
            before = (state.read_bytes(), state.stat().st_mtime_ns)
            state_loads.clear()
            db, report = self.saved_build(projects[step], path, options)
            assert objects(db) == self.stateless(projects[step])
            if options is MEMO:
                assert state_loads == [] and report.state == {}
                assert (state.read_bytes(), state.stat().st_mtime_ns) == before
            else:
                # The fine build loads the state its predecessor left.
                assert state_loads == ["b.reprodb.state"]
                assert report.state["build_counter"] == 2
                assert report.metrics["counters"]["state.records_refreshed"] > 0
                assert state.read_bytes() != before[0]
        assert StateStore(state).load().build_counter == 2


class TestObservability:
    def test_report_round_trips_memo(self):
        db = BuildDatabase()
        build(FILES, db)
        report = build({"a.mc": "// c\n" + FILES["a.mc"]}, db)
        payload = json.loads(report.to_json())
        assert payload["schema"] == 5 and payload["memo"]["functions_reused"] == 3
        assert BuildReport.from_json(report.to_json()).to_dict() == payload
        record = HistoryRecord(1, 0.0, "edit", payload)
        assert (record.functions_reused, record.functions_compiled) == (3, 0)
        assert record.bypass_rate == 0.0

    def test_explain_reports_reuse(self):
        db = BuildDatabase()
        build(FILES, db)
        edited = {"a.mc": FILES["a.mc"].replace("h(3)", "h(5)")}
        build(edited, db)
        provider = MemoryFileProvider(edited)
        text = explain_unit(db, DependencyScanner(provider), "a.mc", "-O2")
        assert "reused the machine code of 2/3 functions" in text

    def test_audit_recompiles_reused_functions(self):
        db = BuildDatabase()
        build(FILES, db)
        provider = MemoryFileProvider(dict(FILES))
        audit = audit_fingerprint_collisions(
            provider, ["a.mc"], MEMO, db.live_state, units=db.units
        )
        assert audit.ok and audit.memo_checked == 3

    def test_audit_of_a_db_switched_from_fine_to_memo(self):
        # The fine build left dormancy records, the memo build memo keys.
        db = BuildDatabase()
        build(FILES, db, CompilerOptions(stateful=True))
        build({"a.mc": "// c\n" + FILES["a.mc"]}, db)
        assert db.live_state is not None and db.units["a.mc"].memo
        audit = audit_fingerprint_collisions(
            MemoryFileProvider(dict(FILES)), ["a.mc"], MEMO, db.live_state, units=db.units
        )
        assert audit.ok and audit.audited > 0 and audit.memo_checked == 3

    def test_audit_catches_reused_code_that_differs(self):
        db = BuildDatabase()
        build(FILES, db)
        record = db.units["a.mc"]
        tampered = json.loads(record.object_json)
        for function in tampered["functions"]:
            if function["name"] == "h":
                for inst in function["code"]:
                    if inst[0] == MOp.LI.value:
                        inst[2] += 1
                        break
        record.object_json = json.dumps(tampered, indent=1, sort_keys=True)
        audit = audit_fingerprint_collisions(
            MemoryFileProvider(dict(FILES)), ["a.mc"], MEMO, db.live_state, units=db.units
        )
        assert [(m["kind"], m["function"]) for m in audit.mismatches] == [("memo-reuse", "h")]


def test_purity_flip_edit_toggles_a_printing_probe():
    spec = make_preset("tiny", seed=1)
    module = spec.modules[0]
    flipped = apply_edit(spec, Edit(EditKind.PURITY_FLIP, module.name))
    text = generate_project(flipped).files[f"{module.name}.mc"]
    assert f"int {module.name}_probe(" in text and "print(v);" in text
    again = generate_project(apply_edit(flipped, Edit(EditKind.PURITY_FLIP, module.name)))
    assert "print(v);" not in again.files[f"{module.name}.mc"]
    # The caller's text is the same either way.
    caller = module.functions[-1].name
    assert text[text.index(f"int {caller}("):] == again.files[f"{module.name}.mc"][
        again.files[f"{module.name}.mc"].index(f"int {caller}("):
    ]


class TestIndentedObjects:
    """Build DBs whose objects were stored as indented JSON, the format
    before objects were stored compact."""

    def test_they_stay_up_to_date_link_memo_reuse_and_are_rewritten(self, tmp_path):
        files = dict(FILES, **{"b.mc": "int b(int x) { return x + 2; }\n"})
        path = tmp_path / "build.reprodb"
        db = BuildDatabase()
        build(files, db)
        for record in db.units.values():
            indented = json.dumps(json.loads(record.object_json), indent=1, sort_keys=True)
            record.object_json, record.object_digest = indented, content_digest(indented)
        db.save(path)
        indented = objects(BuildDatabase.load(path))
        assert all("\n" in text for text in indented.values())

        db = BuildDatabase.load(path)
        report = build(files, db)
        assert report.num_recompiled == 0 and objects(db) == indented
        assert VirtualMachine(report.image).run().output == [15]

        edited = dict(files, **{"a.mc": FILES["a.mc"].replace("h(3)", "h(4)")})
        report = build(edited, db)
        assert report.num_recompiled == 1
        # g and h take their code from the indented object.
        assert report.memo == {"functions_reused": 2, "functions_compiled": 1}
        assert VirtualMachine(report.image).run().output == [18]
        # The recompiled unit is stored compact, byte-identical to a
        # stateless build; the untouched one keeps its indented object.
        assert objects(db)["a.mc"] == stateless_objects(edited)["a.mc"]
        assert "\n" not in objects(db)["a.mc"]
        assert objects(db)["b.mc"] == indented["b.mc"]
