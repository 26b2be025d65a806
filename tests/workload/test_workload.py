"""Workload generator and edit model tests."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.driver import CompilerOptions
from repro.vm.machine import VirtualMachine
from repro.workload.edits import (
    DEFAULT_EDIT_MIX,
    Edit,
    EditKind,
    apply_edit,
    random_edit_sequence,
)
from repro.workload.generator import generate_project
from repro.workload.spec import PRESETS, make_preset, make_spec


class TestSpec:
    def test_presets_exist(self):
        for preset in PRESETS:
            spec = make_preset(preset)
            assert spec.modules

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            make_preset("galactic")

    def test_spec_deterministic(self):
        assert make_preset("small", seed=5) == make_preset("small", seed=5)
        assert make_preset("small", seed=5) != make_preset("small", seed=6)

    def test_imports_form_dag(self):
        spec = make_preset("large", seed=2)
        names = {}
        for module in spec.modules:
            names[module.name] = module.index
            for imported in module.imports:
                assert names[imported] < module.index


class TestGenerator:
    def test_generation_deterministic(self):
        a = generate_project(make_preset("small", seed=9))
        b = generate_project(make_preset("small", seed=9))
        assert a.files == b.files

    def test_projects_compile_and_run(self):
        for seed in (1, 2, 3):
            project = generate_project(make_preset("tiny", seed=seed))
            report = IncrementalBuilder(
                project.provider(), project.unit_paths, CompilerOptions(opt_level="O2")
            ).build()
            result = VirtualMachine(report.image).run()
            assert not result.trapped, f"seed {seed}: {result.trap_message}"

    def test_structure(self):
        project = generate_project(make_preset("small", seed=1))
        assert "main.mc" in project.files
        assert len(project.unit_paths) == 5  # 4 modules + main
        assert len(project.header_paths) == 4
        assert project.count_functions() > 20

    def test_body_seed_changes_exactly_one_function(self):
        spec = make_preset("small", seed=1)
        module = spec.modules[1]
        target = module.functions[2]
        edited = apply_edit(spec, Edit(EditKind.BODY, module.name, target.name))
        before = generate_project(spec).files
        after = generate_project(edited).files
        changed = [p for p in before if before[p] != after[p]]
        assert changed == [f"{module.name}.mc"]

    def test_late_includes_move_includes_but_not_code(self):
        plain = generate_project(make_preset("small", seed=1))
        late = generate_project(make_preset("small", seed=1, late_includes=True))
        texts = "".join(late.files.values())
        assert "*/ include " in texts  # after a comment
        assert any(";" in line.split("include")[0] for line in texts.splitlines()
                   if line.startswith("int ") and "include" in line)  # after a definition
        assert late.files != plain.files

        def objects(project):
            db = BuildDatabase()
            IncrementalBuilder(
                project.provider(), project.unit_paths, CompilerOptions(), db
            ).build(link_output=False)
            return {path: record.object_json for path, record in db.units.items()}

        # The same includes in the same order: the same objects.
        assert objects(late) == objects(plain)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_arbitrary_seeds_run_clean(self, seed):
        spec = make_spec("fuzz", num_modules=2, functions_per_module=3, seed=seed)
        project = generate_project(spec)
        report = IncrementalBuilder(
            project.provider(), project.unit_paths, CompilerOptions(opt_level="O1")
        ).build()
        result = VirtualMachine(report.image).run()
        assert not result.trapped, result.trap_message


class TestEdits:
    def test_comment_edit_changes_only_comments(self):
        spec = make_preset("small", seed=1)
        edited = apply_edit(spec, Edit(EditKind.COMMENT, "mod2"))
        before = generate_project(spec).files
        after = generate_project(edited).files
        assert before["mod2.mc"] != after["mod2.mc"]
        # Stripping comment lines, the code is identical.
        strip = lambda t: "\n".join(
            l for l in t.splitlines() if not l.strip().startswith("//")
        )
        assert strip(before["mod2.mc"]) == strip(after["mod2.mc"])

    def test_header_const_edit_changes_header(self):
        spec = make_preset("small", seed=1)
        edited = apply_edit(spec, Edit(EditKind.HEADER_CONST, "mod0"))
        before = generate_project(spec).files
        after = generate_project(edited).files
        assert before["mod0.mh"] != after["mod0.mh"]

    def test_add_function_appends(self):
        spec = make_preset("small", seed=1)
        edited = apply_edit(spec, Edit(EditKind.ADD_FUNCTION, "mod1"))
        assert len(edited.module_by_name("mod1").functions) == len(
            spec.module_by_name("mod1").functions
        ) + 1
        project = generate_project(edited)
        report = IncrementalBuilder(
            project.provider(), project.unit_paths, CompilerOptions(opt_level="O1")
        ).build()
        assert not VirtualMachine(report.image).run().trapped

    def test_const_tweak_changes_one_literal(self):
        spec = make_preset("small", seed=1)
        module = spec.modules[0]
        fn = module.functions[0]
        edited = apply_edit(spec, Edit(EditKind.CONST_TWEAK, module.name, fn.name))
        before = generate_project(spec).files[f"{module.name}.mc"]
        after = generate_project(edited).files[f"{module.name}.mc"]
        assert before != after
        # whole-file difference is a single line
        diffs = [
            (a, b) for a, b in zip(before.splitlines(), after.splitlines()) if a != b
        ]
        assert len(diffs) == 1

    def test_edit_sequence_deterministic(self):
        spec = make_preset("small", seed=1)
        a = random_edit_sequence(spec, 10, seed=4)
        b = random_edit_sequence(spec, 10, seed=4)
        assert a == b
        assert a != random_edit_sequence(spec, 10, seed=5)

    def test_edit_sequence_applies_cleanly(self):
        spec = make_preset("tiny", seed=1)
        for edit in random_edit_sequence(spec, 12, seed=2):
            spec = apply_edit(spec, edit)
        project = generate_project(spec)
        report = IncrementalBuilder(
            project.provider(), project.unit_paths, CompilerOptions(opt_level="O1")
        ).build()
        assert not VirtualMachine(report.image).run().trapped

    def test_mix_weights_cover_all_kinds(self):
        from repro.testing.differential import FUZZ_EDIT_MIX

        # Purity flips are the fuzzer's alone, so benchmark traces keep their shape.
        kinds = {k for k, _ in DEFAULT_EDIT_MIX}
        assert kinds == set(EditKind) - {EditKind.PURITY_FLIP}
        assert {k for k, _ in FUZZ_EDIT_MIX} == set(EditKind)

    def test_describe(self):
        assert Edit(EditKind.BODY, "mod1", "mod1_f2").describe() == "body@mod1.mod1_f2"
        assert Edit(EditKind.COMMENT, "mod1").describe() == "comment@mod1"
