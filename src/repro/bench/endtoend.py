"""End-to-end incremental-build experiment (Table 2 / Figure 6).

Replays a deterministic edit trace against a generated project and
measures every incremental build twice — once per compiler variant
(e.g. stateless vs stateful) — with the *same* file sequence, isolating
exactly the mechanism under test.

Both wall-clock seconds and the deterministic pass-work cost model are
recorded; the headline speedup is reported on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import BuildOptions, IncrementalBuilder
from repro.driver import CompilerOptions
from repro.workload.edits import Edit, apply_edit, random_edit_sequence
from repro.workload.generator import generate_project
from repro.workload.spec import ProjectSpec, make_preset


@dataclass
class EditStepResult:
    """One incremental build after one edit."""

    edit: str
    wall_time: float
    pass_work: int
    recompiled_units: int
    bypassed: int
    executed: int
    fingerprint_time: float = 0.0

    @property
    def total_scheduled(self) -> int:
        return self.bypassed + self.executed


@dataclass
class TraceResult:
    """One variant's measurements over a whole edit trace."""

    variant: str
    clean_build_time: float = 0.0
    clean_build_work: int = 0
    steps: list[EditStepResult] = field(default_factory=list)

    @property
    def total_incremental_time(self) -> float:
        return sum(s.wall_time for s in self.steps)

    @property
    def total_incremental_work(self) -> int:
        return sum(s.pass_work for s in self.steps)

    @property
    def mean_bypass_ratio(self) -> float:
        totals = [(s.bypassed, s.total_scheduled) for s in self.steps if s.total_scheduled]
        if not totals:
            return 0.0
        return sum(b for b, _ in totals) / sum(t for _, t in totals)


def run_edit_trace(
    preset: str,
    variants: dict[str, CompilerOptions],
    *,
    num_edits: int = 10,
    seed: int = 1,
    edits: list[Edit] | None = None,
    jobs: int = 1,
) -> dict[str, TraceResult]:
    """Run the edit-trace experiment for each variant.

    Every variant sees the identical project evolution; each keeps its
    own build database (and, if stateful, compiler state) across steps,
    exactly like a developer's working tree.  ``jobs > 1`` runs every
    build on a worker pool, measuring the mechanism under ``make -j``
    conditions.
    """
    build_options = BuildOptions(jobs=jobs)
    spec0 = make_preset(preset, seed=seed)
    trace = edits if edits is not None else random_edit_sequence(spec0, num_edits, seed=seed)

    # Pre-generate the project sequence once (shared across variants).
    specs: list[ProjectSpec] = [spec0]
    for edit in trace:
        specs.append(apply_edit(specs[-1], edit))
    projects = [generate_project(s) for s in specs]

    results: dict[str, TraceResult] = {}
    for variant_name, options in variants.items():
        result = TraceResult(variant_name)
        db = BuildDatabase()

        clean = IncrementalBuilder(
            projects[0].provider(), projects[0].unit_paths, options, db, build_options
        ).build()
        result.clean_build_time = clean.total_wall_time
        result.clean_build_work = clean.total_pass_work

        for edit, project in zip(trace, projects[1:]):
            report = IncrementalBuilder(
                project.provider(), project.unit_paths, options, db, build_options
            ).build()
            result.steps.append(
                EditStepResult(
                    edit=edit.describe(),
                    wall_time=report.total_wall_time,
                    pass_work=report.total_pass_work,
                    recompiled_units=report.num_recompiled,
                    bypassed=report.bypass.bypassed,
                    executed=report.bypass.executions,
                    fingerprint_time=sum(u.fingerprint_time for u in report.compiled),
                )
            )
        results[variant_name] = result
    return results


def default_variants(opt_level: str = "O2") -> dict[str, CompilerOptions]:
    """The paper's primary comparison: stock compiler vs stateful."""
    return {
        "stateless": CompilerOptions(opt_level=opt_level, stateful=False),
        "stateful": CompilerOptions(opt_level=opt_level, stateful=True),
    }
