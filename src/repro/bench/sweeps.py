"""Parameter sweeps and ablations (Figures 7, 9, 10).

- :func:`edit_size_sweep` — speedup as a function of how many functions
  one rebuild touches (Figure 7): the win shrinks as edits grow, since
  fewer passes can be bypassed.
- :func:`granularity_ablation` — fine-grained (function×pass) vs coarse
  (whole-function all-or-nothing) vs none (Figure 9), plus the memo
  policy (fine-grained and machine-code reuse), which goes beyond the
  paper.
- :func:`fingerprint_ablation` — canonical (name-insensitive) vs named
  fingerprints (Figure 10): both are safe; canonical bypasses more.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import BuildReport, IncrementalBuilder
from repro.core.policies import SkipPolicy
from repro.driver import CompilerOptions
from repro.workload.edits import Edit, EditKind, apply_edit
from repro.workload.generator import generate_project
from repro.workload.spec import ProjectSpec, make_preset, seeded_rng


@dataclass
class SweepPoint:
    """One sweep configuration's stateless-vs-stateful comparison."""

    label: str
    stateless_time: float
    stateful_time: float
    stateless_work: int
    stateful_work: int
    bypass_ratio: float

    @property
    def time_speedup(self) -> float:
        return self.stateless_time / self.stateful_time if self.stateful_time else 0.0

    @property
    def work_speedup(self) -> float:
        return self.stateless_work / self.stateful_work if self.stateful_work else 0.0


def _build_once(project, options: CompilerOptions, db: BuildDatabase) -> BuildReport:
    return IncrementalBuilder(project.provider(), project.unit_paths, options, db).build()


def _multi_edit(spec: ProjectSpec, num_functions: int, seed: int) -> ProjectSpec:
    """Apply body edits to ``num_functions`` distinct functions."""
    rng = seeded_rng("sweep-edit", spec.name, seed, num_functions)
    all_fns = spec.all_functions
    chosen = rng.sample(all_fns, min(num_functions, len(all_fns)))
    for module, fn in chosen:
        spec = apply_edit(spec, Edit(EditKind.BODY, module.name, fn.name))
    return spec


def edit_size_sweep(
    preset: str = "medium",
    sizes: list[int] | None = None,
    *,
    opt_level: str = "O2",
    seed: int = 1,
) -> list[SweepPoint]:
    """Figure 7: rebuild after editing k functions, k in ``sizes``."""
    sizes = sizes or [1, 2, 4, 8, 16, 32]
    base_spec = make_preset(preset, seed=seed)
    base_project = generate_project(base_spec)

    points: list[SweepPoint] = []
    for k in sizes:
        edited_project = generate_project(_multi_edit(base_spec, k, seed))
        measurements = {}
        for stateful in (False, True):
            options = CompilerOptions(opt_level=opt_level, stateful=stateful)
            db = BuildDatabase()
            _build_once(base_project, options, db)  # warm build
            report = _build_once(edited_project, options, db)
            measurements[stateful] = report
        stateless, stateful_report = measurements[False], measurements[True]
        points.append(
            SweepPoint(
                label=f"{k} functions",
                stateless_time=stateless.total_wall_time,
                stateful_time=stateful_report.total_wall_time,
                stateless_work=stateless.total_pass_work,
                stateful_work=stateful_report.total_pass_work,
                bypass_ratio=stateful_report.bypass.bypass_ratio,
            )
        )
    return points


def granularity_ablation(
    preset: str = "medium",
    *,
    num_edits: int = 8,
    opt_level: str = "O2",
    seed: int = 1,
) -> dict[str, "TraceSummary"]:
    """Figure 9: fine vs coarse vs none over an edit trace."""
    from repro.bench.endtoend import run_edit_trace

    variants = {
        "none (stateless)": CompilerOptions(opt_level=opt_level, stateful=False),
        "coarse (function-level)": CompilerOptions(
            opt_level=opt_level, stateful=True, policy=SkipPolicy.COARSE
        ),
        "fine (function x pass)": CompilerOptions(
            opt_level=opt_level, stateful=True, policy=SkipPolicy.FINE_GRAINED
        ),
        "memo (fine + code reuse)": CompilerOptions(
            opt_level=opt_level, stateful=True, policy=SkipPolicy.MEMO
        ),
    }
    traces = run_edit_trace(preset, variants, num_edits=num_edits, seed=seed)
    return {name: summarize_trace(result) for name, result in traces.items()}


def fingerprint_ablation(
    preset: str = "medium",
    *,
    num_edits: int = 8,
    opt_level: str = "O2",
    seed: int = 1,
) -> dict[str, "TraceSummary"]:
    """Figure 10: canonical vs named fingerprints."""
    from repro.bench.endtoend import run_edit_trace

    variants = {
        "canonical": CompilerOptions(
            opt_level=opt_level, stateful=True, fingerprint_mode="canonical"
        ),
        "named": CompilerOptions(
            opt_level=opt_level, stateful=True, fingerprint_mode="named"
        ),
    }
    traces = run_edit_trace(preset, variants, num_edits=num_edits, seed=seed)
    return {name: summarize_trace(result) for name, result in traces.items()}


@dataclass
class TraceSummary:
    total_time: float
    total_work: int
    bypass_ratio: float
    #: Functions whose machine code the memo policy reused (0 otherwise).
    functions_reused: int = 0


def summarize_trace(result) -> TraceSummary:
    return TraceSummary(
        total_time=result.total_incremental_time,
        total_work=result.total_incremental_work,
        bypass_ratio=result.mean_bypass_ratio,
        functions_reused=sum(s.functions_reused for s in result.steps),
    )
