"""One-shot evaluation report: run every experiment, render every table.

``reprobench`` (or :func:`generate_report`) drives the same runners the
``benchmarks/`` suite uses and assembles a single text report mirroring
the paper's evaluation section — useful for CI artifacts and for
re-running the study at different scales/seeds without pytest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.breakdown import pass_breakdown
from repro.bench.correctness import correctness_check
from repro.bench.dormancy import clean_build_dormancy, dormancy_persistence
from repro.bench.endtoend import default_variants, run_edit_trace
from repro.bench.overheads import overhead_report
from repro.bench.projects import project_characteristics
from repro.bench.sweeps import edit_size_sweep, fingerprint_ablation, granularity_ablation
from repro.bench.tables import format_table, geometric_mean


@dataclass
class ReportConfig:
    """Scales of the experiments; defaults keep a run to a few minutes."""

    presets: tuple[str, ...] = ("tiny", "small", "medium")
    headline_presets: tuple[str, ...] = ("small", "medium")
    dormancy_preset: str = "medium"
    num_edits: int = 8
    sweep_sizes: tuple[int, ...] = (1, 2, 4, 8, 16)
    seed: int = 1
    #: Compile jobs per build for Table 2 / Table 3 (1 = classic serial).
    jobs: int = 1


def generate_report(config: ReportConfig | None = None) -> str:
    """Run all experiments; returns the combined report text."""
    config = config or ReportConfig()
    sections: list[str] = [
        "repro evaluation report",
        f"(presets={list(config.presets)}, edits={config.num_edits}, "
        f"seed={config.seed}, jobs={config.jobs})",
        "",
    ]
    start = time.perf_counter()

    # -- Table 1 -----------------------------------------------------------
    rows = project_characteristics(list(config.presets), seed=config.seed)
    sections.append(
        format_table(
            ["project", "files", "headers", "lines", "functions", "IR insts"],
            [[r.preset, r.files, r.headers, r.source_lines, r.functions, r.ir_instructions] for r in rows],
            title="Table 1: benchmark projects",
        )
    )

    # -- Figure 3 ------------------------------------------------------------
    dorm = clean_build_dormancy(config.dormancy_preset, seed=config.seed)
    total = sum(r.executions for r in dorm)
    dormant = sum(r.dormant for r in dorm)
    sections.append(
        format_table(
            ["position", "pass", "dormancy"],
            [[r.position, r.pass_name, f"{r.ratio:.0%}"] for r in dorm],
            title=f"Figure 3: clean-build dormancy ({config.dormancy_preset}); "
            f"overall {dormant}/{total} = {dormant / total:.1%}",
        )
    )

    # -- Figure 4 -------------------------------------------------------------
    persistence = dormancy_persistence(
        config.dormancy_preset, num_edits=min(config.num_edits, 6), seed=config.seed
    )
    sections.append(
        f"Figure 4: dormancy persistence across builds: {persistence.overall:.1%}"
    )

    # -- Table 2 / Figure 6 -------------------------------------------------------
    headline_rows = []
    speedups = []
    for preset in config.headline_presets:
        traces = run_edit_trace(
            preset,
            default_variants(),
            num_edits=config.num_edits,
            seed=config.seed,
            jobs=config.jobs,
        )
        stateless, stateful = traces["stateless"], traces["stateful"]
        speedup = stateless.total_incremental_time / stateful.total_incremental_time
        work = (
            stateless.total_incremental_work / stateful.total_incremental_work
            if stateful.total_incremental_work
            else float("inf")
        )
        speedups.append(speedup)
        headline_rows.append(
            [
                preset,
                f"{stateless.total_incremental_time:.3f}",
                f"{stateful.total_incremental_time:.3f}",
                f"{(speedup - 1) * 100:+.1f}%",
                f"{(work - 1) * 100:+.1f}%",
                f"{stateful.mean_bypass_ratio:.0%}",
            ]
        )
    sections.append(
        format_table(
            ["project", "stateless s", "stateful s", "time", "work", "bypassed"],
            headline_rows,
            title="Table 2: end-to-end incremental builds (paper: +6.72%)",
        )
        + f"\ngeomean time speedup: {(geometric_mean(speedups) - 1) * 100:+.2f}%"
    )

    # -- Figure 7 ------------------------------------------------------------------
    sweep = edit_size_sweep(
        config.dormancy_preset, sizes=list(config.sweep_sizes), seed=config.seed
    )
    sections.append(
        format_table(
            ["edited", "time speedup", "work speedup", "bypassed"],
            [
                [p.label, f"{p.time_speedup:.3f}x", f"{p.work_speedup:.3f}x", f"{p.bypass_ratio:.0%}"]
                for p in sweep
            ],
            title="Figure 7: speedup vs edit size",
        )
    )

    # -- Figure 8 ---------------------------------------------------------------------
    breakdown = pass_breakdown(config.dormancy_preset, seed=config.seed)
    sections.append(
        format_table(
            ["pass", "sl work", "sf work", "saved"],
            [
                [r.pass_name, r.stateless_work, r.stateful_work, f"{r.work_saved_ratio:.0%}"]
                for r in breakdown
            ],
            title="Figure 8: per-pass work after one body edit",
        )
    )

    # -- Table 3 -------------------------------------------------------------------------
    over = overhead_report(list(config.presets), seed=config.seed, jobs=config.jobs)
    sections.append(
        format_table(
            ["project", "clean overhead", "state KB", "records"],
            [
                [r.preset, f"{r.clean_build_overhead * 100:+.1f}%", f"{r.state_bytes / 1024:.1f}", r.state_records]
                for r in over
            ],
            title="Table 3: statefulness overheads",
        )
    )

    # -- Table 4 ----------------------------------------------------------------------------
    correctness_rows = []
    for preset in config.presets:
        result = correctness_check(
            preset, num_edits=min(config.num_edits, 6), seed=config.seed
        )
        correctness_rows.append(
            [
                preset,
                result.objects_compared,
                len(result.object_mismatches),
                len(result.behaviour_mismatches),
                "PASS" if result.passed else "FAIL",
            ]
        )
    sections.append(
        format_table(
            ["project", "objects", "object mismatches", "behaviour mismatches", "verdict"],
            correctness_rows,
            title="Table 4: stateless-vs-stateful output equivalence",
        )
    )

    # -- Figures 9 & 10 -----------------------------------------------------------------------
    granularity = granularity_ablation(
        config.dormancy_preset, num_edits=min(config.num_edits, 6), seed=config.seed
    )
    sections.append(
        format_table(
            ["policy", "pass work", "bypassed", "fns reused"],
            [
                [name, s.total_work, f"{s.bypass_ratio:.0%}", s.functions_reused]
                for name, s in granularity.items()
            ],
            title="Figure 9: granularity ablation",
        )
    )
    fingerprints = fingerprint_ablation(
        config.dormancy_preset, num_edits=min(config.num_edits, 6), seed=config.seed
    )
    sections.append(
        format_table(
            ["fingerprint", "pass work", "bypassed"],
            [[name, s.total_work, f"{s.bypass_ratio:.0%}"] for name, s in fingerprints.items()],
            title="Figure 10: fingerprint-mode ablation",
        )
    )

    elapsed = time.perf_counter() - start
    sections.append(f"report generated in {elapsed:.1f}s")
    return "\n\n".join(sections)
