"""Parallel-build scaling sweep (Figure 11): wall time vs ``-j``.

Clean-builds one generated project at each requested job count and
reports wall time, speedup over ``-j 1``, and parallel efficiency
(speedup / jobs).  Every parallel point is also checked against the
serial build's linked image — the sweep doubles as a determinism
harness for the snapshot/delta state-merge protocol.

On an N-core machine the worker processes should approach N× on the
compile phase; past the core count the sweep measures pool overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.tables import format_table
from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import BuildOptions, IncrementalBuilder
from repro.driver import CompilerOptions
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset


@dataclass
class ParallelPoint:
    """One job count's clean-build measurement."""

    jobs: int
    wall_time: float
    compile_phase_time: float
    workers: int
    matches_serial: bool

    #: Filled in relative to the sweep's -j 1 point.
    speedup: float = 1.0

    @property
    def efficiency(self) -> float:
        return self.speedup / self.jobs if self.jobs else 0.0


def _image_key(image) -> tuple:
    return (image.code, image.functions, image.global_base, image.data)


def parallel_sweep(
    preset: str = "large",
    jobs: list[int] | None = None,
    *,
    stateful: bool = False,
    opt_level: str = "O2",
    repeats: int = 3,
    seed: int = 1,
) -> list[ParallelPoint]:
    """Clean-build ``preset`` at each job count; returns one point per j.

    Each point keeps the fastest of ``repeats`` builds (standard
    practice for wall-clock scaling curves — the minimum is the least
    noise-contaminated sample).  Every build starts from an empty
    database so all units are dirty and parallelism is maximal.
    """
    jobs = jobs or [1, 2, 4, 8]
    project = generate_project(make_preset(preset, seed=seed))
    options = CompilerOptions(opt_level=opt_level, stateful=stateful)

    serial_key = None
    points: list[ParallelPoint] = []
    for j in sorted(set(jobs)):
        build_options = BuildOptions(jobs=j)
        best = None
        for _ in range(max(1, repeats)):
            report = IncrementalBuilder(
                project.provider(), project.unit_paths, options,
                BuildDatabase(), build_options,
            ).build()
            if best is None or report.total_wall_time < best.total_wall_time:
                best = report
        assert best is not None and best.image is not None
        key = _image_key(best.image)
        if serial_key is None:
            serial_key = key
        points.append(
            ParallelPoint(
                jobs=j,
                wall_time=best.total_wall_time,
                compile_phase_time=best.compile_phase_time,
                workers=best.num_workers,
                matches_serial=key == serial_key,
            )
        )

    base = points[0].wall_time if points else 0.0
    for point in points:
        point.speedup = base / point.wall_time if point.wall_time else 0.0
    return points


def format_parallel_sweep(
    preset: str, points: list[ParallelPoint], *, stateful: bool = False
) -> str:
    variant = "stateful" if stateful else "stateless"
    rows = [
        [
            f"-j {p.jobs}",
            p.workers,
            f"{p.wall_time:.3f}s",
            f"{p.speedup:.2f}x",
            f"{p.efficiency:.0%}",
            "yes" if p.matches_serial else "NO",
        ]
        for p in points
    ]
    return format_table(
        ["jobs", "workers", "wall", "speedup", "efficiency", "image==serial"],
        rows,
        title=f"Figure 11: parallel clean-build scaling ({preset}, {variant})",
    )
