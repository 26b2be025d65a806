"""Differential correctness fuzzing: stateful must be invisible.

The stateful compiler's contract is that bypassing changes *nothing*
observable: across any edit history, a stateful incremental build (at
any ``-j``) must produce bit-identical output to a stateless clean
build of the same tree.  This module turns that contract into a
fuzzable property:

1. generate a project from a seeded preset and a seeded random edit
   trace (:mod:`repro.workload`);
2. replay the trace three ways — clean stateless rebuilds (the
   reference), stateful incremental at ``-j 1``, and stateful
   incremental at ``-j N`` with the snapshot/delta merge protocol;
3. after every step compare linked images byte-for-byte
   (:meth:`~repro.backend.linker.LinkedImage.to_json`), per-unit
   object JSON, and the stateful variants' bypass/record accounting
   against each other.

When a ``workdir`` is given, the stateful build databases additionally
round-trip through their files on real disk between steps — a whole
``save`` on the first step, then ``save_changes`` (delta-log appends and
compactions of ``<db>.state*``) — and the state read back must equal
the state in memory record for record, GC clock and counters included.
So the fuzz property covers the crash-consistent persistence format too:
a checksum, framing or replay bug shows up as a differential failure,
not just a unit-test failure.

Run standalone (CI does, with a fixed seed)::

    python -m repro.testing.differential --traces 25 --seed 1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.driver import CompilerOptions
from repro.workload.edits import apply_edit, random_edit_sequence
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset


@dataclass
class Divergence:
    """One observed difference between build variants."""

    step: int
    kind: str  # "image" | "object" | "records" | "behaviour" | "persistence"
    detail: str

    def describe(self) -> str:
        return f"step {self.step} [{self.kind}]: {self.detail}"


@dataclass
class DifferentialResult:
    """Outcome of one fuzzed edit trace."""

    preset: str
    seed: int
    jobs: tuple[int, ...]
    steps: int = 0
    builds: int = 0
    objects_compared: int = 0
    edits: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        return (
            f"trace(preset={self.preset}, seed={self.seed}, jobs={list(self.jobs)}): "
            f"{self.steps} steps, {self.builds} builds, "
            f"{self.objects_compared} objects compared — {verdict}"
        )


def run_differential_trace(
    preset: str = "tiny",
    *,
    seed: int = 1,
    num_edits: int = 3,
    jobs: tuple[int, ...] = (1, 4),
    executor: str = "thread",
    opt_level: str = "O2",
    workdir: str | Path | None = None,
    execute: bool = False,
) -> DifferentialResult:
    """Fuzz one seeded edit trace; see the module docstring for the law."""
    result = DifferentialResult(preset=preset, seed=seed, jobs=tuple(jobs))
    spec = make_preset(preset, seed=seed)
    edits = random_edit_sequence(spec, num_edits, seed=seed)
    result.edits = [edit.describe() for edit in edits]

    specs = [spec]
    for edit in edits:
        specs.append(apply_edit(specs[-1], edit))

    stateless = CompilerOptions(opt_level=opt_level, stateful=False)
    stateful = CompilerOptions(opt_level=opt_level, stateful=True)
    dbs: dict[int, BuildDatabase] = {j: BuildDatabase() for j in jobs}
    db_paths = {
        j: Path(workdir) / f"j{j}.reprodb" for j in jobs
    } if workdir is not None else {}

    for step, current in enumerate(specs):
        project = generate_project(current)
        provider, units = project.provider(), project.unit_paths

        # Reference: a from-scratch stateless build of this tree.
        ref_db = BuildDatabase()
        ref_report = IncrementalBuilder(provider, units, stateless, ref_db).build()
        ref_image = ref_report.image.to_json()
        result.builds += 1

        variants: dict[int, tuple[BuildDatabase, object]] = {}
        for j in jobs:
            build_options = BuildOptions(
                jobs=j, executor="serial" if j <= 1 else executor
            )
            report = IncrementalBuilder(
                provider, units, stateful, dbs[j], build_options
            ).build()
            result.builds += 1
            variants[j] = (dbs[j], report)

            image = report.image.to_json()
            if image != ref_image:
                result.divergences.append(Divergence(
                    step, "image",
                    f"-j {j} stateful image != stateless reference",
                ))
            for path in units:
                result.objects_compared += 1
                if dbs[j].units[path].object_json != ref_db.units[path].object_json:
                    result.divergences.append(Divergence(
                        step, "object", f"-j {j}: {path} differs from stateless"
                    ))
            if set(dbs[j].units) != set(units):
                result.divergences.append(Divergence(
                    step, "records",
                    f"-j {j}: DB has {len(dbs[j].units)} unit records, "
                    f"project has {len(units)}",
                ))

            if execute:
                from repro.vm.machine import VirtualMachine

                ref_run = VirtualMachine(ref_report.image).run()
                var_run = VirtualMachine(report.image).run()
                if not ref_run.same_behaviour(var_run):
                    result.divergences.append(Divergence(
                        step, "behaviour", f"-j {j} execution diverged"
                    ))

        # The stateful variants must also agree with *each other* on the
        # dormancy bookkeeping: after the -j N snapshot/delta merge, the
        # record population must be *identical* to the serial build's —
        # same keys, same verdicts, same GC timestamps.  (Bypass
        # *counters* legitimately differ: a serial build can bypass
        # unit B via a record unit A created seconds earlier, while
        # parallel workers only see the state snapshot from build
        # start; determinism of the pass pipeline makes them converge
        # on the same records regardless.)
        baseline_j = jobs[0]
        base_db, base_report = variants[baseline_j]
        for j in jobs[1:]:
            other_db, other_report = variants[j]
            base_state = base_db.live_state.records if base_db.live_state else None
            other_state = other_db.live_state.records if other_db.live_state else None
            if base_state != other_state:
                base_n = len(base_state) if base_state is not None else -1
                other_n = len(other_state) if other_state is not None else -1
                result.divergences.append(Divergence(
                    step, "records",
                    f"dormancy records diverge: -j {baseline_j} has {base_n}, "
                    f"-j {j} has {other_n} (or equal counts, unequal contents)",
                ))
            base_work = base_report.bypass
            other_work = other_report.bypass
            if (base_work.executions + base_work.bypassed
                    != other_work.executions + other_work.bypassed):
                result.divergences.append(Divergence(
                    step, "records",
                    f"pass-run totals differ: -j {baseline_j} saw "
                    f"{base_work.executions + base_work.bypassed}, -j {j} saw "
                    f"{other_work.executions + other_work.bypassed}",
                ))

        # Optionally round-trip every stateful DB through the on-disk
        # crash-consistent format so the fuzz law covers persistence.
        for j, db_path in db_paths.items():
            db = dbs[j]
            if db.path == db_path:
                db.save_changes()
            else:
                db.save(db_path)
            reloaded = BuildDatabase.load(db_path)
            if reloaded.live_state != db.live_state:
                result.divergences.append(Divergence(
                    step, "persistence",
                    f"-j {j}: compiler state read back from {db_path.name}.state* "
                    f"differs from the state in memory",
                ))
            dbs[j] = reloaded

        result.steps += 1
    return result


def main(argv: list[str] | None = None) -> int:
    """Fuzzer entry point (``python -m repro.testing.differential``)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="differential correctness fuzzer: stateful incremental "
                    "vs -j N vs stateless clean builds over random edit traces",
    )
    parser.add_argument("--preset", default="tiny", help="project preset (default tiny)")
    parser.add_argument("--traces", type=int, default=25, help="edit traces to fuzz")
    parser.add_argument("--edits", type=int, default=3, help="edits per trace")
    parser.add_argument("--seed", type=int, default=1, help="base seed (trace i uses seed+i)")
    parser.add_argument("--jobs", default="1,4", help="job counts (default 1,4)")
    parser.add_argument(
        "--executor", choices=["process", "thread"], default="thread",
        help="pool kind for -j > 1 (default thread)",
    )
    parser.add_argument(
        "--execute", action="store_true",
        help="also run every linked image and compare behaviour",
    )
    args = parser.parse_args(argv)

    import tempfile

    jobs = tuple(int(j) for j in args.jobs.split(",") if j.strip())
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as workdir:
        for i in range(args.traces):
            result = run_differential_trace(
                args.preset,
                seed=args.seed + i,
                num_edits=args.edits,
                jobs=jobs,
                executor=args.executor,
                workdir=workdir,
                execute=args.execute,
            )
            print(result.describe())
            for divergence in result.divergences:
                print(f"  {divergence.describe()}")
            failures += 0 if result.ok else 1
    print(
        f"differential fuzz: {args.traces - failures}/{args.traces} traces clean "
        f"(preset={args.preset}, seeds {args.seed}..{args.seed + args.traces - 1})"
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
