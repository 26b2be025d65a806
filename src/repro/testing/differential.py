"""Differential correctness fuzzing: stateful must be invisible.

The stateful compiler's contract is that bypassing changes *nothing*
observable: across any edit history, a stateful incremental build (at
any ``-j``) must produce bit-identical output to a stateless clean
build of the same tree.  This module turns that contract into a
fuzzable property:

1. generate a project from a seeded preset, with some includes placed
   where only a full parse finds them (after a comment or a global
   definition), and a seeded random edit trace (:mod:`repro.workload`);
2. replay the trace — clean stateless rebuilds (the reference), and
   stateful incremental builds under the fine-grained and the memo
   policy, each at ``-j 1`` and at ``-j N`` with the snapshot/delta
   merge protocol;
3. after every step compare linked images byte-for-byte
   (:meth:`~repro.backend.linker.LinkedImage.to_json`), per-unit
   object JSON, and each policy's accounting across job counts: the
   same records, the same record count, and the same executed, dormant,
   bypassed and work counts for every pass; each variant's own counters
   must also satisfy
   ``state.lookups >= state.records_refreshed (hits) >= bypassed``, and
   a memo-policy DB must hold no compiler state.

When a ``workdir`` is given, the stateful build databases additionally
round-trip through their files on real disk between steps — a whole
``save`` on the first step, then ``save_changes`` (a rewrite of the DB
file, compiler state section included) — and the state read back must
equal the state in memory record for record, GC clock and counters
included.
So the fuzz property covers the crash-consistent persistence format too:
a checksum, framing or splice bug shows up as a differential failure,
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
from repro.core.policies import SkipPolicy
from repro.driver import CompilerOptions
from repro.workload.edits import EditKind, apply_edit, random_edit_sequence
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset


#: The fuzzer's edit mix: the benchmark's kinds plus purity flips, the
#: edits that change a module fact (callee purity) a function pass reads.
FUZZ_EDIT_MIX: list[tuple[EditKind, float]] = [
    (EditKind.BODY, 0.30),
    (EditKind.CONST_TWEAK, 0.20),
    (EditKind.PURITY_FLIP, 0.22),
    (EditKind.COMMENT, 0.10),
    (EditKind.HEADER_CONST, 0.10),
    (EditKind.ADD_FUNCTION, 0.08),
]

#: The stateful policies every trace replays.
POLICIES = (SkipPolicy.FINE_GRAINED, SkipPolicy.MEMO)


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
    opt_level: str = "O2",
    workdir: str | Path | None = None,
    execute: bool = False,
) -> DifferentialResult:
    """Fuzz one seeded edit trace; see the module docstring for the law."""
    result = DifferentialResult(preset=preset, seed=seed, jobs=tuple(jobs))
    spec = make_preset(preset, seed=seed, late_includes=True)
    edits = random_edit_sequence(spec, num_edits, seed=seed, mix=FUZZ_EDIT_MIX)
    result.edits = [edit.describe() for edit in edits]

    specs = [spec]
    for edit in edits:
        specs.append(apply_edit(specs[-1], edit))

    stateless = CompilerOptions(opt_level=opt_level, stateful=False)
    #: One stateful variant per (policy, job count), each with its own DB.
    variants = [(policy, j) for policy in POLICIES for j in jobs]
    dbs: dict[tuple, BuildDatabase] = {v: BuildDatabase() for v in variants}
    db_paths = {
        (policy, j): Path(workdir) / f"{policy.value}-j{j}.reprodb"
        for policy, j in variants
    } if workdir is not None else {}

    for step, current in enumerate(specs):
        project = generate_project(current)
        provider, units = project.provider(), project.unit_paths

        # Reference: a from-scratch stateless build of this tree.
        ref_db = BuildDatabase()
        ref_report = IncrementalBuilder(provider, units, stateless, ref_db).build()
        ref_image = ref_report.image.to_json()
        result.builds += 1

        reports = {}
        for policy, j in variants:
            db = dbs[policy, j]
            name = f"{policy.value} -j {j}"
            options = CompilerOptions(opt_level=opt_level, stateful=True, policy=policy)
            report = IncrementalBuilder(
                provider, units, options, db, BuildOptions(jobs=j)
            ).build()
            result.builds += 1
            reports[policy, j] = report

            image = report.image.to_json()
            if image != ref_image:
                result.divergences.append(Divergence(
                    step, "image", f"{name} stateful image != stateless reference",
                ))
            for path in units:
                result.objects_compared += 1
                if db.units[path].object_json != ref_db.units[path].object_json:
                    result.divergences.append(Divergence(
                        step, "object", f"{name}: {path} differs from stateless"
                    ))
            # Every bypass needs a hit and every hit a lookup, on pool
            # workers as in process.
            counters = report.metrics["counters"]
            lookups = counters.get("state.lookups", 0)
            hits = counters.get("state.records_refreshed", 0)
            if not lookups >= hits >= report.bypass.bypassed:
                result.divergences.append(Divergence(
                    step, "records",
                    f"{name}: state counters break lookups >= hits >= bypassed "
                    f"({lookups}, {hits}, {report.bypass.bypassed})",
                ))
            if not options.keeps_state and db.live_state is not None:
                result.divergences.append(Divergence(
                    step, "records", f"{name}: a memo build keeps compiler state",
                ))
            if set(db.units) != set(units):
                result.divergences.append(Divergence(
                    step, "records",
                    f"{name}: DB has {len(db.units)} unit records, "
                    f"project has {len(units)}",
                ))

            if execute:
                from repro.vm.machine import VirtualMachine

                ref_run = VirtualMachine(ref_report.image).run()
                var_run = VirtualMachine(report.image).run()
                if not ref_run.same_behaviour(var_run):
                    result.divergences.append(Divergence(
                        step, "behaviour", f"{name} execution diverged"
                    ))

        # The stateful variants of one policy must also agree with *each
        # other*: every unit compiles against the state as the build
        # started at every -j, so the record population (same keys,
        # verdicts and GC timestamps), each pass's counters and the memo's
        # reuse must be identical to the first job count's.
        for policy in POLICIES:
            baseline_j = jobs[0]
            base_db, base_report = dbs[policy, baseline_j], reports[policy, baseline_j]
            for j in jobs[1:]:
                other_db, other_report = dbs[policy, j], reports[policy, j]
                base_state = base_db.live_state.records if base_db.live_state else None
                other_state = other_db.live_state.records if other_db.live_state else None
                if (base_state != other_state
                        or base_report.state_records != other_report.state_records):
                    result.divergences.append(Divergence(
                        step, "records",
                        f"{policy.value}: dormancy records diverge: -j {baseline_j} "
                        f"has {base_report.state_records}, -j {j} has "
                        f"{other_report.state_records} "
                        "(or equal counts, unequal contents)",
                    ))
                base_counts = base_report.bypass.counts()
                other_counts = other_report.bypass.counts()
                if base_counts != other_counts:
                    passes = sorted(
                        name for name in base_counts.keys() | other_counts.keys()
                        if base_counts.get(name) != other_counts.get(name)
                    )
                    result.divergences.append(Divergence(
                        step, "records",
                        f"{policy.value}: per-pass counters differ between -j "
                        f"{baseline_j} and -j {j} (executed, dormant, bypassed, "
                        f"work) in {', '.join(passes)}",
                    ))
                if base_report.memo != other_report.memo:
                    result.divergences.append(Divergence(
                        step, "records",
                        f"{policy.value}: memo reuse differs: -j {baseline_j} "
                        f"{base_report.memo}, -j {j} {other_report.memo}",
                    ))

        # Optionally round-trip every stateful DB through the on-disk
        # crash-consistent format so the fuzz law covers persistence.
        for variant, db_path in db_paths.items():
            db = dbs[variant]
            if db.path == db_path:
                db.save_changes()
            else:
                db.save(db_path)
            reloaded = BuildDatabase.load(db_path)
            if reloaded.live_state != db.live_state:
                result.divergences.append(Divergence(
                    step, "persistence",
                    f"{variant[0].value} -j {variant[1]}: compiler state read "
                    f"back from {db_path.name} differs from the state in memory",
                ))
            if {p: r.memo for p, r in reloaded.units.items()} != {
                p: r.memo for p, r in db.units.items()
            }:
                result.divergences.append(Divergence(
                    step, "persistence",
                    f"{variant[0].value} -j {variant[1]}: memo keys read back "
                    f"from {db_path.name} differ from the keys in memory",
                ))
            dbs[variant] = reloaded

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
