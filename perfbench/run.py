"""Fresh-process ``reprobuild`` benchmark: stateful vs stateless.

Run from the repository root::

    python3 perfbench/run.py --workload edit-large --seed 1 --seconds 25 --trace 0

Every build is one fresh ``reprobuild`` process, timed from spawn to
exit in a closed loop with one client: the next build starts when the
previous process has exited.  Each step builds both compiler variants
over the same project tree, each into its own build DB, and the order
of the two alternates from step to step.  After each step, outside the
timed region, both DBs must hold byte-identical objects for every unit;
after the last step the stateful image must behave on the VM as the
unoptimised IR does on the IR interpreter.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same workload and seed with a second pair of build DBs whose builds go
through ``perfbench/traced_build.py``, and prints the per-layer
metrics.  The last line of standard output is one JSON object; the
lines before it are a readable table.  README.md documents the
workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED_BUILD = Path(__file__).resolve().parent / "traced_build.py"

#: What the ``reprobuild`` console script runs.
REPROBUILD = "import sys; from repro.cli import reprobuild_main; sys.exit(reprobuild_main())"
#: Variables that would change how a build runs behind the benchmark's back.
SCRUBBED_ENV = ("REPRO_BUILD_JOBS", "REPRO_BUILD_EXECUTOR", "REPRO_LOG")
VARIANTS = ("stateful", "stateless")
PRESET = "large"
#: Every seed starts from the same ``large`` project (the one the
#: ROADMAP's figures use) and plays the seed's edit trace over it: the
#: first SETUP_EDITS edits during set-up, so that seeds give different
#: trees of nearly the same size, then one edit a step on edit-large.
#: Projects of different preset seeds differ by up to 10% in build cost.
PROJECT_SEED = 7
SETUP_EDITS = 5
GOLDEN_RATIO = (5 ** 0.5 - 1) / 2
#: Set-up is repeated and its median reported, so one slow repetition
#: does not read as a regression.
SETUP_REPEATS = 3
#: The fewest steps a run makes, however short ``--seconds`` is.
MIN_STEPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    #: One edit from the seeded trace before every step.
    edits: bool
    #: A fresh build DB for every build (clean builds).
    clean: bool
    #: Seconds one untraced step (both variants) takes on a 2-core
    #: x86-64 box; the step count is ``seconds / step_s``, fixed in
    #: advance so that two runs of one seed do exactly the same work.
    step_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("edit-large", jobs=1, edits=True, clean=False, step_s=0.85),
        Workload("noop-large", jobs=1, edits=False, clean=False, step_s=0.7),
        Workload("clean-large-j2", jobs=2, edits=False, clean=True, step_s=2.6),
    )
}

#: The 18 pass names of the O2 pipeline (module prelude and function passes).
O2_PASSES = (
    "funcattrs", "inline", "mem2reg", "instsimplify", "simplifycfg", "sccp",
    "reassociate", "strengthreduce", "ifconv", "gvn", "cse", "cvp",
    "jumpthreading", "dse", "dce", "licm", "loopunroll", "adce",
)

#: Layers timed by the wrappers in traced_build.py, each reported as
#: its inclusive call time summed over every process of the build;
#: ``build.self_ms`` is the one self time (the builder's own code).
TIMED_LAYERS = (
    "persist.lock_ms", "persist.write_ms", "project.read_ms",
    "builddb.load_ms", "builddb.encode_ms", "deps.scan_ms", "build.self_ms",
    "frontend.resolve_ms", "frontend.sema_ms", "lowering.ms", "verify.ms",
    "passes.ms", "backend.codegen_ms", "backend.decode_ms", "backend.link_ms",
    "parallel.compile_units_ms", "parallel.worker_busy_ms", "history.append_ms",
    *(f"pass.{name}.ms" for name in O2_PASSES),
)
STATEFUL_TIMED_LAYERS = (
    "state.decode_ms", "state.encode_ms", "state.size_summary_ms", "state.gc_ms",
    "state.snapshot_ms", "state.merge_ms", "fingerprint.ms",
)

END_TO_END_UNITS = {
    "stateful_ms_p50": "ms",
    "stateful_ms_p75": "ms",
    "stateless_ms_p50": "ms",
    "stateless_ms_p75": "ms",
    "stateful_cpu_ms_p50": "ms",
    "stateless_cpu_ms_p50": "ms",
    "stateful_rss_mb": "MB",
    "stateless_rss_mb": "MB",
    "stateful_db_kb": "kB",
    "setup_s": "s",
}


def layer_units(variant: str) -> dict[str, str]:
    """Per-layer metric names (without the variant prefix) and units."""
    units = {
        "cli.start_ms": "ms",
        "cli.import_ms": "ms",
        "cli.exit_ms": "ms",
        **{name: "ms" for name in TIMED_LAYERS},
        "builddb.kb": "kB",
        "build.dirty_units": "count",
        "frontend.header_parses": "count",
        "passes.executed": "count",
        "passes.work": "count",
        "backend.objects_decoded": "count",
        "parallel.efficiency": "ratio",
        "obs.metrics_calls": "count",
        "traced_ms": "ms",
        "unattributed_ms": "ms",
        "tracing_overhead_ms": "ms",
    }
    if variant == "stateful":
        units.update({name: "ms" for name in STATEFUL_TIMED_LAYERS})
        units.update({
            "state.records": "count",
            "state.lookups": "count",
            "state.hit_ratio": "ratio",
            "state.remembers": "count",
            "fingerprint.calls": "count",
            "passes.bypassed": "count",
            "passes.bypass_ratio": "ratio",
        })
    return units


# -- the build processes ------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Slot:
    """One build DB and the builds made into it."""

    variant: str
    traced: bool
    dir: Path
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    #: Per-layer values of each traced build.
    layers: list[dict[str, float]] = field(default_factory=list)
    failed_steps: set[int] = field(default_factory=set)

    @property
    def name(self) -> str:
        return f"{self.variant}-traced" if self.traced else self.variant

    @property
    def db(self) -> Path:
        return self.dir / "build.reprodb"

    def db_kb(self) -> float:
        """On-disk size of the build DB (state included), not its
        history or lock file."""
        size = sum(
            p.stat().st_size
            for p in self.dir.iterdir()
            if p.name.startswith(self.db.name)
            and ".history" not in p.name
            and not p.name.endswith(".lock")
        )
        return size / 1024


@dataclass
class BuildRun:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    t_spawn: float
    t_exit: float


def spawn_build(slot: Slot, tree: Path, jobs: int, env: dict, log) -> BuildRun:
    """One ``reprobuild`` process, timed from spawn to exit."""
    args = [str(tree), "--db", str(slot.db), "-j", str(jobs)]
    if slot.variant == "stateful":
        args.append("--stateful")
    if slot.traced:
        cmd = [sys.executable, str(TRACED_BUILD), str(slot.dir / "trace.json"), *args]
    else:
        cmd = [sys.executable, "-c", REPROBUILD, *args]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=tree.parent, stdout=log, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
    t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return BuildRun(
        ok=proc.returncode == 0,
        wall_s=t_exit - t_spawn,
        # wait4's usage includes the workers the build reaped.
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        t_spawn=t_spawn,
        t_exit=t_exit,
    )


# -- inputs -------------------------------------------------------------------


def base_spec():
    from repro.workload import make_preset

    return make_preset(PRESET, seed=PROJECT_SEED)


def edit_trace(seed: int, length: int) -> list:
    """The seed's edit trace over the base project (a prefix is stable).

    Edit kinds follow ``DEFAULT_EDIT_MIX`` and edits visit the modules
    in turn, both in a seed-shuffled order: kinds come from a golden-ratio
    sequence, so every prefix holds each kind in proportion to within an
    edit or two, and modules from a fresh shuffle every round.  Drawing
    both independently (``random_edit_sequence``) moves the median build
    of a 30-step run by about a quarter from seed to seed.
    """
    from repro.workload import Edit, EditKind, apply_edit
    from repro.workload.edits import DEFAULT_EDIT_MIX
    from repro.workload.spec import seeded_rng

    rng = seeded_rng("perfbench-edits", seed)
    offset = rng.random()
    spec, modules, edits = base_spec(), [], []
    for i in range(length):
        u, kind = (offset + i * GOLDEN_RATIO) % 1.0, DEFAULT_EDIT_MIX[-1][0]
        for candidate, weight in DEFAULT_EDIT_MIX:
            if u < weight:
                kind = candidate
                break
            u -= weight
        if not modules:
            modules = [m.name for m in spec.modules]
            rng.shuffle(modules)
        module = spec.module_by_name(modules.pop())
        function = None
        if kind in (EditKind.BODY, EditKind.CONST_TWEAK):
            function = rng.choice(module.functions).name
        edits.append(Edit(kind, module.name, function))
        spec = apply_edit(spec, edits[-1])
    return edits


def write_changed(tree: Path, old: dict[str, str], new: dict[str, str]) -> None:
    for path, text in new.items():
        if old.get(path) != text:
            (tree / path).write_text(text)


def step_seconds(workload: Workload, traced: bool) -> float:
    # A traced run makes four builds a step, two of them traced.
    return workload.step_s * (2.5 if traced else 1.0)


# -- correctness --------------------------------------------------------------


def objects_of(db_path: Path) -> dict[str, str]:
    """The DB's object JSON per unit; a damaged DB reads as empty, so
    the checks below count it as a failed build."""
    from repro.buildsys.builddb import BuildDatabase

    db, _ = BuildDatabase.load_or_empty(db_path)
    return {p: r.object_json for p, r in db.units.items()}


def same_objects(reference: dict[str, str], db_path: Path, units: list[str]) -> bool:
    """Byte-identical object JSON for every unit (the paper's property #1)."""
    objects = objects_of(db_path)
    return all(
        u in reference and u in objects and objects[u] == reference[u] for u in units
    )


def behaves_like_unoptimised_ir(tree: Path, db_path: Path) -> bool:
    """The DB's image on the VM vs the interpreter on unoptimised IR.

    The IR comes straight out of ``lower_program``, before any pass, so
    the oracle is independent of the passes and the backend.  A check
    that raises (a unit missing from the DB, an object that does not
    decode or link) is a failed build, not a crash of the benchmark.
    """
    try:
        return _behaves_like_unoptimised_ir(tree, db_path)
    except Exception:
        traceback.print_exc()
        return False


def _behaves_like_unoptimised_ir(tree: Path, db_path: Path) -> bool:
    from repro.backend.linker import link
    from repro.backend.objfile import ObjectFile
    from repro.frontend.includes import IncludeResolver
    from repro.frontend.sema import analyze
    from repro.lowering import lower_program
    from repro.vm.interp import IRInterpreter
    from repro.vm.machine import VirtualMachine
    from repro.workload.project import Project

    project = Project.read_from(tree)
    objects = objects_of(db_path)
    image = link([ObjectFile.from_json(objects[u]) for u in project.unit_paths])
    resolver = IncludeResolver(project.provider())
    modules = []
    for unit in project.unit_paths:
        resolved = resolver.resolve(unit, project.files[unit])
        modules.append(lower_program(resolved.merged, analyze(resolved.merged), unit))
    return VirtualMachine(image).run().same_behaviour(IRInterpreter(modules).run())


# -- set-up -------------------------------------------------------------------


def set_up(spec, base: Path, traced: bool, env, log):
    """Warm bytecode, write the tree, populate the DBs; returns
    (tree, project files, slots)."""
    from repro.workload import generate_project

    if not compileall.compile_dir(str(SRC), quiet=1):
        raise RuntimeError(f"byte-compiling {SRC} failed")
    base.mkdir(parents=True)
    tree = base / "tree"
    project = generate_project(spec)
    project.write_to(tree)
    slots = [Slot(v, False, base / v) for v in VARIANTS]
    # Populate with -j 2: the DB content is the same as at -j 1.  The
    # clean workload wipes these DBs, but its first timed build then
    # finds the page cache as warm as every later one does.
    for slot in slots:
        slot.dir.mkdir()
        if not spawn_build(slot, tree, 2, env, log).ok:
            raise RuntimeError(f"populating {slot.name} build failed")
    if traced:
        slots += [Slot(v, True, base / f"{v}-traced") for v in VARIANTS]
        for slot in slots[2:]:
            shutil.copytree(base / slot.variant, slot.dir)
    return tree, project.files, slots


# -- per-layer values of one traced build --------------------------------------


def layer_values(slot: Slot, run: BuildRun) -> dict[str, float]:
    payload = json.loads((slot.dir / "trace.json").read_text())
    procs = [payload["main"], *payload["workers"]]

    def ms(layer: str) -> float:
        kind = "self" if layer == "build.self_ms" else "total"
        return 1000 * sum(p[kind].get(layer, 0.0) for p in procs)

    def calls(layer: str) -> int:
        return sum(p["calls"].get(layer, 0) for p in procs)

    report = payload["report"]
    v: dict[str, float] = {
        "cli.start_ms": 1000 * (payload["t_main"] - run.t_spawn),
        "cli.import_ms": 1000 * payload["import_s"],
        "cli.exit_ms": 1000 * (run.t_exit - payload["t_end"]),
        "builddb.kb": slot.db_kb(),
        "build.dirty_units": report["dirty_units"],
        "frontend.header_parses": calls("frontend.parse_ms") - calls("frontend.resolve_ms"),
        "passes.executed": report["executed"],
        "passes.work": report["work"],
        "backend.objects_decoded": calls("backend.decode_ms"),
        "obs.metrics_calls": calls("obs.metrics_calls"),
        "traced_ms": 1000 * run.wall_s,
    }
    layers = TIMED_LAYERS
    if slot.variant == "stateful":
        layers += STATEFUL_TIMED_LAYERS
        lookups, executed = report["lookups"], report["executed"]
        v.update({
            "state.records": report["state_records"],
            "state.lookups": lookups,
            "state.hit_ratio": report["hits"] / lookups if lookups else 0.0,
            "state.remembers": report["remembers"],
            "fingerprint.calls": calls("fingerprint.ms"),
            "passes.bypassed": report["bypassed"],
            "passes.bypass_ratio": (
                report["bypassed"] / (report["bypassed"] + executed)
                if report["bypassed"] + executed else 0.0
            ),
        })
    for layer in layers:
        v[layer] = ms(layer)
    jobs, waited = report["jobs"], v["parallel.compile_units_ms"]
    v["parallel.efficiency"] = (
        v["parallel.worker_busy_ms"] / (jobs * waited) if waited else 0.0
    )
    # Only the build process's own self times lie on its wall-clock
    # path; pool workers run beside it, inside compile_units.
    attributed = (
        v["cli.start_ms"] + v["cli.import_ms"] + v["cli.exit_ms"]
        + 1000 * sum(payload["main"]["self"].values())
    )
    v["unattributed_ms"] = v["traced_ms"] - attributed
    return v


# -- the run ------------------------------------------------------------------


def p75(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4)[2]


def run(workload: Workload, seed: int, seconds: int, traced: bool) -> dict:
    env = child_env()
    base = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    log = open(base / "builds.log", "w")
    try:
        return measure(workload, seed, seconds, traced, env, base, log)
    finally:
        log.close()
        shutil.rmtree(base, ignore_errors=True)


def measure(workload, seed, seconds, traced, env, base, log) -> dict:
    from repro.workload import apply_edit, generate_project

    per_step = step_seconds(workload, traced)
    steps = max(MIN_STEPS, round(seconds / per_step))
    edits = edit_trace(seed, SETUP_EDITS + (steps if workload.edits else 0))
    spec = functools.reduce(apply_edit, edits[:SETUP_EDITS], base_spec())
    setups = []
    for k in range(1 if traced else SETUP_REPEATS):
        start = time.perf_counter()
        tree, files, slots = set_up(spec, base / f"setup{k}", traced, env, log)
        setups.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(base / f"setup{k - 1}")

    reference_slot = slots[1]  # untraced stateless
    for step in range(steps):
        if workload.edits:
            spec = apply_edit(spec, edits[SETUP_EDITS + step])
            new_files = generate_project(spec).files
            write_changed(tree, files, new_files)
            files = new_files
        if workload.clean:
            for slot in slots:
                shutil.rmtree(slot.dir)
                slot.dir.mkdir()
        order = slots if step % 2 == 0 else slots[::-1]
        for slot in order:
            build = spawn_build(slot, tree, workload.jobs, env, log)
            slot.walls.append(build.wall_s)
            slot.cpus.append(build.cpu_s)
            slot.rss.append(build.rss_mb)
            if not build.ok:
                slot.failed_steps.add(step)
            elif slot.traced:
                slot.layers.append(layer_values(slot, build))
        units = sorted(p for p in files if p.endswith(".mc"))
        reference = objects_of(reference_slot.db)
        for slot in slots:
            if slot is not reference_slot and not same_objects(reference, slot.db, units):
                slot.failed_steps.add(step)

    if not behaves_like_unoptimised_ir(tree, slots[0].db):
        slots[0].failed_steps.add(steps - 1)

    return {
        "steps": steps,
        "attempted": sum(len(s.walls) for s in slots),
        "failed": sum(len(s.failed_steps) for s in slots),
        "setup_s": statistics.median(setups),
        "slots": {s.name: s for s in slots},
        "stateful_db_kb": slots[0].db_kb(),
    }


def end_to_end(result: dict) -> dict[str, float]:
    metrics = {"stateful_db_kb": result["stateful_db_kb"], "setup_s": result["setup_s"]}
    for variant in VARIANTS:
        slot = result["slots"][variant]
        metrics[f"{variant}_ms_p50"] = 1000 * statistics.median(slot.walls)
        metrics[f"{variant}_ms_p75"] = 1000 * p75(slot.walls)
        metrics[f"{variant}_cpu_ms_p50"] = 1000 * statistics.median(slot.cpus)
        metrics[f"{variant}_rss_mb"] = statistics.median(slot.rss)
    return {name: metrics[name] for name in END_TO_END_UNITS}


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    slots = result["slots"]
    metrics: dict[str, tuple[float, str]] = {}
    for variant in VARIANTS:
        traced = slots[f"{variant}-traced"]
        untraced_ms = 1000 * statistics.median(slots[variant].walls)
        for name, unit in layer_units(variant).items():
            if name == "tracing_overhead_ms":
                value = 1000 * statistics.median(traced.walls) - untraced_ms
            else:
                value = statistics.median(b[name] for b in traced.layers)
            metrics[f"{variant}.{name}"] = (value, unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    if workload.jobs > cores:
        print(
            f"perfbench: {workload.name} needs {workload.jobs} cores, "
            f"this machine gives {cores}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    traced = bool(args.trace)
    result = run(workload, args.seed, args.seconds, traced)
    failed_ratio = result["failed"] / result["attempted"]
    print(
        f"workload {workload.name}  seed {args.seed}  steps {result['steps']}  "
        f"builds {result['attempted']}  failed_ratio {failed_ratio:.4f} ratio"
    )
    if traced:
        values = per_layer(result)
        for name, (value, unit) in values.items():
            print(f"  {name:44} {value:12.4f} {unit}")
        for variant in VARIANTS:
            share = values[f"{variant}.unattributed_ms"][0] / values[f"{variant}.traced_ms"][0]
            print(f"  {variant}: unattributed share of traced wall {share:.3f}")
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in values.items()}
    else:
        values = end_to_end(result)
        samples = {v: len(result["slots"][v].walls) for v in VARIANTS}
        for name, value in values.items():
            print(f"  {name:24} {value:12.4f} {END_TO_END_UNITS[name]}")
        print(f"  samples per variant: {samples}")
        print(
            "  stateless/stateful p50 ratio "
            f"{values['stateless_ms_p50'] / values['stateful_ms_p50']:.4f} "
            "(> 1: stateful is faster)"
        )
        metrics = {
            n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
