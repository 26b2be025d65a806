"""Dormancy experiments (Figures 3 and 4).

Figure 3 — motivation: on a clean (from-scratch) build, what fraction
of (function, pass) executions are dormant, per pass?  The paper's
mechanism only pays off if this fraction is high.

Figure 4 — persistence: when a pass execution was dormant in build *i*,
how often is the same (function, position) dormant again in build
*i+1* across an edit trace?  High persistence means recorded state
keeps paying off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.driver import Compiler, CompilerOptions
from repro.passmanager.ledger import BYPASSED, DORMANT
from repro.workload.edits import apply_edit, random_edit_sequence
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset


@dataclass
class DormancyRow:
    pass_name: str
    position: int
    executions: int
    dormant: int

    @property
    def ratio(self) -> float:
        return self.dormant / self.executions if self.executions else 0.0


def clean_build_dormancy(
    preset: str = "medium", *, opt_level: str = "O2", seed: int = 1
) -> list[DormancyRow]:
    """Per-pipeline-position dormancy on a clean build (Figure 3)."""
    project = generate_project(make_preset(preset, seed=seed))
    compiler = Compiler(project.provider(), CompilerOptions(opt_level=opt_level))
    counts: dict[tuple[int, str], list[int]] = {}
    for path in project.unit_paths:
        for run in compiler.compile_file(path).ledger.runs:
            if run.position < 0 or run.outcome == BYPASSED:
                continue
            entry = counts.setdefault((run.position, run.pass_name), [0, 0])
            entry[0] += 1
            entry[1] += run.outcome == DORMANT
    return [
        DormancyRow(name, position, executions, dormant)
        for (position, name), (executions, dormant) in sorted(counts.items())
    ]


@dataclass
class PersistenceResult:
    """Figure 4: build-to-build dormancy persistence."""

    #: Per edit step: (still dormant, previously dormant) pairs.
    per_step: list[tuple[int, int]] = field(default_factory=list)

    @property
    def overall(self) -> float:
        total_prev = sum(p for _, p in self.per_step)
        total_still = sum(s for s, _ in self.per_step)
        return total_still / total_prev if total_prev else 0.0


def dormancy_persistence(
    preset: str = "medium",
    *,
    num_edits: int = 10,
    opt_level: str = "O2",
    seed: int = 1,
) -> PersistenceResult:
    """Replay an edit trace with the *stateless* compiler, tracking how

    dormancy carries from each build to the next.

    Keyed by (module, function, position); a key present and dormant in
    both builds counts as persistent.  Using the stateless compiler
    means every pass runs every build, so persistence is measured
    directly rather than inferred from bypasses.
    """
    spec = make_preset(preset, seed=seed)
    edits = random_edit_sequence(spec, num_edits, seed=seed)
    result = PersistenceResult()

    def dormancy_map(project) -> dict[tuple[str, str, int], bool]:
        compiler = Compiler(project.provider(), CompilerOptions(opt_level=opt_level))
        dormant: dict[tuple[str, str, int], bool] = {}
        for path in project.unit_paths:
            for run in compiler.compile_file(path).ledger.runs:
                if run.position < 0 or run.outcome == BYPASSED:
                    continue
                dormant[(path, run.function, run.position)] = run.outcome == DORMANT
        return dormant

    previous = dormancy_map(generate_project(spec))
    for edit in edits:
        spec = apply_edit(spec, edit)
        current = dormancy_map(generate_project(spec))
        prev_dormant_keys = {k for k, d in previous.items() if d}
        still = sum(1 for k in prev_dormant_keys if current.get(k, False))
        result.per_step.append((still, len(prev_dormant_keys)))
        previous = current
    return result
