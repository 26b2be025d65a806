"""Dormancy-drift analytics over the build history.

``reprobuild regress`` runs these detectors over the history store and
exits non-zero when the latest build drifted from its own recent past.
All baselines are **median-of-recent** (the last :attr:`DriftConfig.window`
comparable builds) so one noisy build neither triggers nor poisons the
analysis, and every relative threshold is paired with an absolute floor
so sub-millisecond jitter on tiny passes can't page anyone.

Detectors:

- **bypass-rate drop** — the headline number of the stateful compiler:
  if the share of optimization work the latest incremental build
  skipped (:attr:`~repro.obs.history.HistoryRecord.skip_rate`: bypassed
  pass runs, or under the memo policy reused functions) falls more
  than ``bypass_drop`` below the median of recent incremental builds,
  the stateful compiler stopped earning its keep.  Under the fine
  policy that share is the bypass rate itself; under the memo policy
  the drop must also exceed the sampling noise of the functions the
  build keyed, so a small edit build that compiled one function more
  than usual is not flagged.
- **per-pass wall regression** — per-run mean wall time of each pass
  (from each record's per-pass ``wall``) against its median baseline;
  flagged only beyond *both* a relative factor and an absolute
  per-run delta.
- **state growth** — compiler-state serialized size rising strictly
  monotonically across the whole window by more than
  ``state_growth_factor`` while GC reclaims nothing: the signature of
  a garbage-collection failure, as opposed to the gentle accretion a
  healthy edit trace produces.

The fourth ``regress`` check — the fingerprint-collision audit — needs
a compiler, so it lives in :mod:`repro.buildsys.audit`; this module
stays pure data analytics over history records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from statistics import median

from repro.obs.history import HistoryRecord


@dataclass
class DriftConfig:
    """Thresholds; defaults tuned to stay quiet on a clean edit trace."""

    #: Recent builds (before the latest) forming each baseline.
    window: int = 8
    #: Minimum comparable builds before a detector speaks at all.
    min_builds: int = 3
    #: Absolute bypass-rate drop (latest vs median) that counts as drift.
    bypass_drop: float = 0.15
    #: Per-pass mean wall must exceed baseline by this factor…
    pass_wall_factor: float = 2.0
    #: …and by at least this many seconds per run (absolute floor).
    pass_wall_min_delta: float = 0.002
    #: Ignore passes with fewer executed runs than this in the latest build.
    pass_min_runs: int = 1
    #: Strictly-increasing state size across this many consecutive builds…
    state_window: int = 5
    #: …growing by more than this factor end-to-end, with zero GC reclaim.
    state_growth_factor: float = 1.5


@dataclass
class DriftFinding:
    """One detected regression, with the numbers that justify it."""

    kind: str  # "bypass-rate" | "pass-wall" | "state-growth"
    metric: str
    baseline: float
    current: float
    message: str
    #: Sequence number of the build the finding is about.
    seq: int = 0

    def describe(self) -> str:
        return f"[{self.kind}] build #{self.seq}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "message": self.message,
            "seq": self.seq,
        }


@dataclass
class DriftReport:
    """Everything one ``detect_drift`` run concluded."""

    findings: list[DriftFinding] = field(default_factory=list)
    builds_analyzed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        if self.clean:
            return f"no drift across {self.builds_analyzed} builds"
        lines = [f"{len(self.findings)} drift finding(s):"]
        lines += [f"  {finding.describe()}" for finding in self.findings]
        return "\n".join(lines)


def _incremental(records: list[HistoryRecord]) -> list[HistoryRecord]:
    """Builds where the bypass mechanism had anything to act on.

    The very first build of a database is a clean build (bypass rate
    ~0 by construction) and no-op builds recompile nothing; neither
    says anything about dormancy health.
    """
    if not records:
        return []
    return [r for r in records[1:] if r.recompiled > 0]


def _check_bypass_rate(
    records: list[HistoryRecord], config: DriftConfig, findings: list[DriftFinding]
) -> None:
    comparable = _incremental(records)
    if len(comparable) < config.min_builds + 1:
        return
    latest = comparable[-1]
    baseline = median(
        r.skip_rate for r in comparable[-(config.window + 1):-1]
    )
    # Under the memo policy the skipped share is a share of the functions
    # the build keyed, and a small build's share moves by whole
    # functions: a drop must also exceed two standard errors of a share
    # of that many functions at the baseline rate.
    keyed = latest.functions_reused + latest.functions_compiled
    noise = 2.0 * sqrt(baseline * (1.0 - baseline) / keyed) if keyed else 0.0
    if baseline - latest.skip_rate > max(config.bypass_drop, noise):
        findings.append(
            DriftFinding(
                kind="bypass-rate",
                metric="skip_rate",
                baseline=baseline,
                current=latest.skip_rate,
                seq=latest.seq,
                message=(
                    f"bypass rate fell to {latest.skip_rate:.1%} "
                    f"(recent median {baseline:.1%})"
                ),
            )
        )


def _pass_means(record: HistoryRecord, min_runs: int = 1) -> dict[str, float]:
    """Per-pass mean wall seconds per executed run in one build."""
    means = {}
    for name, entry in record.passes.items():
        runs = int(entry.get("executed", 0))
        wall = float(entry.get("wall", 0.0))
        if runs >= min_runs and wall > 0.0:
            means[name] = wall / runs
    return means


def _check_pass_wall(
    records: list[HistoryRecord], config: DriftConfig, findings: list[DriftFinding]
) -> None:
    comparable = _incremental(records)
    if len(comparable) < config.min_builds + 1:
        return
    latest = comparable[-1]
    history = comparable[-(config.window + 1):-1]
    latest_means = _pass_means(latest, config.pass_min_runs)
    for name, mean_now in sorted(latest_means.items()):
        samples = [
            means[name]
            for record in history
            if name in (means := _pass_means(record))
        ]
        if len(samples) < config.min_builds:
            continue
        baseline = median(samples)
        if (
            mean_now > baseline * config.pass_wall_factor
            and mean_now - baseline > config.pass_wall_min_delta
        ):
            findings.append(
                DriftFinding(
                    kind="pass-wall",
                    metric=f"passes.{name}.wall",
                    baseline=baseline,
                    current=mean_now,
                    seq=latest.seq,
                    message=(
                        f"pass '{name}' now {mean_now * 1e3:.2f} ms/run "
                        f"(recent median {baseline * 1e3:.2f} ms/run, "
                        f"{mean_now / baseline:.1f}x)"
                    ),
                )
            )


def _check_state_growth(
    records: list[HistoryRecord], config: DriftConfig, findings: list[DriftFinding]
) -> None:
    stateful = [r for r in records if r.state_records > 0]
    if len(stateful) < config.state_window + 1:
        return
    tail = stateful[-(config.state_window + 1):]
    sizes = [r.state_bytes or float(r.state_records) for r in tail]
    strictly_growing = all(b > a for a, b in zip(sizes, sizes[1:]))
    reclaimed = sum(r.gc_reclaimed for r in tail[1:])
    # Zero reclaim is a failure only where GC could have had something to
    # take: a state younger than GC's age limit keeps every record.
    old_enough = all(r.gc_past_age_limit for r in tail[1:])
    if strictly_growing and reclaimed == 0 and old_enough and sizes[-1] > sizes[0] * (
        config.state_growth_factor
    ):
        findings.append(
            DriftFinding(
                kind="state-growth",
                metric="state.bytes",
                baseline=sizes[0],
                current=sizes[-1],
                seq=tail[-1].seq,
                message=(
                    f"state grew monotonically {sizes[0]:.0f} -> {sizes[-1]:.0f} "
                    f"bytes over {config.state_window} builds with zero GC "
                    f"reclaim in a state older than GC's age limit "
                    f"(suggests GC failure)"
                ),
            )
        )


def detect_drift(
    records: list[HistoryRecord], config: DriftConfig | None = None
) -> DriftReport:
    """Run every detector over ``records`` (oldest first)."""
    config = config or DriftConfig()
    findings: list[DriftFinding] = []
    ordered = sorted(records, key=lambda r: r.seq)
    _check_bypass_rate(ordered, config, findings)
    _check_pass_wall(ordered, config, findings)
    _check_state_growth(ordered, config, findings)
    return DriftReport(findings=findings, builds_analyzed=len(ordered))
