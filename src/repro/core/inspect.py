"""Compiler-state inspection.

Answers "what is in my ``.reprostate``?" — per-position record counts,
dormancy rates, age distribution, and size attribution.  Exposed
programmatically and via ``reproc --inspect-state``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.state import CompilerState


@dataclass
class PositionSummary:
    position: int
    pass_name: str
    records: int = 0
    dormant: int = 0

    @property
    def dormancy_rate(self) -> float:
        return self.dormant / self.records if self.records else 0.0


@dataclass
class StateSummary:
    total_records: int
    dormant_records: int
    build_counter: int
    oldest_use: int
    newest_use: int
    positions: list[PositionSummary] = field(default_factory=list)

    @property
    def dormancy_rate(self) -> float:
        return self.dormant_records / self.total_records if self.total_records else 0.0


def summarize_state(state: CompilerState) -> StateSummary:
    """Aggregate a state's records per pipeline position."""
    names = {}
    for label in state.pipeline_signature.split("|"):
        position, _, signature = label.partition(":")
        if position.isdigit():
            names[int(position)] = signature.partition("@")[0]

    per_position: dict[int, PositionSummary] = {}
    dormant_total = 0
    oldest = None
    newest = None
    for (position, _), record in state.records.items():
        summary = per_position.get(position)
        if summary is None:
            summary = per_position[position] = PositionSummary(
                position, names.get(position, f"pos{position}")
            )
        summary.records += 1
        if record.dormant:
            summary.dormant += 1
            dormant_total += 1
        age = record.last_used_build
        oldest = age if oldest is None else min(oldest, age)
        newest = age if newest is None else max(newest, age)
    return StateSummary(
        total_records=state.num_records,
        dormant_records=dormant_total,
        build_counter=state.build_counter,
        oldest_use=oldest or 0,
        newest_use=newest or 0,
        positions=sorted(per_position.values(), key=lambda s: s.position),
    )


def describe_state(state: CompilerState) -> str:
    """Human-readable report of a compiler state."""
    summary = summarize_state(state)
    lines = [
        f"compiler state: {summary.total_records} records "
        f"({summary.dormancy_rate:.0%} dormant), build #{summary.build_counter}, "
        f"last-used range [{summary.oldest_use}, {summary.newest_use}]",
        f"fingerprint mode: {state.fingerprint_mode}",
        f"{'pos':>4} {'pass':<16} {'records':>8} {'dormant':>8} {'rate':>6}",
    ]
    for position in summary.positions:
        lines.append(
            f"{position.position:>4} {position.pass_name:<16} "
            f"{position.records:>8} {position.dormant:>8} "
            f"{position.dormancy_rate:>6.0%}"
        )
    return "\n".join(lines)
