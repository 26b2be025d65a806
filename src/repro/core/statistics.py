"""Dormancy and bypass accounting for compilations.

:class:`BypassStatistics` is the paper's headline table: executed vs
dormant vs bypassed function-pass runs, with a per-pass breakdown of
runs, work and wall nanoseconds.  It is one fold
(:meth:`BypassStatistics.from_ledger`) over the pass manager's
:class:`~repro.passmanager.ledger.PassLedger`, and merges across units
and builds.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.passmanager.ledger import BYPASSED, DORMANT, PassLedger

_BY_PASS_KEYS = ("executed", "dormant", "bypassed", "work", "ns")
#: The per-pass counters that do not depend on timing.
_COUNT_KEYS = _BY_PASS_KEYS[:4]


class BypassStatistics(Struct):
    """Aggregated counters for one (or several merged) compilations."""

    _fields = (
        "executions", "dormant_executions", "bypassed", "work_executed", "by_pass",
    )

    def __init__(
        self,
        executions: int = 0,
        dormant_executions: int = 0,
        bypassed: int = 0,
        work_executed: int = 0,
        by_pass: dict[str, dict[str, int]] | None = None,
    ) -> None:
        self.executions = executions
        self.dormant_executions = dormant_executions
        self.bypassed = bypassed
        self.work_executed = work_executed
        self.by_pass = {} if by_pass is None else by_pass

    @property
    def dormancy_ratio(self) -> float:
        """Fraction of executed function-pass runs that changed nothing."""
        return self.dormant_executions / self.executions if self.executions else 0.0

    @property
    def bypass_ratio(self) -> float:
        """Fraction of scheduled function-pass runs that were skipped."""
        total = self.executions + self.bypassed
        return self.bypassed / total if total else 0.0

    def counts(self) -> dict[str, list[int]]:
        """Each pass's [executed, dormant, bypassed, work]: every per-pass
        counter but wall time, so two builds of the same inputs agree
        (and what the build DB records of a unit's compile)."""
        return {
            name: [counters.get(key, 0) for key in _COUNT_KEYS]
            for name, counters in sorted(self.by_pass.items())
        }

    def merge(self, other: "BypassStatistics") -> None:
        self.executions += other.executions
        self.dormant_executions += other.dormant_executions
        self.bypassed += other.bypassed
        self.work_executed += other.work_executed
        for name, counters in other.by_pass.items():
            mine = self.by_pass.get(name)
            if mine is None:
                self.by_pass[name] = dict(counters)
                continue
            for key, value in counters.items():
                mine[key] = mine.get(key, 0) + value

    # -- (de)serialization for machine-readable build reports ----------------

    def to_dict(self) -> dict:
        return {
            "executions": self.executions,
            "dormant_executions": self.dormant_executions,
            "bypassed": self.bypassed,
            "work_executed": self.work_executed,
            "by_pass": {
                name: dict(counters) for name, counters in sorted(self.by_pass.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BypassStatistics":
        stats = cls(
            executions=int(payload.get("executions", 0)),
            dormant_executions=int(payload.get("dormant_executions", 0)),
            bypassed=int(payload.get("bypassed", 0)),
            work_executed=int(payload.get("work_executed", 0)),
        )
        # Keys a payload lacks stay absent (a schema-2 report has no
        # "ns"), so a payload round-trips exactly.
        for name, counters in payload.get("by_pass", {}).items():
            stats.by_pass[name] = {
                key: int(counters[key]) for key in _BY_PASS_KEYS if key in counters
            }
        return stats

    @classmethod
    def from_ledger(cls, ledger: PassLedger) -> "BypassStatistics":
        """Fold a ledger's function-pass rows (module prelude excluded)."""
        by_pass: dict[str, dict[str, int]] = {}
        for run in ledger.runs:
            if run.position < 0:
                continue
            per = by_pass.get(run.pass_name)
            if per is None:
                per = by_pass[run.pass_name] = dict.fromkeys(_BY_PASS_KEYS, 0)
            if run.outcome == BYPASSED:
                per["bypassed"] += 1
                continue
            per["executed"] += 1
            per["work"] += run.work
            per["ns"] += run.ns
            if run.outcome == DORMANT:
                per["dormant"] += 1
        return cls(
            executions=sum(per["executed"] for per in by_pass.values()),
            dormant_executions=sum(per["dormant"] for per in by_pass.values()),
            bypassed=sum(per["bypassed"] for per in by_pass.values()),
            work_executed=sum(per["work"] for per in by_pass.values()),
            by_pass=by_pass,
        )
