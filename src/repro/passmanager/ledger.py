"""The pass ledger: one outcome row per (function, pipeline position).

The pass manager appends one :class:`PassRun` for every function pass
it schedules, whether the pass ran or was bypassed, and one per
module-prelude pass (position -1, function ``"<module>"``).  Next to
the rows the ledger keeps five plain integers for the stateful
manager's state traffic.  That is the whole record of a compilation's
pass accounting; every other view derives from it:
:meth:`~repro.core.statistics.BypassStatistics.from_ledger` (the
bypass table, per-pass work and wall time), the build registry's
``passes.*`` / ``state.*`` / ``fingerprint.count`` counters (published
once per unit by :meth:`repro.driver.Compiler.compile_source`), and the
dormancy figures (:mod:`repro.bench.dormancy`).

``work`` is the deterministic cost model (instructions visited); ``ns``
is measured wall time, 0 for a bypassed run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

#: :attr:`PassRun.outcome` values.
BYPASSED, DORMANT, CHANGED = 0, 1, 2

#: Position of module-prelude rows.
PRELUDE_POSITION = -1


class PassRun(NamedTuple):
    """What one scheduled pass did to one function."""

    function: str
    position: int
    pass_name: str
    outcome: int
    work: int
    ns: int


@dataclass
class PassLedger:
    """Every pass run of one compilation, plus the state traffic counts."""

    runs: list[PassRun] = field(default_factory=list)
    #: Dormancy-record lookups, and how many of them found a record.
    lookups: int = 0
    hits: int = 0
    #: Dormancy records written (new verdicts and overwrites alike).
    records_written: int = 0
    #: IR fingerprints computed and the nanoseconds spent on them.
    fingerprints: int = 0
    fingerprint_ns: int = 0

    @property
    def work(self) -> int:
        """Work of every executed run, module prelude included."""
        return sum(run.work for run in self.runs)

    @property
    def module_runs(self) -> int:
        return sum(1 for run in self.runs if run.position == PRELUDE_POSITION)
