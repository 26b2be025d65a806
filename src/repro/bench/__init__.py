"""Benchmark harness: experiment runners for every table and figure.

Each experiment in DESIGN.md's per-experiment index has a runner here;
the ``benchmarks/`` directory wraps them in pytest-benchmark targets
that print the table/series the paper reports.

All runners return plain dataclasses/dicts so they can be rendered as
text tables (:mod:`repro.bench.tables`) or consumed programmatically.
"""

from repro.bench.tables import format_table
from repro.bench.endtoend import EditStepResult, TraceResult, run_edit_trace
from repro.bench.dormancy import clean_build_dormancy, dormancy_persistence
from repro.bench.sweeps import edit_size_sweep, fingerprint_ablation, granularity_ablation
from repro.bench.breakdown import pass_breakdown
from repro.bench.overheads import overhead_report
from repro.bench.projects import project_characteristics

__all__ = [
    "format_table",
    "EditStepResult",
    "TraceResult",
    "run_edit_trace",
    "clean_build_dormancy",
    "dormancy_persistence",
    "edit_size_sweep",
    "fingerprint_ablation",
    "granularity_ablation",
    "pass_breakdown",
    "overhead_report",
    "project_characteristics",
]
