"""Figure 9 — ablation: bypass granularity.

The paper's central claim is that *fine-grained* (function × pass)
state beats the coarse all-or-nothing alternative: coarse state can
only skip a function whose previous pipeline was entirely dormant,
which freshly lowered functions rarely satisfy, while fine-grained
state monetizes every dormant tail.

The memo row goes beyond the paper: fine-grained bypassing plus reuse
of each unchanged function's machine code.  Reused functions run no
pass, so they count as neither executed nor bypassed.
"""

from bench_util import DEFAULT_SEED, MEDIUM_PRESET, publish, run_once

from repro.bench.sweeps import granularity_ablation
from repro.bench.tables import format_table


def test_fig9_granularity_ablation(benchmark):
    summary = run_once(
        benchmark,
        lambda: granularity_ablation(MEDIUM_PRESET, num_edits=6, seed=DEFAULT_SEED),
    )
    table = format_table(
        ["policy", "incremental s", "pass work", "bypassed", "fns reused"],
        [
            [
                name, f"{s.total_time:.3f}", s.total_work, f"{s.bypass_ratio:.0%}",
                s.functions_reused,
            ]
            for name, s in summary.items()
        ],
        title="Figure 9: bypass granularity ablation (edit trace, incremental builds)",
    )
    publish("fig9_granularity", table)

    fine = summary["fine (function x pass)"]
    coarse = summary["coarse (function-level)"]
    none = summary["none (stateless)"]
    memo = summary["memo (fine + code reuse)"]
    # Shape: fine bypasses the most and does the least work.
    assert fine.bypass_ratio > coarse.bypass_ratio
    assert fine.total_work < none.total_work
    assert none.bypass_ratio == 0.0
    # Memo reuses code and does less pass work still.
    assert memo.functions_reused > 0 and memo.total_work < fine.total_work
