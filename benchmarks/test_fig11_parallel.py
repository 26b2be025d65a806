"""Figure 11 — parallel clean-build scaling (``reprobuild -j``).

Wall time, speedup over ``-j 1``, and efficiency per job count, plus
the determinism guarantee the snapshot/delta state merge must uphold:
every parallel image is bit-identical to the serial one.

Speedup numbers only mean something on a multi-core runner; the
benchmark therefore asserts determinism unconditionally but only
expects scaling when the hardware can deliver it.  Like every figure,
it runs at ``bench_util.DEFAULT_PRESET``; edit that to scale it to
``large``.
"""

import os

from bench_util import DEFAULT_PRESET, DEFAULT_SEED, publish, run_once

from repro.bench.parallel import format_parallel_sweep, parallel_sweep

JOBS = [1, 2, 4]


def test_fig11_parallel_scaling(benchmark):
    points = run_once(
        benchmark,
        lambda: parallel_sweep(
            DEFAULT_PRESET, JOBS, stateful=True, repeats=2, seed=DEFAULT_SEED
        ),
    )
    publish(
        "fig11_parallel",
        format_parallel_sweep(DEFAULT_PRESET, points, stateful=True),
    )

    assert [p.jobs for p in points] == JOBS
    # The correctness half of the figure holds on any machine.
    assert all(p.matches_serial for p in points)
    assert all(p.wall_time > 0 for p in points)
    # The performance half needs real cores.
    if (os.cpu_count() or 1) >= 4:
        assert points[-1].speedup > 1.2
