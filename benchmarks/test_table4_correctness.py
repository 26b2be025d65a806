"""Table 4 — correctness: the stateful compiler must be invisible.

Each preset replays one seeded edit trace through the differential
fuzzer (:mod:`repro.testing.differential`): after every step, a
stateless clean build is the reference, and the fine-grained and the
memo policy each build the tree incrementally.  Every object file must
be byte-identical to the reference's, every linked program must behave
identically on the VM, and each policy's own accounting must hold.  Any
divergence is a safety violation of the bypass mechanism.
"""

from bench_util import DEFAULT_SEED, publish, run_once

from repro.bench.tables import format_table
from repro.testing import run_differential_trace

PRESETS = ["tiny", "small", "medium"]
NUM_EDITS = 6


def _count(result, kinds) -> int:
    return sum(1 for d in result.divergences if d.kind in kinds)


def test_table4_output_equivalence(benchmark):
    def experiment():
        return [
            run_differential_trace(
                preset, seed=DEFAULT_SEED, num_edits=NUM_EDITS, jobs=(1,), execute=True
            )
            for preset in PRESETS
        ]

    results = run_once(benchmark, experiment)
    table = format_table(
        [
            "project", "builds", "objects compared", "object divergences",
            "behaviour divergences", "other divergences", "verdict",
        ],
        [
            [
                r.preset,
                r.builds,
                r.objects_compared,
                _count(r, {"object"}),
                _count(r, {"behaviour"}),
                len(r.divergences) - _count(r, {"object", "behaviour"}),
                "PASS" if r.ok else "FAIL",
            ]
            for r in results
        ],
        title=(
            f"Table 4: stateful (fine and memo) vs stateless output equivalence "
            f"over {NUM_EDITS}-edit traces"
        ),
    )
    publish("table4_correctness", table)

    for r in results:
        assert r.ok, [d.describe() for d in r.divergences]
        assert r.objects_compared > 0
