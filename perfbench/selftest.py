"""Self-tests of the benchmark itself.

Run from the repository root (about two minutes on a 2-core box)::

    python3 perfbench/selftest.py --held-out-seed 90210

1. The same seed gives the same edit trace, and a shorter trace is a
   prefix of a longer one.
2. Two runs of one seed give the same deterministic counts.  Exact:
   ``state.records``, ``passes.bypassed``, ``fingerprint.calls``.  Within
   a stated tolerance: ``passes.work`` (some pass visits one instruction
   more or less from one process to the next, see README.md) and the DB
   sizes ``builddb.kb`` and ``stateful_db_kb`` (the DB stores each
   unit's compile wall time and worker pid as text, so its length moves
   by a few bytes).
3. The held-out seed runs every workload end to end, traced and
   untraced, with every metric present and no failed build.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as perfbench  # noqa: E402

SHORT_SECONDS = 2
#: The seed of checks 1 and 2.
SEED = 1
EXACT = ("stateful.state.records", "stateful.passes.bypassed", "stateful.fingerprint.calls")
#: (metric, allowed absolute difference between two runs of one seed)
TOLERATED = (
    ("stateful.passes.work", 2),
    ("stateless.passes.work", 2),
    ("stateful.builddb.kb", 0.25),
    ("stateless.builddb.kb", 0.25),
)
DB_KB_TOLERANCE = 0.25


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SHORT_SECONDS), "--trace", str(trace),
        ],
        cwd=perfbench.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_edit_trace(seed: int) -> list[str]:
    sys.path.insert(0, str(perfbench.SRC))
    long = perfbench.edit_trace(seed, 20)
    problems = []
    if long != perfbench.edit_trace(seed, 20):
        problems.append("the same seed gave two different edit traces")
    if perfbench.edit_trace(seed, 8) != long[:8]:
        problems.append("a shorter edit trace is not a prefix of a longer one")
    if long == perfbench.edit_trace(seed + 1, 20):
        problems.append("two seeds gave the same edit trace")
    return problems


def check_repeatable(seed: int) -> list[str]:
    problems = []
    first, second = (bench("edit-large", seed, 1)["metrics"] for _ in range(2))
    for name in EXACT:
        if first[name]["value"] != second[name]["value"]:
            problems.append(f"{name}: {first[name]['value']} != {second[name]['value']}")
    for name, tolerance in TOLERATED:
        a, b = first[name]["value"], second[name]["value"]
        if abs(a - b) > tolerance:
            problems.append(f"{name}: {a} and {b} differ by more than {tolerance}")
    a, b = (bench("edit-large", seed, 0)["metrics"]["stateful_db_kb"]["value"] for _ in range(2))
    if abs(a - b) > DB_KB_TOLERANCE:
        problems.append(f"stateful_db_kb: {a} and {b} differ by more than {DB_KB_TOLERANCE}")
    return problems


def check_held_out(seed: int) -> list[str]:
    problems = []
    for workload in perfbench.WORKLOADS:
        for trace in (0, 1):
            result = bench(workload, seed, trace)
            expected = (
                {f"{v}.{n}" for v in perfbench.VARIANTS for n in perfbench.layer_units(v)}
                if trace else set(perfbench.END_TO_END_UNITS)
            )
            if set(result["metrics"]) != expected:
                problems.append(f"{workload} --trace {trace}: metric names differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: {result['failed']} failed builds")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="self-tests of perfbench/run.py")
    parser.add_argument("--held-out-seed", type=int, required=True)
    args = parser.parse_args()

    problems = []
    for name, check, seed in (
        ("edit trace", check_edit_trace, SEED),
        ("repeatable counts", check_repeatable, SEED),
        ("held-out seed", check_held_out, args.held_out_seed),
    ):
        found = check(seed)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        for problem in found:
            print(f"  {problem}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
