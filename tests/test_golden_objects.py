"""Golden objects: every unit of one seeded project compiles to known bytes.

The stateful-vs-stateless checks compare two variants that share the
front end, lowering, passes and backend, so a kernel change that alters
the emitted code in both at once passes them.  This test pins the
sha256 of each unit's object JSON for the ``large`` preset (seed 7, the
project perfbench builds) at ``-O2``, compiled by a stateless compiler.

The hashes live in ``tests/data/golden_objects.json``.  Regenerate them,
only for a change that is meant to alter the emitted code, with::

    PYTHONPATH=src python tests/test_golden_objects.py --write

CI runs this test under two fixed ``PYTHONHASHSEED`` values, so code
generation must not depend on the iteration order of hashed sets.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_objects.json"
PRESET, SEED, OPT_LEVEL = "large", 7, "O2"


def object_digests() -> dict[str, str]:
    """sha256 of each unit's object JSON, keyed by unit path."""
    from repro.driver import Compiler, CompilerOptions
    from repro.workload import generate_project, make_preset

    project = generate_project(make_preset(PRESET, seed=SEED))
    compiler = Compiler(project.provider(), CompilerOptions(opt_level=OPT_LEVEL))
    return {
        path: hashlib.sha256(
            compiler.compile_file(path).object_file.to_json().encode()
        ).hexdigest()
        for path in project.unit_paths
    }


def test_objects_match_the_golden_hashes():
    expected = json.loads(GOLDEN.read_text())
    assert expected["preset"] == [PRESET, SEED, OPT_LEVEL]
    assert object_digests() == expected["objects"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_objects.py --write")
    payload = {"preset": [PRESET, SEED, OPT_LEVEL], "objects": object_digests()}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
