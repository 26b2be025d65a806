"""A header edit rebuilds every unit whose compile read the header.

The parser accepts an ``include`` anywhere at top level: after a block
comment, or after a declaration on the same line.  A dependency list
built by scanning for ``include`` at the start of a line missed those,
so an incremental build kept a stale object.  The build DB now records
the headers the front end resolved, whatever the text around them.
"""

import pytest

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.core.policies import SkipPolicy
from repro.frontend.includes import MemoryFileProvider
from repro.options import CompilerOptions
from repro.vm.machine import VirtualMachine

VARIANTS = {
    "stateless": CompilerOptions(),
    "memo": CompilerOptions(stateful=True, policy=SkipPolicy.MEMO),
    "fine": CompilerOptions(stateful=True, policy=SkipPolicy.FINE_GRAINED),
}


def build(files, db, options, jobs=1):
    return IncrementalBuilder(
        MemoryFileProvider(dict(files)), sorted(u for u in files if u.endswith(".mc")),
        options, db, BuildOptions(jobs=jobs),
    ).build()


@pytest.mark.parametrize(
    "variant, jobs", [("stateless", 1), ("memo", 1), ("fine", 1), ("memo", 2)]
)
@pytest.mark.parametrize("before", ["/* x */ ", "int g; "], ids=["comment", "declaration"])
def test_header_edit_rebuilds_a_unit_whose_include_is_not_first_on_its_line(
    tmp_path, before, variant, jobs
):
    options = VARIANTS[variant]
    files = {
        "u.mc": f'{before}include "a.mh";\nint main() {{ print(K + v()); return 0; }}\n',
        "v.mc": 'include "a.mh";\nint v() { return K * 10; }\n',
        "a.mh": "const int K = 1;\nint v();\n",
    }
    path = tmp_path / "build.reprodb"
    db = BuildDatabase()
    assert VirtualMachine(build(files, db, options, jobs).image).run().output == [11]
    db.save(path)

    edited = dict(files, **{"a.mh": "const int K = 2;\nint v();\n"})
    db = BuildDatabase.load(path)
    report = build(edited, db, options, jobs)
    assert report.num_recompiled == 2
    assert report.reasons["u.mc"].changed_deps == ["a.mh"]
    assert VirtualMachine(report.image).run().output == [22]

    fresh = BuildDatabase()
    build(edited, fresh, CompilerOptions())
    assert db.units["u.mc"].object_json == fresh.units["u.mc"].object_json


def test_a_header_first_read_after_an_edit_is_recorded():
    options = VARIANTS["memo"]
    files = {
        "u.mc": "int main() { print(1); return 0; }\n",
        "a.mh": "const int K = 5;\n",
    }
    db = BuildDatabase()
    build(files, db, options)
    assert db.units["u.mc"].dep_digests == {}

    files["u.mc"] = 'int g; /* now */ include "a.mh";\nint main() { print(K); return 0; }\n'
    assert build(files, db, options).num_recompiled == 1
    assert list(db.units["u.mc"].dep_digests) == ["a.mh"]

    files["a.mh"] = "const int K = 6;\n"
    report = build(files, db, options)
    assert report.num_recompiled == 1
    assert VirtualMachine(report.image).run().output == [6]
