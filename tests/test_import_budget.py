"""Import budget: a build that compiles nothing must not load the compiler.

A no-op ``reprobuild`` reads the build DB, scans the tree and appends a
history record; the front end, passes, backend, VM, analytics and
process pool load only when a unit is compiled.  Each check runs in a
fresh interpreter and inspects ``sys.modules`` when the entry point
returns, so the budget is about which modules load, never about time.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from tests.conftest import run_fresh

DEMO = Path(__file__).resolve().parent.parent / "examples" / "demo_project"

#: Modules only compiling, running or rendering may load.
COMPILER_ONLY = [
    "repro.driver",
    "repro.passes",
    "repro.passmanager.manager",
    "repro.frontend.parser",
    "repro.frontend.sema",
    "repro.lowering",
    "repro.ir.structure",
    "repro.vm",
    "repro.backend.isel",
    "repro.backend.regalloc",
    "repro.core.inspect",
    "repro.buildsys.audit",
    "repro.obs.dashboard",
    "repro.obs.drift",
    "concurrent.futures",
    "multiprocessing",
    "cProfile",
]

#: At most this many ``repro.*`` modules on the no-op path.
MAX_NOOP_REPRO_MODULES = 37


def reprobuild(*argv: str) -> str:
    """A fresh-process script running ``reprobuild`` with ``argv``."""
    return textwrap.dedent(
        f"""
        from repro.cli import reprobuild_main
        result = {{"rc": reprobuild_main({list(argv)!r})}}
        """
    )


def loaded(modules: list[str], names: list[str]) -> list[str]:
    return [name for name in names if name in modules]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A demo-project copy whose stateful DB an earlier process populated."""
    root = tmp_path_factory.mktemp("budget")
    shutil.copytree(DEMO, root / "proj")
    clean = run_fresh(reprobuild("proj", "--db", "b.db", "--stateful", "-j", "1"), root)
    assert clean["rc"] == 0
    assert "repro.driver" in clean["modules"]
    return root


def test_import_cli_loads_only_the_build_layer(tmp_path):
    result = run_fresh("import repro.cli\nresult = {}", tmp_path)
    assert loaded(result["modules"], COMPILER_ONLY) == []


def test_noop_build_loads_no_compiler(built):
    result = run_fresh(reprobuild("proj", "--db", "b.db", "--stateful"), built)
    assert result["rc"] == 0
    assert loaded(result["modules"], COMPILER_ONLY) == []
    repro = [name for name in result["modules"] if name.startswith("repro.")]
    assert len(repro) <= MAX_NOOP_REPRO_MODULES, repro


def test_history_loads_no_compiler(built):
    result = run_fresh(reprobuild("history", "--db", "b.db"), built)
    assert result["rc"] == 0
    assert loaded(result["modules"], COMPILER_ONLY) == []


#: After the build, every class a loaded ``repro`` module defines that
#: ``@dataclass`` generated methods for.
DATACLASSES = textwrap.dedent(
    """
    import sys
    result["dataclasses"] = sorted(
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for attr, value in vars(module).items()
        if isinstance(value, type)
        and value.__module__ == name
        and "__dataclass_fields__" in vars(value)
    )
    """
)


def test_edit_build_loads_the_compiler(built, tmp_path):
    """Positive control: the same setup with one edit does compile."""
    shutil.copytree(built, tmp_path, dirs_exist_ok=True)
    main = tmp_path / "proj" / "main.mc"
    main.write_text(main.read_text().replace("rng_seed(42)", "rng_seed(7)"))
    result = run_fresh(
        reprobuild("proj", "--db", "b.db", "--stateful", "-j", "1") + DATACLASSES, tmp_path
    )
    assert result["rc"] == 0
    assert "repro.driver" in result["modules"]
    assert "repro.passes" in result["modules"]
    # A compile never reads textual IR, so its parser stays unloaded.
    assert "repro.ir.parser" not in result["modules"]
    # No class on the build path is made by ``@dataclass`` at import:
    # their methods are written out, so they load from the .pyc.
    assert result["dataclasses"] == []
