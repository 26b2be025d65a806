"""Import-integrity smoke tests.

Package ``__init__`` modules export their public names lazily: each name
in ``__all__`` maps to the module defining it and is imported on first
access (:mod:`repro._lazy`).  A typo in that table, or a missing or
broken submodule, therefore fails only when the name is used.  These
tests touch every exported name of every package so that failure mode
is one clearly named red test instead.
"""

import importlib

import pytest

#: Every package and module the library ships; importing each directly
#: catches breakage even in modules the top-level __init__ skips.
SUBMODULES = [
    "repro.analysis",
    "repro.backend",
    "repro.bench",
    "repro.buildsys",
    "repro.buildsys.audit",
    "repro.buildsys.builddb",
    "repro.buildsys.deps",
    "repro.buildsys.explain",
    "repro.buildsys.incremental",
    "repro.buildsys.parallel",
    "repro.buildsys.report",
    "repro.cli",
    "repro.core",
    "repro.driver",
    "repro.frontend",
    "repro.ir",
    "repro.lowering",
    "repro.obs",
    "repro.obs.dashboard",
    "repro.obs.drift",
    "repro.obs.history",
    "repro.obs.logging",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.options",
    "repro.passes",
    "repro.passmanager",
    "repro.persist",
    "repro.persist.atomic",
    "repro.persist.errors",
    "repro.persist.io",
    "repro.persist.lock",
    "repro.testing",
    "repro.testing.differential",
    "repro.testing.faults",
    "repro.vm",
    "repro.workload",
]


def test_import_repro():
    repro = importlib.import_module("repro")
    assert repro.__version__


def test_every_public_name_resolves():
    repro = importlib.import_module("repro")
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, f"repro.{name} does not resolve"


def test_all_is_sorted_sanely():
    repro = importlib.import_module("repro")
    assert len(set(repro.__all__)) == len(repro.__all__), "duplicate names in __all__"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_imports(module):
    importlib.import_module(module)


def test_buildsys_exports():
    buildsys = importlib.import_module("repro.buildsys")
    for name in buildsys.__all__:
        assert getattr(buildsys, name, None) is not None, name


@pytest.mark.parametrize("module", ["repro", *SUBMODULES])
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert getattr(mod, name, None) is not None, f"{module}.{name} does not resolve"


@pytest.mark.parametrize("module", ["repro", *SUBMODULES])
def test_dir_lists_every_export(module):
    mod = importlib.import_module(module)
    assert set(getattr(mod, "__all__", ())) <= set(dir(mod))
