"""Lazy package exports (PEP 562).

A package ``__init__`` that eagerly re-exports its public names imports
every layer below it: ``import repro.cli`` would load the parser, all
passes, the backend and the VM before a no-op build looks at its
database.  :func:`lazy_exports` keeps the same public surface but
imports the module behind a name only when that name is first accessed::

    __all__ = ["BuildDatabase", ...]
    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.buildsys.builddb": ("BuildDatabase", ...),
    })

The resolved value is cached in the package's globals, so later
accesses never reach ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterable, Mapping


def lazy_exports(
    namespace: dict, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for a package exporting ``exports``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    defining module to the names the package re-exports from it.
    """
    package = namespace["__name__"]
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = module_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *module_of})

    return __getattr__, __dir__
