"""Every hand-written value class names its fields once more in
``_fields``; this keeps that list equal to its ``__init__`` parameters.

Equality, hashing and repr read ``_fields`` only, so a constructor
parameter missing from it would silently drop out of all three.
Attributes an ``__init__`` sets without taking them as parameters (the
AST's sema-filled ``ty``/``decl``, :class:`CompilerState`'s caches)
are left out on purpose and are not checked here.

Named-tuple records (:class:`DormancyRecord`, :class:`PassRun`) are
checked too, against ``__new__``: their generated constructor matches
``_fields`` until someone overrides it.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro._struct import FrozenStruct, Struct


def _value_classes() -> list[type]:
    found: set[type] = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        found.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and obj.__module__ == info.name
        )
    pending = [Struct]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                pending.append(sub)
    found.discard(FrozenStruct)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


CLASSES = _value_classes()


def test_the_build_path_classes_are_found():
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in CLASSES}
    assert {
        "repro.core.state.CompilerState",
        "repro.frontend.ast.Binary",
        "repro.buildsys.parallel.UnitOutcome",
        "repro.core.state.DormancyRecord",
    } <= names


@pytest.mark.parametrize(
    "cls", CLASSES, ids=[f"{cls.__module__}.{cls.__qualname__}" for cls in CLASSES]
)
def test_fields_match_the_constructor(cls):
    if issubclass(cls, tuple):
        params = list(inspect.signature(cls.__new__).parameters)[1:]
    elif cls.__init__ is object.__init__:
        params: list[str] = []
    else:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert list(cls._fields) == params
