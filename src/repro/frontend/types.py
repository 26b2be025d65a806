"""Frontend (source-level) types for MiniC.

These are distinct from IR types (:mod:`repro.ir.types`): the frontend
deals with what the programmer wrote (``int``, ``bool``, ``void``,
``int[N]``); lowering maps them onto the IR's machine-level view.
"""

from __future__ import annotations

from repro._struct import FrozenStruct


class Type(FrozenStruct):
    """Base class for all MiniC source types.

    Types are immutable value objects; equality is structural.
    """

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def is_scalar(self) -> bool:
        return isinstance(self, (IntType, BoolType))

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)


class IntType(Type):
    """64-bit signed integer (the only arithmetic type)."""

    def __str__(self) -> str:
        return "int"


class BoolType(Type):
    """Boolean: result of comparisons and logical operators."""

    def __str__(self) -> str:
        return "bool"


class VoidType(Type):
    """Absence of a value; only valid as a function return type."""

    def __str__(self) -> str:
        return "void"


class ArrayType(Type):
    """Fixed-size one-dimensional array of ``int``.

    ``size`` may be ``None`` for array *parameters* (``int a[]``), whose
    extent is supplied by the caller.
    """

    _fields = ("size",)

    def __init__(self, size: int | None) -> None:
        object.__setattr__(self, "size", size)

    def __str__(self) -> str:
        return f"int[{self.size if self.size is not None else ''}]"


INT = IntType()
BOOL = BoolType()
VOID = VoidType()


class FunctionType(Type):
    """Type of a function: parameter types and return type."""

    _fields = ("params", "ret")

    def __init__(self, params: tuple[Type, ...], ret: Type) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "ret", ret)

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"{self.ret}({params})"
