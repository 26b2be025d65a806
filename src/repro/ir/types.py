"""IR-level types.

The IR is deliberately low-level and small, LLVM-flavoured:

- ``i64`` — 64-bit signed integer (MiniC ``int``).
- ``i1``  — 1-bit boolean (comparison results, MiniC ``bool``).
- ``ptr`` — an untyped pointer to stack or global storage; pointer
  arithmetic is in units of 64-bit slots.
- ``void`` — the type of instructions producing no value.

Types are singletons; compare with ``is`` or ``==`` interchangeably.
"""

from __future__ import annotations

from repro._struct import FrozenStruct


class IRType(FrozenStruct):
    """One IR type; instances are interned module-level singletons."""

    _fields = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is IRType:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name

    @property
    def is_integer(self) -> bool:
        return self.name in ("i64", "i1")

    @property
    def is_pointer(self) -> bool:
        return self.name == "ptr"

    @property
    def is_void(self) -> bool:
        return self.name == "void"


I64 = IRType("i64")
I1 = IRType("i1")
PTR = IRType("ptr")
VOID = IRType("void")

_BY_NAME = {t.name: t for t in (I64, I1, PTR, VOID)}


def type_from_name(name: str) -> IRType:
    """Look up a type by its printed name (used by the IR parser)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown IR type {name!r}") from None


class FunctionSig(FrozenStruct):
    """An IR function signature."""

    _fields = ("params", "ret")

    def __init__(self, params: tuple[IRType, ...], ret: IRType) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "ret", ret)

    def __str__(self) -> str:
        return f"{self.ret}({', '.join(str(p) for p in self.params)})"
