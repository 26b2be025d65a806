"""IR value hierarchy: the SSA value graph's nodes.

Everything an instruction can reference is a :class:`Value`:
constants, function arguments, other instructions' results, and global
addresses.  Values track their *uses* so passes can ask "who reads me?"
and perform ``replace_all_uses_with`` in O(uses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.ir.types import I1, I64, IRType, PTR

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.instructions import Instruction


class Use(NamedTuple):
    """One operand slot of one instruction referencing a value.

    Equal and hashed by the user's identity (instructions compare by
    identity) and the slot index.
    """

    user: Instruction
    index: int


class Value:
    """Base class of everything instructions can use as an operand."""

    __slots__ = ("ty", "name", "_uses")

    def __init__(self, ty: IRType, name: str = ""):
        self.ty = ty
        self.name = name
        #: Kept by :class:`Instruction`'s operand methods: a dict used as
        #: an ordered set, so uses iterate in the order they were added
        #: (a set would iterate by address, which differs between
        #: processes, and so would every pass's worklist order).
        self._uses: dict[Use, None] = {}

    @property
    def uses(self) -> dict[Use, None]:
        """The instructions (and operand slots) currently using this
        value, in the order the uses were added."""
        return self._uses

    @property
    def is_used(self) -> bool:
        return bool(self._uses)

    def replace_all_uses_with(self, new: "Value") -> int:
        """Rewrite every use of ``self`` to ``new``; returns #uses rewritten."""
        if new is self:
            return 0
        count = 0
        for use in list(self._uses):
            use.user.set_operand(use.index, new)
            count += 1
        return count

    def ref(self) -> str:
        """Printed reference, e.g. ``%t3`` or ``42``."""
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ref()}: {self.ty}>"


class ConstantInt(Value):
    """An integer constant of type i64 or i1."""

    __slots__ = ("value",)

    def __init__(self, ty: IRType, value: int):
        if ty is I1:
            value = 1 if value else 0
        super().__init__(ty, "")
        self.value = int(value)

    def ref(self) -> str:
        if self.ty is I1:
            return "true" if self.value else "false"
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantInt) and other.ty == self.ty and other.value == self.value

    def __hash__(self) -> int:
        # The type's name, not the type: a str caches its hash.
        return hash((self.ty.name, self.value))


def const_i64(value: int) -> ConstantInt:
    return ConstantInt(I64, value)


def const_i1(value: bool | int) -> ConstantInt:
    return ConstantInt(I1, 1 if value else 0)


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("index",)

    def __init__(self, ty: IRType, name: str, index: int):
        super().__init__(ty, name)
        self.index = index


class GlobalAddr(Value):
    """The address of a module-level global variable (always ``ptr``).

    Resolved to concrete storage by the linker/VM; identified by symbol
    name, so two ``GlobalAddr`` objects with the same symbol are
    interchangeable.
    """

    __slots__ = ("symbol",)

    def __init__(self, symbol: str):
        super().__init__(PTR, symbol)
        self.symbol = symbol

    def ref(self) -> str:
        return f"@{self.symbol}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GlobalAddr) and other.symbol == self.symbol

    def __hash__(self) -> int:
        return hash(("global", self.symbol))


class UndefValue(Value):
    """An unspecified value of a given type (used by mem2reg for

    reads of never-written locals; the VM materializes it as zero)."""

    def __init__(self, ty: IRType):
        super().__init__(ty, "")

    def ref(self) -> str:
        return f"undef.{self.ty}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UndefValue) and other.ty == self.ty

    def __hash__(self) -> int:
        return hash(("undef", self.ty))


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality for operands (constants/globals by value,

    everything else by identity)."""
    if a is b:
        return True
    if isinstance(a, (ConstantInt, GlobalAddr, UndefValue)):
        return a == b
    return False
