"""IR instruction set.

One :class:`Instruction` class parameterized by :class:`Opcode`, with
thin subclasses where an opcode needs extra structure (``icmp``
predicates, ``phi`` incoming edges, ``call`` callees, terminators with
block targets).  Operands are tracked with full use-def chains; block
successors of terminators are kept separate from value operands.

Semantics notes (shared by the VM and constant folding):

- ``sdiv``/``srem`` are C-style (truncate toward zero, remainder takes
  the dividend's sign); division by zero is a runtime trap.
- ``shl``/``ashr`` mask the shift amount to 6 bits.
- All i64 arithmetic wraps modulo 2**64 (two's complement).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence

from repro.ir.types import FunctionSig, I1, I64, IRType, PTR, VOID
from repro.ir.values import Use, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.structure import BasicBlock


#: Builds a :class:`Use` from a ``(user, index)`` tuple at C speed,
#: without the generated ``__new__``'s Python frame.
_new = tuple.__new__


class Opcode(enum.Enum):
    # Members are singletons: hash by identity in C, not by name in Python.
    __hash__ = object.__hash__

    # integer arithmetic / bitwise (i64, i64) -> i64
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    SREM = "srem"
    SHL = "shl"
    ASHR = "ashr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    # comparisons and data movement
    ICMP = "icmp"
    SELECT = "select"
    ZEXT = "zext"
    TRUNC = "trunc"
    # memory
    ALLOCA = "alloca"
    LOAD = "load"
    STORE = "store"
    GEP = "gep"
    # control / calls
    CALL = "call"
    PHI = "phi"
    BR = "br"
    CBR = "cbr"
    RET = "ret"
    UNREACHABLE = "unreachable"


#: Opcodes computing pure i64 arithmetic over two i64 operands.
BINARY_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.SDIV,
        Opcode.SREM,
        Opcode.SHL,
        Opcode.ASHR,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
    }
)

#: Binary opcodes that are commutative.
COMMUTATIVE_OPCODES = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR}
)

TERMINATOR_OPCODES = frozenset({Opcode.BR, Opcode.CBR, Opcode.RET, Opcode.UNREACHABLE})

#: Opcodes with side effects or whose result depends on memory/external
#: state; these must not be removed by DCE even when unused, except LOAD,
#: which is handled specially (a dead load may be removed).
SIDE_EFFECT_OPCODES = frozenset(
    {Opcode.STORE, Opcode.CALL, *TERMINATOR_OPCODES}
)


class ICmpPred(enum.Enum):
    __hash__ = object.__hash__  # by identity, in C

    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"

    def swap(self) -> "ICmpPred":
        """Predicate after swapping operands (a < b  <=>  b > a)."""
        return {
            ICmpPred.EQ: ICmpPred.EQ,
            ICmpPred.NE: ICmpPred.NE,
            ICmpPred.SLT: ICmpPred.SGT,
            ICmpPred.SLE: ICmpPred.SGE,
            ICmpPred.SGT: ICmpPred.SLT,
            ICmpPred.SGE: ICmpPred.SLE,
        }[self]

    def invert(self) -> "ICmpPred":
        """Logical negation of the predicate."""
        return {
            ICmpPred.EQ: ICmpPred.NE,
            ICmpPred.NE: ICmpPred.EQ,
            ICmpPred.SLT: ICmpPred.SGE,
            ICmpPred.SLE: ICmpPred.SGT,
            ICmpPred.SGT: ICmpPred.SLE,
            ICmpPred.SGE: ICmpPred.SLT,
        }[self]


class Instruction(Value):
    """One IR instruction; also a :class:`Value` (its own result)."""

    __slots__ = ("opcode", "_operands", "parent")

    def __init__(self, opcode: Opcode, ty: IRType, operands: Sequence[Value], name: str = ""):
        # Value.__init__, inlined: every instruction of every pass runs this.
        self.ty = ty
        self.name = name
        self._uses = set()
        self.opcode = opcode
        self.parent: "BasicBlock | None" = None
        self._operands: list[Value] = list(operands)
        for index, op in enumerate(self._operands):
            op._uses.add(_new(Use, (self, index)))

    # -- operand management --------------------------------------------------

    def _append_operand(self, value: Value) -> None:
        operands = self._operands
        value._uses.add(_new(Use, (self, len(operands))))
        operands.append(value)

    def set_operand(self, index: int, value: Value) -> None:
        use = _new(Use, (self, index))
        self._operands[index]._uses.discard(use)
        self._operands[index] = value
        value._uses.add(use)

    def _pop_operand(self, index: int) -> Value:
        """Remove one operand slot, reindexing the uses of later slots."""
        operands = self._operands
        for later in range(index, len(operands)):
            operands[later]._uses.discard(_new(Use, (self, later)))
        value = operands.pop(index)
        for later in range(index, len(operands)):
            operands[later]._uses.add(_new(Use, (self, later)))
        return value

    @property
    def operands(self) -> tuple[Value, ...]:
        return tuple(self._operands)

    def drop_all_references(self) -> None:
        """Release every operand use (called when erasing)."""
        for index, op in enumerate(self._operands):
            op._uses.discard(_new(Use, (self, index)))
        self._operands.clear()

    # -- placement ----------------------------------------------------------

    def erase(self) -> None:
        """Remove from the parent block and drop operand uses.

        The instruction must itself be unused.
        """
        if self.is_used:
            raise ValueError(f"erasing {self!r} which still has uses")
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    def replace_with_value(self, new: Value) -> None:
        """RAUW + erase: the canonical way passes delete an instruction."""
        self.replace_all_uses_with(new)
        self.erase()

    # -- classification -------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    @property
    def is_binary(self) -> bool:
        return self.opcode in BINARY_OPCODES

    @property
    def has_side_effects(self) -> bool:
        return self.opcode in SIDE_EFFECT_OPCODES

    @property
    def is_pure(self) -> bool:
        """Safe to remove if unused, and safe to reorder among pure code.

        Loads are not pure (they read memory) but are removable if dead;
        removability is decided by DCE directly.
        """
        return self.opcode not in SIDE_EFFECT_OPCODES and self.opcode not in (
            Opcode.LOAD,
            Opcode.ALLOCA,
            Opcode.PHI,
        )

    def successors(self) -> tuple["BasicBlock", ...]:
        return ()

    def __repr__(self) -> str:
        ops = ", ".join(op.ref() for op in self._operands)
        return f"<{self.opcode.value} {self.ref()} [{ops}]>"


class BinaryInst(Instruction):
    """i64 arithmetic/bitwise: ``%r = add i64 %a, %b``."""

    __slots__ = ()

    def __init__(self, opcode: Opcode, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"{opcode} is not a binary opcode")
        super().__init__(opcode, I64, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]


class ICmpInst(Instruction):
    """Integer comparison producing an i1."""

    __slots__ = ("pred",)

    def __init__(self, pred: ICmpPred, lhs: Value, rhs: Value, name: str = ""):
        super().__init__(Opcode.ICMP, I1, [lhs, rhs], name)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]


class SelectInst(Instruction):
    """``%r = select i1 %c, %a, %b`` — branchless conditional."""

    __slots__ = ()

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        super().__init__(Opcode.SELECT, if_true.ty, [cond, if_true, if_false], name)

    @property
    def cond(self) -> Value:
        return self._operands[0]

    @property
    def if_true(self) -> Value:
        return self._operands[1]

    @property
    def if_false(self) -> Value:
        return self._operands[2]


class ZExtInst(Instruction):
    """i1 -> i64 zero extension."""

    __slots__ = ()

    def __init__(self, value: Value, name: str = ""):
        super().__init__(Opcode.ZEXT, I64, [value], name)


class TruncInst(Instruction):
    """i64 -> i1 truncation (low bit)."""

    __slots__ = ()

    def __init__(self, value: Value, name: str = ""):
        super().__init__(Opcode.TRUNC, I1, [value], name)


class AllocaInst(Instruction):
    """Reserve ``size`` 64-bit stack slots; yields their address."""

    __slots__ = ("size",)

    def __init__(self, size: int, name: str = ""):
        if size <= 0:
            raise ValueError(f"alloca size must be positive, got {size}")
        super().__init__(Opcode.ALLOCA, PTR, [], name)
        self.size = size


class LoadInst(Instruction):
    """``%r = load <ty> %ptr`` — read one slot."""

    __slots__ = ()

    def __init__(self, ty: IRType, ptr: Value, name: str = ""):
        super().__init__(Opcode.LOAD, ty, [ptr], name)

    @property
    def ptr(self) -> Value:
        return self._operands[0]


class StoreInst(Instruction):
    """``store <ty> %value, %ptr`` — write one slot."""

    __slots__ = ()

    def __init__(self, value: Value, ptr: Value):
        super().__init__(Opcode.STORE, VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self._operands[0]

    @property
    def ptr(self) -> Value:
        return self._operands[1]


class GepInst(Instruction):
    """``%r = gep %base, %index`` — pointer plus index slots."""

    __slots__ = ()

    def __init__(self, base: Value, index: Value, name: str = ""):
        super().__init__(Opcode.GEP, PTR, [base, index], name)

    @property
    def base(self) -> Value:
        return self._operands[0]

    @property
    def index(self) -> Value:
        return self._operands[1]


class CallInst(Instruction):
    """``%r = call <ret> @callee(args...)``.

    The callee is a symbol name with an explicit signature (functions
    are not first-class values in this IR); the linker binds it.
    """

    __slots__ = ("callee", "sig")

    def __init__(self, callee: str, sig: FunctionSig, args: Sequence[Value], name: str = ""):
        if len(args) != len(sig.params):
            raise ValueError(
                f"call to {callee}: expected {len(sig.params)} args, got {len(args)}"
            )
        super().__init__(Opcode.CALL, sig.ret, list(args), name)
        self.callee = callee
        self.sig = sig

    @property
    def args(self) -> tuple[Value, ...]:
        return self.operands


class PhiInst(Instruction):
    """SSA phi: value depends on the predecessor we arrived from.

    Operand ``i`` pairs with ``incoming_blocks[i]``.
    """

    __slots__ = ("incoming_blocks",)

    def __init__(self, ty: IRType, name: str = ""):
        super().__init__(Opcode.PHI, ty, [], name)
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self._append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incomings(self) -> list[tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_for(self, block: "BasicBlock") -> Value | None:
        for value, b in zip(self._operands, self.incoming_blocks):
            if b is block:
                return value
        return None

    def set_incoming_for(self, block: "BasicBlock", value: Value) -> None:
        for i, b in enumerate(self.incoming_blocks):
            if b is block:
                self.set_operand(i, value)
                return
        raise ValueError(f"phi has no incoming edge from {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        """Drop every edge arriving from ``block``."""
        i = 0
        while i < len(self.incoming_blocks):
            if self.incoming_blocks[i] is block:
                self._pop_operand(i)
                del self.incoming_blocks[i]
            else:
                i += 1

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        for i, b in enumerate(self.incoming_blocks):
            if b is old:
                self.incoming_blocks[i] = new


class BrInst(Instruction):
    """Unconditional branch."""

    __slots__ = ("target",)

    def __init__(self, target: "BasicBlock"):
        super().__init__(Opcode.BR, VOID, [])
        self.target = target

    def successors(self) -> tuple["BasicBlock", ...]:
        return (self.target,)

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new


class CBrInst(Instruction):
    """Conditional branch on an i1."""

    __slots__ = ("if_true", "if_false")

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"):
        super().__init__(Opcode.CBR, VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        return self._operands[0]

    def successors(self) -> tuple["BasicBlock", ...]:
        return (self.if_true, self.if_false)

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.if_true is old:
            self.if_true = new
        if self.if_false is old:
            self.if_false = new


class RetInst(Instruction):
    """Return, with an optional value."""

    __slots__ = ()

    def __init__(self, value: Value | None = None):
        super().__init__(Opcode.RET, VOID, [] if value is None else [value])

    @property
    def value(self) -> Value | None:
        return self._operands[0] if self._operands else None


class UnreachableInst(Instruction):
    """Marks a point control flow can never reach."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(Opcode.UNREACHABLE, VOID, [])


# -- constant folding helpers (shared by SCCP, instsimplify, and the VM) ----

_INT64_MASK = 2**64 - 1


def wrap_i64(value: int) -> int:
    """Wrap to signed 64-bit two's complement."""
    value &= _INT64_MASK
    return value - 2**64 if value >= 2**63 else value


class EvalTrap(Exception):
    """Evaluating would trap at runtime (division by zero)."""


def eval_binary(opcode: Opcode, a: int, b: int) -> int:
    """Evaluate a binary opcode on concrete i64 values."""
    if opcode is Opcode.ADD:
        return wrap_i64(a + b)
    if opcode is Opcode.SUB:
        return wrap_i64(a - b)
    if opcode is Opcode.MUL:
        return wrap_i64(a * b)
    if opcode is Opcode.SDIV:
        if b == 0:
            raise EvalTrap("division by zero")
        q = abs(a) // abs(b)
        return wrap_i64(-q if (a < 0) != (b < 0) else q)
    if opcode is Opcode.SREM:
        if b == 0:
            raise EvalTrap("remainder by zero")
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return wrap_i64(a - q * b)
    if opcode is Opcode.SHL:
        return wrap_i64(a << (b & 63))
    if opcode is Opcode.ASHR:
        return wrap_i64(a >> (b & 63))
    if opcode is Opcode.AND:
        return wrap_i64(a & b)
    if opcode is Opcode.OR:
        return wrap_i64(a | b)
    if opcode is Opcode.XOR:
        return wrap_i64(a ^ b)
    raise ValueError(f"not a binary opcode: {opcode}")


def eval_icmp(pred: ICmpPred, a: int, b: int) -> bool:
    """Evaluate a signed comparison on concrete values."""
    if pred is ICmpPred.EQ:
        return a == b
    if pred is ICmpPred.NE:
        return a != b
    if pred is ICmpPred.SLT:
        return a < b
    if pred is ICmpPred.SLE:
        return a <= b
    if pred is ICmpPred.SGT:
        return a > b
    return a >= b
