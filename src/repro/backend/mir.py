"""Machine IR (MIR): the register-machine instruction set.

A simple load/store register machine:

- unlimited *virtual* registers before allocation (``v0, v1, ...``),
  16 *physical* registers after (``r0..r15``);
- a per-call frame holding spill slots and ``alloca`` storage;
- branch targets are symbolic labels, resolved to instruction indices
  when an object file is emitted.

Operands are integers with a tag; instructions are flat records so the
object format stays trivially serializable.
"""

from __future__ import annotations

import enum

from repro._struct import Struct


class MOp(enum.Enum):
    """Machine opcodes."""

    __hash__ = object.__hash__  # by identity, in C

    LI = "li"        # li rd, imm
    MV = "mv"        # mv rd, rs
    ADD = "add"      # add rd, rs1, rs2  (likewise all binaries)
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMP = "cmp"      # cmp.pred rd, rs1, rs2   (pred in .extra)
    SEL = "sel"      # sel rd, rc, rs1, rs2
    LD = "ld"        # ld rd, raddr
    ST = "st"        # st rval, raddr
    LEA = "lea"      # lea rd, @symbol         (symbol in .extra)
    FRAME = "frame"  # frame rd, offset        (rd = frame base + offset)
    ARG = "arg"      # arg rs                  (queue a call argument)
    CALL = "call"    # call rd?, @name         (consumes queued args; rd=-1 if void)
    GETPARAM = "getparam"  # getparam rd, i    (read incoming parameter i)
    SPILL = "spill"  # spill rs, slot          (frame spill area)
    RELOAD = "reload"  # reload rd, slot
    BR = "br"        # br label
    CBR = "cbr"      # cbr rc, label_true, label_false
    RET = "ret"      # ret rs?                 (rs = -1 for void)
    LABEL = "label"  # pseudo: marks a branch target


#: Number of allocatable physical registers.
NUM_PHYS_REGS = 16


class MInst(Struct):
    """One machine instruction.

    ``regs`` holds register operands (destination first when present);
    ``imm`` an integer immediate / frame offset / spill slot / parameter
    index / CALL argument count; ``extra`` a string payload (icmp
    predicate, callee, symbol, branch labels).
    """

    _fields = ("op", "regs", "imm", "extra")

    def __init__(
        self,
        op: MOp,
        regs: list[int] | None = None,
        imm: int = 0,
        extra: str = "",
    ) -> None:
        self.op = op
        self.regs = [] if regs is None else regs
        self.imm = imm
        self.extra = extra

    def render(self) -> str:
        r = ",".join(f"r{x}" for x in self.regs)
        if self.op is MOp.LI:
            return f"li r{self.regs[0]}, {self.imm}"
        if self.op is MOp.CMP:
            return f"cmp.{self.extra} {r}"
        if self.op is MOp.LEA:
            return f"lea r{self.regs[0]}, @{self.extra}"
        if self.op is MOp.FRAME:
            return f"frame r{self.regs[0]}, {self.imm}"
        if self.op is MOp.CALL:
            dest = f"r{self.regs[0]} = " if self.regs and self.regs[0] >= 0 else ""
            return f"{dest}call @{self.extra}/{self.imm}"
        if self.op is MOp.GETPARAM:
            return f"getparam r{self.regs[0]}, {self.imm}"
        if self.op in (MOp.SPILL, MOp.RELOAD):
            return f"{self.op.value} r{self.regs[0]}, [{self.imm}]"
        if self.op is MOp.BR:
            return f"br {self.extra}"
        if self.op is MOp.CBR:
            return f"cbr r{self.regs[0]}, {self.extra}"
        if self.op is MOp.RET:
            return f"ret r{self.regs[0]}" if self.regs and self.regs[0] >= 0 else "ret"
        if self.op is MOp.LABEL:
            return f"{self.extra}:"
        if self.imm and self.op is not MOp.LI:
            return f"{self.op.value} {r}, {self.imm}"
        return f"{self.op.value} {r}"


class MachineFunction(Struct):
    """A function's machine code plus frame metadata.

    Before register allocation ``code`` uses virtual register numbers
    and ``num_virtual_regs`` is set; after allocation registers are
    physical (< :data:`NUM_PHYS_REGS`) and ``frame_size`` covers both
    spill slots and alloca storage.
    """

    _fields = (
        "name", "num_params", "code", "num_virtual_regs", "frame_size", "is_allocated",
    )

    def __init__(
        self,
        name: str,
        num_params: int,
        code: list[MInst] | None = None,
        num_virtual_regs: int = 0,
        frame_size: int = 0,
        is_allocated: bool = False,
    ) -> None:
        self.name = name
        self.num_params = num_params
        self.code = [] if code is None else code
        self.num_virtual_regs = num_virtual_regs
        self.frame_size = frame_size
        self.is_allocated = is_allocated

    def render(self) -> str:
        lines = [f"func @{self.name} params={self.num_params} frame={self.frame_size}"]
        for inst in self.code:
            indent = "" if inst.op is MOp.LABEL else "  "
            lines.append(indent + inst.render())
        return "\n".join(lines)

    @property
    def num_instructions(self) -> int:
        return sum(1 for i in self.code if i.op is not MOp.LABEL)
