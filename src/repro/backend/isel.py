"""Instruction selection: IR -> MIR over virtual registers.

Each IR value gets a virtual register; constants are materialized at
each use (the peephole pass and register allocator clean up).  Phis are
eliminated with parallel copies placed on the incoming edge: in the
predecessor when the edge is not critical, otherwise in a synthesized
edge block (MIR-level critical-edge splitting).  Copy cycles are broken
with a temporary register.

``alloca`` storage is laid out statically in the frame (every alloca in
the function gets a fixed offset), matching C semantics for locals.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.backend.mir import MachineFunction, MInst, MOp
from repro.ir.instructions import (
    AllocaInst,
    BrInst,
    CallInst,
    CBrInst,
    GepInst,
    ICmpInst,
    Instruction,
    LoadInst,
    Opcode,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import Argument, ConstantInt, GlobalAddr, UndefValue, Value

_BINARY_MOP = {
    Opcode.ADD: MOp.ADD,
    Opcode.SUB: MOp.SUB,
    Opcode.MUL: MOp.MUL,
    Opcode.SDIV: MOp.DIV,
    Opcode.SREM: MOp.REM,
    Opcode.SHL: MOp.SHL,
    Opcode.ASHR: MOp.SHR,
    Opcode.AND: MOp.AND,
    Opcode.OR: MOp.OR,
    Opcode.XOR: MOp.XOR,
}


class _SelectionState(Struct):
    _fields = ("fn", "mf", "vreg_of", "alloca_offset", "next_vreg", "alloca_size")

    def __init__(
        self,
        fn: Function,
        mf: MachineFunction,
        vreg_of: dict[Value, int] | None = None,
        alloca_offset: dict[AllocaInst, int] | None = None,
        next_vreg: int = 0,
        alloca_size: int = 0,
    ) -> None:
        self.fn = fn
        self.mf = mf
        self.vreg_of = {} if vreg_of is None else vreg_of
        self.alloca_offset = {} if alloca_offset is None else alloca_offset
        self.next_vreg = next_vreg
        self.alloca_size = alloca_size

    def fresh(self) -> int:
        reg = self.next_vreg
        self.next_vreg += 1
        return reg

    def reg_for(self, value: Value) -> int:
        reg = self.vreg_of.get(value)
        if reg is None:
            reg = self.fresh()
            self.vreg_of[value] = reg
        return reg

    def emit(self, inst: MInst) -> MInst:
        self.mf.code.append(inst)
        return inst


def _label(fn: Function, block: BasicBlock) -> str:
    return f"{fn.name}.{block.name}"


def select_function(fn: Function) -> MachineFunction:
    """Lower one defined IR function to unallocated MIR."""
    if fn.is_declaration:
        raise ValueError(f"cannot select declaration @{fn.name}")
    mf = MachineFunction(fn.name, num_params=len(fn.args))
    state = _SelectionState(fn, mf)

    # Parameters arrive in v0..v(n-1) by convention.
    for arg in fn.args:
        state.vreg_of[arg] = state.fresh()

    # Static frame layout for allocas.
    for inst in fn.instructions():
        if isinstance(inst, AllocaInst):
            state.alloca_offset[inst] = state.alloca_size
            state.alloca_size += inst.size

    # Pre-assign vregs to phis so edge copies can target them.
    for block in fn.blocks:
        for phi in block.phis:
            state.reg_for(phi)

    edge_blocks: list[tuple[str, list[MInst]]] = []
    for block_index, block in enumerate(fn.blocks):
        state.emit(MInst(MOp.LABEL, extra=_label(fn, block)))
        if block_index == 0:
            for i, arg in enumerate(fn.args):
                state.emit(MInst(MOp.GETPARAM, [state.vreg_of[arg]], imm=i))
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                continue
            if inst.is_terminator:
                _select_terminator(state, block, inst, edge_blocks)
            else:
                _select_instruction(state, inst)

    for label, insts in edge_blocks:
        state.emit(MInst(MOp.LABEL, extra=label))
        for minst in insts:
            state.emit(minst)

    mf.num_virtual_regs = state.next_vreg
    mf.frame_size = state.alloca_size  # spill slots appended by regalloc
    return mf


def _operand_reg(state: _SelectionState, value: Value) -> int:
    """Place an operand into a register, materializing constants."""
    if isinstance(value, ConstantInt):
        reg = state.fresh()
        state.emit(MInst(MOp.LI, [reg], imm=value.value))
        return reg
    if isinstance(value, GlobalAddr):
        reg = state.fresh()
        state.emit(MInst(MOp.LEA, [reg], extra=value.symbol))
        return reg
    if isinstance(value, UndefValue):
        reg = state.fresh()
        state.emit(MInst(MOp.LI, [reg], imm=0))
        return reg
    return state.reg_for(value)


def _select_instruction(state: _SelectionState, inst: Instruction) -> None:
    emit = state.emit
    if inst.is_binary:
        a = _operand_reg(state, inst.operands[0])
        b = _operand_reg(state, inst.operands[1])
        emit(MInst(_BINARY_MOP[inst.opcode], [state.reg_for(inst), a, b]))
        return
    if isinstance(inst, ICmpInst):
        a = _operand_reg(state, inst.lhs)
        b = _operand_reg(state, inst.rhs)
        emit(MInst(MOp.CMP, [state.reg_for(inst), a, b], extra=inst.pred.value))
        return
    if isinstance(inst, SelectInst):
        c = _operand_reg(state, inst.cond)
        t = _operand_reg(state, inst.if_true)
        f = _operand_reg(state, inst.if_false)
        emit(MInst(MOp.SEL, [state.reg_for(inst), c, t, f]))
        return
    if inst.opcode is Opcode.ZEXT:
        src = _operand_reg(state, inst.operands[0])
        emit(MInst(MOp.MV, [state.reg_for(inst), src]))
        return
    if inst.opcode is Opcode.TRUNC:
        src = _operand_reg(state, inst.operands[0])
        one = state.fresh()
        emit(MInst(MOp.LI, [one], imm=1))
        emit(MInst(MOp.AND, [state.reg_for(inst), src, one]))
        return
    if isinstance(inst, AllocaInst):
        emit(MInst(MOp.FRAME, [state.reg_for(inst)], imm=state.alloca_offset[inst]))
        return
    if isinstance(inst, LoadInst):
        addr = _operand_reg(state, inst.ptr)
        emit(MInst(MOp.LD, [state.reg_for(inst), addr]))
        return
    if isinstance(inst, StoreInst):
        value = _operand_reg(state, inst.value)
        addr = _operand_reg(state, inst.ptr)
        emit(MInst(MOp.ST, [value, addr]))
        return
    if isinstance(inst, GepInst):
        base = _operand_reg(state, inst.base)
        index = _operand_reg(state, inst.index)
        emit(MInst(MOp.ADD, [state.reg_for(inst), base, index]))
        return
    if isinstance(inst, CallInst):
        arg_regs = [_operand_reg(state, a) for a in inst.args]
        for reg in arg_regs:
            emit(MInst(MOp.ARG, [reg]))
        dest = state.reg_for(inst) if not inst.ty.is_void else -1
        emit(MInst(MOp.CALL, [dest], imm=len(arg_regs), extra=inst.callee))
        return
    raise ValueError(f"cannot select {inst!r}")  # pragma: no cover


def _phi_copies(
    state: _SelectionState, pred: BasicBlock, succ: BasicBlock
) -> list[MInst]:
    """Parallel copies realizing succ's phis along the edge pred->succ."""
    moves: list[tuple[int, Value]] = []
    for phi in succ.phis:
        incoming = phi.incoming_for(pred)
        assert incoming is not None, "verified IR has complete phis"
        moves.append((state.reg_for(phi), incoming))
    return _sequence_parallel_copies(state, moves)


def _sequence_parallel_copies(
    state: _SelectionState, moves: list[tuple[int, Value]]
) -> list[MInst]:
    """Order dst<-src moves so later moves don't clobber pending sources.

    Constants/globals have no ordering hazard.  Register-to-register
    cycles are broken by copying one cycle member into a temp first.
    """
    out: list[MInst] = []
    pending: dict[int, int] = {}  # dst -> src (register moves only)
    for dst, src in moves:
        if isinstance(src, ConstantInt):
            out.append(MInst(MOp.LI, [dst], imm=src.value))
        elif isinstance(src, GlobalAddr):
            out.append(MInst(MOp.LEA, [dst], extra=src.symbol))
        elif isinstance(src, UndefValue):
            out.append(MInst(MOp.LI, [dst], imm=0))
        else:
            src_reg = state.reg_for(src)
            if src_reg != dst:
                pending[dst] = src_reg
    # Emit register moves whose destination no one still reads.
    copies: list[MInst] = []
    while pending:
        ready = [d for d, s in pending.items() if d not in pending.values()]
        if ready:
            for dst in ready:
                copies.append(MInst(MOp.MV, [dst, pending.pop(dst)]))
            continue
        # Pure cycle: break it via a temp.
        dst, src = next(iter(pending.items()))
        temp = state.fresh()
        copies.append(MInst(MOp.MV, [temp, src]))
        # Everything reading `src`... only one reader per dst; rewrite users of src
        for d, s in list(pending.items()):
            if s == src:
                pending[d] = temp
        # dst's own move now safe to order in the next rounds.
    # Constants go last: they can't be sources of register moves, and a
    # register move must not clobber... actually LI writes dst which might
    # be a source of a pending register copy; emit register copies first.
    return copies + out


def _select_terminator(
    state: _SelectionState,
    block: BasicBlock,
    inst: Instruction,
    edge_blocks: list[tuple[str, list[MInst]]],
) -> None:
    fn = state.fn
    emit = state.emit
    if isinstance(inst, RetInst):
        reg = _operand_reg(state, inst.value) if inst.value is not None else -1
        emit(MInst(MOp.RET, [reg]))
        return
    if inst.opcode is Opcode.UNREACHABLE:
        # The VM traps when it executes a call to this reserved builtin.
        emit(MInst(MOp.CALL, [-1], imm=0, extra="__trap_unreachable"))
        emit(MInst(MOp.RET, [-1]))
        return
    if isinstance(inst, BrInst):
        copies = _phi_copies(state, block, inst.target)
        for c in copies:
            emit(c)
        emit(MInst(MOp.BR, extra=_label(fn, inst.target)))
        return
    if isinstance(inst, CBrInst):
        cond = _operand_reg(state, inst.cond)
        targets = []
        for succ in (inst.if_true, inst.if_false):
            copies = _phi_copies(state, block, succ)
            if copies:
                # Critical at MIR level: place copies in an edge block.
                edge_label = f"{fn.name}.edge.{block.name}.{succ.name}.{len(edge_blocks)}"
                edge_blocks.append(
                    (edge_label, [*copies, MInst(MOp.BR, extra=_label(fn, succ))])
                )
                targets.append(edge_label)
            else:
                targets.append(_label(fn, succ))
        emit(MInst(MOp.CBR, [cond], extra=f"{targets[0]} {targets[1]}"))
        return
    raise ValueError(f"cannot select terminator {inst!r}")  # pragma: no cover


def select_module(module: Module) -> dict[str, MachineFunction]:
    """Select every defined function in a module."""
    return {fn.name: select_function(fn) for fn in module.defined_functions()}
