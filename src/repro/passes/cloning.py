"""IR cloning utilities shared by the inliner and loop unroller.

Clones a set of blocks with a value map: operands defined inside the
cloned region are remapped to their clones; everything else (constants,
globals, values defined outside the region) is used as-is.
"""

from __future__ import annotations

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
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
    TruncInst,
    UnreachableInst,
    ZExtInst,
)
from repro.ir.structure import BasicBlock, Function
from repro.ir.values import Value


def clone_instruction(inst: Instruction, value_map: dict[Value, Value]) -> Instruction:
    """Clone one instruction, remapping operands through ``value_map``.

    Branch targets and phi incoming blocks are *not* remapped here;
    :func:`clone_blocks` fixes them after all blocks exist.
    """

    remap = value_map.get
    ops = [remap(op, op) for op in inst.operands]
    if isinstance(inst, BinaryInst):
        return BinaryInst(inst.opcode, ops[0], ops[1])
    if isinstance(inst, ICmpInst):
        return ICmpInst(inst.pred, ops[0], ops[1])
    if isinstance(inst, SelectInst):
        return SelectInst(ops[0], ops[1], ops[2])
    if isinstance(inst, ZExtInst):
        return ZExtInst(ops[0])
    if isinstance(inst, TruncInst):
        return TruncInst(ops[0])
    if isinstance(inst, AllocaInst):
        return AllocaInst(inst.size)
    if isinstance(inst, LoadInst):
        return LoadInst(inst.ty, ops[0])
    if isinstance(inst, StoreInst):
        return StoreInst(ops[0], ops[1])
    if isinstance(inst, GepInst):
        return GepInst(ops[0], ops[1])
    if isinstance(inst, CallInst):
        return CallInst(inst.callee, inst.sig, ops)
    if isinstance(inst, PhiInst):
        clone = PhiInst(inst.ty)
        for value, block in inst.incomings:
            clone.add_incoming(remap(value, value), block)  # block fixed later
        return clone
    if isinstance(inst, BrInst):
        return BrInst(inst.target)
    if isinstance(inst, CBrInst):
        return CBrInst(ops[0], inst.if_true, inst.if_false)
    if isinstance(inst, RetInst):
        return RetInst(ops[0] if ops else None)
    if isinstance(inst, UnreachableInst):
        return UnreachableInst()
    raise ValueError(f"cannot clone {inst!r}")  # pragma: no cover


def clone_blocks(
    fn: Function,
    blocks: list[BasicBlock],
    value_map: dict[Value, Value],
    *,
    name_suffix: str,
) -> dict[BasicBlock, BasicBlock]:
    """Clone ``blocks`` into ``fn``, returning original -> clone.

    ``value_map`` may be pre-seeded (e.g. mapping callee arguments to
    call operands); it is extended with every cloned instruction.
    Branches and phi edges pointing *inside* the cloned region are
    redirected to the clones; edges leaving the region keep their
    original targets.
    """
    block_map: dict[BasicBlock, BasicBlock] = {}
    for block in blocks:
        clone = fn.add_block(f"{block.name}.{name_suffix}")
        block_map[block] = clone

    for block in blocks:
        clone_block = block_map[block]
        for inst in block.instructions:
            clone = clone_instruction(inst, value_map)
            if not clone.ty.is_void:
                clone.name = fn.next_name("c")
            clone_block.append(clone)
            value_map[inst] = clone

    # Second fix-up pass: operands that forward-referenced a value whose
    # clone did not exist yet (phi back edges, layout-order quirks) were
    # left pointing at the original; remap them now.
    for block in blocks:
        for inst in block_map[block].instructions:
            for index, op in enumerate(inst.operands):
                mapped = value_map.get(op)
                if mapped is not None and mapped is not op:
                    inst.set_operand(index, mapped)

    # Fix block references now that all clones exist.
    for block in blocks:
        for inst in block_map[block].instructions:
            if isinstance(inst, BrInst):
                inst.target = block_map.get(inst.target, inst.target)
            elif isinstance(inst, CBrInst):
                inst.if_true = block_map.get(inst.if_true, inst.if_true)
                inst.if_false = block_map.get(inst.if_false, inst.if_false)
            elif isinstance(inst, PhiInst):
                inst.incoming_blocks = [
                    block_map.get(b, b) for b in inst.incoming_blocks
                ]
    return block_map
