"""IR verifier.

Checks structural and SSA well-formedness of modules.  Passes run it in
debug/testing builds after every transform; the test suite uses it as
the primary invariant oracle.  Violations raise :class:`VerifyError`
with all accumulated messages.
"""

from __future__ import annotations

from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    Instruction,
    Opcode,
    PhiInst,
    TERMINATOR_OPCODES,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.types import I1, I64, PTR, VOID
from repro.ir.values import Argument, ConstantInt, GlobalAddr, UndefValue, Use, Value


class VerifyError(Exception):
    """The module violates IR invariants."""

    def __init__(self, messages: list[str]):
        self.messages = messages
        super().__init__("\n".join(messages))


def verify_module(module: Module, *, skip: list[str] | tuple = ()) -> None:
    """Verify every function but those named in ``skip``; raise
    :class:`VerifyError` on problems."""
    errors: list[str] = []
    skipped = set(skip)
    for fn in module.functions.values():
        if not fn.is_declaration and fn.name not in skipped:
            errors.extend(_verify_function(fn, module))
    for inst in _all_instructions(module, skipped):
        if isinstance(inst, CallInst):
            callee = module.functions.get(inst.callee)
            if callee is not None and callee.sig != inst.sig:
                errors.append(
                    f"call to @{inst.callee} has signature {inst.sig}, "
                    f"function has {callee.sig}"
                )
    if errors:
        raise VerifyError(errors)


def verify_function(fn: Function, module: Module | None = None) -> None:
    errors = _verify_function(fn, module)
    if errors:
        raise VerifyError(errors)


def _all_instructions(module: Module, skip: set[str]):
    for fn in module.functions.values():
        if fn.name not in skip:
            yield from fn.instructions()


def _verify_function(fn: Function, module: Module | None) -> list[str]:
    errors: list[str] = []
    where = f"@{fn.name}"

    if not fn.blocks:
        return [f"{where}: defined function has no blocks"]

    block_set = set(fn.blocks)
    preds = fn.predecessors()
    if preds[fn.entry]:
        errors.append(f"{where}: entry block has predecessors")

    seen_names: dict[str, Instruction] = {}
    for block in fn.blocks:
        errors.extend(_verify_block(fn, block, block_set, preds, seen_names))

    errors.extend(_verify_dominance(fn, preds))
    return errors


def _verify_block(
    fn: Function,
    block: BasicBlock,
    block_set: set[BasicBlock],
    preds: dict[BasicBlock, list[BasicBlock]],
    seen_names: dict[str, Instruction],
) -> list[str]:
    errors: list[str] = []
    where = f"@{fn.name}/^{block.name}"

    if block.parent is not fn:
        errors.append(f"{where}: block parent link broken")
    if not block.instructions:
        return [f"{where}: empty block"]

    term = block.instructions[-1]
    if term.opcode not in TERMINATOR_OPCODES:
        errors.append(f"{where}: does not end with a terminator")
    for inst in block.instructions[:-1]:
        if inst.opcode in TERMINATOR_OPCODES:
            errors.append(f"{where}: terminator {inst.opcode.value} in the middle of a block")

    in_phi_prefix = True
    for inst in block.instructions:
        if isinstance(inst, PhiInst):
            if not in_phi_prefix:
                errors.append(f"{where}: phi {inst.ref()} after non-phi instructions")
            errors.extend(_verify_phi(fn, block, inst, preds))
        else:
            in_phi_prefix = False
        if inst.parent is not block:
            errors.append(f"{where}: {inst.ref()} has wrong parent link")
        if not inst.ty.is_void:
            if not inst.name:
                errors.append(f"{where}: unnamed value-producing instruction {inst.opcode.value}")
            elif inst.name in seen_names and seen_names[inst.name] is not inst:
                errors.append(f"{where}: duplicate value name %{inst.name}")
            else:
                seen_names[inst.name] = inst
        errors.extend(_verify_operand_types(fn, block, inst))
        errors.extend(_verify_use_links(fn, block, inst))
        for succ in inst.successors():
            if succ not in block_set:
                errors.append(f"{where}: branch to block ^{succ.name} not in function")
    return errors


def _verify_phi(
    fn: Function,
    block: BasicBlock,
    phi: PhiInst,
    preds: dict[BasicBlock, list[BasicBlock]],
) -> list[str]:
    errors: list[str] = []
    where = f"@{fn.name}/^{block.name}/{phi.ref()}"
    incoming = phi.incoming_blocks
    if len(incoming) != len(set(map(id, incoming))):
        errors.append(f"{where}: duplicate incoming blocks")
    expected = set(map(id, preds.get(block, [])))
    actual = set(map(id, incoming))
    if expected != actual:
        exp_names = sorted(b.name for b in preds.get(block, []))
        act_names = sorted(b.name for b in incoming)
        errors.append(
            f"{where}: incoming blocks {act_names} do not match predecessors {exp_names}"
        )
    for value, b in phi.incomings:
        if value.ty != phi.ty and not isinstance(value, UndefValue):
            errors.append(f"{where}: incoming from ^{b.name} has type {value.ty}, phi is {phi.ty}")
    return errors


_EXPECTED_OPERAND_TYPES = {
    Opcode.ZEXT: (I1,),
    Opcode.TRUNC: (I64,),
    Opcode.GEP: (PTR, I64),
}


def _verify_operand_types(fn: Function, block: BasicBlock, inst: Instruction) -> list[str]:
    errors: list[str] = []
    where = f"@{fn.name}/^{block.name}/{inst.opcode.value}"
    ops = inst.operands

    def want(index: int, ty) -> None:
        if index < len(ops) and ops[index].ty != ty and not isinstance(ops[index], UndefValue):
            errors.append(
                f"{where}: operand {index} has type {ops[index].ty}, expected {ty}"
            )

    if inst.is_binary or inst.opcode is Opcode.ICMP:
        want(0, I64)
        want(1, I64)
    elif inst.opcode in _EXPECTED_OPERAND_TYPES:
        for i, ty in enumerate(_EXPECTED_OPERAND_TYPES[inst.opcode]):
            want(i, ty)
    elif inst.opcode is Opcode.SELECT:
        want(0, I1)
        if len(ops) == 3 and ops[1].ty != ops[2].ty:
            errors.append(f"{where}: select arms have different types")
    elif inst.opcode is Opcode.LOAD:
        want(0, PTR)
    elif inst.opcode is Opcode.STORE:
        want(1, PTR)
        if ops and ops[0].ty not in (I64, I1):
            errors.append(f"{where}: stored value must be integer, got {ops[0].ty}")
    elif inst.opcode is Opcode.CBR:
        want(0, I1)
    elif isinstance(inst, CallInst):
        for i, ty in enumerate(inst.sig.params):
            want(i, ty)
    elif inst.opcode is Opcode.RET:
        if ops and ops[0].ty is VOID:
            errors.append(f"{where}: cannot return a void value")
    return errors


def _verify_use_links(fn: Function, block: BasicBlock, inst: Instruction) -> list[str]:
    errors: list[str] = []
    where = f"@{fn.name}/^{block.name}/{inst.opcode.value}"
    for index, op in enumerate(inst.operands):
        if Use(inst, index) not in op.uses:
            errors.append(f"{where}: operand {index} ({op.ref()}) missing back-reference use")
        if isinstance(op, Instruction) and op.parent is None:
            errors.append(f"{where}: operand {index} ({op.ref()}) is a detached instruction")
        if isinstance(op, Argument) and op not in fn.args:
            errors.append(f"{where}: operand {index} is an argument of another function")
    return errors


def _verify_dominance(fn: Function, preds: dict[BasicBlock, list[BasicBlock]]) -> list[str]:
    """Every use of an instruction must be dominated by its definition."""
    from repro.analysis.dominators import DominatorTree  # local import: avoid cycle

    errors: list[str] = []
    domtree = DominatorTree.compute(fn)
    positions: dict[Instruction, tuple[BasicBlock, int]] = {}
    for block in fn.blocks:
        for i, inst in enumerate(block.instructions):
            positions[inst] = (block, i)

    for block in fn.blocks:
        if not domtree.is_reachable(block):
            continue  # unreachable code is exempt (simplifycfg removes it)
        for i, inst in enumerate(block.instructions):
            for op_index, op in enumerate(inst.operands):
                if not isinstance(op, Instruction):
                    continue
                if op not in positions:
                    errors.append(
                        f"@{fn.name}/^{block.name}: {inst.ref()} uses detached value {op.ref()}"
                    )
                    continue
                def_block, def_index = positions[op]
                if isinstance(inst, PhiInst):
                    pred = inst.incoming_blocks[op_index]
                    if not domtree.dominates_block(def_block, pred):
                        errors.append(
                            f"@{fn.name}: phi {inst.ref()} incoming {op.ref()} from "
                            f"^{pred.name} not dominated by its definition"
                        )
                    continue
                ok = (
                    def_block is block and def_index < i
                ) or (def_block is not block and domtree.dominates_block(def_block, block))
                if not ok:
                    errors.append(
                        f"@{fn.name}/^{block.name}: use of {op.ref()} by {inst.opcode.value} "
                        f"is not dominated by its definition in ^{def_block.name}"
                    )
    return errors
