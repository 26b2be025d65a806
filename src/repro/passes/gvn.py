"""Global value numbering (dominator-tree scoped hashing).

Walks the dominator tree in preorder keeping a scoped table of
*expression keys* -> defining instruction.  An instruction whose key is
already in scope is replaced by the earlier (dominating) computation.
Pure instructions only; loads, calls, phis, and anything touching
memory are left to CSE/LICM, which reason about memory explicitly.

Commutative operations are keyed with sorted operands so ``a+b`` and
``b+a`` unify.
"""

from __future__ import annotations

from repro.analysis.dominators import DominatorTree
from repro.ir.instructions import (
    BinaryInst,
    GepInst,
    ICmpInst,
    Instruction,
    SelectInst,
    TruncInst,
    ZExtInst,
    COMMUTATIVE_OPCODES,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt, GlobalAddr, UndefValue, Value
from repro.passes.base import FunctionPass, PassStats


def make_value_numbering(fn: Function) -> dict[Value, int]:
    """Deterministic small-integer id per register value (args first,

    then instructions in layout order).  Keys built from these numbers
    are stable across runs on identical IR — required for the dormancy
    determinism contract."""
    numbering: dict[Value, int] = {}
    for arg in fn.args:
        numbering[arg] = len(numbering)
    for inst in fn.instructions():
        numbering[inst] = len(numbering)
    return numbering


def _operand_key(value: Value, numbering: dict[Value, int]) -> tuple:
    if isinstance(value, ConstantInt):
        return ("c", value.ty.name, value.value)
    if isinstance(value, GlobalAddr):
        return ("g", value.symbol)
    if isinstance(value, UndefValue):
        return ("u", value.ty.name)
    return ("v", numbering.get(value, -1))


def expression_key(inst: Instruction, numbering: dict[Value, int]) -> tuple | None:
    """Hashable key identifying the computation; None if not numberable."""
    if isinstance(inst, BinaryInst):
        ops = [
            _operand_key(inst.lhs, numbering),
            _operand_key(inst.rhs, numbering),
        ]
        if inst.opcode in COMMUTATIVE_OPCODES:
            ops.sort()
        return (inst.opcode.value, *ops)
    if isinstance(inst, ICmpInst):
        # Canonicalize: orient by operand key order, swapping the predicate.
        a = _operand_key(inst.lhs, numbering)
        b = _operand_key(inst.rhs, numbering)
        pred = inst.pred
        if b < a:
            a, b = b, a
            pred = pred.swap()
        return ("icmp", pred.value, a, b)
    if isinstance(inst, SelectInst):
        return (
            "select",
            _operand_key(inst.cond, numbering),
            _operand_key(inst.if_true, numbering),
            _operand_key(inst.if_false, numbering),
        )
    if isinstance(inst, (ZExtInst, TruncInst)):
        return (inst.opcode.value, _operand_key(inst.operands[0], numbering))
    if isinstance(inst, GepInst):
        return (
            "gep",
            _operand_key(inst.base, numbering),
            _operand_key(inst.index, numbering),
        )
    return None


class GVNPass(FunctionPass):
    """Eliminate redundant pure computations across blocks."""

    name = "gvn"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        domtree = DominatorTree.compute(fn)
        numbering = make_value_numbering(fn)
        scopes: list[dict[tuple, Instruction]] = [{}]

        def lookup(key: tuple) -> Instruction | None:
            for scope in reversed(scopes):
                found = scope.get(key)
                if found is not None:
                    return found
            return None

        # Iterative preorder walk with scope push/pop.
        stack: list[tuple[BasicBlock, bool]] = [(fn.entry, False)]
        while stack:
            block, done = stack.pop()
            if done:
                scopes.pop()
                continue
            stack.append((block, True))
            scopes.append({})
            for inst in list(block.instructions):
                stats.work += 1
                key = expression_key(inst, numbering)
                if key is None:
                    continue
                existing = lookup(key)
                if existing is not None:
                    inst.replace_with_value(existing)
                    stats.bump("redundant_removed")
                    stats.changed = True
                else:
                    scopes[-1][key] = inst
            for child in domtree.children.get(block, ()):
                stack.append((child, False))
        return stats
