"""Instruction simplification: constant folding + algebraic identities.

Combines what LLVM splits between InstSimplify and parts of
InstCombine: fold constant operations, apply algebraic identities
(``x+0``, ``x*1``, ``x^x``...), canonicalize commutative operands
(constants to the right), simplify selects/phis, and fold trivial
casts.  Runs to a local fixpoint.

Division/remainder by a constant zero is *not* folded — it must trap at
runtime exactly like the unoptimized program.
"""

from __future__ import annotations

from repro.ir.instructions import (
    BinaryInst,
    EvalTrap,
    ICmpInst,
    ICmpPred,
    Instruction,
    Opcode,
    PhiInst,
    SelectInst,
    TruncInst,
    ZExtInst,
    COMMUTATIVE_OPCODES,
    eval_binary,
    eval_icmp,
)
from repro.ir.structure import Function, Module
from repro.ir.types import I1
from repro.ir.values import ConstantInt, UndefValue, Value, const_i1, const_i64, values_equal
from repro.passes.base import FunctionPass, PassStats
from repro.passes.utils import single_value_phi


#: The instruction classes :meth:`InstSimplifyPass._simplify` handles.
_SIMPLIFIABLE = (BinaryInst, ICmpInst, SelectInst, ZExtInst, TruncInst, PhiInst)


def _const(value: Value) -> int | None:
    return value.value if isinstance(value, ConstantInt) else None


class InstSimplifyPass(FunctionPass):
    """Fold and simplify instructions until nothing more applies.

    Worklist-driven: every instruction is visited once, and a change
    re-enqueues exactly the instructions it could newly enable (the
    users of the rewritten value), so fixpoint cost is proportional to
    the number of rewrites, not rewrites x function size.
    """

    name = "instsimplify"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        from collections import deque

        stats = PassStats()
        worklist: deque[Instruction] = deque()
        queued: set[Instruction] = set()
        for block in fn.blocks:
            worklist.extend(block.instructions)
        queued.update(worklist)

        def enqueue(inst: Instruction) -> None:
            if inst not in queued and inst.parent is not None:
                worklist.append(inst)
                queued.add(inst)

        while worklist:
            inst = worklist.popleft()
            queued.discard(inst)
            if inst.parent is None:
                continue  # already removed by an earlier rewrite
            stats.work += 1
            if not isinstance(inst, _SIMPLIFIABLE):
                continue
            users_before = [use.user for use in inst.uses]
            if not self._simplify(inst, stats):
                continue
            stats.changed = True
            # The rewrite may enable its (former) users...
            for user in users_before:
                enqueue(user)
            # ...and, for in-place changes (canonicalization), the
            # instruction itself may now match a folding rule.
            if inst.parent is not None:
                enqueue(inst)
        return stats

    # -- dispatcher ----------------------------------------------------------

    def _simplify(self, inst: Instruction, stats: PassStats) -> bool:
        if isinstance(inst, BinaryInst):
            return self._simplify_binary(inst, stats)
        if isinstance(inst, ICmpInst):
            return self._simplify_icmp(inst, stats)
        if isinstance(inst, SelectInst):
            return self._simplify_select(inst, stats)
        if isinstance(inst, ZExtInst):
            value = _const(inst.operands[0])
            if value is not None:
                inst.replace_with_value(const_i64(1 if value else 0))
                stats.bump("zext_folded")
                return True
            return False
        if isinstance(inst, TruncInst):
            return self._simplify_trunc(inst, stats)
        if isinstance(inst, PhiInst):
            unique = single_value_phi(inst)
            if unique is not None:
                inst.replace_with_value(unique)
                stats.bump("phi_simplified")
                return True
            if all(isinstance(v, UndefValue) for v, _ in inst.incomings):
                inst.replace_with_value(UndefValue(inst.ty))
                stats.bump("phi_simplified")
                return True
            return False
        return False

    # -- binaries -----------------------------------------------------------

    def _simplify_binary(self, inst: BinaryInst, stats: PassStats) -> bool:
        op = inst.opcode
        lhs, rhs = inst.lhs, inst.rhs
        lc, rc = _const(lhs), _const(rhs)

        # Canonicalize: constant operand of a commutative op to the right.
        if lc is not None and rc is None and op in COMMUTATIVE_OPCODES:
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            stats.bump("canonicalized")
            return True

        if lc is not None and rc is not None:
            try:
                folded = eval_binary(op, lc, rc)
            except EvalTrap:
                return False  # preserve the runtime trap
            inst.replace_with_value(const_i64(folded))
            stats.bump("const_folded")
            return True

        replacement = self._binary_identity(op, lhs, rhs, lc, rc)
        if replacement is not None:
            inst.replace_with_value(replacement)
            stats.bump("identity")
            return True
        return False

    @staticmethod
    def _binary_identity(
        op: Opcode, lhs: Value, rhs: Value, lc: int | None, rc: int | None
    ) -> Value | None:
        same = values_equal(lhs, rhs)
        if op is Opcode.ADD:
            if rc == 0:
                return lhs
        elif op is Opcode.SUB:
            if rc == 0:
                return lhs
            if same:
                return const_i64(0)
        elif op is Opcode.MUL:
            if rc == 1:
                return lhs
            if rc == 0:
                return const_i64(0)
        elif op is Opcode.SDIV:
            if rc == 1:
                return lhs
            if lc == 0 and rc != 0 and rc is not None:
                return const_i64(0)
        elif op is Opcode.SREM:
            if rc == 1 or rc == -1:
                return const_i64(0)
        elif op in (Opcode.SHL, Opcode.ASHR):
            if rc is not None and (rc & 63) == 0:
                return lhs
            if lc == 0:
                return const_i64(0)
        elif op is Opcode.AND:
            if rc == 0:
                return const_i64(0)
            if rc == -1 or same:
                return lhs
        elif op is Opcode.OR:
            if rc == 0 or same:
                return lhs
            if rc == -1:
                return const_i64(-1)
        elif op is Opcode.XOR:
            if rc == 0:
                return lhs
            if same:
                return const_i64(0)
        return None

    # -- comparisons -----------------------------------------------------------

    def _simplify_icmp(self, inst: ICmpInst, stats: PassStats) -> bool:
        lhs, rhs = inst.lhs, inst.rhs
        lc, rc = _const(lhs), _const(rhs)
        if lc is not None and rc is None:
            # Canonicalize constant to the right, swapping the predicate.
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            inst.pred = inst.pred.swap()
            stats.bump("canonicalized")
            return True
        if lc is not None and rc is not None:
            inst.replace_with_value(const_i1(eval_icmp(inst.pred, lc, rc)))
            stats.bump("const_folded")
            return True
        if values_equal(lhs, rhs):
            result = inst.pred in (ICmpPred.EQ, ICmpPred.SLE, ICmpPred.SGE)
            inst.replace_with_value(const_i1(result))
            stats.bump("identity")
            return True
        return False

    # -- select / trunc ---------------------------------------------------------

    def _simplify_select(self, inst: SelectInst, stats: PassStats) -> bool:
        cond_const = _const(inst.cond)
        if cond_const is not None:
            inst.replace_with_value(inst.if_true if cond_const else inst.if_false)
            stats.bump("select_folded")
            return True
        if values_equal(inst.if_true, inst.if_false):
            inst.replace_with_value(inst.if_true)
            stats.bump("select_folded")
            return True
        tc, fc = _const(inst.if_true), _const(inst.if_false)
        # select c, true, false -> c  (only when arms are i1)
        if inst.ty is I1 and tc == 1 and fc == 0:
            inst.replace_with_value(inst.cond)
            stats.bump("select_folded")
            return True
        return False

    def _simplify_trunc(self, inst: TruncInst, stats: PassStats) -> bool:
        src = inst.operands[0]
        value = _const(src)
        if value is not None:
            inst.replace_with_value(const_i1(value & 1))
            stats.bump("trunc_folded")
            return True
        if isinstance(src, ZExtInst):
            inst.replace_with_value(src.operands[0])
            stats.bump("trunc_of_zext")
            return True
        return False
