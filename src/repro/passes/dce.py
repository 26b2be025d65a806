"""Dead code elimination.

Removes, to a fixpoint:

- unused pure instructions (arithmetic, comparisons, selects, casts,
  geps);
- unused loads (reading memory has no effect if nobody consumes it);
- allocas with no remaining uses;
- unused calls to functions proven side-effect free and terminating by
  :class:`~repro.passes.funcattrs.FunctionAttrsPass`;
- trivially dead phis (unused, or only used by themselves).
"""

from __future__ import annotations

from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    Instruction,
    LoadInst,
    PhiInst,
)
from repro.ir.structure import Function, Module
from repro.passes.base import FunctionPass, PassStats
from repro.passes.funcattrs import get_pure_functions


def _is_removable_if_unused(inst: Instruction, pure_functions: frozenset[str]) -> bool:
    if inst.is_terminator or inst.ty.is_void:
        return False
    if inst.is_pure:
        return True
    if isinstance(inst, (LoadInst, AllocaInst, PhiInst)):
        return True
    if isinstance(inst, CallInst):
        return inst.callee in pure_functions
    return False


class DeadCodeEliminationPass(FunctionPass):
    """Iteratively delete instructions whose results are never used."""

    name = "dce"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        from collections import deque

        stats = PassStats()
        pure = get_pure_functions(module)
        # Worklist: seed everything once (bottom-up so chains die in one
        # sweep); removing an instruction re-enqueues its operands, which
        # may have just lost their last use.
        worklist: deque[Instruction] = deque()
        for block in reversed(fn.blocks):
            worklist.extend(reversed(block.instructions))
        queued: set[Instruction] = set(worklist)

        while worklist:
            inst = worklist.popleft()
            queued.discard(inst)
            if inst.parent is None:
                continue
            stats.work += 1
            if not _is_removable_if_unused(inst, pure):
                continue
            uses = inst.uses
            if uses and not all(u.user is inst for u in uses):
                continue
            if uses:  # self-referential phi
                for use in list(uses):
                    use.user.set_operand(use.index, _undef_like(inst))
            operands = [op for op in inst.operands if isinstance(op, Instruction)]
            inst.erase()
            stats.bump("removed")
            stats.changed = True
            for op in operands:
                if op not in queued and op.parent is not None:
                    worklist.append(op)
                    queued.add(op)
        return stats


def _undef_like(inst: Instruction):
    from repro.ir.values import UndefValue

    return UndefValue(inst.ty)
