"""Backward liveness analysis over IR virtual registers.

Computes, per block, the sets of values live on entry and exit.  Used by
the backend's linear-scan register allocator and by dead-store-style
reasoning in tests.  Phi semantics: a phi's operands are treated as live
out of the corresponding predecessor (the classic "phis read on the
edge" convention).
"""

from __future__ import annotations

from repro._struct import Struct
from repro.ir.instructions import Instruction, PhiInst
from repro.ir.structure import BasicBlock, Function
from repro.ir.values import Argument, Value


def _is_register(value: Value) -> bool:
    """Values that occupy virtual registers: instructions and arguments."""
    return isinstance(value, (Instruction, Argument))


class LivenessInfo(Struct):
    """Result of liveness analysis for one function."""

    _fields = ("live_in", "live_out")

    def __init__(
        self,
        live_in: dict[BasicBlock, frozenset[Value]] | None = None,
        live_out: dict[BasicBlock, frozenset[Value]] | None = None,
    ) -> None:
        self.live_in = {} if live_in is None else live_in
        self.live_out = {} if live_out is None else live_out


def compute_liveness(fn: Function) -> LivenessInfo:
    """Iterative dataflow: live_in = use ∪ (live_out − def)."""
    use: dict[BasicBlock, set[Value]] = {}
    defs: dict[BasicBlock, set[Value]] = {}
    # Values a predecessor must keep alive for its successors' phis.
    phi_uses_from: dict[BasicBlock, set[Value]] = {b: set() for b in fn.blocks}

    for block in fn.blocks:
        block_use: set[Value] = set()
        block_def: set[Value] = set()
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                for value, pred in inst.incomings:
                    if _is_register(value):
                        phi_uses_from[pred].add(value)
                block_def.add(inst)
                continue
            for op in inst.operands:
                if _is_register(op) and op not in block_def:
                    block_use.add(op)
            if not inst.ty.is_void:
                block_def.add(inst)
        use[block] = block_use
        defs[block] = block_def

    live_in: dict[BasicBlock, set[Value]] = {b: set() for b in fn.blocks}
    live_out: dict[BasicBlock, set[Value]] = {b: set() for b in fn.blocks}

    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            out: set[Value] = set(phi_uses_from[block])
            for succ in block.successors():
                # live_in of successor, minus its phis (phi defs don't flow
                # backward as plain liveness; the edge values are handled
                # via phi_uses_from).
                succ_in = live_in[succ] - {i for i in succ.instructions if isinstance(i, PhiInst)}
                out |= succ_in
                for phi in succ.phis:
                    incoming = phi.incoming_for(block)
                    if incoming is not None and _is_register(incoming):
                        out.add(incoming)
            new_in = use[block] | (out - defs[block])
            if out != live_out[block] or new_in != live_in[block]:
                live_out[block] = out
                live_in[block] = new_in
                changed = True

    return LivenessInfo(
        live_in={b: frozenset(s) for b, s in live_in.items()},
        live_out={b: frozenset(s) for b, s in live_out.items()},
    )
