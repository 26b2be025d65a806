"""Linear-scan register allocation for MIR.

Classic Poletto–Sarkar linear scan with dataflow-accurate intervals:

1. Rebuild the MIR CFG from labels/branches and run backward liveness,
   so intervals are correct across loops (a value live around a back
   edge gets an interval covering the whole loop).
2. One interval per virtual register, ``[first def/live-in position,
   last use/live-out position]``.
3. Scan by increasing start; when the 13 allocatable registers are
   exhausted, spill the active interval with the furthest end.
4. Rewrite: spilled uses reload into one of 3 reserved scratch
   registers (``r13..r15`` — enough for SEL's three sources), spilled
   defs compute into scratch then store to the frame.

Spill slots live above the function's alloca area; the final
``frame_size`` covers both.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.backend.mir import MachineFunction, MInst, MOp, NUM_PHYS_REGS

#: Registers the scanner may assign.
NUM_ALLOCATABLE = NUM_PHYS_REGS - 3
#: Reserved for spill-code rewriting.
SCRATCH_REGS = (NUM_PHYS_REGS - 3, NUM_PHYS_REGS - 2, NUM_PHYS_REGS - 1)


def _reg_uses_defs(inst: MInst) -> tuple[list[int], list[int]]:
    """(uses, defs) virtual-register lists of one MIR instruction."""
    op = inst.op
    if op in (MOp.LI, MOp.LEA, MOp.FRAME, MOp.GETPARAM):
        return [], [inst.regs[0]]
    if op is MOp.MV:
        return [inst.regs[1]], [inst.regs[0]]
    if op in (
        MOp.ADD, MOp.SUB, MOp.MUL, MOp.DIV, MOp.REM,
        MOp.SHL, MOp.SHR, MOp.AND, MOp.OR, MOp.XOR, MOp.CMP,
    ):
        return [inst.regs[1], inst.regs[2]], [inst.regs[0]]
    if op is MOp.SEL:
        return [inst.regs[1], inst.regs[2], inst.regs[3]], [inst.regs[0]]
    if op is MOp.LD:
        return [inst.regs[1]], [inst.regs[0]]
    if op is MOp.ST:
        return [inst.regs[0], inst.regs[1]], []
    if op is MOp.ARG:
        return [inst.regs[0]], []
    if op is MOp.CALL:
        dest = inst.regs[0]
        return [], ([dest] if dest >= 0 else [])
    if op is MOp.CBR:
        return [inst.regs[0]], []
    if op is MOp.RET:
        reg = inst.regs[0] if inst.regs else -1
        return ([reg] if reg >= 0 else []), []
    return [], []  # BR, LABEL, SPILL/RELOAD (not present pre-alloc)


class _MBlock(Struct):
    _fields = ("label", "start", "end", "succs")

    def __init__(
        self,
        label: str,
        start: int,
        end: int,
        succs: list[str] | None = None,
    ) -> None:
        self.label = label
        # index of the LABEL instruction
        self.start = start
        # index one past the last instruction
        self.end = end
        self.succs = [] if succs is None else succs


def _split_blocks(code: list[MInst]) -> dict[str, _MBlock]:
    blocks: dict[str, _MBlock] = {}
    current: _MBlock | None = None
    for i, inst in enumerate(code):
        if inst.op is MOp.LABEL:
            if current is not None:
                current.end = i
            current = _MBlock(inst.extra, i, len(code))
            blocks[inst.extra] = current
            continue
        assert current is not None, "instruction before first label"
        if inst.op is MOp.BR:
            current.succs.append(inst.extra)
        elif inst.op is MOp.CBR:
            current.succs.extend(inst.extra.split())
    if current is not None:
        current.end = len(code)
    # Close block ends at their terminators (isel never falls through).
    return blocks


def _block_liveness(
    code: list[MInst], blocks: dict[str, _MBlock]
) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    use: dict[str, set[int]] = {}
    defs: dict[str, set[int]] = {}
    for label, block in blocks.items():
        bu: set[int] = set()
        bd: set[int] = set()
        for inst in code[block.start : block.end]:
            uses, ds = _reg_uses_defs(inst)
            for r in uses:
                if r not in bd:
                    bu.add(r)
            bd.update(ds)
        use[label] = bu
        defs[label] = bd

    live_in: dict[str, set[int]] = {l: set() for l in blocks}
    live_out: dict[str, set[int]] = {l: set() for l in blocks}
    changed = True
    order = list(blocks)
    while changed:
        changed = False
        for label in reversed(order):
            block = blocks[label]
            out: set[int] = set()
            for succ in block.succs:
                out |= live_in[succ]
            new_in = use[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return live_in, live_out


class _Interval(Struct):
    _fields = ("vreg", "start", "end", "assigned", "spill_slot")

    def __init__(
        self,
        vreg: int,
        start: int,
        end: int,
        assigned: int = -1,
        spill_slot: int = -1,
    ) -> None:
        self.vreg = vreg
        self.start = start
        self.end = end
        #: The physical register, or -1 and a frame slot when spilled.
        self.assigned = assigned
        self.spill_slot = spill_slot


def compute_intervals(mf: MachineFunction) -> list[_Interval]:
    """Live interval per virtual register, loop-accurate."""
    code = mf.code
    blocks = _split_blocks(code)
    live_in, live_out = _block_liveness(code, blocks)

    start: dict[int, int] = {}
    end: dict[int, int] = {}

    def touch(reg: int, pos: int) -> None:
        if reg not in start:
            start[reg] = pos
            end[reg] = pos
        else:
            start[reg] = min(start[reg], pos)
            end[reg] = max(end[reg], pos)

    for label, block in blocks.items():
        for reg in live_in[label]:
            touch(reg, block.start)
        for reg in live_out[label]:
            touch(reg, block.end - 1)
    for i, inst in enumerate(code):
        uses, defs = _reg_uses_defs(inst)
        for reg in uses:
            touch(reg, i)
        for reg in defs:
            touch(reg, i)

    intervals = [_Interval(reg, start[reg], end[reg]) for reg in start]
    intervals.sort(key=lambda iv: (iv.start, iv.end))
    return intervals


def allocate_function(mf: MachineFunction) -> MachineFunction:
    """Allocate registers in place and return ``mf``.

    Idempotent guard: raises if the function is already allocated.
    """
    if mf.is_allocated:
        raise ValueError(f"@{mf.name} is already register-allocated")

    intervals = compute_intervals(mf)
    next_spill_slot = mf.frame_size

    active: list[_Interval] = []
    free = list(range(NUM_ALLOCATABLE))

    for interval in intervals:
        # Expire finished intervals.
        still_active = []
        for act in active:
            if act.end < interval.start:
                free.append(act.assigned)
            else:
                still_active.append(act)
        active = still_active

        if free:
            interval.assigned = free.pop()
            active.append(interval)
            active.sort(key=lambda iv: iv.end)
            continue
        # Spill the interval ending last (it blocks a register longest).
        victim = active[-1]
        if victim.end > interval.end:
            interval.assigned = victim.assigned
            victim.assigned = -1
            victim.spill_slot = next_spill_slot
            next_spill_slot += 1
            active[-1] = interval
            active.sort(key=lambda iv: iv.end)
        else:
            interval.spill_slot = next_spill_slot
            next_spill_slot += 1

    assignment = {iv.vreg: iv for iv in intervals}
    mf.code = _rewrite(mf.code, assignment)
    mf.frame_size = next_spill_slot
    mf.num_virtual_regs = 0
    mf.is_allocated = True
    return mf


def _rewrite(code: list[MInst], assignment: dict[int, "_Interval"]) -> list[MInst]:
    """Replace vregs with physical registers, inserting spill code."""
    out: list[MInst] = []
    for inst in code:
        uses, defs = _reg_uses_defs(inst)
        mapping: dict[int, int] = {}
        scratch_iter = iter(SCRATCH_REGS)
        # Reloads for spilled sources.
        for reg in dict.fromkeys(uses):  # preserve order, dedupe
            interval = assignment[reg]
            if interval.assigned >= 0:
                mapping[reg] = interval.assigned
            else:
                scratch = next(scratch_iter)
                out.append(MInst(MOp.RELOAD, [scratch], imm=interval.spill_slot))
                mapping[reg] = scratch
        spill_after: list[MInst] = []
        for reg in defs:
            interval = assignment[reg]
            if interval.assigned >= 0:
                mapping.setdefault(reg, interval.assigned)
            else:
                # Reuse the first scratch for the def (sources already read).
                mapping[reg] = SCRATCH_REGS[0]
                spill_after.append(MInst(MOp.SPILL, [SCRATCH_REGS[0]], imm=interval.spill_slot))
        new_regs = [mapping.get(r, r) if r >= 0 else r for r in inst.regs]
        out.append(MInst(inst.op, new_regs, imm=inst.imm, extra=inst.extra))
        out.extend(spill_after)
    return out
