"""Full unrolling of small constant-trip-count loops.

Handles the canonical counted-loop shape our lowering produces
(test-at-top, single back edge, single exit edge from the header):

- header phis ``i = phi [init, preheader], [step, latch]`` with a
  constant ``init`` and ``step = i ± constant``;
- header terminator ``cbr (icmp i, constant), <into loop>, <exit>``;
- the latch branches unconditionally to the header;
- no other edge leaves the loop (loops containing ``break`` are
  rejected — their exit dominance structure needs LCSSA, which this IR
  intentionally omits).

The trip count is derived by simulating the induction variable.  The
loop body is cloned once per iteration with the header phis replaced by
that iteration's concrete/last-iteration values, plus one final header
copy that feeds values used after the loop and branches to the exit.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.analysis.loops import Loop, find_natural_loops
from repro.ir.instructions import (
    BinaryInst,
    BrInst,
    CBrInst,
    ICmpInst,
    Instruction,
    Opcode,
    PhiInst,
    eval_binary,
    eval_icmp,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt, Value, const_i64
from repro.passes.base import FunctionPass, PassStats
from repro.passes.cloning import clone_instruction
from repro.passes.licm import ensure_preheader
from repro.passes.utils import remove_unreachable_blocks


class _UnrollPlan(Struct):
    _fields = ("loop", "preheader", "latch", "body_entry", "exit_block", "trip_count")

    def __init__(
        self,
        loop: Loop,
        preheader: BasicBlock,
        latch: BasicBlock,
        body_entry: BasicBlock,
        exit_block: BasicBlock,
        trip_count: int,
    ) -> None:
        self.loop = loop
        self.preheader = preheader
        self.latch = latch
        # header's in-loop successor
        self.body_entry = body_entry
        self.exit_block = exit_block
        self.trip_count = trip_count


class LoopUnrollPass(FunctionPass):
    """Fully unroll short counted loops."""

    name = "loopunroll"

    def __init__(self, max_trip: int = 16, max_total_instructions: int = 256):
        self.max_trip = max_trip
        self.max_total_instructions = max_total_instructions

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        # Unroll innermost-first (smallest block count first); re-discover
        # after each unroll since the CFG changed.
        progress = True
        while progress:
            progress = False
            loops = sorted(find_natural_loops(fn), key=lambda l: len(l.blocks))
            for loop in loops:
                stats.work += sum(len(b) for b in loop.blocks)
                plan = self._analyze(fn, loop)
                if plan is None:
                    continue
                self._unroll(fn, plan)
                stats.bump("loops_unrolled")
                stats.bump("iterations_expanded", plan.trip_count)
                stats.changed = True
                progress = True
                break  # loop structures are stale; re-analyze
        if stats.changed:
            remove_unreachable_blocks(fn)
        return stats

    # -- analysis -----------------------------------------------------------

    def _analyze(self, fn: Function, loop: Loop) -> "_UnrollPlan | None":
        header = loop.header
        if len(loop.latches) != 1:
            return None
        latch = loop.latches[0]
        if latch is header:
            return None  # single-block (do-while) shape: test-at-bottom
        if not isinstance(latch.terminator, BrInst):
            return None

        term = header.terminator
        if not isinstance(term, CBrInst):
            return None
        in_true = term.if_true in loop.blocks
        in_false = term.if_false in loop.blocks
        if in_true == in_false:
            return None  # both in or both out
        body_entry = term.if_true if in_true else term.if_false
        exit_block = term.if_false if in_true else term.if_true
        if body_entry is header:
            return None

        # The header must be the only block with an edge out of the loop.
        for block in loop.blocks:
            for succ in block.successors():
                if succ not in loop.blocks and block is not header:
                    return None

        preds = fn.predecessors()[header]
        outside = [p for p in preds if p not in loop.blocks]
        if len(outside) != 1 or len(preds) != 2:
            return None
        preheader_candidate = outside[0]

        cond = term.cond
        if not isinstance(cond, ICmpInst) or cond.parent is not header:
            return None
        trip = self._trip_count(header, latch, preheader_candidate, cond, in_true)
        if trip is None or trip > self.max_trip:
            return None
        region_size = sum(len(b) for b in loop.blocks)
        if (trip + 1) * region_size > self.max_total_instructions:
            return None

        preheader = ensure_preheader(fn, loop)
        if preheader is None:
            return None
        return _UnrollPlan(loop, preheader, latch, body_entry, exit_block, trip)

    def _trip_count(
        self,
        header: BasicBlock,
        latch: BasicBlock,
        preheader: BasicBlock,
        cond: ICmpInst,
        enter_on_true: bool,
    ) -> int | None:
        """Simulate the induction variable; None if not analyzable."""
        # Identify the induction phi among the cond operands.
        phi = None
        bound = None
        for a, b in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            if isinstance(a, PhiInst) and a.parent is header and isinstance(b, ConstantInt):
                phi, bound = a, b
                lhs_is_phi = a is cond.lhs
                break
        if phi is None or bound is None:
            return None

        init = phi.incoming_for(preheader)
        step_value = phi.incoming_for(latch)
        if not isinstance(init, ConstantInt) or not isinstance(step_value, BinaryInst):
            return None
        if step_value.opcode not in (Opcode.ADD, Opcode.SUB):
            return None
        if step_value.lhs is phi and isinstance(step_value.rhs, ConstantInt):
            delta = step_value.rhs.value
        elif (
            step_value.opcode is Opcode.ADD
            and step_value.rhs is phi
            and isinstance(step_value.lhs, ConstantInt)
        ):
            delta = step_value.lhs.value
        else:
            return None
        if step_value.opcode is Opcode.SUB:
            delta = -delta
        if delta == 0:
            return None

        value = init.value
        trip = 0
        for _ in range(self.max_trip + 1):
            lhs, rhs = (value, bound.value) if lhs_is_phi else (bound.value, value)
            test = eval_icmp(cond.pred, lhs, rhs)
            if test != enter_on_true:
                return trip
            trip += 1
            value = eval_binary(Opcode.ADD, value, delta)
        return None  # runs longer than we are willing to unroll

    # -- transformation --------------------------------------------------------

    def _unroll(self, fn: Function, plan: _UnrollPlan) -> None:
        loop = plan.loop
        header = loop.header
        region = [b for b in fn.blocks if b in loop.blocks]  # layout order
        header_phis = header.phis

        # Current values of the header phis entering the next iteration.
        cur_values: dict[PhiInst, Value] = {}
        for phi in header_phis:
            incoming = phi.incoming_for(plan.preheader)
            assert incoming is not None
            cur_values[phi] = incoming

        def retarget(block: BasicBlock, new_target: BasicBlock) -> None:
            term = block.terminator
            assert isinstance(term, BrInst)
            term.target = new_target

        prev_tail = plan.preheader  # block whose branch enters the next copy

        for k in range(plan.trip_count):
            value_map: dict[Value, Value] = dict(cur_values)
            block_map = self._clone_region(fn, region, header_phis, value_map, f"u{k}")
            # Header copy enters the body unconditionally (cond is known true).
            header_copy = block_map[header]
            cond_br = header_copy.terminator
            assert isinstance(cond_br, CBrInst)
            cond_br.erase()
            header_copy.append(BrInst(block_map[plan.body_entry]))
            # Wire the previous copy (or preheader) into this iteration.
            retarget(prev_tail, header_copy)
            prev_tail = block_map[plan.latch]
            # Compute next iteration's phi inputs.
            next_values: dict[PhiInst, Value] = {}
            for phi in header_phis:
                incoming = phi.incoming_for(plan.latch)
                assert incoming is not None
                next_values[phi] = value_map.get(incoming, incoming)
            cur_values = next_values

        # Final header copy: executes header instructions once more with the
        # exit-iteration values, then leaves the loop.
        final_map: dict[Value, Value] = dict(cur_values)
        final_block_map = self._clone_region(
            fn, [header], header_phis, final_map, "uexit"
        )
        final_header = final_block_map[header]
        final_br = final_header.terminator
        assert isinstance(final_br, CBrInst)
        final_br.erase()
        final_header.append(BrInst(plan.exit_block))
        retarget(prev_tail, final_header)

        # Exit-block phis now arrive from the final copy, carrying the
        # final-iteration values.
        for phi in plan.exit_block.phis:
            incoming = phi.incoming_for(header)
            phi.replace_incoming_block(header, final_header)
            if incoming is not None:
                phi.set_incoming_for(final_header, final_map.get(incoming, incoming))

        # Values defined in the (old) header and used after the loop must
        # come from the final copy.
        for inst in list(header.instructions):
            replacement = final_map.get(inst)
            if replacement is None:
                continue
            for use in list(inst.uses):
                user = use.user
                if user.parent is not None and user.parent not in loop.blocks:
                    user.set_operand(use.index, replacement)

        # The original loop is now unreachable; delete it.
        remove_unreachable_blocks(fn)

    @staticmethod
    def _clone_region(
        fn: Function,
        region: list[BasicBlock],
        header_phis: list[PhiInst],
        value_map: dict[Value, Value],
        suffix: str,
    ) -> dict[BasicBlock, BasicBlock]:
        """Clone region blocks, *replacing* header phis by their seeded

        values in ``value_map`` instead of cloning them."""
        skip = set(header_phis)
        block_map: dict[BasicBlock, BasicBlock] = {}
        for block in region:
            block_map[block] = fn.add_block(f"{block.name}.{suffix}")
        for block in region:
            clone_block = block_map[block]
            for inst in block.instructions:
                if inst in skip:
                    continue
                clone = clone_instruction(inst, value_map)
                if not clone.ty.is_void:
                    clone.name = fn.next_name("u")
                clone_block.append(clone)
                value_map[inst] = clone
        # Fix forward references (same as cloning.clone_blocks).
        for block in region:
            for inst in block_map[block].instructions:
                for index, op in enumerate(inst.operands):
                    mapped = value_map.get(op)
                    if mapped is not None and mapped is not op:
                        inst.set_operand(index, mapped)
        for block in region:
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
