"""CFG simplification.

To a fixpoint:

- delete unreachable blocks;
- fold conditional branches on constants (and ``cbr`` with equal
  targets) into unconditional branches;
- merge a block into its unique predecessor when that predecessor has
  a unique successor (straight-line concatenation);
- skip over trivial forwarding blocks (blocks containing only ``br``)
  by retargeting their predecessors, with phi fix-up;
- simplify single-incoming phis.
"""

from __future__ import annotations

from repro.ir.instructions import BrInst, CBrInst
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt
from repro.passes.base import FunctionPass, PassStats
from repro.passes.utils import remove_unreachable_blocks, single_value_phi


class SimplifyCFGPass(FunctionPass):
    """Iteratively simplify the control-flow graph."""

    name = "simplifycfg"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        changed = True
        while changed:
            changed = False
            stats.work += len(fn.blocks)

            removed = remove_unreachable_blocks(fn)
            if removed:
                stats.bump("unreachable_removed", removed)
                changed = True

            if self._fold_constant_branches(fn, stats):
                changed = True
            if self._simplify_trivial_phis(fn, stats):
                changed = True
            if self._merge_straightline(fn, stats):
                changed = True
            if self._skip_forwarders(fn, stats):
                changed = True

            if changed:
                stats.changed = True
        return stats

    # -- constant branches -------------------------------------------------

    def _fold_constant_branches(self, fn: Function, stats: PassStats) -> bool:
        changed = False
        for block in fn.blocks:
            term = block.terminator
            if not isinstance(term, CBrInst):
                continue
            target: BasicBlock | None = None
            dead: BasicBlock | None = None
            if isinstance(term.cond, ConstantInt):
                target = term.if_true if term.cond.value else term.if_false
                dead = term.if_false if term.cond.value else term.if_true
            elif term.if_true is term.if_false:
                target = term.if_true
            if target is None:
                continue
            if dead is not None and dead is not target:
                for phi in dead.phis:
                    phi.remove_incoming(block)
            elif term.if_true is term.if_false:
                # Two edges collapse into one: drop the duplicate phi entry.
                for phi in target.phis:
                    incoming = phi.incoming_for(block)
                    phi.remove_incoming(block)
                    if incoming is not None:
                        phi.add_incoming(incoming, block)
            term.erase()
            block.append(BrInst(target))
            stats.bump("cbr_folded")
            changed = True
        return changed

    # -- phi cleanup ----------------------------------------------------------

    def _simplify_trivial_phis(self, fn: Function, stats: PassStats) -> bool:
        changed = False
        for block in fn.blocks:
            for phi in block.phis:
                stats.work += 1
                if len(phi.incoming_blocks) == 1:
                    phi.replace_with_value(phi.operands[0])
                    stats.bump("single_pred_phis")
                    changed = True
                    continue
                unique = single_value_phi(phi)
                if unique is not None and unique is not phi:
                    phi.replace_with_value(unique)
                    stats.bump("uniform_phis")
                    changed = True
        return changed

    # -- straight-line merging ---------------------------------------------------

    def _merge_straightline(self, fn: Function, stats: PassStats) -> bool:
        """Merge each block into its unique ``br``-only predecessor.

        Maintains the predecessor counts incrementally: merging B into P
        only affects edges around B, so one pass over the blocks plus
        local updates reaches the fixpoint without recomputing the CFG.
        """
        changed = False
        preds = fn.predecessors()
        worklist = list(fn.blocks)
        removed: set[BasicBlock] = set()
        while worklist:
            block = worklist.pop()
            if block in removed or block is fn.entry or block.parent is not fn:
                continue
            pred_list = preds.get(block, [])
            if len(pred_list) != 1:
                continue
            pred = pred_list[0]
            if pred is block or pred in removed:
                continue
            term = pred.terminator
            if not isinstance(term, BrInst) or len(pred.successors()) != 1:
                continue
            # Fold phis (single predecessor makes them trivial).
            for phi in block.phis:
                phi.replace_with_value(phi.operands[0])
            term.erase()
            moved = block.instructions
            for inst in moved:
                inst.parent = pred
            pred.instructions.extend(moved)
            moved.clear()
            # Successors' phis must now name `pred` as the edge source,
            # and the predecessor map follows suit.
            for succ in pred.successors():
                for phi in succ.phis:
                    phi.replace_incoming_block(block, pred)
                succ_preds = preds.get(succ, [])
                preds[succ] = [pred if p is block else p for p in succ_preds]
                worklist.append(succ)  # may have become mergeable into pred
            fn.blocks.remove(block)
            block.parent = None
            removed.add(block)
            preds.pop(block, None)
            stats.bump("blocks_merged")
            changed = True
        return changed

    # -- forwarding blocks ----------------------------------------------------------

    def _skip_forwarders(self, fn: Function, stats: PassStats) -> bool:
        """Retarget edges that pass through a block containing only ``br``."""
        changed = False
        preds = fn.predecessors()
        for block in list(fn.blocks):
            if block is fn.entry or len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, BrInst):
                continue
            target = term.target
            if target is block:
                continue
            # Retargeting a predecessor P from `block` to `target` is only
            # sound for target phis when the edge P->target doesn't already
            # exist and the phi value is unambiguous.
            target_phis = target.phis
            block_preds = preds.get(block, [])
            target_preds = preds.get(target, [])
            ok = True
            for pred in block_preds:
                if pred in target_preds and target_phis:
                    ok = False  # would create duplicate edge with phis
                    break
            if not ok or not block_preds:
                continue
            for pred in list(block_preds):
                pred_term = pred.terminator
                assert pred_term is not None
                pred_term.replace_successor(block, target)  # type: ignore[attr-defined]
                for phi in target_phis:
                    value = phi.incoming_for(block)
                    assert value is not None
                    phi.add_incoming(value, pred)
            for phi in target_phis:
                phi.remove_incoming(block)
            stats.bump("forwarders_skipped")
            changed = True
            preds = fn.predecessors()
        return changed
