"""Post-dominator tree.

Computed by running the Cooper–Harvey–Kennedy algorithm on the reversed
CFG.  Functions may have several exit blocks (multiple ``ret``s,
``unreachable``); a virtual exit node unifies them.  Drives ADCE's
control-dependence computation.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.ir.instructions import Opcode
from repro.ir.structure import BasicBlock, Function

#: Sentinel for the virtual exit node (all real exits flow into it).
VIRTUAL_EXIT = None


class PostDominatorTree(Struct):
    """Immediate post-dominator per block; ``None`` means the virtual exit."""

    _fields = ("function", "ipdom")

    def __init__(
        self,
        function: Function,
        ipdom: dict[BasicBlock, BasicBlock | None] | None = None,
    ) -> None:
        self.function = function
        self.ipdom = {} if ipdom is None else ipdom

    @classmethod
    def compute(cls, fn: Function) -> "PostDominatorTree":
        exits = [
            b
            for b in fn.blocks
            if b.terminator is not None
            and b.terminator.opcode in (Opcode.RET, Opcode.UNREACHABLE)
        ]
        preds = fn.predecessors()  # forward preds = reverse succs

        # Reverse-graph reverse-postorder from the virtual exit.
        order: list[BasicBlock] = []
        visited: set[BasicBlock] = set()
        stack: list[tuple[BasicBlock, list[BasicBlock], int]] = []
        for exit_block in exits:
            if exit_block in visited:
                continue
            visited.add(exit_block)
            stack.append((exit_block, preds[exit_block], 0))
            while stack:
                block, nbrs, idx = stack.pop()
                while idx < len(nbrs) and nbrs[idx] in visited:
                    idx += 1
                if idx < len(nbrs):
                    stack.append((block, nbrs, idx + 1))
                    child = nbrs[idx]
                    visited.add(child)
                    stack.append((child, preds[child], 0))
                else:
                    order.append(block)
        order.reverse()
        index = {b: i for i, b in enumerate(order)}

        ipdom: dict[BasicBlock, BasicBlock | None] = {b: VIRTUAL_EXIT for b in exits}

        def intersect(a: BasicBlock | None, b: BasicBlock | None) -> BasicBlock | None:
            if a is VIRTUAL_EXIT or b is VIRTUAL_EXIT:
                return VIRTUAL_EXIT
            while a is not b:
                while index[a] > index[b]:
                    a = ipdom[a]
                    if a is VIRTUAL_EXIT:
                        return VIRTUAL_EXIT
                while index[b] > index[a]:
                    b = ipdom[b]
                    if b is VIRTUAL_EXIT:
                        return VIRTUAL_EXIT
            return a

        exit_set = set(exits)
        changed = True
        while changed:
            changed = False
            for block in order:
                if block in exit_set:
                    continue
                succs = [s for s in block.successors() if s in index]
                candidates = [s for s in succs if s in ipdom]
                if not candidates:
                    continue
                new = candidates[0]
                for succ in candidates[1:]:
                    new = intersect(new, succ)
                if block not in ipdom or ipdom[block] is not new:
                    ipdom[block] = new
                    changed = True
        return cls(fn, ipdom)

    def postdominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` post-dominate ``b``?  (Reflexive.)"""
        node: BasicBlock | None = b
        while node is not VIRTUAL_EXIT:
            if node is a:
                return True
            node = self.ipdom.get(node, VIRTUAL_EXIT)
        return False

    def control_dependents(self) -> dict[BasicBlock, set[BasicBlock]]:
        """Map branch block -> blocks control-dependent on its decision.

        B is control dependent on A when A has successors S such that B
        post-dominates some S but does not post-dominate A.
        """
        result: dict[BasicBlock, set[BasicBlock]] = {}
        for block in self.function.blocks:
            succs = block.successors()
            if len(succs) < 2:
                continue
            for succ in succs:
                runner: BasicBlock | None = succ
                while runner is not VIRTUAL_EXIT and runner is not self.ipdom.get(block):
                    result.setdefault(block, set()).add(runner)
                    runner = self.ipdom.get(runner, VIRTUAL_EXIT)
        return result
