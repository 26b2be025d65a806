"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy "engineered" iterative algorithm
("A Simple, Fast Dominance Algorithm"), which is near-linear on real
CFGs and straightforward to verify.  Dominance frontiers follow the
same paper; they drive SSA phi placement in mem2reg.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.analysis.cfg import reverse_postorder
from repro.ir.structure import BasicBlock, Function


class DominatorTree(Struct):
    """Immediate-dominator tree for the reachable part of a function.

    Unreachable blocks are absent from all maps; use
    :meth:`is_reachable` before querying them.
    """

    _fields = ("function", "idom", "children", "rpo_index")

    def __init__(
        self,
        function: Function,
        idom: dict[BasicBlock, BasicBlock] | None = None,
        children: dict[BasicBlock, list[BasicBlock]] | None = None,
        rpo_index: dict[BasicBlock, int] | None = None,
    ) -> None:
        self.function = function
        self.idom = {} if idom is None else idom
        self.children = {} if children is None else children
        #: Reverse-postorder index of each reachable block.
        self.rpo_index = {} if rpo_index is None else rpo_index

    @classmethod
    def compute(cls, fn: Function) -> "DominatorTree":
        rpo = reverse_postorder(fn)
        rpo_index = {b: i for i, b in enumerate(rpo)}
        preds_all = fn.predecessors()
        entry = fn.entry

        idom: dict[BasicBlock, BasicBlock] = {entry: entry}

        def intersect(b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
            while b1 is not b2:
                while rpo_index[b1] > rpo_index[b2]:
                    b1 = idom[b1]
                while rpo_index[b2] > rpo_index[b1]:
                    b2 = idom[b2]
            return b1

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                # Only predecessors that are reachable and already processed.
                preds = [p for p in preds_all[block] if p in rpo_index]
                candidates = [p for p in preds if p in idom]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for pred in candidates[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        children: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in rpo}
        for block in rpo:
            if block is not entry:
                children[idom[block]].append(block)
        return cls(fn, idom, children, rpo_index)

    # -- queries -----------------------------------------------------------

    def is_reachable(self, block: BasicBlock) -> bool:
        return block in self.rpo_index

    def immediate_dominator(self, block: BasicBlock) -> BasicBlock | None:
        """The idom of ``block``; None for the entry or unreachable blocks."""
        parent = self.idom.get(block)
        return None if parent is block or parent is None else parent

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` dominate ``b``?  (Reflexive: a dominates a.)"""
        if not self.is_reachable(a) or not self.is_reachable(b):
            return False
        node = b
        while True:
            if node is a:
                return True
            parent = self.idom[node]
            if parent is node:
                return False
            node = parent

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominance_frontiers(self) -> dict[BasicBlock, set[BasicBlock]]:
        """DF(b) = blocks where b's dominance stops; drives phi insertion."""
        frontiers: dict[BasicBlock, set[BasicBlock]] = {b: set() for b in self.rpo_index}
        preds_all = self.function.predecessors()
        for block in self.rpo_index:
            preds = [p for p in preds_all[block] if p in self.rpo_index]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[block]:
                    frontiers[runner].add(block)
                    runner = self.idom[runner]
        return frontiers

    def dfs_preorder(self) -> list[BasicBlock]:
        """Dominator-tree preorder (parents before children)."""
        order: list[BasicBlock] = []
        stack = [self.function.entry]
        while stack:
            block = stack.pop()
            order.append(block)
            stack.extend(reversed(self.children.get(block, [])))
        return order
