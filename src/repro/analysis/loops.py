"""Natural-loop detection from back edges.

A back edge is an edge ``latch -> header`` where ``header`` dominates
``latch``.  The natural loop of that edge is the smallest block set
containing both and closed under predecessors (up to the header).
Used by LICM and loop unrolling.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.analysis.cfg import postorder
from repro.analysis.dominators import DominatorTree
from repro.ir.structure import BasicBlock, Function


class Loop(Struct):
    """One natural loop: its header and member blocks."""

    _fields = ("header", "blocks", "latches")

    def __init__(
        self,
        header: BasicBlock,
        blocks: set[BasicBlock] | None = None,
        latches: list[BasicBlock] | None = None,
    ) -> None:
        self.header = header
        self.blocks = set() if blocks is None else blocks
        #: Blocks inside the loop that branch back to the header.
        self.latches = [] if latches is None else latches

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exit_edges(self) -> list[tuple[BasicBlock, BasicBlock]]:
        """Edges leaving the loop: (inside block, outside successor)."""
        edges = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"<Loop header=^{self.header.name} blocks={len(self.blocks)}>"


def find_natural_loops(fn: Function, domtree: DominatorTree | None = None) -> list[Loop]:
    """All natural loops, one per header (back edges to a header merge).

    Returned innermost-last: loops are sorted by block count descending,
    so iterating in order processes outer loops first.
    """
    if domtree is None:
        if _acyclic(fn):
            return []  # no back edge, so no loop: skip the dominator tree
        domtree = DominatorTree.compute(fn)
    preds_all = fn.predecessors()
    loops_by_header: dict[BasicBlock, Loop] = {}

    for block in fn.blocks:
        if not domtree.is_reachable(block):
            continue
        for succ in block.successors():
            if domtree.dominates_block(succ, block):
                loop = loops_by_header.setdefault(succ, Loop(header=succ, blocks={succ}))
                loop.latches.append(block)
                # Walk predecessors backward from the latch to collect members.
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node in loop.blocks:
                        continue
                    loop.blocks.add(node)
                    stack.extend(p for p in preds_all[node] if domtree.is_reachable(p))

    loops = list(loops_by_header.values())
    loops.sort(key=lambda l: -len(l.blocks))
    return loops


def _acyclic(fn: Function) -> bool:
    """Does the reachable CFG have no cycle?  In a DFS postorder every
    edge but a retreating one runs from a later block to an earlier one."""
    order = {block: i for i, block in enumerate(postorder(fn))}
    return all(order[succ] < i for block, i in order.items() for succ in block.successors())


def loop_depths(fn: Function, loops: list[Loop] | None = None) -> dict[BasicBlock, int]:
    """Nesting depth of each block (0 = not in any loop)."""
    loops = loops if loops is not None else find_natural_loops(fn)
    depth: dict[BasicBlock, int] = {b: 0 for b in fn.blocks}
    for loop in loops:
        for block in loop.blocks:
            depth[block] += 1
    return depth
