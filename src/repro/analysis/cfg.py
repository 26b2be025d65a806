"""Control-flow-graph traversals: reachability and orderings."""

from __future__ import annotations

from repro.ir.structure import BasicBlock, Function


def reachable_blocks(fn: Function) -> set[BasicBlock]:
    """Blocks reachable from the entry by following terminators."""
    seen: set[BasicBlock] = set()
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(block.successors())
    return seen


def postorder(fn: Function) -> list[BasicBlock]:
    """DFS postorder of reachable blocks, starting at the entry.

    Iterative (no recursion limit issues on long CFG chains) and
    deterministic: successors are visited in terminator order.
    """
    entry = fn.entry
    visited: set[BasicBlock] = {entry}
    order: list[BasicBlock] = []
    # Stack entries: (block, iterator over its successors not yet tried)
    stack = [(entry, iter(entry.successors()))]
    while stack:
        block, succs = stack[-1]
        for child in succs:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(child.successors())))
                break
        else:
            stack.pop()
            order.append(block)
    return order


def reverse_postorder(fn: Function) -> list[BasicBlock]:
    """Topological-ish order: every block before its (non-back-edge) successors."""
    order = postorder(fn)
    order.reverse()
    return order


def block_index_map(fn: Function) -> dict[BasicBlock, int]:
    """Map each block to its position in the function's block list."""
    return {b: i for i, b in enumerate(fn.blocks)}
