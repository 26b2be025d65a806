"""Program analyses over the IR.

These are pure queries — they never mutate the IR — and are recomputed
on demand by passes (no analysis caching layer; functions here are small
enough that recomputation is cheap and always correct).
"""

from repro.analysis.alias import AliasResult, classify_pointer, may_alias
from repro.analysis.cfg import postorder, reachable_blocks, reverse_postorder
from repro.analysis.callgraph import CallGraph
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import Loop, find_natural_loops
from repro.analysis.postdominators import PostDominatorTree

__all__ = [
    "AliasResult",
    "classify_pointer",
    "may_alias",
    "postorder",
    "reachable_blocks",
    "reverse_postorder",
    "CallGraph",
    "DominatorTree",
    "Loop",
    "find_natural_loops",
    "PostDominatorTree",
]
