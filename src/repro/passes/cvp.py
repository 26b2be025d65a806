"""Correlated value propagation.

Walks the dominator tree collecting *branch facts*: inside the true
successor of ``cbr (icmp pred x, C)`` the fact ``x pred C`` holds (and
its negation inside the false successor) — provided that successor is
dominated by the edge (single-predecessor successor blocks).

Dominated comparisons over the same value are then folded when the
known fact implies their result, e.g. inside ``if (x < 10)`` the check
``x < 20`` folds to true and ``x > 50`` to false.

Like its LLVM namesake, the pass performs its full dominator-tree
constraint walk on every run but changes something only when the
programmer wrote a redundant comparison — mostly dormant, which is the
profile the stateful compiler exploits.
"""

from __future__ import annotations

from repro._struct import FrozenStruct
from repro.analysis.dominators import DominatorTree
from repro.ir.instructions import CBrInst, ICmpInst, ICmpPred
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt, Value, const_i1
from repro.passes.base import FunctionPass, PassStats


class _Range(FrozenStruct):
    """Inclusive signed bounds for one value."""

    _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def intersect(self, other: "_Range") -> "_Range":
        return _Range(max(self.lo, other.lo), min(self.hi, other.hi))

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


_FULL = _Range(-(2**63), 2**63 - 1)


def _range_from_fact(pred: ICmpPred, bound: int) -> _Range:
    """Range of x implied by ``x pred bound`` being true."""
    if pred is ICmpPred.EQ:
        return _Range(bound, bound)
    if pred is ICmpPred.SLT:
        return _Range(_FULL.lo, bound - 1)
    if pred is ICmpPred.SLE:
        return _Range(_FULL.lo, bound)
    if pred is ICmpPred.SGT:
        return _Range(bound + 1, _FULL.hi)
    if pred is ICmpPred.SGE:
        return _Range(bound, _FULL.hi)
    return _FULL  # NE carries almost no interval information


def _decide(pred: ICmpPred, r: _Range, bound: int) -> bool | None:
    """Does ``x pred bound`` hold for every (or no) x in r?"""
    if r.empty:
        return None
    if pred is ICmpPred.SLT:
        if r.hi < bound:
            return True
        if r.lo >= bound:
            return False
    elif pred is ICmpPred.SLE:
        if r.hi <= bound:
            return True
        if r.lo > bound:
            return False
    elif pred is ICmpPred.SGT:
        if r.lo > bound:
            return True
        if r.hi <= bound:
            return False
    elif pred is ICmpPred.SGE:
        if r.lo >= bound:
            return True
        if r.hi < bound:
            return False
    elif pred is ICmpPred.EQ:
        if r.lo == r.hi == bound:
            return True
        if bound < r.lo or bound > r.hi:
            return False
    elif pred is ICmpPred.NE:
        if bound < r.lo or bound > r.hi:
            return True
        if r.lo == r.hi == bound:
            return False
    return None


def _as_fact(cond: Value, taken: bool) -> tuple[Value, _Range] | None:
    """Extract (value, range) from a branch condition being ``taken``."""
    if not isinstance(cond, ICmpInst):
        return None
    pred = cond.pred if taken else cond.pred.invert()
    if isinstance(cond.rhs, ConstantInt):
        return cond.lhs, _range_from_fact(pred, cond.rhs.value)
    if isinstance(cond.lhs, ConstantInt):
        return cond.rhs, _range_from_fact(pred.swap(), cond.lhs.value)
    return None


class CorrelatedValuePropagationPass(FunctionPass):
    """Fold comparisons implied by dominating branch conditions."""

    name = "cvp"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        domtree = DominatorTree.compute(fn)
        preds = fn.predecessors()

        # Scoped constraint maps along the dominator tree.
        scopes: list[dict[Value, _Range]] = [{}]

        def known_range(value: Value) -> _Range:
            result = _FULL
            for scope in scopes:
                r = scope.get(value)
                if r is not None:
                    result = result.intersect(r)
            return result

        stack: list[tuple[BasicBlock, bool]] = [(fn.entry, False)]
        while stack:
            block, done = stack.pop()
            if done:
                scopes.pop()
                continue
            stack.append((block, True))
            scope: dict[Value, _Range] = {}
            scopes.append(scope)

            # A single-pred block inherits the fact from its pred's branch.
            block_preds = preds.get(block, [])
            if len(block_preds) == 1:
                pred_term = block_preds[0].terminator
                if isinstance(pred_term, CBrInst) and pred_term.if_true is not pred_term.if_false:
                    taken = pred_term.if_true is block
                    fact = _as_fact(pred_term.cond, taken)
                    if fact is not None:
                        value, r = fact
                        scope[value] = known_range(value).intersect(r)

            for inst in list(block.instructions):
                stats.work += 1
                if not isinstance(inst, ICmpInst) or inst.parent is None:
                    continue
                decision = None
                if isinstance(inst.rhs, ConstantInt):
                    decision = _decide(inst.pred, known_range(inst.lhs), inst.rhs.value)
                elif isinstance(inst.lhs, ConstantInt):
                    decision = _decide(
                        inst.pred.swap(), known_range(inst.rhs), inst.lhs.value
                    )
                if decision is not None:
                    inst.replace_with_value(const_i1(decision))
                    stats.bump("comparisons_folded")
                    stats.changed = True

            for child in domtree.children.get(block, ()):
                stack.append((child, False))
        return stats
