"""Optimization pipelines.

A :class:`PassPipeline` is a module-pass prelude (attribute inference,
inlining — outside the fine-grained dormancy mechanism) followed by an
ordered list of function passes.  Dormancy records are keyed by the
*position* in the function-pass list, so the same pass appearing twice
(e.g. ``instsimplify`` early and late) keeps independent state.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.passes import (
    AggressiveDCEPass,
    CorrelatedValuePropagationPass,
    DeadCodeEliminationPass,
    DeadStoreEliminationPass,
    FunctionAttrsPass,
    FunctionPass,
    GVNPass,
    IfToSelectPass,
    InlinerPass,
    InstSimplifyPass,
    JumpThreadingPass,
    LICMPass,
    LocalCSEPass,
    LoopUnrollPass,
    Mem2RegPass,
    ModulePass,
    ReassociatePass,
    SCCPPass,
    SimplifyCFGPass,
    StrengthReducePass,
)


class PassPipeline(Struct):
    """An ordered optimization plan."""

    _fields = ("name", "module_prelude", "function_passes")

    def __init__(
        self,
        name: str,
        module_prelude: list[ModulePass] | None = None,
        function_passes: list[FunctionPass] | None = None,
    ) -> None:
        self.name = name
        self.module_prelude = [] if module_prelude is None else module_prelude
        self.function_passes = [] if function_passes is None else function_passes

    def position_names(self) -> list[str]:
        """Stable ``<index>:<pass>`` labels for dormancy keys and reports."""
        return [f"{i}:{p.name}" for i, p in enumerate(self.function_passes)]

    @property
    def num_function_passes(self) -> int:
        return len(self.function_passes)

    def describe(self) -> str:
        prelude = ", ".join(p.name for p in self.module_prelude) or "(none)"
        fns = ", ".join(p.name for p in self.function_passes) or "(none)"
        return f"pipeline {self.name}: prelude=[{prelude}] function=[{fns}]"


def build_pipeline(opt_level: str) -> PassPipeline:
    """Construct a fresh pipeline for ``"O0"``, ``"O1"``, or ``"O2"``.

    Pipelines are built fresh per compilation (passes hold no state, but
    isolation keeps that property trivially true).
    """
    if opt_level == "O0":
        # Straight lowering output; mem2reg only so the backend sees SSA
        # of reasonable quality (mirrors Clang running always-inline etc.).
        return PassPipeline("O0", [], [Mem2RegPass()])
    if opt_level == "O1":
        return PassPipeline(
            "O1",
            [FunctionAttrsPass()],
            [
                Mem2RegPass(),
                InstSimplifyPass(),
                SimplifyCFGPass(),
                SCCPPass(),
                LocalCSEPass(),
                DeadCodeEliminationPass(),
                SimplifyCFGPass(),
            ],
        )
    if opt_level == "O2":
        return PassPipeline(
            "O2",
            [FunctionAttrsPass(), InlinerPass(), FunctionAttrsPass()],
            [
                Mem2RegPass(),
                InstSimplifyPass(),
                SimplifyCFGPass(),
                SCCPPass(),
                InstSimplifyPass(),
                ReassociatePass(),
                StrengthReducePass(),
                IfToSelectPass(),
                GVNPass(),
                LocalCSEPass(),
                CorrelatedValuePropagationPass(),
                JumpThreadingPass(),
                DeadStoreEliminationPass(),
                DeadCodeEliminationPass(),
                LICMPass(),
                LoopUnrollPass(),
                InstSimplifyPass(),
                SimplifyCFGPass(),
                ReassociatePass(),
                GVNPass(),
                LocalCSEPass(),
                CorrelatedValuePropagationPass(),
                JumpThreadingPass(),
                AggressiveDCEPass(),
                DeadCodeEliminationPass(),
                SimplifyCFGPass(),
            ],
        )
    raise ValueError(f"unknown optimization level {opt_level!r}")


#: Canonical instances for quick inspection/tests (do not mutate).
O0_PIPELINE = build_pipeline("O0")
O1_PIPELINE = build_pipeline("O1")
O2_PIPELINE = build_pipeline("O2")
