"""Pass base classes and the pass statistics contract.

The dormancy contract every pass must honour:

    *If ``run_on_function`` returns ``changed=False``, the function's IR
    is bit-identical (same fingerprint) to what it was on entry.*

The stateful compiler's bypass safety rests on this plus determinism:
a pass that was dormant on IR with fingerprint F will be dormant again
on any IR with fingerprint F.  Passes must therefore be deterministic
functions of the IR they receive (no randomness, no wall-clock, no
global mutable state).

``PassStats.work`` is the deterministic cost model: the number of IR
instructions the pass visited.  Benchmarks report it alongside
wall-clock time because Python timing is noisy at micro scales.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.ir.structure import Function, Module


class PassStats(Struct):
    """Outcome of one pass execution."""

    _fields = ("changed", "work", "detail")

    def __init__(
        self,
        changed: bool = False,
        work: int = 0,
        detail: dict[str, int] | None = None,
    ) -> None:
        self.changed = changed
        #: Instructions visited — deterministic proxy for compile effort.
        self.work = work
        #: Pass-specific counters (e.g. {"promoted_allocas": 3}).
        self.detail = {} if detail is None else detail

    def bump(self, key: str, amount: int = 1) -> None:
        self.detail[key] = self.detail.get(key, 0) + amount

    def merge(self, other: "PassStats") -> None:
        self.changed = self.changed or other.changed
        self.work += other.work
        for key, value in other.detail.items():
            self.bump(key, value)


class FunctionPass:
    """A transform over one function at a time.

    Subclasses set ``name`` and implement :meth:`run_on_function`.
    ``module`` is provided for read-only context (signatures,
    attributes); function passes must not mutate other functions.
    A subclass bumps ``VERSION`` whenever a change to its code can
    change its output (see :func:`pass_signature`).
    """

    name: str = "<unnamed>"
    VERSION: int = 1

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<FunctionPass {self.name}>"


class ModulePass:
    """A transform over a whole module (e.g. inlining).

    Module passes are outside the fine-grained dormancy mechanism: they
    always run (the paper's per-function state applies to the
    function-pass pipeline).
    """

    name: str = "<unnamed>"
    VERSION: int = 1

    def run_on_module(self, module: Module) -> PassStats:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<ModulePass {self.name}>"


def pass_signature(pass_: FunctionPass | ModulePass) -> str:
    """What decides a pass's output besides its input: its name, its
    ``VERSION`` and its parameters (every instance attribute, e.g. the
    inliner's ``size_threshold``)."""
    params = ",".join(f"{k}={v!r}" for k, v in sorted(vars(pass_).items()))
    return f"{pass_.name}@{pass_.VERSION}({params})"
