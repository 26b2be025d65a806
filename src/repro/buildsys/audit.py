"""The fingerprint-collision audit: re-verify bypassed pass runs.

The paper's soundness claim is "correct up to fingerprint collision":
a dormancy record keyed by ``(pipeline position, fingerprint)`` is only
wrong if two *different* IR bodies hash to the same fingerprint.  This
module probes that caveat empirically instead of taking it on faith —
``reprobuild regress`` samples translation units, recompiles them with
a pass manager that **executes every pass a dormancy record would have
bypassed**, and confirms the record told the truth:

- a *dormant* record (the bypass case) is confirmed when actually
  running the pass changes nothing and leaves the fingerprint equal to
  the recorded ``fingerprint_out``; the pass changing the IR is exactly
  a collision manifesting;
- a *chain-reuse* record (non-dormant: its stored ``fingerprint_out``
  substitutes for a re-hash after the pass runs) is confirmed by
  re-hashing the real IR and comparing.

It also checks the memo policy's machine-code reuse: for each audited
unit whose build-DB record carries memo keys, it compiles the unit once
more under the memo policy against that record and compares the code of
every function the memo reused with the code the audit compile (memo
off, every pass executed) produced for it.  Any difference is a
``memo-reuse`` mismatch: the memo key missed something that decides
the code.  A memo-policy DB has no compiler state, so its audit is this
check alone.

The audit runs against a throwaway :meth:`CompilerState.snapshot` so the
live state never sees audit-mode writes, and supports the fine-grained
and memo policies (coarse records summarize whole pipelines, so there
is no per-pass record to check).  Expected steady-state result on a
healthy store: every sampled pair confirmed, zero mismatches — the
EXPERIMENTS log records exactly that over the standard edit trace.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.backend.mir import MachineFunction
from repro.buildsys.builddb import UnitRecord
from repro.core.policies import SkipPolicy
from repro.core.state import CompilerState
from repro.core.stateful import StatefulPassManager
from repro.driver import Compiler, CompilerOptions
from repro.frontend.diagnostics import CompileError
from repro.frontend.includes import FileProvider, IncludeError
from repro.ir.fingerprint import fingerprint_function
from repro.ir.structure import Function, Module
from repro.passmanager.pipeline import build_pipeline


@dataclass
class CollisionAuditResult:
    """What re-executing sampled bypassed pairs found."""

    #: Dormant (bypass) records re-executed and checked.
    audited: int = 0
    #: Of those, how many the re-execution confirmed.
    confirmed: int = 0
    #: Chain-reuse fingerprints re-hashed and checked.
    chain_checked: int = 0
    #: Functions whose reused machine code was compared with a recompile.
    memo_checked: int = 0
    #: Every contradiction found; empty on a healthy store.
    mismatches: list[dict] = field(default_factory=list)
    #: Units actually recompiled under audit, in audit order.
    units: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        verdict = (
            "zero collisions"
            if self.ok
            else f"{len(self.mismatches)} MISMATCH(ES)"
        )
        return (
            f"collision audit: {self.audited} bypassed pairs re-executed "
            f"({self.confirmed} confirmed), {self.chain_checked} chain-reuse "
            f"fingerprints re-hashed, {self.memo_checked} reused functions "
            f"recompiled, {verdict} "
            f"across {len(self.units)} unit(s) in {self.wall_time:.3f}s"
        )

    def to_dict(self) -> dict:
        return {
            "audited": self.audited,
            "confirmed": self.confirmed,
            "chain_checked": self.chain_checked,
            "memo_checked": self.memo_checked,
            "mismatches": list(self.mismatches),
            "units": list(self.units),
            "wall_time": self.wall_time,
            "ok": self.ok,
        }


class AuditingStatefulPassManager(StatefulPassManager):
    """A stateful manager that runs what it would have bypassed.

    ``should_skip`` consults the records exactly like the production
    manager, but a hit becomes "execute anyway and check" instead of a
    bypass; ``on_pass_executed`` then compares reality against the
    record.  Fingerprint maintenance is inherited unchanged, so the
    compile still produces a correct object file.
    """

    def __init__(self, *args, result: CollisionAuditResult, unit: str, **kwargs):
        super().__init__(*args, **kwargs)
        self._result = result
        self._unit = unit
        self._audit_record = None

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        if super().should_skip(fn, module, position):
            self._audit_record = self._pending_record
            return False
        self._audit_record = None
        return False

    def _mismatch(self, kind: str, fn: Function, position: int, detail: str) -> None:
        self._result.mismatches.append(
            {
                "kind": kind,
                "unit": self._unit,
                "function": fn.name,
                "position": position,
                "pass": self.pipeline.function_passes[position].name,
                "detail": detail,
            }
        )

    def on_pass_executed(
        self, fn: Function, module: Module, position: int, changed: bool
    ) -> None:
        audited = self._audit_record
        self._audit_record = None
        reused = self._pending_record
        super().on_pass_executed(fn, module, position, changed)
        if audited is not None:
            self._result.audited += 1
            if changed:
                self._mismatch(
                    "dormant-bypass", fn, position,
                    "record says dormant but the pass changed the IR "
                    "(fingerprint collision)",
                )
            elif self._fp != audited.fingerprint_out:
                self._mismatch(
                    "dormant-bypass", fn, position,
                    f"recorded fingerprint_out {audited.fingerprint_out} != "
                    f"actual {self._fp}",
                )
            else:
                self._result.confirmed += 1
        elif changed and reused is not None and not reused.dormant:
            # The production manager trusted the record's fingerprint_out
            # instead of re-hashing; here we pay for the hash and check.
            actual = fingerprint_function(
                fn, mode=self.state.fingerprint_mode, pure=self._pure
            )
            self._result.chain_checked += 1
            if actual != self._fp:
                self._mismatch(
                    "chain-reuse", fn, position,
                    f"recorded fingerprint_out {self._fp} != re-hash {actual}",
                )
                self._fp = actual  # keep the audited pipeline honest downstream


class _AuditingCompiler(Compiler):
    """A fine-grained compiler whose pass manager audits instead of
    bypassing, and never reuses machine code.  Without a ``state`` it
    audits against an empty one: it then compiles as a stateless
    compiler does."""

    def __init__(self, provider, options, state, result: CollisionAuditResult):
        fine = CompilerOptions(
            opt_level=options.opt_level,
            stateful=True,
            fingerprint_mode=options.fingerprint_mode,
        )
        super().__init__(provider, fine, state=state)
        self._result = result
        self._current_unit = ""

    def _make_pass_manager(self, previous_keys=None) -> AuditingStatefulPassManager:
        return AuditingStatefulPassManager(
            build_pipeline(self.options.opt_level),
            self.state,
            result=self._result,
            unit=self._current_unit,
        )

    def compile_file(self, path: str, **kwargs):
        self._current_unit = path
        return super().compile_file(path, **kwargs)


def _code(mf: MachineFunction) -> tuple:
    """What an object stores of a machine function."""
    return (
        mf.num_params, mf.frame_size,
        [(i.op, i.regs, i.imm, i.extra) for i in mf.code],
    )


def audit_fingerprint_collisions(
    provider: FileProvider,
    unit_paths: list[str],
    options: CompilerOptions,
    state: CompilerState | None,
    *,
    sample: int = 20,
    seed: int = 0,
    units: dict[str, UnitRecord] | None = None,
) -> CollisionAuditResult:
    """Re-execute bypassed (fingerprint, pass) pairs for sampled units,
    and recompile the functions whose code the memo would reuse from
    ``units`` (the build DB's records, if given).

    Units are visited in seeded-shuffle order; whole units are audited
    until at least ``sample`` dormant pairs have been re-executed (or
    the project runs out of units).  With ``state=None`` (a memo-policy
    DB) only the memo reuse is checked, in every unit.  Compile failures
    during the audit are recorded as mismatch entries of kind
    ``compile-error`` — an unbuildable unit cannot vouch for its records.
    """
    if not options.stateful:
        raise ValueError("collision audit requires a stateful build")
    if options.policy not in (SkipPolicy.FINE_GRAINED, SkipPolicy.MEMO):
        raise ValueError("collision audit requires the fine-grained or memo policy")
    result = CollisionAuditResult()
    start = time.perf_counter()
    snapshot = None if state is None else state.snapshot()
    compiler = _AuditingCompiler(provider, options, snapshot, result)
    if snapshot is not None and compiler.state is not snapshot:
        raise ValueError(
            "compiler state is incompatible with the audit compiler "
            "(different pipeline or fingerprint mode); re-run the audit "
            "with the same -O level and --fingerprint-mode as the build"
        )
    compiler.state.begin_build()

    memo_compiler = Compiler(
        provider,
        CompilerOptions(
            opt_level=options.opt_level,
            stateful=True,
            policy=SkipPolicy.MEMO,
            fingerprint_mode=options.fingerprint_mode,
        ),
    )
    order = list(unit_paths)
    random.Random(seed).shuffle(order)
    for path in order:
        if result.audited >= sample:
            break
        result.units.append(path)
        record = (units or {}).get(path)
        try:
            audited = compiler.compile_file(path)
            if record is not None and record.memo:
                memo = memo_compiler.compile_file(
                    path, previous=(record.object_json, record.memo)
                )
                for name in memo.reused:
                    result.memo_checked += 1
                    reused = memo.object_file.functions[name]
                    if _code(reused) != _code(audited.object_file.functions[name]):
                        result.mismatches.append({
                            "kind": "memo-reuse",
                            "unit": path,
                            "function": name,
                            "position": -1,
                            "pass": "",
                            "detail": "reused machine code differs from a "
                                      "recompile with the memo off",
                        })
        except (CompileError, IncludeError) as exc:
            result.mismatches.append(
                {
                    "kind": "compile-error",
                    "unit": path,
                    "function": "",
                    "position": -1,
                    "pass": "",
                    "detail": str(exc),
                }
            )
    result.wall_time = time.perf_counter() - start
    return result
