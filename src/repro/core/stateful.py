"""The stateful pass manager — the mechanism the paper proposes.

Wraps the conventional pass manager with one extra decision per
(function, pass): *bypass* the pass when the compiler state holds a
dormancy record for (this pipeline position, the fingerprint of the IR
entering it).  By the dormancy contract (see
:mod:`repro.passes.base`), a deterministic pass that was dormant on IR
with fingerprint F is dormant on any IR hashing to F, so skipping it
cannot change the compilation result.

Fingerprints are maintained incrementally with *chain reuse*: one hash
when the pipeline enters the function; after a pass that changed the
IR, the new fingerprint is taken from the matching record's stored
``fingerprint_out`` when one exists (passes are deterministic — same
input fingerprint implies the same output IR), and only hashed from
scratch when the (position, fingerprint) pair has never been seen.
In the steady state a function costs exactly one fingerprint
computation, zero re-hashes, and zero dormant-pass executions.

The cost of statefulness — lookups, hits, records written,
fingerprints and their nanoseconds — is counted in the pass manager's
:class:`~repro.passmanager.ledger.PassLedger`, next to the pass outcomes.
"""

from __future__ import annotations

import time

from repro.core.policies import SkipPolicy
from repro.core.state import CompilerState, DormancyRecord
from repro.ir.fingerprint import fingerprint_function
from repro.ir.structure import Function, Module
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import PassPipeline

#: Synthetic "position" for the coarse whole-pipeline records.
_COARSE_POSITION = -2


class StatefulPassManager(PassManager):
    """Pass manager with dormant-pass bypassing."""

    def __init__(
        self,
        pipeline: PassPipeline,
        state: CompilerState,
        *,
        policy: SkipPolicy = SkipPolicy.FINE_GRAINED,
        verify_each: bool = False,
        tracer: NullTracer = NULL_TRACER,
    ):
        super().__init__(pipeline, verify_each=verify_each, tracer=tracer)
        self.state = state
        self.policy = policy
        self._fp: str = ""
        self._function_had_changes = False
        self._coarse_skip_all = False
        self._entry_fp: str = ""
        #: Record found by should_skip for the position about to run.
        self._pending_record = None

    # -- fingerprint maintenance -------------------------------------------

    def _compute_fingerprint(self, fn: Function) -> str:
        start = time.perf_counter_ns()
        fp = fingerprint_function(fn, mode=self.state.fingerprint_mode)
        self.ledger.fingerprint_ns += time.perf_counter_ns() - start
        self.ledger.fingerprints += 1
        return fp

    def _lookup(self, position: int, fingerprint: str) -> DormancyRecord | None:
        record = self.state.lookup(position, fingerprint)
        self.ledger.lookups += 1
        if record is not None:
            self.ledger.hits += 1
        return record

    def _remember(
        self, position: int, fingerprint_in: str, dormant: bool, fingerprint_out: str
    ) -> None:
        self.state.remember(position, fingerprint_in, dormant, fingerprint_out)
        self.ledger.records_written += 1

    # -- hooks ------------------------------------------------------------------

    def begin_function(self, fn: Function, module: Module) -> None:
        self._fp = self._compute_fingerprint(fn)
        self._entry_fp = self._fp
        self._function_had_changes = False
        self._coarse_skip_all = False
        if self.policy is SkipPolicy.COARSE:
            record = self._lookup(_COARSE_POSITION, self._fp)
            self._coarse_skip_all = record is not None and record.dormant

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        self._pending_record = None
        if self.policy is SkipPolicy.NONE:
            return False
        if self.policy is SkipPolicy.COARSE:
            return self._coarse_skip_all
        record = self._lookup(position, self._fp)
        self._pending_record = record
        return record is not None and record.dormant

    def on_pass_executed(
        self, fn: Function, module: Module, position: int, changed: bool
    ) -> None:
        fingerprint_in = self._fp
        if changed:
            self._function_had_changes = True
            record = self._pending_record
            if record is not None and not record.dormant:
                # Chain reuse: this (position, fingerprint) was seen before
                # and the pass is deterministic, so the output IR — and
                # hence its fingerprint — is the recorded one.  No re-hash.
                self._fp = record.fingerprint_out
                return
            self._fp = self._compute_fingerprint(fn)
        self._remember(position, fingerprint_in, not changed, self._fp)

    def end_function(self, fn: Function, module: Module) -> None:
        if self.policy is SkipPolicy.COARSE and not self._coarse_skip_all:
            self._remember(
                _COARSE_POSITION,
                self._entry_fp,
                not self._function_had_changes,
                self._fp,
            )
