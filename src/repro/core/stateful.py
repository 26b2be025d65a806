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

Fingerprints cover each call's callee purity (the module fact DCE, CSE
and ADCE read), computed once by the module prelude, so a record made
while a callee was impure never applies after it turned pure.

The cost of statefulness — lookups, hits, records written,
fingerprints and their nanoseconds — is counted in the pass manager's
:class:`~repro.passmanager.ledger.PassLedger`, next to the pass outcomes.

:class:`MemoPassManager` is the memo policy's manager
(:attr:`~repro.core.policies.SkipPolicy.MEMO`), and it keeps no
dormancy state.  From one entry fingerprint per function it derives the
function's :func:`memo_key`, and a function whose key equals the one
its unit's last compile recorded (``previous_keys``) skips its whole
pipeline — :attr:`~repro.passmanager.manager.PassManager.reused` names
it, and the backend takes its machine code from the unit's previous
object.  Every other function runs every pass.  A reused function has
no pass rows, so it never counts as bypassed.
"""

from __future__ import annotations

import time

from repro.core.policies import SkipPolicy
from repro.core.state import CompilerState, DormancyRecord
from repro.ir.fingerprint import fingerprint_function, stable_hash
from repro.ir.structure import Function, Module
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passes.funcattrs import get_pure_functions
from repro.passmanager.ledger import PassLedger
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import PassPipeline

#: Synthetic "position" for the coarse whole-pipeline records.
_COARSE_POSITION = -2


def memo_key(fn: Function, entry_fingerprint: str, context: str) -> str:
    """Everything that decides ``fn``'s machine code, hashed.

    The entry fingerprint (its IR after the module prelude, callee
    purity included); its name, block names and name counter, which the
    canonical fingerprint drops but branch labels embed and new blocks
    are named from; and ``context``, a digest of the pipeline signature,
    the object options and the backend version.  Equal keys mean equal
    machine code.
    """
    blocks = " ".join(block.name for block in fn.blocks)
    return stable_hash(
        f"{entry_fingerprint}\0{fn.name}\0{fn.name_counter}\0{blocks}\0{context}"
    )


def _fingerprint(ledger: PassLedger, fn: Function, mode: str, pure: frozenset[str]) -> str:
    """Hash ``fn`` and count the hash and its nanoseconds in ``ledger``."""
    start = time.perf_counter_ns()
    fp = fingerprint_function(fn, mode=mode, pure=pure)
    ledger.fingerprint_ns += time.perf_counter_ns() - start
    ledger.fingerprints += 1
    return fp


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
        self._pure: frozenset[str] = frozenset()
        self._fp: str = ""
        self._function_had_changes = False
        self._coarse_skip_all = False
        self._entry_fp: str = ""
        #: Record found by should_skip for the position about to run.
        self._pending_record = None

    # -- fingerprint maintenance -------------------------------------------

    def _compute_fingerprint(self, fn: Function) -> str:
        return _fingerprint(self.ledger, fn, self.state.fingerprint_mode, self._pure)

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
        self._pure = get_pure_functions(module)
        self._fp = self._compute_fingerprint(fn)
        self._entry_fp = self._fp
        self._function_had_changes = False
        self._coarse_skip_all = False
        if self.policy is SkipPolicy.COARSE:
            record = self._lookup(_COARSE_POSITION, self._fp)
            self._coarse_skip_all = record is not None and record.dormant

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        self._pending_record = None
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


class MemoPassManager(PassManager):
    """Pass manager with machine-code reuse and no dormancy state."""

    def __init__(
        self,
        pipeline: PassPipeline,
        *,
        memo_context: str,
        previous_keys: dict[str, str] | None = None,
        fingerprint_mode: str = "canonical",
        verify_each: bool = False,
        tracer: NullTracer = NULL_TRACER,
    ):
        super().__init__(pipeline, verify_each=verify_each, tracer=tracer)
        #: Digest of the pipeline signature, object options and backend
        #: version, and the keys of the unit's last compile.
        self.memo_context = memo_context
        self.previous_keys = {} if previous_keys is None else previous_keys
        self.fingerprint_mode = fingerprint_mode

    def reuses(self, fn: Function, module: Module) -> bool:
        fp = _fingerprint(
            self.ledger, fn, self.fingerprint_mode, get_pure_functions(module)
        )
        key = memo_key(fn, fp, self.memo_context)
        self.memo_keys[fn.name] = key
        if self.previous_keys.get(fn.name) != key:
            return False
        self.reused.append(fn.name)
        return True
