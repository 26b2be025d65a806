"""Structural fingerprints of IR functions.

The fingerprint is the core enabler of the stateful compiler: dormancy
records are keyed by *(function name, pipeline position, fingerprint)*.
A pass recorded dormant for fingerprint F can be bypassed when the
function's IR entering that pass hashes to F again — by construction the
pass would inspect identical IR and change nothing.

Two fingerprint modes (ablated in the Figure-10 experiment):

- **canonical** (default): value/block *names are ignored*; operands are
  encoded positionally (argument index, defining-instruction index,
  block index).  Re-lowering unchanged source after edits elsewhere in
  the file yields the same canonical fingerprint even if name counters
  drifted.
- **named**: the printed text is hashed verbatim, so renames invalidate
  state.  Safe but strictly weaker at bypassing.

Both modes also encode the one module fact a function pass reads: for
each call, whether the callee is in the module's pure-function set
(:func:`repro.passes.funcattrs.get_pure_functions`, read by DCE, CSE
and ADCE).  The same IR calling a callee that turned pure (or impure)
between builds hashes differently, so no record made under the old
fact applies.
"""

from __future__ import annotations

import hashlib

from repro.ir.instructions import (
    AllocaInst,
    BrInst,
    CallInst,
    CBrInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
)
from repro.ir.printer import print_function
from repro.ir.structure import BasicBlock, Function
from repro.ir.values import Argument, ConstantInt, GlobalAddr, UndefValue, Value


def stable_hash(text: str) -> str:
    """Short, stable hex digest of a string (BLAKE2b-128)."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _encode_operand(
    value: Value,
    inst_index: dict[Instruction, int],
) -> str:
    # Exact-class dispatch (every operand class is a leaf) — this runs
    # once per operand on the stateful compiler's hottest path.
    cls = value.__class__
    if cls is ConstantInt:
        return f"c:{value.ty.name}:{value.value}"
    if cls is GlobalAddr:
        return f"g:{value.symbol}"
    if cls is Argument:
        return f"a:{value.index}"
    if cls is UndefValue:
        return f"u:{value.ty.name}"
    index = inst_index.get(value)
    if index is not None:
        return f"i:{index}"
    if isinstance(value, Instruction):
        # A detached operand should never appear in verified IR; encode it
        # distinctly so the fingerprint cannot collide with valid IR.
        return "i:detached"
    return f"?:{value.ref()}"


def canonical_function_text(fn: Function, pure: frozenset[str] = frozenset()) -> str:
    """Name-insensitive canonical serialization of a function's IR.

    ``pure`` is the module's pure-function set; each call encodes
    whether its callee is in it.
    """
    block_index: dict[BasicBlock, int] = {}
    inst_index: dict[Instruction, int] = {}
    counter = 0
    for i, block in enumerate(fn.blocks):
        block_index[block] = i
        for inst in block.instructions:
            inst_index[inst] = counter
            counter += 1

    block_of = block_index.get
    encode = _encode_operand
    lines: list[str] = [f"sig={fn.sig}"]
    append = lines.append
    for block in fn.blocks:
        append(f"B{block_index[block]}:")
        for inst in block.instructions:
            cls = inst.__class__
            parts = [inst.opcode.value, inst.ty.name]
            if cls is ICmpInst:
                parts.append(inst.pred.value)
            elif cls is AllocaInst:
                parts.append(str(inst.size))
            elif cls is CallInst:
                parts.append(f"@{inst.callee}:{inst.sig}:{int(inst.callee in pure)}")
            for op in inst.operands:
                parts.append(encode(op, inst_index))
            if cls is PhiInst:
                for b in inst.incoming_blocks:
                    parts.append(f"b:{block_of(b, -1)}")
            elif cls is BrInst:
                parts.append(f"b:{block_of(inst.target, -1)}")
            elif cls is CBrInst:
                parts.append(f"b:{block_of(inst.if_true, -1)}")
                parts.append(f"b:{block_of(inst.if_false, -1)}")
            append(" ".join(parts))
    return "\n".join(lines)


def fingerprint_function(
    fn: Function, *, mode: str = "canonical", pure: frozenset[str] = frozenset()
) -> str:
    """Fingerprint a function's IR in the context of the module's
    pure-function set ``pure``.

    ``mode`` is ``"canonical"`` (name-insensitive, default) or
    ``"named"`` (hash of the printed text plus its pure callees).  Both
    modes hash one joined string: a single BLAKE2b update over the full
    canonical text is cheaper than streaming many per-instruction updates.
    """
    if mode == "canonical":
        return stable_hash(canonical_function_text(fn, pure))
    if mode == "named":
        callees = {
            inst.callee for inst in fn.instructions() if inst.__class__ is CallInst
        }
        pure_callees = ",".join(sorted(callees & pure))
        return stable_hash(f"{print_function(fn)}\npure={pure_callees}")
    raise ValueError(f"unknown fingerprint mode {mode!r}")
