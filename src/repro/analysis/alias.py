"""Simple, sound alias analysis.

Classifies pointer values by their *root* and answers may-alias
queries.  Rules (all conservative):

- two distinct allocas never alias;
- an alloca never aliases a global;
- two distinct global symbols never alias;
- a gep aliases whatever its base may alias;
- when the roots are the same object, constant indices that differ
  prove distinct slots (``a[0]`` vs ``a[1]``); anything else may alias;
- pointer *arguments* may alias each other and any global or escaped
  object, but never a local alloca whose address was not passed out.

Used by CSE and DSE to keep availability across provably-unrelated
stores, where the fully conservative treatment would flush everything.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.ir.instructions import AllocaInst, GepInst, LoadInst, StoreInst
from repro.ir.values import Argument, ConstantInt, GlobalAddr, Value


class AliasResult(enum.Enum):
    __hash__ = object.__hash__  # by identity, in C

    NO_ALIAS = "no"
    MAY_ALIAS = "may"
    MUST_ALIAS = "must"


class PointerInfo(NamedTuple):
    """Decomposition of a pointer value: root object + offset."""

    #: AllocaInst | GlobalAddr-symbol | Argument | None
    root: object
    #: Slots from the root; None if not constant.
    offset: int | None
    #: "alloca" | "global" | "argument" | "unknown"
    kind: str


def classify_pointer(ptr: Value) -> PointerInfo:
    """Walk gep chains back to the root object."""
    offset: int | None = 0
    current = ptr
    while isinstance(current, GepInst):
        index = current.index
        if isinstance(index, ConstantInt) and offset is not None:
            offset += index.value
        else:
            offset = None
        current = current.base
    if isinstance(current, AllocaInst):
        return PointerInfo(current, offset, "alloca")
    if isinstance(current, GlobalAddr):
        return PointerInfo(current.symbol, offset, "global")
    if isinstance(current, Argument):
        return PointerInfo(current, offset, "argument")
    return PointerInfo(None, None, "unknown")


def _address_escapes(alloca: AllocaInst) -> bool:
    """Does the alloca's address flow anywhere besides load/store/gep?

    If it does (e.g. passed to a call), unknown code may read or write
    it and it can alias argument/unknown pointers.
    """
    worklist: list[Value] = [alloca]
    seen: set[int] = set()
    while worklist:
        value = worklist.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        for use in value.uses:
            user = use.user
            if isinstance(user, GepInst) and use.index == 0:
                worklist.append(user)
                continue
            if isinstance(user, LoadInst):
                continue
            if isinstance(user, StoreInst) and use.index == 1:
                continue
            return True  # call argument, stored as value, compared, ...
    return False


def may_alias(a: Value, b: Value) -> AliasResult:
    """May the memory at ``a`` and ``b`` overlap (single-slot accesses)?"""
    info_a = classify_pointer(a)
    info_b = classify_pointer(b)

    if info_a.kind == "unknown" or info_b.kind == "unknown":
        return AliasResult.MAY_ALIAS

    if info_a.root is info_b.root or (
        info_a.kind == "global" and info_b.kind == "global" and info_a.root == info_b.root
    ):
        if info_a.offset is not None and info_b.offset is not None:
            return (
                AliasResult.MUST_ALIAS
                if info_a.offset == info_b.offset
                else AliasResult.NO_ALIAS
            )
        return AliasResult.MAY_ALIAS

    kinds = {info_a.kind, info_b.kind}
    if kinds == {"alloca"}:
        return AliasResult.NO_ALIAS  # distinct allocas
    if kinds == {"global"}:
        return AliasResult.NO_ALIAS  # distinct symbols
    if kinds == {"alloca", "global"}:
        return AliasResult.NO_ALIAS
    # Argument pointers: may alias globals, other arguments, and any
    # alloca whose address escaped.
    if "argument" in kinds:
        other = info_a if info_b.kind == "argument" else info_b
        if other.kind == "alloca" and not _address_escapes(other.root):  # type: ignore[arg-type]
            return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS
    return AliasResult.MAY_ALIAS  # pragma: no cover - exhaustive above
