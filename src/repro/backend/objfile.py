"""Object files: serializable compiled translation units.

An :class:`ObjectFile` holds register-allocated machine code per
function plus global-variable metadata.  It serializes to/from plain
JSON so the build system can cache objects on disk and hash them for
up-to-date checks; byte-identical JSON means identical code, which the
correctness experiment relies on.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro._struct import Struct
from repro.backend.mir import MachineFunction, MInst, MOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.structure import Module

#: Instructions a function's code may end with.
_TERMINATORS = (MOp.RET, MOp.BR, MOp.CBR)


class ObjGlobal(Struct):
    """Global-variable record in an object file."""

    _fields = ("name", "size", "init", "external")

    def __init__(
        self,
        name: str,
        size: int,
        init: list[int] | None = None,
        external: bool = False,
    ) -> None:
        self.name = name
        self.size = size
        self.init = [] if init is None else init
        self.external = external


class ObjectFile(Struct):
    """One compiled translation unit."""

    _fields = ("module_name", "functions", "globals")

    def __init__(
        self,
        module_name: str,
        functions: dict[str, MachineFunction] | None = None,
        globals: dict[str, ObjGlobal] | None = None,
    ) -> None:
        self.module_name = module_name
        self.functions = {} if functions is None else functions
        self.globals = {} if globals is None else globals

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": "repro-object-v1",
            "module": self.module_name,
            "globals": [
                {
                    "name": g.name,
                    "size": g.size,
                    "init": g.init,
                    "external": g.external,
                }
                for g in sorted(self.globals.values(), key=lambda g: g.name)
            ],
            "functions": [
                {
                    "name": mf.name,
                    "params": mf.num_params,
                    "frame": mf.frame_size,
                    "code": [[i.op.value, i.regs, i.imm, i.extra] for i in mf.code],
                }
                for mf in sorted(self.functions.values(), key=lambda f: f.name)
            ],
        }
        # Compact separators: with ``indent`` CPython falls back to its
        # pure-Python encoder, several times slower.  :meth:`from_json`
        # reads the indented objects of older build DBs all the same.
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ObjectFile":
        payload = json.loads(text)
        if payload.get("format") != "repro-object-v1":
            raise ValueError("not a repro object file")
        obj = cls(payload["module"])
        for g in payload["globals"]:
            obj.globals[g["name"]] = ObjGlobal(g["name"], g["size"], g["init"], g["external"])
        for f in payload["functions"]:
            obj.functions[f["name"]] = _decode_function(f)
        return obj

    @property
    def num_instructions(self) -> int:
        return sum(mf.num_instructions for mf in self.functions.values())

    def link_symbols(self) -> dict:
        """This object's link interface: all that the linker's symbol
        check (:func:`~repro.backend.linker.check_link`) reads.

        ``functions`` and ``globals`` are the symbols it defines and
        ``externs`` the globals it imports.  ``refs`` holds one
        ``[op, symbol, function]`` per distinct ``call``/``lea`` target,
        naming the first function to reference it.  ``unterminated``
        lists the functions whose code does not end in a terminator.
        Functions are visited in name order, as :meth:`to_json` stores
        them, so a fresh object and its decoded copy give one table.
        """
        refs: list[list[str]] = []
        seen: set[tuple[MOp, str]] = set()
        unterminated: list[str] = []
        for name in sorted(self.functions):
            last = None
            for inst in self.functions[name].code:
                op = inst.op
                if op is MOp.LABEL:
                    continue
                last = op
                if (op is MOp.CALL or op is MOp.LEA) and (op, inst.extra) not in seen:
                    seen.add((op, inst.extra))
                    refs.append([op.value, inst.extra, name])
            if last is not None and last not in _TERMINATORS:
                unterminated.append(name)
        return {
            "module": self.module_name,
            "functions": sorted(self.functions),
            "globals": sorted(g.name for g in self.globals.values() if not g.external),
            "externs": sorted(g.name for g in self.globals.values() if g.external),
            "refs": refs,
            "unterminated": unterminated,
        }


def _decode_function(f: dict) -> MachineFunction:
    mf = MachineFunction(
        f["name"], num_params=f["params"], frame_size=f["frame"], is_allocated=True
    )
    mf.code = [MInst(MOp(op), list(regs), imm, extra) for op, regs, imm, extra in f["code"]]
    return mf


def compile_module_to_object(
    module: Module, *, previous_object: str = "", reuse: list[str] | tuple = ()
) -> ObjectFile:
    """Run the full backend over an IR module: isel, regalloc, peephole.

    The functions named in ``reuse`` are not compiled: their machine
    code is decoded from ``previous_object``, the JSON of an object an
    earlier compile made from the same IR (the memo policy's reuse).
    """
    # Decoding and linking cached objects needs none of the code
    # generator, so it loads only here.
    from repro.backend.isel import select_function
    from repro.backend.peephole import peephole_function
    from repro.backend.regalloc import allocate_function

    reused: dict[str, MachineFunction] = {}
    if reuse:
        wanted = set(reuse)
        reused = {
            f["name"]: _decode_function(f)
            for f in json.loads(previous_object)["functions"]
            if f["name"] in wanted
        }
        if len(reused) != len(wanted):
            raise ValueError(
                f"previous object of {module.name} lacks "
                f"{sorted(wanted - set(reused))}"
            )
    obj = ObjectFile(module.name)
    for fn in module.defined_functions():
        mf = reused.get(fn.name)
        if mf is None:
            mf = select_function(fn)
            allocate_function(mf)
            peephole_function(mf)
        obj.functions[fn.name] = mf
    for var in module.globals.values():
        obj.globals[var.name] = ObjGlobal(
            var.name, var.size, list(var.initializer), var.is_external
        )
    return obj
