"""Object files: serializable compiled translation units.

An :class:`ObjectFile` holds register-allocated machine code per
function plus global-variable metadata.  It serializes to/from plain
JSON so the build system can cache objects on disk and hash them for
up-to-date checks; byte-identical JSON means identical code, which the
correctness experiment relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.backend.mir import MachineFunction, MInst, MOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.structure import Module


@dataclass
class ObjGlobal:
    """Global-variable record in an object file."""

    name: str
    size: int
    init: list[int] = field(default_factory=list)
    external: bool = False


@dataclass
class ObjectFile:
    """One compiled translation unit."""

    module_name: str
    functions: dict[str, MachineFunction] = field(default_factory=dict)
    globals: dict[str, ObjGlobal] = field(default_factory=dict)

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
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ObjectFile":
        payload = json.loads(text)
        if payload.get("format") != "repro-object-v1":
            raise ValueError("not a repro object file")
        obj = cls(payload["module"])
        for g in payload["globals"]:
            obj.globals[g["name"]] = ObjGlobal(g["name"], g["size"], g["init"], g["external"])
        for f in payload["functions"]:
            mf = MachineFunction(
                f["name"],
                num_params=f["params"],
                frame_size=f["frame"],
                is_allocated=True,
            )
            mf.code = [
                MInst(MOp(op), list(regs), imm, extra) for op, regs, imm, extra in f["code"]
            ]
            obj.functions[mf.name] = mf
        return obj

    @property
    def num_instructions(self) -> int:
        return sum(mf.num_instructions for mf in self.functions.values())

    def defined_symbols(self) -> set[str]:
        return set(self.functions) | {g.name for g in self.globals.values() if not g.external}


def compile_module_to_object(module: Module) -> ObjectFile:
    """Run the full backend over an IR module: isel, regalloc, peephole."""
    # Decoding and linking cached objects needs none of the code
    # generator, so it loads only here.
    from repro.backend.isel import select_module
    from repro.backend.peephole import peephole_function
    from repro.backend.regalloc import allocate_function

    obj = ObjectFile(module.name)
    for name, mf in select_module(module).items():
        allocate_function(mf)
        peephole_function(mf)
        obj.functions[name] = mf
    for var in module.globals.values():
        obj.globals[var.name] = ObjGlobal(
            var.name, var.size, list(var.initializer), var.is_external
        )
    return obj
