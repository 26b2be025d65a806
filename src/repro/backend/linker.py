"""Linker: object files -> one executable image.

Resolves symbols across objects (duplicate definitions and unresolved
references are errors), lays out global storage, concatenates function
code, and resolves branch labels and callees to absolute instruction
indices.  Symbol resolution reads only each object's link interface
(:meth:`~repro.backend.objfile.ObjectFile.link_symbols`), so
:func:`check_link` can check a link from stored interfaces without
decoding any object.  The result runs on
:class:`repro.vm.machine.VirtualMachine`.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.backend.mir import MInst, MOp
from repro.backend.objfile import ObjectFile

#: Builtins the VM provides; calls to these stay symbolic.
BUILTIN_SYMBOLS = {"print", "input", "__trap_unreachable"}


class LinkError(Exception):
    """Symbol resolution failed."""


class LinkedFunction(Struct):
    _fields = ("name", "entry", "num_params", "frame_size")

    def __init__(self, name: str, entry: int, num_params: int, frame_size: int) -> None:
        self.name = name
        self.entry = entry
        self.num_params = num_params
        self.frame_size = frame_size


class LinkedImage(Struct):
    """An executable: resolved code plus data layout.

    ``code`` contains no LABEL pseudo-instructions; BR/CBR hold absolute
    indices in ``imm`` (CBR packs them via ``extra`` = "t f" pre-resolve
    and ``imm``/``regs`` post-resolve — see ``_resolve``).  CALL keeps
    the callee name in ``extra`` (the VM looks it up in ``functions``),
    which keeps builtin dispatch uniform.
    """

    _fields = ("code", "functions", "global_base", "data")

    def __init__(
        self,
        code: list[MInst] | None = None,
        functions: dict[str, LinkedFunction] | None = None,
        global_base: dict[str, int] | None = None,
        data: list[int] | None = None,
    ) -> None:
        self.code = [] if code is None else code
        self.functions = {} if functions is None else functions
        self.global_base = {} if global_base is None else global_base
        self.data = [] if data is None else data

    @property
    def num_instructions(self) -> int:
        return len(self.code)

    def to_json(self) -> str:
        """Deterministic serialization of the whole executable.

        Two images are behaviourally identical iff their ``to_json``
        outputs are byte-identical, which is what the differential
        correctness harness (:mod:`repro.testing.differential`)
        compares across compiler variants and job counts.
        """
        import json

        payload = {
            "format": "repro-image-v1",
            "code": [[i.op.value, i.regs, i.imm, i.extra] for i in self.code],
            "functions": [
                [f.name, f.entry, f.num_params, f.frame_size]
                for f in sorted(self.functions.values(), key=lambda f: f.name)
            ],
            "globals": sorted(self.global_base.items()),
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_link(tables: list[dict], *, entry: str = "main") -> None:
    """Raise the :class:`LinkError` linking these objects would raise.

    ``tables`` are the objects'
    :meth:`~repro.backend.objfile.ObjectFile.link_symbols`, in link
    order; no code is read.  Checks run in the linker's order:
    duplicate definitions, unresolved externals and references, the
    entry point, then functions that do not end in a terminator.
    """
    functions: set[str] = set()
    globals_: set[str] = set()
    for table in tables:
        for name in table["globals"]:
            if name in globals_:
                raise LinkError(f"duplicate definition of global @{name}")
            globals_.add(name)
        for name in table["functions"]:
            if name in functions:
                raise LinkError(f"duplicate definition of function @{name}")
            functions.add(name)
    for table in tables:
        for name in table["externs"]:
            if name not in globals_:
                raise LinkError(
                    f"unresolved external global @{name} (from {table['module']})"
                )
        for op, symbol, function in table["refs"]:
            if op == MOp.CALL.value:
                if symbol not in functions and symbol not in BUILTIN_SYMBOLS:
                    raise LinkError(
                        f"unresolved function @{symbol} called from @{function}"
                    )
            elif symbol not in globals_:
                raise LinkError(
                    f"unresolved global @{symbol} referenced from @{function}"
                )
    if entry not in functions:
        raise LinkError(f"entry point @{entry} is not defined")
    for table in tables:
        for name in table["unterminated"]:
            raise LinkError(f"@{name} does not end in a terminator")


def link(objects: list[ObjectFile], *, entry: str = "main") -> LinkedImage:
    """Link objects into an image; requires ``entry`` to be defined."""
    check_link([obj.link_symbols() for obj in objects], entry=entry)
    image = LinkedImage()
    for obj in objects:
        for g in obj.globals.values():
            if not g.external:
                image.global_base[g.name] = len(image.data)
                image.data.extend(g.init if g.init else [0] * g.size)
        for mf in obj.functions.values():
            image.functions[mf.name] = LinkedFunction(
                mf.name, entry=-1, num_params=mf.num_params, frame_size=mf.frame_size
            )

    # Lay out code and resolve labels.
    label_at: dict[str, int] = {}
    layout: list[MInst] = []
    for obj in objects:
        for name in sorted(obj.functions):
            image.functions[name].entry = len(layout)
            for inst in obj.functions[name].code:
                if inst.op is MOp.LABEL:
                    label_at[inst.extra] = len(layout)
                else:
                    layout.append(inst)

    image.code = [_resolve(inst, label_at) for inst in layout]
    return image


def _resolve(inst: MInst, label_at: dict[str, int]) -> MInst:
    if inst.op is MOp.BR:
        return MInst(MOp.BR, [], imm=label_at[inst.extra])
    if inst.op is MOp.CBR:
        true_label, false_label = inst.extra.split()
        # Pack targets: imm = true, regs[1] slot reused for false target.
        return MInst(
            MOp.CBR,
            [inst.regs[0], label_at[false_label]],
            imm=label_at[true_label],
        )
    return inst
