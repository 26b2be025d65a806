"""IR containers: basic blocks, functions, globals, and modules."""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from repro._struct import Struct
from repro.ir.instructions import Instruction, PhiInst, TERMINATOR_OPCODES
from repro.ir.types import FunctionSig, IRType
from repro.ir.values import Argument, Value


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: "Function | None" = None):
        self.name = name
        self.parent = parent
        self.instructions: list[Instruction] = []

    # -- instruction list management ---------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor), inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    # -- structure queries ---------------------------------------------------

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions:
            last = self.instructions[-1]
            if last.opcode in TERMINATOR_OPCODES:
                return last
        return None

    @property
    def phis(self) -> list[PhiInst]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, PhiInst):
                result.append(inst)
            else:
                break
        return result

    def non_phis(self) -> Iterator[Instruction]:
        for inst in self.instructions:
            if not isinstance(inst, PhiInst):
                yield inst

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, PhiInst):
                return i
        return len(self.instructions)

    def successors(self) -> tuple["BasicBlock", ...]:
        # Only branches have successors, so the last instruction answers
        # whether or not it is a terminator.
        return self.instructions[-1].successors() if self.instructions else ()

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def ref(self) -> str:
        return f"^{self.name}"

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """An IR function: arguments plus an ordered list of basic blocks.

    The first block is the entry block.  Block order is also the printing
    order; passes keep it roughly in reverse-post-order but correctness
    never depends on it.
    """

    def __init__(self, name: str, sig: FunctionSig, arg_names: list[str] | None = None):
        self.name = name
        self.sig = sig
        names = arg_names or [f"arg{i}" for i in range(len(sig.params))]
        if len(names) != len(sig.params):
            raise ValueError("arg_names length must match signature")
        self.args = [Argument(ty, nm, i) for i, (ty, nm) in enumerate(zip(sig.params, names))]
        self.blocks: list[BasicBlock] = []
        #: The number :meth:`next_name` hands out next.  Block names come
        #: from it and instruction selection puts them in branch labels,
        #: so a function's machine code depends on it.
        self.name_counter = 0

    # -- naming ---------------------------------------------------------------

    def next_name(self, prefix: str = "t") -> str:
        n = self.name_counter
        self.name_counter = n + 1
        return f"{prefix}{n}"

    # -- block management -------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str | None = None, *, after: BasicBlock | None = None) -> BasicBlock:
        block = BasicBlock(name or self.next_name("bb"), parent=self)
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        """Remove a block, dropping its instructions' operand references.

        Callers must already have rewired control flow and phis; the
        block's instructions must be unused from outside the block.
        """
        for inst in reversed(block.instructions):
            inst.replace_all_uses_with(_dead_placeholder(inst.ty))
            inst.drop_all_references()
            inst.parent = None
        block.instructions.clear()
        self.blocks.remove(block)
        block.parent = None

    # -- CFG queries --------------------------------------------------------------

    def predecessors(self) -> dict[BasicBlock, list[BasicBlock]]:
        """Map each block to its predecessor list (in block order)."""
        preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            if block.instructions:
                for succ in block.instructions[-1].successors():
                    preds[succ].append(block)
        return preds

    def instructions(self) -> Iterator[Instruction]:
        return chain.from_iterable(block.instructions for block in self.blocks)

    @property
    def num_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<{kind} {self.name}: {self.sig}>"


def _dead_placeholder(ty: IRType) -> Value:
    from repro.ir.values import UndefValue

    return UndefValue(ty)


class GlobalVariable(Struct):
    """Module-level storage: ``size`` 64-bit slots with an initializer.

    ``initializer`` is a list of slot values (length ``size``); external
    declarations have no storage here and are bound at link time.
    """

    _fields = ("name", "size", "initializer", "is_external", "is_const")

    def __init__(
        self,
        name: str,
        size: int,
        initializer: list[int] | None = None,
        is_external: bool = False,
        is_const: bool = False,
    ) -> None:
        self.name = name
        self.size = size
        self.initializer = [] if initializer is None else initializer
        self.is_external = is_external
        self.is_const = is_const
        if self.size <= 0:
            raise ValueError(f"global {self.name}: size must be positive")
        if not self.is_external:
            if not self.initializer:
                self.initializer = [0] * self.size
            if len(self.initializer) != self.size:
                raise ValueError(f"global {self.name}: initializer/size mismatch")


class Module:
    """One translation unit's IR: globals plus functions.

    ``functions`` maps name -> :class:`Function`; declarations (imported
    functions) have empty block lists.
    """

    def __init__(self, name: str):
        self.name = name
        self.globals: dict[str, GlobalVariable] = {}
        self.functions: dict[str, Function] = {}

    def add_global(self, var: GlobalVariable) -> GlobalVariable:
        if var.name in self.globals:
            raise ValueError(f"duplicate global {var.name}")
        self.globals[var.name] = var
        return var

    def add_function(self, fn: Function) -> Function:
        existing = self.functions.get(fn.name)
        if existing is not None and not existing.is_declaration and not fn.is_declaration:
            raise ValueError(f"duplicate function definition {fn.name}")
        if existing is None or existing.is_declaration:
            self.functions[fn.name] = fn
        return self.functions[fn.name]

    def get_function(self, name: str) -> Function | None:
        return self.functions.get(name)

    def defined_functions(self) -> list[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    @property
    def num_instructions(self) -> int:
        return sum(f.num_instructions for f in self.functions.values())

    def __repr__(self) -> str:
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
