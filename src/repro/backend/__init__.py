"""Backend: IR -> register-machine object code.

Pipeline per function:

1. :mod:`repro.backend.isel` — instruction selection to machine IR
   (MIR) over unlimited virtual registers; phis become parallel copies
   on (split) edges.
2. :mod:`repro.backend.regalloc` — linear-scan register allocation onto
   16 physical registers with frame-slot spilling.
3. :mod:`repro.backend.peephole` — local cleanups on allocated code.
4. :mod:`repro.backend.objfile` — serializable object files;
   :mod:`repro.backend.linker` resolves symbols into an executable
   image run by :class:`repro.vm.machine.VirtualMachine`.
"""

from repro._lazy import lazy_exports

#: Version of the code generator: instruction selection, register
#: allocation, peephole and the object format.  Bump it with any change
#: that can change a function's machine code.  Every memo key covers it
#: (:attr:`repro.driver.Compiler.memo_context`), so a bump stops the
#: memo policy from reusing code the old backend made.
VERSION = 1

__all__ = [
    "select_function",
    "select_module",
    "LinkedImage",
    "LinkError",
    "link",
    "MachineFunction",
    "MInst",
    "MOp",
    "ObjectFile",
    "compile_module_to_object",
    "allocate_function",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.backend.isel": ("select_function", "select_module"),
    "repro.backend.linker": ("LinkedImage", "LinkError", "link"),
    "repro.backend.mir": ("MachineFunction", "MInst", "MOp"),
    "repro.backend.objfile": ("ObjectFile", "compile_module_to_object"),
    "repro.backend.regalloc": ("allocate_function",),
})
