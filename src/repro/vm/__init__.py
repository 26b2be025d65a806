"""Execution engines.

Two ways to run compiled MiniC:

- :mod:`repro.vm.interp` — direct IR interpreter; the semantic oracle
  used by tests to check that optimization passes preserve behaviour.
- :mod:`repro.vm.machine` — executes the backend's register-machine
  object code (what the end-to-end build pipeline produces and what the
  correctness experiment compares).
"""

from repro.vm.interp import ExecutionResult, IRInterpreter, Trap, run_module
from repro.vm.machine import MachineError, VirtualMachine

__all__ = [
    "ExecutionResult",
    "IRInterpreter",
    "Trap",
    "run_module",
    "MachineError",
    "VirtualMachine",
]
