"""Reusable correctness harnesses: fault injection and differential fuzzing.

Grown alongside the crash-consistency layer (:mod:`repro.persist`) and
reused by every robustness story since:

- :mod:`repro.testing.faults` — deterministic fault injection at the
  persistence IO seam (seeded :class:`FaultPlan`, kill/torn/errno
  faults, crash-schedule enumeration via :func:`count_io_ops`);
- :mod:`repro.testing.differential` — the differential fuzzer proving
  stateful incremental builds (serial and ``-j N``) bit-identical to
  stateless clean builds over random edit traces.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DifferentialResult",
    "Divergence",
    "run_differential_trace",
    "ERRNO",
    "KILL",
    "KILL_AFTER",
    "KINDS",
    "OPS",
    "TORN",
    "FaultBackend",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "count_io_ops",
    "inject_faults",
]

# Lazy, so ``python -m repro.testing.differential`` finds the module it
# runs not yet imported by its own package.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.testing.differential": (
        "DifferentialResult", "Divergence", "run_differential_trace",
    ),
    "repro.testing.faults": (
        "ERRNO", "KILL", "KILL_AFTER", "KINDS", "OPS", "TORN", "FaultBackend",
        "FaultPlan", "FaultSpec", "InjectedCrash", "count_io_ops", "inject_faults",
    ),
})
