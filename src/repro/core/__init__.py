"""The paper's contribution: the stateful compiler.

Conventional compilers are stateless: recompiling a changed file redoes
every pass on every function, even though most pass executions are
*dormant* (they inspect the IR and change nothing) and most functions in
the file did not change.  This package persists dormancy records across
builds and bypasses provably-dormant passes:

- :mod:`repro.core.state` — the on-disk compiler state: dormancy
  records keyed by (pipeline position, IR fingerprint), versioned,
  garbage-collected.
- :mod:`repro.core.stateful` — ``StatefulPassManager``: consults the
  state before each function pass, bypassing recorded-dormant ones; and
  ``MemoPassManager``, the memo policy's machine-code reuse, which
  keeps no state.
- :mod:`repro.core.policies` — skip-granularity policies (the paper's
  fine-grained function×pass vs the coarse whole-function baseline,
  and the memo policy beyond the paper).
- :mod:`repro.core.statistics` — the bypass table, folded from the pass
  manager's ledger.
"""

from repro._lazy import lazy_exports

__all__ = [
    "StateSummary",
    "describe_state",
    "summarize_state",
    "SkipPolicy",
    "CompilerState",
    "DormancyRecord",
    "STATE_SCHEMA_VERSION",
    "StatefulPassManager",
    "BypassStatistics",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.inspect": ("StateSummary", "describe_state", "summarize_state"),
    "repro.core.policies": ("SkipPolicy",),
    "repro.core.state": ("CompilerState", "DormancyRecord", "STATE_SCHEMA_VERSION"),
    "repro.core.stateful": ("StatefulPassManager",),
    "repro.core.statistics": ("BypassStatistics",),
})
