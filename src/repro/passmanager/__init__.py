"""Pass pipeline management and the pass ledger."""

from repro._lazy import lazy_exports

__all__ = [
    "PassLedger",
    "PassRun",
    "PassManager",
    "PassPipeline",
    "build_pipeline",
    "O0_PIPELINE",
    "O1_PIPELINE",
    "O2_PIPELINE",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.passmanager.ledger": ("PassLedger", "PassRun"),
    "repro.passmanager.manager": ("PassManager",),
    "repro.passmanager.pipeline": (
        "PassPipeline",
        "build_pipeline",
        "O0_PIPELINE",
        "O1_PIPELINE",
        "O2_PIPELINE",
    ),
})
