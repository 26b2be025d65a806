"""Pass pipeline management and the pass ledger."""

from repro.passmanager.ledger import PassLedger, PassRun
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import (
    PassPipeline,
    build_pipeline,
    O0_PIPELINE,
    O1_PIPELINE,
    O2_PIPELINE,
)

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
