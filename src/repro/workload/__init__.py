"""Workloads: synthetic projects and edit models.

The paper evaluates on real-world C++ projects rebuilt across developer
edits.  This package provides the substitution (documented in
DESIGN.md): a deterministic project generator whose output has the
statistical properties the paper's mechanism exploits — many functions
per file, heavy-tailed function sizes, header-induced rebuild
amplification — plus edit models covering the edit classes developers
make (body edits, constant tweaks, signature-neutral additions, header
edits, comment-only changes).

Everything is seed-deterministic: the same spec always generates the
same project, and an edit regenerates exactly the files it touches.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Edit",
    "EditKind",
    "apply_edit",
    "random_edit",
    "random_edit_sequence",
    "generate_project",
    "Project",
    "FunctionSpec",
    "ModuleSpec",
    "ProjectSpec",
    "make_preset",
    "PRESETS",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workload.edits": (
        "Edit",
        "EditKind",
        "apply_edit",
        "random_edit",
        "random_edit_sequence",
    ),
    "repro.workload.generator": ("generate_project",),
    "repro.workload.project": ("Project",),
    "repro.workload.spec": (
        "FunctionSpec",
        "ModuleSpec",
        "ProjectSpec",
        "make_preset",
        "PRESETS",
    ),
})
