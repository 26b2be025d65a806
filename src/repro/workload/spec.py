"""Project specifications: the seed-deterministic shape of a workload.

A :class:`ProjectSpec` fully determines the generated source text
(see :mod:`repro.workload.generator`).  Edit models transform specs —
bumping a function's ``body_seed`` regenerates exactly that function's
body, the way a developer edit touches one function in one file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


def seeded_rng(*parts: object) -> random.Random:
    """Deterministic RNG from a composite key (joined to a string)."""
    return random.Random("\x1f".join(str(p) for p in parts))


@dataclass(frozen=True)
class FunctionSpec:
    """One generated function."""

    name: str
    num_params: int
    body_seed: int
    #: Body size class: "small" (~5 lines), "medium" (~15), "large" (~40).
    size: str = "medium"
    public: bool = False
    #: Additive tweak applied to one literal — the lightest possible edit.
    const_bias: int = 0


@dataclass(frozen=True)
class ModuleSpec:
    """One module: a header/source pair."""

    index: int
    name: str
    functions: tuple[FunctionSpec, ...]
    #: Names of modules whose headers this module includes (lower index).
    imports: tuple[str, ...] = ()
    num_globals: int = 1
    #: Tweak to the header's exported constant (header-edit model).
    header_const_bias: int = 0
    #: Revision counter rendered into a comment (comment-only edits).
    comment_revision: int = 0
    #: The purity probe (purity-flip edits): ``None`` = none; else a
    #: straight-line helper too big to inline, called by the module's
    #: last function, which ignores its result.  It prints (and so is
    #: impure) when this is ``True``, and is pure when ``False``.
    probe_prints: bool | None = None


@dataclass(frozen=True)
class ProjectSpec:
    """A whole project."""

    name: str
    seed: int
    modules: tuple[ModuleSpec, ...]
    #: Put some includes where only a full parse finds them: after a
    #: block comment, or after a global definition on the same line.
    late_includes: bool = False

    def module_by_name(self, name: str) -> ModuleSpec:
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError(name)

    def replace_module(self, new_module: ModuleSpec) -> "ProjectSpec":
        modules = tuple(
            new_module if m.name == new_module.name else m for m in self.modules
        )
        return replace(self, modules=modules)

    @property
    def all_functions(self) -> list[tuple[ModuleSpec, FunctionSpec]]:
        return [(m, f) for m in self.modules for f in m.functions]


_SIZE_WEIGHTS = [("small", 0.45), ("medium", 0.40), ("large", 0.15)]


def _pick_size(rng: random.Random) -> str:
    roll = rng.random()
    acc = 0.0
    for size, weight in _SIZE_WEIGHTS:
        acc += weight
        if roll < acc:
            return size
    return "large"


def make_spec(
    name: str,
    *,
    num_modules: int,
    functions_per_module: int,
    seed: int = 1,
    import_fanout: int = 2,
    late_includes: bool = False,
) -> ProjectSpec:
    """Build a random-but-deterministic project spec.

    Modules form a DAG (module *i* may import modules *< i*), matching
    how real codebases layer; function sizes follow a heavy-tailed-ish
    mix so a few functions dominate compile time, as in real projects.
    """
    rng = seeded_rng("spec", name, seed)
    modules: list[ModuleSpec] = []
    for i in range(num_modules):
        mod_name = f"mod{i}"
        functions = []
        for k in range(functions_per_module):
            functions.append(
                FunctionSpec(
                    name=f"{mod_name}_f{k}",
                    num_params=rng.randint(1, 3),
                    body_seed=rng.randint(0, 10_000_000),
                    size=_pick_size(rng),
                    public=(k < max(1, functions_per_module // 2)),
                )
            )
        available = [m.name for m in modules]
        imports = tuple(
            sorted(rng.sample(available, min(len(available), rng.randint(0, import_fanout))))
        )
        modules.append(
            ModuleSpec(
                index=i,
                name=mod_name,
                functions=tuple(functions),
                imports=imports,
                num_globals=rng.randint(1, 3),
            )
        )
    return ProjectSpec(
        name=name, seed=seed, modules=tuple(modules), late_includes=late_includes
    )


#: Named presets mirroring the paper's project-size spread (Table 1).
PRESETS: dict[str, dict[str, int]] = {
    "tiny": {"num_modules": 2, "functions_per_module": 4},
    "small": {"num_modules": 4, "functions_per_module": 6},
    "medium": {"num_modules": 8, "functions_per_module": 10},
    "large": {"num_modules": 16, "functions_per_module": 12},
    "xlarge": {"num_modules": 24, "functions_per_module": 16},
}


def make_preset(preset: str, seed: int = 1, *, late_includes: bool = False) -> ProjectSpec:
    """Instantiate one of the named presets."""
    try:
        params = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; options: {sorted(PRESETS)}") from None
    return make_spec(preset, seed=seed, late_includes=late_includes, **params)
