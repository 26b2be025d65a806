"""Deterministic MiniC source generation from project specs.

Design constraints on the generated code (so experiments never hit
compile errors or runtime traps):

- every loop has a provably bounded trip count (constant bounds, or
  parameters masked into a small range);
- division/remainder only by non-zero constants;
- array indices are loop counters or masked expressions, always in
  bounds (array sizes are powers of two);
- no recursion (call edges follow the module DAG and, within a module,
  earlier functions only);
- arithmetic may overflow freely (i64 wrap-around is well defined).

The same spec always produces byte-identical text; bumping a function's
``body_seed`` changes only that function's body text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workload.project import Project
from repro.workload.spec import FunctionSpec, ModuleSpec, ProjectSpec, seeded_rng

_ARRAY_SIZES = (4, 8, 16)
_SIZE_BUDGET = {"small": 4, "medium": 10, "large": 24}

#: Static per-size-class cost budgets (abstract operations, loop trip
#: counts and transitive calls included).  Without these caps, call
#: chains through loops compose multiplicatively and generated programs
#: would not terminate in reasonable time.  Budgets are *static* (a
#: function's cost estimate is its size class, not its body), so editing
#: one function's body never changes which callees other functions
#: selected — an edit dirties exactly the function it targets.
_STATIC_COST = {"small": 1_500, "medium": 5_000, "large": 15_000}


@dataclass
class _Callee:
    """A function available for calls while generating a body."""

    name: str
    num_params: int
    cost: int = 1


@dataclass
class _BodyContext:
    rng: random.Random
    params: list[str]
    callees: list[_Callee]
    globals_readable: list[str]
    globals_writable: list[str]
    header_consts: list[str]
    const_bias: int
    #: A function to call on the first value, ignoring its result.
    probe: str = ""
    vars: list[str] = field(default_factory=list)
    #: Read-only names (loop counters): usable in expressions, never
    #: assignment targets — assigning to a counter could make its loop
    #: infinite.
    immutable_vars: list[str] = field(default_factory=list)
    emitted_first_literal: bool = False
    var_counter: int = 0
    loop_depth: int = 0
    #: Product of enclosing loop bounds (estimated executions of the
    #: current statement position).
    loop_multiplier: int = 1
    #: Running estimate of the function's dynamic cost.
    own_cost: int = 0
    #: Cost budget (the static cost of this function's size class).
    cost_cap: int = 15_000

    def fresh_var(self, prefix: str = "v") -> str:
        name = f"{prefix}{self.var_counter}"
        self.var_counter += 1
        return name

    def charge(self, amount: int = 1) -> None:
        self.own_cost += amount * self.loop_multiplier

    def affordable_callees(self) -> list[_Callee]:
        remaining = self.cost_cap - self.own_cost
        return [
            c for c in self.callees if c.cost * self.loop_multiplier <= remaining
        ]


class _BodyGenerator:
    """Generates one function body as indented MiniC statements."""

    def __init__(self, ctx: _BodyContext):
        self.ctx = ctx
        self.lines: list[str] = []

    # -- expressions --------------------------------------------------------

    def literal(self) -> str:
        value = self.ctx.rng.randint(-20, 100)
        if not self.ctx.emitted_first_literal:
            # The designated edit point: const_bias shifts this literal.
            value += self.ctx.const_bias
            self.ctx.emitted_first_literal = True
        return str(value) if value >= 0 else f"(0 - {-value})"

    def atom(self) -> str:
        rng = self.ctx.rng
        choices: list[str] = []
        choices.extend(self.ctx.vars)
        choices.extend(self.ctx.immutable_vars)
        choices.extend(self.ctx.params)
        choices.extend(self.ctx.globals_readable)
        choices.extend(self.ctx.header_consts)
        if choices and rng.random() < 0.7:
            return rng.choice(choices)
        return self.literal()

    def expr(self, depth: int = 0) -> str:
        rng = self.ctx.rng
        if depth >= 2 or rng.random() < 0.35:
            return self.atom()
        kind = rng.random()
        a = self.expr(depth + 1)
        b = self.expr(depth + 1)
        if kind < 0.45:
            op = rng.choice(["+", "-", "*"])
            return f"({a} {op} {b})"
        if kind < 0.62:
            op = rng.choice(["&", "|", "^"])
            return f"({a} {op} {b})"
        if kind < 0.74:
            op = rng.choice(["<<", ">>"])
            return f"({a} {op} {rng.randint(0, 3)})"
        if kind < 0.86:
            divisor = rng.choice([2, 3, 4, 5, 7, 8, 16])
            op = rng.choice(["/", "%"])
            return f"({a} {op} {divisor})"
        cmp_op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"({a} {cmp_op} {b} ? {self.expr(depth + 1)} : {self.expr(depth + 1)})"

    def condition(self) -> str:
        rng = self.ctx.rng
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        cond = f"{self.expr(1)} {op} {self.expr(1)}"
        if rng.random() < 0.25:
            joiner = rng.choice(["&&", "||"])
            op2 = rng.choice(["<", ">", "=="])
            cond = f"{cond} {joiner} {self.expr(1)} {op2} {self.expr(1)}"
        return cond

    def call_expr(self) -> str | None:
        rng = self.ctx.rng
        affordable = self.ctx.affordable_callees()
        if not affordable:
            return None
        callee = rng.choice(affordable)
        self.ctx.charge(callee.cost)
        args = ", ".join(self.expr(1) for _ in range(callee.num_params))
        return f"{callee.name}({args})"

    # -- statements -----------------------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("  " * indent + text)

    def gen_statement(self, indent: int, budget: int) -> int:
        """Emit one statement; returns the budget it consumed."""
        rng = self.ctx.rng
        self.ctx.charge()
        roll = rng.random()
        if roll < 0.24 or not self.ctx.vars:
            name = self.ctx.fresh_var()
            self.emit(indent, f"int {name} = {self.expr()};")
            self.ctx.vars.append(name)
            return 1
        if roll < 0.44:
            target = rng.choice(self.ctx.vars)
            op = rng.choice(["=", "+=", "-=", "*=", "^="])
            if op == "^=":
                self.emit(indent, f"{target} = {target} ^ ({self.expr()});")
            else:
                self.emit(indent, f"{target} {op} {self.expr()};")
            return 1
        if roll < 0.58 and self.ctx.loop_depth < 2 and budget >= 3:
            return self.gen_loop(indent)
        if roll < 0.72 and budget >= 3:
            return self.gen_if(indent)
        if roll < 0.80 and budget >= 4 and self.ctx.loop_depth == 0:
            return self.gen_array_block(indent)
        if roll < 0.90:
            call = self.call_expr()
            if call is not None:
                target = rng.choice(self.ctx.vars)
                self.emit(indent, f"{target} += {call};")
                return 1
            return self.gen_statement(indent, budget)
        if self.ctx.globals_writable and self.ctx.loop_depth == 0:
            g = rng.choice(self.ctx.globals_writable)
            self.emit(indent, f"{g} = {g} + ({self.expr(1)});")
            return 1
        target = rng.choice(self.ctx.vars)
        self.emit(indent, f"{target} += {self.expr()};")
        return 1

    def gen_loop(self, indent: int) -> int:
        rng = self.ctx.rng
        i = self.ctx.fresh_var("i")
        if rng.random() < 0.75 or not self.ctx.params:
            trip_estimate = rng.randint(2, 10)
            bound = str(trip_estimate)
        else:
            # Parameter-dependent but bounded trip count.
            p = rng.choice(self.ctx.params)
            mask = rng.choice([7, 15])
            trip_estimate = mask + 1
            bound = f"(({p} & {mask}) + 1)"
        self.emit(indent, f"for (int {i} = 0; {i} < {bound}; ++{i}) {{")
        scope_mark = list(self.ctx.vars)
        self.ctx.immutable_vars.append(i)
        self.ctx.loop_depth += 1
        self.ctx.loop_multiplier *= trip_estimate
        consumed = 2
        inner = rng.randint(1, 2)
        for _ in range(inner):
            consumed += self.gen_statement(indent + 1, 2)
        self.ctx.loop_depth -= 1
        self.ctx.loop_multiplier //= trip_estimate
        self.ctx.immutable_vars.remove(i)
        self.ctx.vars[:] = scope_mark  # names declared inside go out of scope
        self.emit(indent, "}")
        return consumed

    def gen_if(self, indent: int) -> int:
        rng = self.ctx.rng
        self.emit(indent, f"if ({self.condition()}) {{")
        scope_mark = list(self.ctx.vars)
        consumed = 2 + self.gen_statement(indent + 1, 2)
        self.ctx.vars[:] = scope_mark
        if rng.random() < 0.5:
            self.emit(indent, "} else {")
            consumed += self.gen_statement(indent + 1, 2)
            self.ctx.vars[:] = scope_mark
        self.emit(indent, "}")
        return consumed

    def gen_array_block(self, indent: int) -> int:
        rng = self.ctx.rng
        size = rng.choice(_ARRAY_SIZES)
        arr = self.ctx.fresh_var("a")
        i = self.ctx.fresh_var("i")
        acc = self.ctx.fresh_var("s")
        self.ctx.charge(size + 2)
        self.emit(indent, f"int {arr}[{size}];")
        self.emit(indent, f"for (int {i} = 0; {i} < {size}; ++{i}) {{")
        self.ctx.immutable_vars.append(i)
        self.ctx.loop_depth += 1
        self.emit(indent + 1, f"{arr}[{i}] = {self.expr(1)};")
        self.ctx.loop_depth -= 1
        self.ctx.immutable_vars.remove(i)
        self.emit(indent, "}")
        self.emit(indent, f"int {acc} = {arr}[{rng.randrange(size)}] + {arr}[{rng.randrange(size)}];")
        self.ctx.vars.append(acc)
        return 5

    # -- whole body ----------------------------------------------------------------

    def generate(self, budget: int) -> str:
        # The first statement always carries the designated literal so a
        # CONST_TWEAK edit (const_bias bump) is guaranteed to change the
        # function's text and IR.
        seed_var = self.ctx.fresh_var()
        self.emit(1, f"int {seed_var} = {self.literal()} + ({self.expr(1)});")
        self.ctx.vars.append(seed_var)
        if self.ctx.probe:
            self.emit(1, f"{self.ctx.probe}({seed_var});")
        spent = 1
        while spent < budget:
            spent += self.gen_statement(1, budget - spent)
        self.emit(1, f"return {self.expr()};")
        return "\n".join(self.lines)


def _generate_function(
    module: ModuleSpec,
    fn: FunctionSpec,
    spec: ProjectSpec,
    callees: list[_Callee],
    globals_readable: list[str],
    globals_writable: list[str],
    header_consts: list[str],
    probe: str = "",
) -> str:
    rng = seeded_rng(spec.seed, module.name, fn.name, fn.body_seed)
    params = [f"p{k}" for k in range(fn.num_params)]
    ctx = _BodyContext(
        rng=rng,
        params=params,
        callees=callees,
        globals_readable=globals_readable,
        globals_writable=globals_writable,
        header_consts=header_consts,
        const_bias=fn.const_bias,
        probe=probe,
        cost_cap=_STATIC_COST[fn.size],
    )
    body = _BodyGenerator(ctx).generate(_SIZE_BUDGET[fn.size])
    param_list = ", ".join(f"int {p}" for p in params)
    return f"int {fn.name}({param_list}) {{\n{body}\n}}"


def _probe_name(module: ModuleSpec) -> str:
    return f"{module.name}_probe"


def _generate_probe(module: ModuleSpec) -> str:
    """The purity probe: 20 arithmetic statements, no loop, no memory
    but its own locals, so it is pure unless it prints, and too big for
    the inliner."""
    lines = [f"int {_probe_name(module)}(int p0) {{", "  int v = p0 * 3 + 1;"]
    for k in range(20):
        lines.append(f"  v = v * {k + 3} + (v ^ {k + 1});")
    if module.probe_prints:
        lines.append("  print(v);")
    lines += ["  return v;", "}"]
    return "\n".join(lines)


def _global_names(module: ModuleSpec) -> list[str]:
    return [f"g{module.index}_{k}" for k in range(module.num_globals)]


def _header_const_name(module: ModuleSpec) -> str:
    return f"C{module.index}"


def _generate_header(module: ModuleSpec, spec: ProjectSpec) -> str:
    rng = seeded_rng(spec.seed, module.name, "header")
    lines = [f"// {module.name}.mh — public interface (generated)"]
    base = rng.randint(1, 50)
    lines.append(f"const int {_header_const_name(module)} = {base + module.header_const_bias};")
    for g in _global_names(module):
        lines.append(f"extern int {g};")
    for fn in module.functions:
        if fn.public:
            params = ", ".join(f"int p{k}" for k in range(fn.num_params))
            lines.append(f"int {fn.name}({params});")
    return "\n".join(lines) + "\n"


def _generate_source(module: ModuleSpec, spec: ProjectSpec) -> str:
    rng = seeded_rng(spec.seed, module.name, "source")
    includes = [f'include "{name}.mh";' for name in (module.name, *module.imports)]
    definitions = [f"int {g} = {rng.randint(0, 9)};" for g in _global_names(module)]
    if spec.late_includes:
        # The same includes in the same order, but the first follows a
        # comment and the rest follow the first global's definition.
        definitions[0] = " ".join([definitions[0], *includes[1:]])
        includes = [f"/* interface */ {includes[0]}"]
    lines = [
        f"// {module.name}.mc (generated) — revision {module.comment_revision}",
        *includes,
        "",
        *definitions,
        "",
    ]

    own_globals = _global_names(module)
    header_consts = [_header_const_name(module)] + [
        _header_const_name(spec.module_by_name(m)) for m in module.imports
    ]
    imported_callees = [
        _Callee(f.name, f.num_params, _STATIC_COST[f.size])
        for m in module.imports
        for f in spec.module_by_name(m).functions
        if f.public
    ]

    if module.probe_prints is not None:
        lines.append(_generate_probe(module))
        lines.append("")
    earlier: list[_Callee] = []
    for fn in module.functions:
        callees = list(imported_callees) + list(earlier)
        probe = ""
        if module.probe_prints is not None and fn is module.functions[-1]:
            probe = _probe_name(module)
        text = _generate_function(
            module, fn, spec, callees, own_globals, own_globals, header_consts, probe
        )
        lines.append(text)
        lines.append("")
        earlier.append(_Callee(fn.name, fn.num_params, _STATIC_COST[fn.size]))
    return "\n".join(lines)


def _generate_main(spec: ProjectSpec) -> str:
    rng = seeded_rng(spec.seed, "main")
    lines = ["// main.mc (generated)"]
    for module in spec.modules:
        late = f"/* {module.name} */ " if spec.late_includes and module.index % 2 else ""
        lines.append(f'{late}include "{module.name}.mh";')
    lines.append("")
    lines.append("int main() {")
    lines.append("  int total = 0;")
    for module in spec.modules:
        public = [f for f in module.functions if f.public]
        for fn in rng.sample(public, min(2, len(public))):
            args = ", ".join(str(rng.randint(0, 40)) for _ in range(fn.num_params))
            lines.append(f"  total += {fn.name}({args});")
    lines.append("  print(total);")
    lines.append("  return total & 127;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_project(spec: ProjectSpec) -> Project:
    """Render a spec to source files (deterministic)."""
    files: dict[str, str] = {}
    for module in spec.modules:
        files[f"{module.name}.mh"] = _generate_header(module, spec)
        files[f"{module.name}.mc"] = _generate_source(module, spec)
    files["main.mc"] = _generate_main(spec)
    return Project(spec.name, files)
