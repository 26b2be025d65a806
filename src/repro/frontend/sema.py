"""Semantic analysis for MiniC: name resolution, type checking, const-eval.

:class:`Sema` walks a parsed :class:`~repro.frontend.ast.Program` and

- builds the global symbol table (functions + globals, including items
  merged in from headers),
- resolves every :class:`~repro.frontend.ast.VarRef` / ``Call`` to its
  declaration,
- computes and stores the type of every expression (``expr.ty``),
- evaluates global initializers to compile-time constants
  (``decl.const_value``),
- enforces the language rules (lvalues, loop context for
  ``break``/``continue``, return types, arity, const-ness, ...).

Builtins: ``print(int) -> void`` and ``input() -> int`` are predeclared;
the VM implements them.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.frontend import ast
from repro.frontend.diagnostics import CompileError, DiagnosticEngine
from repro.frontend.limits import ensure_recursion_capacity
from repro.frontend.types import (
    ArrayType,
    BOOL,
    FunctionType,
    INT,
    Type,
    VOID,
)

#: Functions every translation unit can call without declaring.
BUILTIN_FUNCTIONS: dict[str, FunctionType] = {
    "print": FunctionType((INT,), VOID),
    "input": FunctionType((), INT),
}

_INT64_MIN = -(2**63)
_INT64_MASK = 2**64 - 1


def wrap_int64(value: int) -> int:
    """Wrap a Python int into signed 64-bit two's-complement range."""
    value &= _INT64_MASK
    if value >= 2**63:
        value -= 2**64
    return value


class ConstEvalError(Exception):
    """An expression required to be constant is not."""


def eval_const_expr(expr: ast.Expr) -> int | bool:
    """Evaluate a compile-time constant expression.

    Supports literals, unary/binary operators, ternaries, and references
    to ``const`` globals whose values were already computed.  Raises
    :class:`ConstEvalError` for anything else (calls, mutable variables,
    division by zero).
    """
    if isinstance(expr, ast.IntLiteral):
        return wrap_int64(expr.value)
    if isinstance(expr, ast.BoolLiteral):
        return expr.value
    if isinstance(expr, ast.VarRef):
        decl = expr.decl
        if isinstance(decl, ast.GlobalVarDecl) and decl.is_const:
            value = getattr(decl, "const_value", None)
            if value is not None:
                return value
        raise ConstEvalError(f"'{expr.name}' is not a compile-time constant")
    if isinstance(expr, ast.Unary):
        v = eval_const_expr(expr.operand)
        if expr.op is ast.UnaryOp.NEG:
            return wrap_int64(-int(v))
        if expr.op is ast.UnaryOp.NOT:
            return not v
        return wrap_int64(~int(v))
    if isinstance(expr, ast.Ternary):
        return eval_const_expr(expr.then if eval_const_expr(expr.cond) else expr.otherwise)
    if isinstance(expr, ast.Binary):
        return _eval_const_binary(expr)
    raise ConstEvalError(f"{expr.kind_name} is not a constant expression")


def _eval_const_binary(expr: ast.Binary) -> int | bool:
    op = expr.op
    if op is ast.BinaryOp.LOGAND:
        return bool(eval_const_expr(expr.lhs)) and bool(eval_const_expr(expr.rhs))
    if op is ast.BinaryOp.LOGOR:
        return bool(eval_const_expr(expr.lhs)) or bool(eval_const_expr(expr.rhs))
    lhs = eval_const_expr(expr.lhs)
    rhs = eval_const_expr(expr.rhs)
    if op is ast.BinaryOp.EQ:
        return lhs == rhs
    if op is ast.BinaryOp.NE:
        return lhs != rhs
    li, ri = int(lhs), int(rhs)
    if op is ast.BinaryOp.LT:
        return li < ri
    if op is ast.BinaryOp.LE:
        return li <= ri
    if op is ast.BinaryOp.GT:
        return li > ri
    if op is ast.BinaryOp.GE:
        return li >= ri
    if op in (ast.BinaryOp.DIV, ast.BinaryOp.MOD) and ri == 0:
        raise ConstEvalError("division by zero in constant expression")
    result = _ARITH_CONST_OPS[op](li, ri)
    return wrap_int64(result)


def _const_shl(a: int, b: int) -> int:
    return a << (b & 63)


def _const_shr(a: int, b: int) -> int:
    return a >> (b & 63)


def _trunc_div(a: int, b: int) -> int:
    """C-style truncating division."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_mod(a: int, b: int) -> int:
    """C-style remainder: same sign as the dividend."""
    return a - _trunc_div(a, b) * b


_ARITH_CONST_OPS = {
    ast.BinaryOp.ADD: lambda a, b: a + b,
    ast.BinaryOp.SUB: lambda a, b: a - b,
    ast.BinaryOp.MUL: lambda a, b: a * b,
    ast.BinaryOp.DIV: _trunc_div,
    ast.BinaryOp.MOD: _trunc_mod,
    ast.BinaryOp.SHL: _const_shl,
    ast.BinaryOp.SHR: _const_shr,
    ast.BinaryOp.BITAND: lambda a, b: a & b,
    ast.BinaryOp.BITOR: lambda a, b: a | b,
    ast.BinaryOp.BITXOR: lambda a, b: a ^ b,
}


class Scope(Struct):
    """A lexical scope mapping names to their declarations."""

    _fields = ("parent", "symbols")

    def __init__(
        self, parent: Scope | None = None, symbols: dict[str, ast.Node] | None = None
    ) -> None:
        self.parent = parent
        self.symbols = {} if symbols is None else symbols

    def declare(self, name: str, decl: ast.Node) -> bool:
        """Add a binding; returns False if ``name`` is already bound here."""
        if name in self.symbols:
            return False
        self.symbols[name] = decl
        return True

    def lookup(self, name: str) -> ast.Node | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


def _decl_type(decl: ast.Node) -> Type:
    """The source type of a variable-like declaration."""
    if isinstance(decl, (ast.VarDeclStmt, ast.GlobalVarDecl, ast.Param)):
        return decl.declared_type
    raise TypeError(f"not a variable declaration: {decl!r}")


class Sema:
    """Performs semantic analysis over one (merged) program."""

    def __init__(self, diags: DiagnosticEngine | None = None):
        ensure_recursion_capacity()  # expression checking recurses
        self.diags = diags or DiagnosticEngine()
        self.global_scope = Scope()
        self._function: ast.FunctionDecl | None = None
        self._loop_depth = 0
        #: Function signatures, including builtins.
        self.function_types: dict[str, FunctionType] = dict(BUILTIN_FUNCTIONS)

    # -- entry point -------------------------------------------------------

    def run(self, program: ast.Program) -> None:
        """Analyze the whole program, reporting problems to ``diags``."""
        self._collect_globals(program)
        for item in program.items:
            if isinstance(item, ast.FunctionDecl) and item.is_definition:
                self._check_function(item)
        self._check_main(program)

    # -- pass 1: global declarations ----------------------------------------

    def _collect_globals(self, program: ast.Program) -> None:
        for item in program.items:
            if isinstance(item, ast.GlobalVarDecl):
                self._declare_global_var(item)
            elif isinstance(item, ast.FunctionDecl):
                self._declare_function(item)

    def _declare_global_var(self, decl: ast.GlobalVarDecl) -> None:
        if decl.name in BUILTIN_FUNCTIONS:
            self.diags.error(f"'{decl.name}' shadows a builtin function", decl.span)
            return
        if decl.declared_type.is_void:
            self.diags.error("global variables cannot have type 'void'", decl.span)
            return
        if isinstance(decl.declared_type, ArrayType):
            size = decl.declared_type.size
            if size is not None and size <= 0:
                self.diags.error(f"array size must be positive, got {size}", decl.span)
                return
        existing = self.global_scope.symbols.get(decl.name)
        if existing is not None:
            if self._compatible_redeclaration(existing, decl):
                self._maybe_upgrade_declaration(existing, decl)
                return
            self.diags.error(f"redefinition of '{decl.name}'", decl.span)
            return
        self.global_scope.declare(decl.name, decl)
        if decl.init is not None:
            self._check_global_init(decl)
        elif decl.is_const:
            self.diags.error(f"const global '{decl.name}' must have an initializer", decl.span)

    def _check_global_init(self, decl: ast.GlobalVarDecl) -> None:
        assert decl.init is not None
        if isinstance(decl.declared_type, ArrayType):
            self.diags.error("array globals cannot have initializers", decl.span)
            return
        init_ty = self.check_expr(decl.init)
        if init_ty is not None and init_ty != decl.declared_type:
            self.diags.error(
                f"initializer type {init_ty} does not match declared type "
                f"{decl.declared_type}",
                decl.init.span,
            )
            return
        try:
            decl.const_value = eval_const_expr(decl.init)  # type: ignore[attr-defined]
        except ConstEvalError as exc:
            self.diags.error(f"global initializer must be constant: {exc}", decl.init.span)

    def _declare_function(self, decl: ast.FunctionDecl) -> None:
        if decl.name in BUILTIN_FUNCTIONS:
            self.diags.error(f"'{decl.name}' shadows a builtin function", decl.span)
            return
        fn_type = FunctionType(tuple(p.declared_type for p in decl.params), decl.return_type)
        for param in decl.params:
            if param.declared_type.is_void:
                self.diags.error(f"parameter '{param.name}' cannot have type 'void'", param.span)
        existing = self.global_scope.symbols.get(decl.name)
        if existing is not None:
            if isinstance(existing, ast.FunctionDecl):
                existing_type = self.function_types.get(decl.name)
                if existing_type != fn_type:
                    self.diags.error(
                        f"conflicting declaration of '{decl.name}': {fn_type} vs "
                        f"{existing_type}",
                        decl.span,
                    )
                    return
                if existing.is_definition and decl.is_definition:
                    self.diags.error(f"redefinition of function '{decl.name}'", decl.span)
                    return
                if decl.is_definition:
                    self.global_scope.symbols[decl.name] = decl
                return
            self.diags.error(f"redefinition of '{decl.name}' as a function", decl.span)
            return
        self.global_scope.declare(decl.name, decl)
        self.function_types[decl.name] = fn_type

    @staticmethod
    def _compatible_redeclaration(existing: ast.Node, new: ast.GlobalVarDecl) -> bool:
        """Is ``new`` a valid redeclaration of ``existing``?

        An ``extern`` declaration followed by (or following) a definition
        of the same type is fine; two definitions are not.
        """
        if not isinstance(existing, ast.GlobalVarDecl):
            return False
        if existing.declared_type != new.declared_type:
            return False
        return existing.is_extern or new.is_extern

    def _maybe_upgrade_declaration(self, existing: ast.GlobalVarDecl, new: ast.GlobalVarDecl) -> None:
        """If the new declaration is a definition, let it win in the scope."""
        if existing.is_extern and not new.is_extern:
            self.global_scope.symbols[new.name] = new
            if new.init is not None:
                self._check_global_init(new)

    def _check_main(self, program: ast.Program) -> None:
        main = self.global_scope.symbols.get("main")
        if main is None:
            return  # libraries without main are fine
        if not isinstance(main, ast.FunctionDecl):
            self.diags.error("'main' must be a function", main.span)
            return
        fn_type = self.function_types["main"]
        if fn_type.ret != INT or fn_type.params:
            self.diags.error("'main' must have signature 'int main()'", main.span)

    # -- pass 2: function bodies ------------------------------------------------

    def _check_function(self, decl: ast.FunctionDecl) -> None:
        assert decl.body is not None
        self._function = decl
        scope = Scope(parent=self.global_scope)
        for param in decl.params:
            if not scope.declare(param.name, param):
                self.diags.error(f"duplicate parameter '{param.name}'", param.span)
        self._check_block(decl.body, scope)
        if not decl.return_type.is_void and not _always_returns(decl.body):
            self.diags.warning(
                f"function '{decl.name}' may reach the end without returning a value",
                decl.span,
            )
        self._function = None

    def _check_block(self, block: ast.Block, parent: Scope) -> None:
        scope = Scope(parent=parent)
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.VarDeclStmt):
            self._check_var_decl(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._check_condition(stmt.cond, scope, "if")
            self._check_stmt(stmt.then, Scope(parent=scope))
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, Scope(parent=scope))
        elif isinstance(stmt, ast.WhileStmt):
            self._check_condition(stmt.cond, scope, "while")
            self._in_loop(stmt.body, Scope(parent=scope))
        elif isinstance(stmt, ast.DoWhileStmt):
            self._in_loop(stmt.body, Scope(parent=scope))
            self._check_condition(stmt.cond, scope, "do-while")
        elif isinstance(stmt, ast.ForStmt):
            header_scope = Scope(parent=scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, header_scope)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, header_scope, "for")
            if stmt.step is not None:
                self.check_expr(stmt.step, header_scope)
            self._in_loop(stmt.body, Scope(parent=header_scope))
        elif isinstance(stmt, ast.ReturnStmt):
            self._check_return(stmt, scope)
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self._loop_depth == 0:
                word = "break" if isinstance(stmt, ast.BreakStmt) else "continue"
                self.diags.error(f"'{word}' outside of a loop", stmt.span)
        else:  # pragma: no cover - parser produces no other statements
            raise AssertionError(f"unhandled statement {stmt.kind_name}")

    def _in_loop(self, body: ast.Stmt, scope: Scope) -> None:
        self._loop_depth += 1
        try:
            self._check_stmt(body, scope)
        finally:
            self._loop_depth -= 1

    def _check_var_decl(self, stmt: ast.VarDeclStmt, scope: Scope) -> None:
        if isinstance(stmt.declared_type, ArrayType):
            size = stmt.declared_type.size
            if size is None:
                self.diags.error("local array needs an explicit size", stmt.span)
            elif size <= 0:
                self.diags.error(f"array size must be positive, got {size}", stmt.span)
            if stmt.init is not None:
                self.diags.error("array locals cannot have initializers", stmt.span)
        elif stmt.init is not None:
            init_ty = self.check_expr(stmt.init, scope)
            if init_ty is not None and init_ty != stmt.declared_type:
                self.diags.error(
                    f"cannot initialize {stmt.declared_type} variable "
                    f"'{stmt.name}' with {init_ty}",
                    stmt.init.span,
                )
        if not scope.declare(stmt.name, stmt):
            self.diags.error(f"redeclaration of '{stmt.name}' in the same scope", stmt.span)

    def _check_condition(self, cond: ast.Expr, scope: Scope, context: str) -> None:
        ty = self.check_expr(cond, scope)
        if ty is not None and ty != BOOL:
            self.diags.error(f"{context} condition must be bool, got {ty}", cond.span)

    def _check_return(self, stmt: ast.ReturnStmt, scope: Scope) -> None:
        assert self._function is not None
        expected = self._function.return_type
        if stmt.value is None:
            if not expected.is_void:
                self.diags.error(
                    f"function '{self._function.name}' must return {expected}", stmt.span
                )
            return
        actual = self.check_expr(stmt.value, scope)
        if expected.is_void:
            self.diags.error(
                f"void function '{self._function.name}' cannot return a value", stmt.span
            )
        elif actual is not None and actual != expected:
            self.diags.error(f"return type mismatch: expected {expected}, got {actual}", stmt.span)

    # -- expressions --------------------------------------------------------------

    def check_expr(self, expr: ast.Expr, scope: Scope | None = None) -> Type | None:
        """Type-check ``expr``; returns its type or None after an error."""
        scope = scope or self.global_scope
        ty = self._compute_expr_type(expr, scope)
        expr.ty = ty
        return ty

    def _compute_expr_type(self, expr: ast.Expr, scope: Scope) -> Type | None:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.VarRef):
            return self._check_var_ref(expr, scope)
        if isinstance(expr, ast.ArrayIndex):
            return self._check_index(expr, scope)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, scope)
        if isinstance(expr, ast.Assign):
            return self._check_assign(expr, scope)
        if isinstance(expr, ast.IncDec):
            return self._check_incdec(expr, scope)
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.Ternary):
            return self._check_ternary(expr, scope)
        raise AssertionError(f"unhandled expression {expr.kind_name}")  # pragma: no cover

    def _check_var_ref(self, expr: ast.VarRef, scope: Scope) -> Type | None:
        decl = scope.lookup(expr.name)
        if decl is None:
            self.diags.error(f"use of undeclared identifier '{expr.name}'", expr.span)
            return None
        if isinstance(decl, ast.FunctionDecl):
            self.diags.error(f"function '{expr.name}' used as a value", expr.span)
            return None
        expr.decl = decl
        return _decl_type(decl)

    def _check_index(self, expr: ast.ArrayIndex, scope: Scope) -> Type | None:
        base_ty = self.check_expr(expr.base, scope)
        index_ty = self.check_expr(expr.index, scope)
        ok = True
        if base_ty is not None and not base_ty.is_array:
            self.diags.error(f"cannot index non-array type {base_ty}", expr.base.span)
            ok = False
        if index_ty is not None and index_ty != INT:
            self.diags.error(f"array index must be int, got {index_ty}", expr.index.span)
            ok = False
        return INT if ok else None

    def _check_unary(self, expr: ast.Unary, scope: Scope) -> Type | None:
        operand_ty = self.check_expr(expr.operand, scope)
        if operand_ty is None:
            return None
        if expr.op is ast.UnaryOp.NOT:
            if operand_ty != BOOL:
                self.diags.error(f"'!' needs a bool operand, got {operand_ty}", expr.span)
                return None
            return BOOL
        if operand_ty != INT:
            self.diags.error(
                f"'{expr.op.value}' needs an int operand, got {operand_ty}", expr.span
            )
            return None
        return INT

    def _check_binary(self, expr: ast.Binary, scope: Scope) -> Type | None:
        lhs_ty = self.check_expr(expr.lhs, scope)
        rhs_ty = self.check_expr(expr.rhs, scope)
        if lhs_ty is None or rhs_ty is None:
            return None
        op = expr.op
        if op.is_logical:
            if lhs_ty != BOOL or rhs_ty != BOOL:
                self.diags.error(f"'{op.value}' needs bool operands", expr.span)
                return None
            return BOOL
        if op in (ast.BinaryOp.EQ, ast.BinaryOp.NE):
            if lhs_ty != rhs_ty or not lhs_ty.is_scalar:
                self.diags.error(
                    f"cannot compare {lhs_ty} with {rhs_ty} using '{op.value}'", expr.span
                )
                return None
            return BOOL
        if lhs_ty != INT or rhs_ty != INT:
            self.diags.error(
                f"'{op.value}' needs int operands, got {lhs_ty} and {rhs_ty}", expr.span
            )
            return None
        return BOOL if op.is_comparison else INT

    def _lvalue_check(self, target: ast.Expr, what: str) -> bool:
        """Verify ``target`` is assignable; reports an error if not."""
        if isinstance(target, ast.ArrayIndex):
            return True
        if isinstance(target, ast.VarRef):
            decl = target.decl
            if isinstance(decl, ast.GlobalVarDecl) and decl.is_const:
                self.diags.error(f"cannot {what} const global '{target.name}'", target.span)
                return False
            if decl is not None and _decl_type(decl).is_array:
                self.diags.error(f"cannot {what} an entire array", target.span)
                return False
            return True
        self.diags.error(f"cannot {what} this expression (not an lvalue)", target.span)
        return False

    def _check_assign(self, expr: ast.Assign, scope: Scope) -> Type | None:
        target_ty = self.check_expr(expr.target, scope)
        value_ty = self.check_expr(expr.value, scope)
        if not self._lvalue_check(expr.target, "assign to"):
            return None
        if target_ty is None or value_ty is None:
            return None
        if expr.op is not None and (target_ty != INT or value_ty != INT):
            self.diags.error(
                f"compound assignment needs int operands, got {target_ty} and {value_ty}",
                expr.span,
            )
            return None
        if target_ty != value_ty:
            self.diags.error(f"cannot assign {value_ty} to {target_ty}", expr.span)
            return None
        return target_ty

    def _check_incdec(self, expr: ast.IncDec, scope: Scope) -> Type | None:
        target_ty = self.check_expr(expr.target, scope)
        word = "increment" if expr.is_increment else "decrement"
        if not self._lvalue_check(expr.target, word):
            return None
        if target_ty is not None and target_ty != INT:
            self.diags.error(f"cannot {word} {target_ty}", expr.span)
            return None
        return INT

    def _check_call(self, expr: ast.Call, scope: Scope) -> Type | None:
        arg_types = [self.check_expr(arg, scope) for arg in expr.args]
        fn_type = self.function_types.get(expr.callee)
        if fn_type is None:
            decl = scope.lookup(expr.callee)
            if decl is not None and not isinstance(decl, ast.FunctionDecl):
                self.diags.error(f"'{expr.callee}' is not a function", expr.span)
            else:
                self.diags.error(f"call to undeclared function '{expr.callee}'", expr.span)
            return None
        expr.decl = self.global_scope.symbols.get(expr.callee)
        if len(arg_types) != len(fn_type.params):
            self.diags.error(
                f"'{expr.callee}' expects {len(fn_type.params)} argument(s), "
                f"got {len(arg_types)}",
                expr.span,
            )
            return fn_type.ret
        for i, (actual, expected) in enumerate(zip(arg_types, fn_type.params)):
            if actual is None:
                continue
            if expected.is_array:
                if not actual.is_array:
                    self.diags.error(
                        f"argument {i + 1} to '{expr.callee}' must be an array", expr.args[i].span
                    )
            elif actual != expected:
                self.diags.error(
                    f"argument {i + 1} to '{expr.callee}': expected {expected}, got {actual}",
                    expr.args[i].span,
                )
        return fn_type.ret

    def _check_ternary(self, expr: ast.Ternary, scope: Scope) -> Type | None:
        cond_ty = self.check_expr(expr.cond, scope)
        then_ty = self.check_expr(expr.then, scope)
        else_ty = self.check_expr(expr.otherwise, scope)
        if cond_ty is not None and cond_ty != BOOL:
            self.diags.error(f"ternary condition must be bool, got {cond_ty}", expr.cond.span)
        if then_ty is None or else_ty is None:
            return None
        if then_ty != else_ty or not then_ty.is_scalar:
            self.diags.error(
                f"ternary branches must have the same scalar type, got {then_ty} and {else_ty}",
                expr.span,
            )
            return None
        return then_ty


def _always_returns(stmt: ast.Stmt) -> bool:
    """Conservative 'all paths return' analysis for the missing-return warning."""
    if isinstance(stmt, ast.ReturnStmt):
        return True
    if isinstance(stmt, ast.Block):
        return any(_always_returns(s) for s in stmt.stmts)
    if isinstance(stmt, ast.IfStmt):
        return (
            stmt.otherwise is not None
            and _always_returns(stmt.then)
            and _always_returns(stmt.otherwise)
        )
    if isinstance(stmt, ast.DoWhileStmt):
        return _always_returns(stmt.body)
    return False


def analyze(program: ast.Program, diags: DiagnosticEngine | None = None) -> Sema:
    """Run semantic analysis; raises :class:`CompileError` on errors."""
    sema = Sema(diags)
    sema.run(program)
    if sema.diags.has_errors:
        raise CompileError(sema.diags.errors)
    return sema
