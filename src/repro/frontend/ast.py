"""AST node definitions for MiniC.

Nodes are written-out value classes (:class:`repro._struct.Struct`).
Every node carries a source span for diagnostics.  Semantic analysis
(:mod:`repro.frontend.sema`) annotates expression nodes with their
computed type in the ``ty`` field and resolves name references to
declarations.

The hierarchy:

- :class:`Program` — one parsed translation unit.
- Top-level items: :class:`IncludeDirective`, :class:`GlobalVarDecl`,
  :class:`FunctionDecl`.
- Statements: subclasses of :class:`Stmt`.
- Expressions: subclasses of :class:`Expr`.
"""

from __future__ import annotations

import enum

from repro._struct import Struct
from repro.frontend.source import SourceSpan
from repro.frontend.types import Type


class Node(Struct):
    """Base class of all AST nodes."""

    _fields = ("span",)

    def __init__(self, span: SourceSpan) -> None:
        self.span = span

    @property
    def kind_name(self) -> str:
        return type(self).__name__


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions.

    ``ty`` is filled in by semantic analysis; it takes no part in
    equality.
    """

    def __init__(self, span: SourceSpan) -> None:
        self.span = span
        self.ty: Type | None = None


class IntLiteral(Expr):
    _fields = ("span", "value")

    def __init__(self, span: SourceSpan, value: int) -> None:
        self.span = span
        self.ty = None
        self.value = value


class BoolLiteral(Expr):
    _fields = ("span", "value")

    def __init__(self, span: SourceSpan, value: bool) -> None:
        self.span = span
        self.ty = None
        self.value = value


class VarRef(Expr):
    """A reference to a named variable or constant.

    ``decl`` is resolved by sema to the defining :class:`VarDeclStmt`,
    :class:`GlobalVarDecl`, or :class:`Param`; it takes no part in
    equality.
    """

    _fields = ("span", "name")

    def __init__(self, span: SourceSpan, name: str) -> None:
        self.span = span
        self.ty = None
        self.name = name
        self.decl: object | None = None


class ArrayIndex(Expr):
    """``base[index]`` — base must be an array-typed lvalue."""

    _fields = ("span", "base", "index")

    def __init__(self, span: SourceSpan, base: Expr, index: Expr) -> None:
        self.span = span
        self.ty = None
        self.base = base
        self.index = index


class UnaryOp(enum.Enum):
    __hash__ = object.__hash__  # by identity, in C

    NEG = "-"
    NOT = "!"
    BITNOT = "~"


class Unary(Expr):
    _fields = ("span", "op", "operand")

    def __init__(self, span: SourceSpan, op: UnaryOp, operand: Expr) -> None:
        self.span = span
        self.ty = None
        self.op = op
        self.operand = operand


class BinaryOp(enum.Enum):
    __hash__ = object.__hash__  # by identity, in C

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    SHL = "<<"
    SHR = ">>"
    BITAND = "&"
    BITOR = "|"
    BITXOR = "^"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    LOGAND = "&&"
    LOGOR = "||"

    @property
    def is_comparison(self) -> bool:
        return self in (
            BinaryOp.LT,
            BinaryOp.LE,
            BinaryOp.GT,
            BinaryOp.GE,
            BinaryOp.EQ,
            BinaryOp.NE,
        )

    @property
    def is_logical(self) -> bool:
        return self in (BinaryOp.LOGAND, BinaryOp.LOGOR)


class Binary(Expr):
    _fields = ("span", "op", "lhs", "rhs")

    def __init__(self, span: SourceSpan, op: BinaryOp, lhs: Expr, rhs: Expr) -> None:
        self.span = span
        self.ty = None
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Assign(Expr):
    """``target = value`` or compound ``target op= value``.

    For compound assignment ``op`` holds the underlying arithmetic
    operator (e.g. ``ADD`` for ``+=``); for plain assignment it is
    ``None``.  The target must be an lvalue (``VarRef`` of a scalar or
    ``ArrayIndex``).
    """

    _fields = ("span", "target", "value", "op")

    def __init__(
        self, span: SourceSpan, target: Expr, value: Expr, op: BinaryOp | None = None
    ) -> None:
        self.span = span
        self.ty = None
        self.target = target
        self.value = value
        self.op = op


class IncDec(Expr):
    """``++x`` / ``x++`` / ``--x`` / ``x--``."""

    _fields = ("span", "target", "is_increment", "is_prefix")

    def __init__(
        self, span: SourceSpan, target: Expr, is_increment: bool, is_prefix: bool
    ) -> None:
        self.span = span
        self.ty = None
        self.target = target
        self.is_increment = is_increment
        self.is_prefix = is_prefix


class Call(Expr):
    """A call to a named function.  ``decl`` resolved by sema."""

    _fields = ("span", "callee", "args")

    def __init__(self, span: SourceSpan, callee: str, args: list[Expr]) -> None:
        self.span = span
        self.ty = None
        self.callee = callee
        self.args = args
        self.decl: object | None = None


class Ternary(Expr):
    """``cond ? then : otherwise``."""

    _fields = ("span", "cond", "then", "otherwise")

    def __init__(self, span: SourceSpan, cond: Expr, then: Expr, otherwise: Expr) -> None:
        self.span = span
        self.ty = None
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""


class Block(Stmt):
    _fields = ("span", "stmts")

    def __init__(self, span: SourceSpan, stmts: list[Stmt]) -> None:
        self.span = span
        self.stmts = stmts


class VarDeclStmt(Stmt):
    """Local variable declaration, optionally initialized."""

    _fields = ("span", "name", "declared_type", "init")

    def __init__(
        self, span: SourceSpan, name: str, declared_type: Type, init: Expr | None
    ) -> None:
        self.span = span
        self.name = name
        self.declared_type = declared_type
        self.init = init


class ExprStmt(Stmt):
    _fields = ("span", "expr")

    def __init__(self, span: SourceSpan, expr: Expr) -> None:
        self.span = span
        self.expr = expr


class IfStmt(Stmt):
    _fields = ("span", "cond", "then", "otherwise")

    def __init__(
        self, span: SourceSpan, cond: Expr, then: Stmt, otherwise: Stmt | None
    ) -> None:
        self.span = span
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class WhileStmt(Stmt):
    _fields = ("span", "cond", "body")

    def __init__(self, span: SourceSpan, cond: Expr, body: Stmt) -> None:
        self.span = span
        self.cond = cond
        self.body = body


class DoWhileStmt(Stmt):
    _fields = ("span", "body", "cond")

    def __init__(self, span: SourceSpan, body: Stmt, cond: Expr) -> None:
        self.span = span
        self.body = body
        self.cond = cond


class ForStmt(Stmt):
    """C-style ``for (init; cond; step) body``; each header part optional."""

    _fields = ("span", "init", "cond", "step", "body")

    def __init__(
        self,
        span: SourceSpan,
        init: Stmt | None,
        cond: Expr | None,
        step: Expr | None,
        body: Stmt,
    ) -> None:
        self.span = span
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class ReturnStmt(Stmt):
    _fields = ("span", "value")

    def __init__(self, span: SourceSpan, value: Expr | None) -> None:
        self.span = span
        self.value = value


class BreakStmt(Stmt):
    pass


class ContinueStmt(Stmt):
    pass


# --------------------------------------------------------------------------
# Top-level items
# --------------------------------------------------------------------------


class IncludeDirective(Node):
    """``include "path";`` — textual interface import."""

    _fields = ("span", "path")

    def __init__(self, span: SourceSpan, path: str) -> None:
        self.span = span
        self.path = path


class Param(Node):
    _fields = ("span", "name", "declared_type")

    def __init__(self, span: SourceSpan, name: str, declared_type: Type) -> None:
        self.span = span
        self.name = name
        self.declared_type = declared_type


class GlobalVarDecl(Node):
    """Global variable or constant at file scope.

    ``init`` must be a compile-time constant expression (checked by
    sema).  ``is_extern`` declarations (no storage, defined elsewhere)
    appear in headers.
    """

    _fields = ("span", "name", "declared_type", "init", "is_const", "is_extern")

    def __init__(
        self,
        span: SourceSpan,
        name: str,
        declared_type: Type,
        init: Expr | None,
        is_const: bool = False,
        is_extern: bool = False,
    ) -> None:
        self.span = span
        self.name = name
        self.declared_type = declared_type
        self.init = init
        self.is_const = is_const
        self.is_extern = is_extern


class FunctionDecl(Node):
    """Function definition (``body`` set) or declaration (``body`` None)."""

    _fields = ("span", "name", "return_type", "params", "body", "is_extern")

    def __init__(
        self,
        span: SourceSpan,
        name: str,
        return_type: Type,
        params: list[Param],
        body: Block | None,
        is_extern: bool = False,
    ) -> None:
        self.span = span
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body
        self.is_extern = is_extern

    @property
    def is_definition(self) -> bool:
        return self.body is not None


class Program(Node):
    """One parsed translation unit: ordered top-level items."""

    _fields = ("span", "items")

    def __init__(self, span: SourceSpan, items: list[Node]) -> None:
        self.span = span
        self.items = items

    @property
    def includes(self) -> list[IncludeDirective]:
        return [i for i in self.items if isinstance(i, IncludeDirective)]

    @property
    def functions(self) -> list[FunctionDecl]:
        return [i for i in self.items if isinstance(i, FunctionDecl)]

    @property
    def globals(self) -> list[GlobalVarDecl]:
        return [i for i in self.items if isinstance(i, GlobalVarDecl)]


# --------------------------------------------------------------------------
# Traversal
# --------------------------------------------------------------------------


def iter_children(node: Node):
    """Yield the direct AST-node children of ``node`` in source order."""
    for value in vars(node).values():
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node):
    """Yield ``node`` and all descendants, pre-order."""
    yield node
    for child in iter_children(node):
        yield from walk(child)
