"""Lowering of type-checked MiniC ASTs to IR modules.

Mirrors Clang's -O0 strategy: every local scalar gets a stack slot
(``alloca``) with explicit loads/stores; ``mem2reg`` promotes them to
SSA registers as the first optimization pass.  This keeps lowering
simple and gives the pass pipeline realistic work.

Type mapping: ``int`` -> ``i64``, ``bool`` -> ``i1``, arrays and array
parameters -> ``ptr``, ``void`` -> ``void``.  ``const`` globals are
folded to literals at every use and get no storage; other globals lower
to module storage (or external declarations).
"""

from __future__ import annotations

from repro._struct import Struct
from repro.frontend import ast
from repro.frontend.limits import ensure_recursion_capacity
from repro.frontend.sema import BUILTIN_FUNCTIONS, Sema
from repro.frontend.types import ArrayType, BOOL, FunctionType, INT, Type as SrcType, VOID as SRC_VOID
from repro.ir.builder import IRBuilder
from repro.ir.instructions import ICmpPred, Opcode
from repro.ir.structure import BasicBlock, Function, GlobalVariable, Module
from repro.ir.types import FunctionSig, I1, I64, IRType, PTR, VOID
from repro.ir.values import ConstantInt, GlobalAddr, Value, const_i1, const_i64


class LoweringError(Exception):
    """Internal inconsistency: lowering received an AST sema rejected."""


def lower_type(src: SrcType) -> IRType:
    if src == INT:
        return I64
    if src == BOOL:
        return I1
    if src == SRC_VOID:
        return VOID
    if isinstance(src, ArrayType):
        return PTR
    raise LoweringError(f"cannot lower type {src}")


def lower_signature(fn_type: FunctionType) -> FunctionSig:
    return FunctionSig(
        tuple(lower_type(p) for p in fn_type.params), lower_type(fn_type.ret)
    )


_BINOP_TO_OPCODE = {
    ast.BinaryOp.ADD: Opcode.ADD,
    ast.BinaryOp.SUB: Opcode.SUB,
    ast.BinaryOp.MUL: Opcode.MUL,
    ast.BinaryOp.DIV: Opcode.SDIV,
    ast.BinaryOp.MOD: Opcode.SREM,
    ast.BinaryOp.SHL: Opcode.SHL,
    ast.BinaryOp.SHR: Opcode.ASHR,
    ast.BinaryOp.BITAND: Opcode.AND,
    ast.BinaryOp.BITOR: Opcode.OR,
    ast.BinaryOp.BITXOR: Opcode.XOR,
}

_CMP_TO_PRED = {
    ast.BinaryOp.LT: ICmpPred.SLT,
    ast.BinaryOp.LE: ICmpPred.SLE,
    ast.BinaryOp.GT: ICmpPred.SGT,
    ast.BinaryOp.GE: ICmpPred.SGE,
    ast.BinaryOp.EQ: ICmpPred.EQ,
    ast.BinaryOp.NE: ICmpPred.NE,
}


class _LoopContext(Struct):
    """Branch targets for break/continue inside one loop."""

    _fields = ("break_target", "continue_target")

    def __init__(self, break_target: BasicBlock, continue_target: BasicBlock) -> None:
        self.break_target = break_target
        self.continue_target = continue_target


class _FunctionLowering(Struct):
    """Per-function lowering state."""

    _fields = ("fn", "builder", "sema", "slots", "loops")

    def __init__(
        self,
        fn: Function,
        builder: IRBuilder,
        sema: Sema,
        slots: dict[int, Value] | None = None,
        loops: list[_LoopContext] | None = None,
    ) -> None:
        self.fn = fn
        self.builder = builder
        self.sema = sema
        #: AST declaration object -> IR storage pointer (alloca/GlobalAddr) or,
        #: for array parameters, the incoming ptr Argument itself.
        self.slots = {} if slots is None else slots
        self.loops = [] if loops is None else loops


class Lowerer:
    """Lowers one merged program into one IR module."""

    def __init__(self, sema: Sema, module_name: str):
        ensure_recursion_capacity()  # expression lowering recurses
        self.sema = sema
        self.module = Module(module_name)

    # -- module level -------------------------------------------------------

    def lower(self, program: ast.Program) -> Module:
        self._declare_builtins()
        self._lower_globals(program)
        self._declare_functions(program)
        for item in program.items:
            if isinstance(item, ast.FunctionDecl) and item.is_definition:
                self._lower_function(item)
        return self.module

    def _declare_builtins(self) -> None:
        for name, fn_type in BUILTIN_FUNCTIONS.items():
            self.module.add_function(Function(name, lower_signature(fn_type)))

    def _lower_globals(self, program: ast.Program) -> None:
        # Deduplicate by name: a definition wins over extern declarations.
        chosen: dict[str, ast.GlobalVarDecl] = {}
        for item in program.items:
            if not isinstance(item, ast.GlobalVarDecl):
                continue
            if item.is_const:
                continue  # folded at use sites; no storage
            existing = chosen.get(item.name)
            if existing is None or (existing.is_extern and not item.is_extern):
                chosen[item.name] = item
        for decl in chosen.values():
            size = decl.declared_type.size if isinstance(decl.declared_type, ArrayType) else 1
            if decl.is_extern:
                self.module.add_global(GlobalVariable(decl.name, size or 1, is_external=True))
                continue
            init_value = getattr(decl, "const_value", None)
            init = [int(init_value)] if init_value is not None and size == 1 else [0] * size
            self.module.add_global(GlobalVariable(decl.name, size, init))

    def _declare_functions(self, program: ast.Program) -> None:
        for item in program.items:
            if isinstance(item, ast.FunctionDecl):
                sig = lower_signature(self.sema.function_types[item.name])
                arg_names = [p.name for p in item.params]
                self.module.add_function(Function(item.name, sig, arg_names))

    # -- function level ---------------------------------------------------------

    def _lower_function(self, decl: ast.FunctionDecl) -> None:
        sig = lower_signature(self.sema.function_types[decl.name])
        fn = Function(decl.name, sig, [p.name for p in decl.params])
        # Replace any prior declaration with the definition.
        self.module.functions[decl.name] = fn
        entry = fn.add_block("entry")
        state = _FunctionLowering(fn, IRBuilder(fn, entry), self.sema)

        # Scalar parameters get stack slots (mem2reg promotes them);
        # array parameters are already pointers and are used directly.
        for param_ast, arg in zip(decl.params, fn.args):
            if isinstance(param_ast.declared_type, ArrayType):
                state.slots[id(param_ast)] = arg
            else:
                slot = state.builder.alloca(1, fn.next_name(f"{param_ast.name}.addr"))
                state.builder.store(arg, slot)
                state.slots[id(param_ast)] = slot

        assert decl.body is not None
        self._lower_block(state, decl.body)

        # Fall-through: synthesize a default return.
        if not state.builder.has_terminator:
            if sig.ret is VOID:
                state.builder.ret()
            elif sig.ret is I1:
                state.builder.ret(const_i1(False))
            else:
                state.builder.ret(const_i64(0))

    # -- statements ----------------------------------------------------------------

    def _lower_block(self, state: _FunctionLowering, block: ast.Block) -> None:
        for stmt in block.stmts:
            if state.builder.has_terminator:
                return  # unreachable trailing statements are dropped
            self._lower_stmt(state, stmt)

    def _lower_stmt(self, state: _FunctionLowering, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(state, stmt)
        elif isinstance(stmt, ast.VarDeclStmt):
            self._lower_var_decl(state, stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(state, stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(state, stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(state, stmt)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._lower_do_while(state, stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(state, stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(state, stmt)
        elif isinstance(stmt, ast.BreakStmt):
            state.builder.br(state.loops[-1].break_target)
        elif isinstance(stmt, ast.ContinueStmt):
            state.builder.br(state.loops[-1].continue_target)
        else:  # pragma: no cover
            raise LoweringError(f"unhandled statement {stmt.kind_name}")

    def _lower_var_decl(self, state: _FunctionLowering, stmt: ast.VarDeclStmt) -> None:
        if isinstance(stmt.declared_type, ArrayType):
            assert stmt.declared_type.size is not None
            slot = state.builder.alloca(
                stmt.declared_type.size, state.fn.next_name(f"{stmt.name}.arr")
            )
            state.slots[id(stmt)] = slot
            return
        slot = state.builder.alloca(1, state.fn.next_name(f"{stmt.name}.addr"))
        state.slots[id(stmt)] = slot
        if stmt.init is not None:
            value = self._lower_expr(state, stmt.init)
            state.builder.store(value, slot)

    def _lower_if(self, state: _FunctionLowering, stmt: ast.IfStmt) -> None:
        cond = self._lower_expr(state, stmt.cond)
        then_block = state.fn.add_block(state.fn.next_name("if.then"))
        merge_block = state.fn.add_block(state.fn.next_name("if.end"))
        else_block = (
            state.fn.add_block(state.fn.next_name("if.else"))
            if stmt.otherwise is not None
            else merge_block
        )
        state.builder.cbr(cond, then_block, else_block)

        state.builder.set_block(then_block)
        self._lower_stmt(state, stmt.then)
        if not state.builder.has_terminator:
            state.builder.br(merge_block)

        if stmt.otherwise is not None:
            state.builder.set_block(else_block)
            self._lower_stmt(state, stmt.otherwise)
            if not state.builder.has_terminator:
                state.builder.br(merge_block)

        state.builder.set_block(merge_block)
        self._ensure_block_reachable_or_seal(state, merge_block)

    def _ensure_block_reachable_or_seal(
        self, state: _FunctionLowering, block: BasicBlock
    ) -> None:
        """If a merge block ended up with no predecessors (both arms

        returned), terminate it as unreachable so the function stays
        well-formed; simplifycfg removes it later."""
        preds = state.fn.predecessors()[block]
        if not preds:
            state.builder.unreachable()
            # Continue lowering into a fresh dead block is unnecessary:
            # callers check has_terminator before adding more code.

    def _lower_while(self, state: _FunctionLowering, stmt: ast.WhileStmt) -> None:
        header = state.fn.add_block(state.fn.next_name("while.cond"))
        body = state.fn.add_block(state.fn.next_name("while.body"))
        exit_block = state.fn.add_block(state.fn.next_name("while.end"))

        state.builder.br(header)
        state.builder.set_block(header)
        cond = self._lower_expr(state, stmt.cond)
        state.builder.cbr(cond, body, exit_block)

        state.builder.set_block(body)
        state.loops.append(_LoopContext(exit_block, header))
        self._lower_stmt(state, stmt.body)
        state.loops.pop()
        if not state.builder.has_terminator:
            state.builder.br(header)

        state.builder.set_block(exit_block)

    def _lower_do_while(self, state: _FunctionLowering, stmt: ast.DoWhileStmt) -> None:
        body = state.fn.add_block(state.fn.next_name("do.body"))
        cond_block = state.fn.add_block(state.fn.next_name("do.cond"))
        exit_block = state.fn.add_block(state.fn.next_name("do.end"))

        state.builder.br(body)
        state.builder.set_block(body)
        state.loops.append(_LoopContext(exit_block, cond_block))
        self._lower_stmt(state, stmt.body)
        state.loops.pop()
        if not state.builder.has_terminator:
            state.builder.br(cond_block)

        state.builder.set_block(cond_block)
        if state.fn.predecessors()[cond_block]:
            cond = self._lower_expr(state, stmt.cond)
            state.builder.cbr(cond, body, exit_block)
        else:
            state.builder.unreachable()

        state.builder.set_block(exit_block)
        self._ensure_block_reachable_or_seal(state, exit_block)

    def _lower_for(self, state: _FunctionLowering, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self._lower_stmt(state, stmt.init)

        header = state.fn.add_block(state.fn.next_name("for.cond"))
        body = state.fn.add_block(state.fn.next_name("for.body"))
        step_block = state.fn.add_block(state.fn.next_name("for.step"))
        exit_block = state.fn.add_block(state.fn.next_name("for.end"))

        state.builder.br(header)
        state.builder.set_block(header)
        if stmt.cond is not None:
            cond = self._lower_expr(state, stmt.cond)
            state.builder.cbr(cond, body, exit_block)
        else:
            state.builder.br(body)

        state.builder.set_block(body)
        state.loops.append(_LoopContext(exit_block, step_block))
        self._lower_stmt(state, stmt.body)
        state.loops.pop()
        if not state.builder.has_terminator:
            state.builder.br(step_block)

        state.builder.set_block(step_block)
        if state.fn.predecessors()[step_block]:
            if stmt.step is not None:
                self._lower_expr(state, stmt.step)
            state.builder.br(header)
        else:
            state.builder.unreachable()

        state.builder.set_block(exit_block)
        self._ensure_block_reachable_or_seal(state, exit_block)

    def _lower_return(self, state: _FunctionLowering, stmt: ast.ReturnStmt) -> None:
        if stmt.value is None:
            state.builder.ret()
        else:
            state.builder.ret(self._lower_expr(state, stmt.value))

    # -- expressions ------------------------------------------------------------------

    def _lower_expr(self, state: _FunctionLowering, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLiteral):
            return const_i64(expr.value)
        if isinstance(expr, ast.BoolLiteral):
            return const_i1(expr.value)
        if isinstance(expr, ast.VarRef):
            return self._lower_var_ref(state, expr)
        if isinstance(expr, ast.ArrayIndex):
            ptr = self._lower_lvalue(state, expr)
            return state.builder.load(I64, ptr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(state, expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(state, expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(state, expr)
        if isinstance(expr, ast.IncDec):
            return self._lower_incdec(state, expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(state, expr)
        if isinstance(expr, ast.Ternary):
            return self._lower_ternary(state, expr)
        raise LoweringError(f"unhandled expression {expr.kind_name}")  # pragma: no cover

    def _lower_var_ref(self, state: _FunctionLowering, expr: ast.VarRef) -> Value:
        decl = expr.decl
        if isinstance(decl, ast.GlobalVarDecl):
            if decl.is_const:
                value = getattr(decl, "const_value", 0)
                return const_i1(value) if decl.declared_type == BOOL else const_i64(int(value))
            if isinstance(decl.declared_type, ArrayType):
                return GlobalAddr(decl.name)
            return state.builder.load(lower_type(decl.declared_type), GlobalAddr(decl.name))
        slot = state.slots[id(decl)]
        decl_type = decl.declared_type  # type: ignore[union-attr]
        if isinstance(decl_type, ArrayType):
            return slot  # arrays decay to their base pointer
        return state.builder.load(lower_type(decl_type), slot)

    def _lower_lvalue(self, state: _FunctionLowering, expr: ast.Expr) -> Value:
        """Lower an assignable expression to a pointer."""
        if isinstance(expr, ast.VarRef):
            decl = expr.decl
            if isinstance(decl, ast.GlobalVarDecl):
                return GlobalAddr(decl.name)
            return state.slots[id(decl)]
        if isinstance(expr, ast.ArrayIndex):
            base = self._lower_expr(state, expr.base)  # ptr value
            index = self._lower_expr(state, expr.index)
            return state.builder.gep(base, index)
        raise LoweringError(f"not an lvalue: {expr.kind_name}")

    def _lower_unary(self, state: _FunctionLowering, expr: ast.Unary) -> Value:
        operand = self._lower_expr(state, expr.operand)
        b = state.builder
        if expr.op is ast.UnaryOp.NEG:
            return b.binary(Opcode.SUB, const_i64(0), operand)
        if expr.op is ast.UnaryOp.NOT:
            # i1 logical not == xor with true, via select for i1 typing.
            return b.select(operand, const_i1(False), const_i1(True))
        return b.binary(Opcode.XOR, operand, const_i64(-1))

    def _lower_binary(self, state: _FunctionLowering, expr: ast.Binary) -> Value:
        op = expr.op
        if op.is_logical:
            return self._lower_short_circuit(state, expr)
        lhs = self._lower_expr(state, expr.lhs)
        rhs = self._lower_expr(state, expr.rhs)
        b = state.builder
        if op in _CMP_TO_PRED:
            if lhs.ty is I1:  # bool == / != : compare as integers
                lhs = b.zext(lhs)
                rhs = b.zext(rhs)
            return b.icmp(_CMP_TO_PRED[op], lhs, rhs)
        return b.binary(_BINOP_TO_OPCODE[op], lhs, rhs)

    def _lower_short_circuit(self, state: _FunctionLowering, expr: ast.Binary) -> Value:
        """``a && b`` / ``a || b`` with proper short-circuit control flow."""
        b = state.builder
        fn = state.fn
        is_and = expr.op is ast.BinaryOp.LOGAND

        lhs = self._lower_expr(state, expr.lhs)
        lhs_block = b.block
        assert lhs_block is not None
        rhs_block = fn.add_block(fn.next_name("sc.rhs"))
        merge_block = fn.add_block(fn.next_name("sc.end"))
        if is_and:
            b.cbr(lhs, rhs_block, merge_block)
        else:
            b.cbr(lhs, merge_block, rhs_block)

        b.set_block(rhs_block)
        rhs = self._lower_expr(state, expr.rhs)
        rhs_exit = b.block
        assert rhs_exit is not None
        b.br(merge_block)

        b.set_block(merge_block)
        phi = b.phi(I1)
        phi.add_incoming(const_i1(not is_and), lhs_block)
        phi.add_incoming(rhs, rhs_exit)
        return phi

    def _lower_assign(self, state: _FunctionLowering, expr: ast.Assign) -> Value:
        ptr = self._lower_lvalue(state, expr.target)
        if expr.op is None:
            value = self._lower_expr(state, expr.value)
        else:
            current = state.builder.load(I64, ptr)
            rhs = self._lower_expr(state, expr.value)
            value = state.builder.binary(_BINOP_TO_OPCODE[expr.op], current, rhs)
        state.builder.store(value, ptr)
        return value

    def _lower_incdec(self, state: _FunctionLowering, expr: ast.IncDec) -> Value:
        ptr = self._lower_lvalue(state, expr.target)
        old = state.builder.load(I64, ptr)
        delta = const_i64(1 if expr.is_increment else -1)
        new = state.builder.binary(Opcode.ADD, old, delta)
        state.builder.store(new, ptr)
        return new if expr.is_prefix else old

    def _lower_call(self, state: _FunctionLowering, expr: ast.Call) -> Value:
        sig = lower_signature(self.sema.function_types[expr.callee])
        args = [self._lower_expr(state, arg) for arg in expr.args]
        return state.builder.call(expr.callee, sig, args)

    def _lower_ternary(self, state: _FunctionLowering, expr: ast.Ternary) -> Value:
        b = state.builder
        fn = state.fn
        cond = self._lower_expr(state, expr.cond)
        then_block = fn.add_block(fn.next_name("sel.then"))
        else_block = fn.add_block(fn.next_name("sel.else"))
        merge_block = fn.add_block(fn.next_name("sel.end"))
        b.cbr(cond, then_block, else_block)

        b.set_block(then_block)
        then_value = self._lower_expr(state, expr.then)
        then_exit = b.block
        b.br(merge_block)

        b.set_block(else_block)
        else_value = self._lower_expr(state, expr.otherwise)
        else_exit = b.block
        b.br(merge_block)

        b.set_block(merge_block)
        phi = b.phi(then_value.ty)
        phi.add_incoming(then_value, then_exit)
        phi.add_incoming(else_value, else_exit)
        return phi


def lower_program(program: ast.Program, sema: Sema, module_name: str) -> Module:
    """Lower a merged, sema-checked program to an IR module."""
    return Lowerer(sema, module_name).lower(program)


def lower_unit(resolved, sema: Sema, module_name: str) -> Module:
    """Lower a :class:`~repro.frontend.includes.ResolvedUnit`."""
    return lower_program(resolved.merged, sema, module_name)
