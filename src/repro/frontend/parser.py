"""Recursive-descent parser for MiniC.

Produces a :class:`repro.frontend.ast.Program`.  Binary expressions are
parsed with precedence climbing.  On a syntax error the parser reports a
diagnostic and resynchronizes at the next statement boundary, so one run
can surface several errors.
"""

from __future__ import annotations

from repro.frontend import ast
from repro.frontend.diagnostics import CompileError, DiagnosticEngine
from repro.frontend.lexer import Lexer, Token, TokenKind
from repro.frontend.limits import ensure_recursion_capacity
from repro.frontend.source import SourceFile
from repro.frontend.types import ArrayType, BOOL, INT, Type, VOID

# Binary operator precedence, higher binds tighter (C-like).
_BINARY_PRECEDENCE: dict[TokenKind, tuple[int, ast.BinaryOp]] = {
    TokenKind.PIPE_PIPE: (1, ast.BinaryOp.LOGOR),
    TokenKind.AMP_AMP: (2, ast.BinaryOp.LOGAND),
    TokenKind.PIPE: (3, ast.BinaryOp.BITOR),
    TokenKind.CARET: (4, ast.BinaryOp.BITXOR),
    TokenKind.AMP: (5, ast.BinaryOp.BITAND),
    TokenKind.EQ: (6, ast.BinaryOp.EQ),
    TokenKind.NE: (6, ast.BinaryOp.NE),
    TokenKind.LT: (7, ast.BinaryOp.LT),
    TokenKind.LE: (7, ast.BinaryOp.LE),
    TokenKind.GT: (7, ast.BinaryOp.GT),
    TokenKind.GE: (7, ast.BinaryOp.GE),
    TokenKind.SHL: (8, ast.BinaryOp.SHL),
    TokenKind.SHR: (8, ast.BinaryOp.SHR),
    TokenKind.PLUS: (9, ast.BinaryOp.ADD),
    TokenKind.MINUS: (9, ast.BinaryOp.SUB),
    TokenKind.STAR: (10, ast.BinaryOp.MUL),
    TokenKind.SLASH: (10, ast.BinaryOp.DIV),
    TokenKind.PERCENT: (10, ast.BinaryOp.MOD),
}

_COMPOUND_ASSIGN: dict[TokenKind, ast.BinaryOp] = {
    TokenKind.PLUS_ASSIGN: ast.BinaryOp.ADD,
    TokenKind.MINUS_ASSIGN: ast.BinaryOp.SUB,
    TokenKind.STAR_ASSIGN: ast.BinaryOp.MUL,
    TokenKind.SLASH_ASSIGN: ast.BinaryOp.DIV,
    TokenKind.PERCENT_ASSIGN: ast.BinaryOp.MOD,
}

#: Prefix operators; ``++``/``--`` map to ``None`` and parse as IncDec.
_PREFIX_OPS: dict[TokenKind, ast.UnaryOp | None] = {
    TokenKind.MINUS: ast.UnaryOp.NEG,
    TokenKind.BANG: ast.UnaryOp.NOT,
    TokenKind.TILDE: ast.UnaryOp.BITNOT,
    TokenKind.PLUS_PLUS: None,
    TokenKind.MINUS_MINUS: None,
}

_TYPE_KEYWORDS = (TokenKind.KW_INT, TokenKind.KW_BOOL, TokenKind.KW_VOID)


class _SyntaxError(Exception):
    """Internal: thrown to unwind to the nearest recovery point."""


class Parser:
    """Parses a token stream into an AST."""

    def __init__(self, tokens: list[Token], diags: DiagnosticEngine):
        if not tokens or tokens[-1].kind is not TokenKind.EOF:
            raise ValueError("token stream must end with EOF")
        ensure_recursion_capacity()  # deep expression trees recurse
        self.tokens = tokens
        self.diags = diags
        self._pos = 0
        #: The current token, ``tokens[_pos]``; the parse reads it as an
        #: attribute, not through a method per token.
        self._tok = tokens[0]

    # -- token stream helpers ---------------------------------------------

    def _advance(self) -> Token:
        tok = self._tok
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
            self._tok = self.tokens[self._pos]
        return tok

    def _accept(self, kind: TokenKind) -> Token | None:
        tok = self._tok
        if tok.kind is not kind:
            return None
        self._pos += 1
        self._tok = self.tokens[self._pos]
        return tok

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        tok = self._tok
        if tok.kind is kind:
            self._pos += 1
            self._tok = self.tokens[self._pos]
            return tok
        where = f" {context}" if context else ""
        self.diags.error(
            f"expected {kind.value!r}{where}, found {self._tok.text or 'end of file'!r}",
            self._tok.span,
        )
        raise _SyntaxError

    def _synchronize(self) -> None:
        """Skip tokens until a likely statement/item boundary."""
        while self._tok.kind is not TokenKind.EOF:
            if self._accept(TokenKind.SEMI):
                return
            if self._tok.kind in (TokenKind.RBRACE, *_TYPE_KEYWORDS, TokenKind.KW_EXTERN,
                                  TokenKind.KW_CONST, TokenKind.KW_INCLUDE):
                return
            self._advance()

    # -- top level ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        start = self._tok.span
        items: list[ast.Node] = []
        while self._tok.kind is not TokenKind.EOF:
            before = self._pos
            try:
                item = self._parse_item()
                if item is not None:
                    items.append(item)
            except _SyntaxError:
                self._synchronize()
            if self._pos == before:  # guarantee progress on pathological input
                self._advance()
        span = start.merge(self._tok.span)
        return ast.Program(span, items)

    def _parse_item(self) -> ast.Node | None:
        if self._tok.kind is TokenKind.KW_INCLUDE:
            return self._parse_include()
        if self._tok.kind is TokenKind.KW_EXTERN:
            return self._parse_extern()
        return self._parse_global_or_function()

    def _parse_include(self) -> ast.IncludeDirective:
        kw = self._expect(TokenKind.KW_INCLUDE)
        path_tok = self._expect(TokenKind.STRING_LIT, "after 'include'")
        semi = self._expect(TokenKind.SEMI, "after include path")
        return ast.IncludeDirective(kw.span.merge(semi.span), str(path_tok.value))

    def _parse_type(self) -> Type:
        tok = self._advance()
        if tok.kind is TokenKind.KW_INT:
            return INT
        if tok.kind is TokenKind.KW_BOOL:
            return BOOL
        if tok.kind is TokenKind.KW_VOID:
            return VOID
        self.diags.error(f"expected a type, found {tok.text!r}", tok.span)
        raise _SyntaxError

    def _parse_extern(self) -> ast.Node:
        kw = self._expect(TokenKind.KW_EXTERN)
        base = self._parse_type()
        name = self._expect(TokenKind.IDENT, "in extern declaration")
        if self._tok.kind is TokenKind.LPAREN:
            params = self._parse_params()
            semi = self._expect(TokenKind.SEMI, "after extern function declaration")
            return ast.FunctionDecl(
                kw.span.merge(semi.span), name.text, base, params, body=None, is_extern=True
            )
        ty: Type = base
        if self._accept(TokenKind.LBRACKET):
            if base is not INT:
                self.diags.error("arrays must have element type 'int'", kw.span)
            size_tok = self._accept(TokenKind.INT_LIT)
            self._expect(TokenKind.RBRACKET)
            ty = ArrayType(int(size_tok.value) if size_tok else None)
        semi = self._expect(TokenKind.SEMI, "after extern variable declaration")
        return ast.GlobalVarDecl(
            kw.span.merge(semi.span), name.text, ty, init=None, is_extern=True
        )

    def _parse_global_or_function(self) -> ast.Node:
        start = self._tok.span
        is_const = self._accept(TokenKind.KW_CONST) is not None
        base = self._parse_type()
        name = self._expect(TokenKind.IDENT, "in top-level declaration")
        if self._tok.kind is TokenKind.LPAREN:
            if is_const:
                self.diags.error("'const' is not valid on a function", start)
            params = self._parse_params()
            if self._accept(TokenKind.SEMI):
                return ast.FunctionDecl(
                    start.merge(self.tokens[self._pos - 1].span),
                    name.text, base, params, body=None,
                )
            body = self._parse_block()
            return ast.FunctionDecl(start.merge(body.span), name.text, base, params, body)
        # Global variable.
        ty: Type = base
        if self._accept(TokenKind.LBRACKET):
            if base is not INT:
                self.diags.error("arrays must have element type 'int'", start)
            size_tok = self._expect(TokenKind.INT_LIT, "array size")
            self._expect(TokenKind.RBRACKET)
            ty = ArrayType(int(size_tok.value))
        init = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_expr()
        semi = self._expect(TokenKind.SEMI, "after global declaration")
        return ast.GlobalVarDecl(start.merge(semi.span), name.text, ty, init, is_const=is_const)

    def _parse_params(self) -> list[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if self._accept(TokenKind.RPAREN):
            return params
        if (
            self._tok.kind is TokenKind.KW_VOID
            and self.tokens[self._pos + 1].kind is TokenKind.RPAREN
        ):
            self._advance()  # C-style `(void)` empty parameter list
            self._expect(TokenKind.RPAREN)
            return params
        while True:
            pstart = self._tok.span
            base = self._parse_type()
            pname = self._expect(TokenKind.IDENT, "parameter name")
            ty: Type = base
            if self._accept(TokenKind.LBRACKET):
                if base is not INT:
                    self.diags.error("arrays must have element type 'int'", pstart)
                size_tok = self._accept(TokenKind.INT_LIT)
                self._expect(TokenKind.RBRACKET)
                ty = ArrayType(int(size_tok.value) if size_tok else None)
            params.append(ast.Param(pstart.merge(pname.span), pname.text, ty))
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN, "to close parameter list")
        return params

    # -- statements -----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        lbrace = self._expect(TokenKind.LBRACE)
        stmts: list[ast.Stmt] = []
        while self._tok.kind is not TokenKind.RBRACE and self._tok.kind is not TokenKind.EOF:
            before = self._pos
            try:
                stmts.append(self._parse_stmt())
            except _SyntaxError:
                self._synchronize()
            if self._pos == before:
                self._advance()
        rbrace = self._expect(TokenKind.RBRACE, "to close block")
        return ast.Block(lbrace.span.merge(rbrace.span), stmts)

    def _parse_stmt(self) -> ast.Stmt:
        kind = self._tok.kind
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if kind in _TYPE_KEYWORDS or kind is TokenKind.KW_CONST:
            return self._parse_var_decl()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_RETURN:
            return self._parse_return()
        if kind is TokenKind.KW_BREAK:
            tok = self._advance()
            semi = self._expect(TokenKind.SEMI, "after 'break'")
            return ast.BreakStmt(tok.span.merge(semi.span))
        if kind is TokenKind.KW_CONTINUE:
            tok = self._advance()
            semi = self._expect(TokenKind.SEMI, "after 'continue'")
            return ast.ContinueStmt(tok.span.merge(semi.span))
        if kind is TokenKind.SEMI:
            tok = self._advance()  # empty statement
            return ast.Block(tok.span, [])
        expr = self._parse_expr()
        semi = self._expect(TokenKind.SEMI, "after expression statement")
        return ast.ExprStmt(expr.span.merge(semi.span), expr)

    def _parse_var_decl(self) -> ast.VarDeclStmt:
        start = self._tok.span
        self._accept(TokenKind.KW_CONST)  # 'const' locals: parsed, treated as plain
        base = self._parse_type()
        if base is VOID:
            self.diags.error("variables cannot have type 'void'", start)
            raise _SyntaxError
        name = self._expect(TokenKind.IDENT, "variable name")
        ty: Type = base
        if self._accept(TokenKind.LBRACKET):
            if base is not INT:
                self.diags.error("arrays must have element type 'int'", start)
            size_tok = self._expect(TokenKind.INT_LIT, "array size")
            self._expect(TokenKind.RBRACKET)
            ty = ArrayType(int(size_tok.value))
        init = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_expr()
        semi = self._expect(TokenKind.SEMI, "after variable declaration")
        return ast.VarDeclStmt(start.merge(semi.span), name.text, ty, init)

    def _parse_if(self) -> ast.IfStmt:
        kw = self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN, "after 'if'")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "after if condition")
        then = self._parse_stmt()
        otherwise = None
        if self._accept(TokenKind.KW_ELSE):
            otherwise = self._parse_stmt()
        end = otherwise.span if otherwise else then.span
        return ast.IfStmt(kw.span.merge(end), cond, then, otherwise)

    def _parse_while(self) -> ast.WhileStmt:
        kw = self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "after while condition")
        body = self._parse_stmt()
        return ast.WhileStmt(kw.span.merge(body.span), cond, body)

    def _parse_do_while(self) -> ast.DoWhileStmt:
        kw = self._expect(TokenKind.KW_DO)
        body = self._parse_stmt()
        self._expect(TokenKind.KW_WHILE, "after do-while body")
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        semi = self._expect(TokenKind.SEMI, "after do-while")
        return ast.DoWhileStmt(kw.span.merge(semi.span), body, cond)

    def _parse_for(self) -> ast.ForStmt:
        kw = self._expect(TokenKind.KW_FOR)
        self._expect(TokenKind.LPAREN, "after 'for'")
        init: ast.Stmt | None = None
        if not self._accept(TokenKind.SEMI):
            if self._tok.kind in _TYPE_KEYWORDS or self._tok.kind is TokenKind.KW_CONST:
                init = self._parse_var_decl()
            else:
                expr = self._parse_expr()
                semi = self._expect(TokenKind.SEMI, "after for initializer")
                init = ast.ExprStmt(expr.span.merge(semi.span), expr)
        cond = None
        if self._tok.kind is not TokenKind.SEMI:
            cond = self._parse_expr()
        self._expect(TokenKind.SEMI, "after for condition")
        step = None
        if self._tok.kind is not TokenKind.RPAREN:
            step = self._parse_expr()
        self._expect(TokenKind.RPAREN, "to close for header")
        body = self._parse_stmt()
        return ast.ForStmt(kw.span.merge(body.span), init, cond, step, body)

    def _parse_return(self) -> ast.ReturnStmt:
        kw = self._expect(TokenKind.KW_RETURN)
        value = None
        if self._tok.kind is not TokenKind.SEMI:
            value = self._parse_expr()
        semi = self._expect(TokenKind.SEMI, "after return")
        return ast.ReturnStmt(kw.span.merge(semi.span), value)

    # -- expressions ------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        """An expression: an assignment, or a conditional below it."""
        lhs = self._parse_ternary()
        kind = self._tok.kind
        if kind is not TokenKind.ASSIGN and kind not in _COMPOUND_ASSIGN:
            return lhs
        self._advance()
        rhs = self._parse_expr()  # right-associative
        return ast.Assign(lhs.span.merge(rhs.span), lhs, rhs, _COMPOUND_ASSIGN.get(kind))

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._tok.kind is not TokenKind.QUESTION:
            return cond
        self._advance()
        then = self._parse_expr()
        self._expect(TokenKind.COLON, "in conditional expression")
        otherwise = self._parse_ternary()
        return ast.Ternary(cond.span.merge(otherwise.span), cond, then, otherwise)

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            entry = _BINARY_PRECEDENCE.get(self._tok.kind)
            if entry is None or entry[0] < min_prec:
                return lhs
            prec, op = entry
            self._pos += 1  # past the operator (never EOF)
            self._tok = self.tokens[self._pos]
            rhs = self._parse_binary(prec + 1)  # left-associative
            lhs = ast.Binary(lhs.span.merge(rhs.span), op, lhs, rhs)

    def _parse_unary(self) -> ast.Expr:
        tok = self._tok
        kind = tok.kind
        if kind in _PREFIX_OPS:
            self._advance()
            operand = self._parse_unary()
            span = tok.span.merge(operand.span)
            op = _PREFIX_OPS[kind]
            if op is None:
                return ast.IncDec(
                    span, operand, is_increment=kind is TokenKind.PLUS_PLUS, is_prefix=True
                )
            return ast.Unary(span, op, operand)
        # A primary and its postfix operators.
        expr = self._parse_primary()
        while True:
            tok = self._tok
            kind = tok.kind
            if kind is TokenKind.LBRACKET:
                self._advance()
                index = self._parse_expr()
                rb = self._expect(TokenKind.RBRACKET, "to close index")
                expr = ast.ArrayIndex(expr.span.merge(rb.span), expr, index)
            elif kind is TokenKind.PLUS_PLUS or kind is TokenKind.MINUS_MINUS:
                self._advance()
                expr = ast.IncDec(
                    expr.span.merge(tok.span),
                    expr,
                    is_increment=kind is TokenKind.PLUS_PLUS,
                    is_prefix=False,
                )
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._tok
        kind = tok.kind
        if kind is TokenKind.IDENT or kind is TokenKind.INT_LIT:
            self._pos += 1  # past a word (never EOF)
            self._tok = self.tokens[self._pos]
            if kind is TokenKind.INT_LIT:
                return ast.IntLiteral(tok.span, int(tok.value))
            if self._tok.kind is TokenKind.LPAREN:
                return self._parse_call(tok)
            return ast.VarRef(tok.span, tok.text)
        if kind is TokenKind.KW_TRUE or kind is TokenKind.KW_FALSE:
            self._advance()
            return ast.BoolLiteral(tok.span, kind is TokenKind.KW_TRUE)
        if kind is TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN, "to close parenthesized expression")
            return inner
        self.diags.error(f"expected an expression, found {tok.text or 'end of file'!r}", tok.span)
        raise _SyntaxError

    def _parse_call(self, name_tok: Token) -> ast.Call:
        self._expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        if self._tok.kind is not TokenKind.RPAREN:
            while True:
                args.append(self._parse_expr())
                if not self._accept(TokenKind.COMMA):
                    break
        rp = self._expect(TokenKind.RPAREN, "to close call")
        return ast.Call(name_tok.span.merge(rp.span), name_tok.text, args)


def parse_source(
    name: str, text: str, diags: DiagnosticEngine | None = None
) -> tuple[ast.Program, DiagnosticEngine]:
    """Lex and parse source text; returns the program and diagnostics.

    Raises :class:`CompileError` if any syntax errors were reported.
    """
    diags = diags or DiagnosticEngine()
    source = SourceFile(name, text)
    tokens = Lexer(source, diags).tokenize()
    program = Parser(tokens, diags).parse_program()
    if diags.has_errors:
        raise CompileError(diags.errors)
    return program, diags
