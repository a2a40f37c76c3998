"""Semantic validation for MiniLang: the "compiles" rung of the ladder.

MiniLang is interpreted, so compilation is modeled as a static check:
name resolution (declare-before-use, no shadowing), type checking, control
flow legality (break/continue inside loops, return arity against the
function's return type) and an all-paths-return analysis for non-void
functions. The interpreter runs only programs that pass `validate` with
no errors and checks none of these rules again; `check_call` applies the
same rules to a call made from outside the program, a test's harness call.
"""

from __future__ import annotations

from minigi.lang.ast import (
    ArrayLit,
    Assign,
    Binary,
    Block,
    BoolLit,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    For,
    Function,
    If,
    Index,
    IntLit,
    Return,
    SourceUnit,
    Stmt,
    Type,
    Unary,
    Var,
    VarDecl,
    While,
    record,
)

BUILTINS = ("len", "print")


@record
class SemanticError:
    function: str  # "" for unit-level errors
    message: str

    def __str__(self) -> str:
        return f"{self.function or '<unit>'}: {self.message}"


class _Scope:
    def __init__(self, parent: _Scope | None = None):
        self.parent = parent
        self.names: dict[str, Type] = {}

    def lookup(self, name: str) -> Type | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, name: str, t: Type) -> bool:
        """False when the name is already visible (shadowing is rejected)."""
        if self.lookup(name) is not None:
            return False
        self.names[name] = t
        return True


class _Checker:
    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.errors: list[SemanticError] = []
        self.signatures = {fn.name: fn for fn in unit.functions}
        self.current: Function | None = None

    def error(self, message: str) -> None:
        name = self.current.name if self.current is not None else ""
        self.errors.append(SemanticError(name, message))

    def run(self) -> list[SemanticError]:
        seen = set()
        for fn in self.unit.functions:
            if fn.name in BUILTINS:
                self.errors.append(SemanticError("", f"function name {fn.name!r} is reserved"))
            if fn.name in seen:
                self.errors.append(SemanticError("", f"duplicate function {fn.name!r}"))
            seen.add(fn.name)
        for fn in self.unit.functions:
            self.check_function(fn)
        return self.errors

    def check_function(self, fn: Function) -> None:
        self.current = fn
        scope = _Scope()
        for p in fn.params:
            if p.name in BUILTINS:
                self.error(f"parameter name {p.name!r} is reserved")
            elif not scope.declare(p.name, p.param_type):
                self.error(f"duplicate parameter {p.name!r}")
        self.check_block(fn.body, scope, loop_depth=0)
        if fn.return_type is not Type.VOID and not _always_returns(fn.body):
            self.error("missing return on some control path")
        self.current = None

    # -- statements --

    def check_block(self, block: Block, parent: _Scope, loop_depth: int) -> None:
        scope = _Scope(parent)
        for stmt in block.statements:
            self.check_stmt(stmt, scope, loop_depth)

    def check_stmt(self, stmt: Stmt, scope: _Scope, loop_depth: int) -> None:
        if isinstance(stmt, Block):
            self.check_block(stmt, scope, loop_depth)
        elif isinstance(stmt, VarDecl):
            self.check_decl(stmt, scope)
        elif isinstance(stmt, Assign):
            self.check_assign(stmt, scope)
        elif isinstance(stmt, If):
            self.require(stmt.cond, Type.BOOL, scope, "if condition")
            self.check_block(stmt.then_block, scope, loop_depth)
            if stmt.orelse is not None:
                self.check_stmt(stmt.orelse, scope, loop_depth)
        elif isinstance(stmt, While):
            self.require(stmt.cond, Type.BOOL, scope, "while condition")
            self.check_block(stmt.body, scope, loop_depth + 1)
        elif isinstance(stmt, For):
            inner = _Scope(scope)
            if isinstance(stmt.init, VarDecl):
                self.check_decl(stmt.init, inner)
            else:
                self.check_assign(stmt.init, inner)
            self.require(stmt.cond, Type.BOOL, inner, "for condition")
            self.check_assign(stmt.update, inner)
            self.check_block(stmt.body, inner, loop_depth + 1)
        elif isinstance(stmt, Break):
            if loop_depth == 0:
                self.error("break outside a loop")
        elif isinstance(stmt, Continue):
            if loop_depth == 0:
                self.error("continue outside a loop")
        elif isinstance(stmt, Return):
            self.check_return(stmt, scope)
        elif isinstance(stmt, ExprStmt):
            self.infer(stmt.expr, scope, allow_void_call=True)
        else:
            raise TypeError(f"unknown statement node {stmt!r}")

    def check_decl(self, stmt: VarDecl, scope: _Scope) -> None:
        got = self.infer(stmt.init, scope)
        if got is not None and got is not stmt.var_type:
            self.error(
                f"initializer of {stmt.name!r} has type {got.value}, expected {stmt.var_type.value}"
            )
        if stmt.name in BUILTINS:
            self.error(f"variable name {stmt.name!r} is reserved")
        elif not scope.declare(stmt.name, stmt.var_type):
            self.error(f"redeclaration of {stmt.name!r}")

    def check_assign(self, stmt: Assign, scope: _Scope) -> None:
        value_t = self.infer(stmt.value, scope)
        if isinstance(stmt.target, Var):
            target_t = scope.lookup(stmt.target.name)
            if target_t is None:
                self.error(f"assignment to undeclared variable {stmt.target.name!r}")
                return
        else:
            base = stmt.target.base
            assert isinstance(base, Var)
            base_t = scope.lookup(base.name)
            if base_t is None:
                self.error(f"assignment to undeclared variable {base.name!r}")
                return
            if base_t is not Type.INT_ARRAY:
                self.error(f"{base.name!r} is not an array")
                return
            self.require(stmt.target.index, Type.INT, scope, "array index")
            target_t = Type.INT
        if value_t is not None and value_t is not target_t:
            self.error(f"cannot assign {value_t.value} to {target_t.value} target")

    def check_return(self, stmt: Return, scope: _Scope) -> None:
        assert self.current is not None
        want = self.current.return_type
        if stmt.value is None:
            if want is not Type.VOID:
                self.error(f"return without value in function returning {want.value}")
            return
        if want is Type.VOID:
            self.error("return with value in void function")
            return
        got = self.infer(stmt.value, scope)
        if got is not None and got is not want:
            self.error(f"return type {got.value}, expected {want.value}")

    # -- expressions --

    def require(
        self, expr: Expr, want: Type, scope: _Scope, what: str, subject: str = ""
    ) -> None:
        """Check that `expr` has type `want`. `what` names the operand in the
        error; a `{}` in it stands for `subject`, quoted, and is filled in
        only when the error fires, so a passing check formats nothing."""
        got = self.infer(expr, scope)
        if got is not None and got is not want:
            what = what.format(repr(subject))
            self.error(f"{what} has type {got.value}, expected {want.value}")

    def infer(self, expr: Expr, scope: _Scope, allow_void_call: bool = False) -> Type | None:
        """Expression type, or None when a nested error already fired."""
        if isinstance(expr, IntLit):
            return Type.INT
        if isinstance(expr, BoolLit):
            return Type.BOOL
        if isinstance(expr, ArrayLit):
            for el in expr.elements:
                self.require(el, Type.INT, scope, "array element")
            return Type.INT_ARRAY
        if isinstance(expr, Var):
            t = scope.lookup(expr.name)
            if t is None:
                self.error(f"unknown variable {expr.name!r}")
            return t
        if isinstance(expr, Unary):
            if expr.op == "-":
                self.require(expr.operand, Type.INT, scope, "operand of unary '-'")
                return Type.INT
            self.require(expr.operand, Type.BOOL, scope, "operand of '!'")
            return Type.BOOL
        if isinstance(expr, Binary):
            return self.infer_binary(expr, scope)
        if isinstance(expr, Index):
            self.require(expr.base, Type.INT_ARRAY, scope, "indexed value")
            self.require(expr.index, Type.INT, scope, "array index")
            return Type.INT
        if isinstance(expr, Call):
            return self.infer_call(expr, scope, allow_void_call)
        raise TypeError(f"unknown expression node {expr!r}")

    def infer_binary(self, expr: Binary, scope: _Scope) -> Type | None:
        op = expr.op
        if op in ("&&", "||"):
            self.require(expr.left, Type.BOOL, scope, "operand of {}", op)
            self.require(expr.right, Type.BOOL, scope, "operand of {}", op)
            return Type.BOOL
        if op in ("==", "!="):
            lt = self.infer(expr.left, scope)
            rt = self.infer(expr.right, scope)
            if lt is not None and rt is not None and lt is not rt:
                self.error(f"cannot compare {lt.value} with {rt.value}")
            return Type.BOOL
        if op in ("<", "<=", ">", ">="):
            self.require(expr.left, Type.INT, scope, "operand of {}", op)
            self.require(expr.right, Type.INT, scope, "operand of {}", op)
            return Type.BOOL
        self.require(expr.left, Type.INT, scope, "operand of {}", op)
        self.require(expr.right, Type.INT, scope, "operand of {}", op)
        return Type.INT

    def infer_call(self, expr: Call, scope: _Scope, allow_void_call: bool) -> Type | None:
        if expr.name == "len":
            if len(expr.args) != 1:
                self.error("len takes exactly one argument")
            else:
                self.require(expr.args[0], Type.INT_ARRAY, scope, "argument of len")
            return Type.INT
        if expr.name == "print":
            for arg in expr.args:
                self.infer(arg, scope)
            if not allow_void_call:
                self.error("print used as a value")
                return None
            return Type.VOID
        fn = self.signatures.get(expr.name)
        if fn is None:
            self.error(f"unknown function {expr.name!r}")
            return None
        if len(expr.args) != len(fn.params):
            self.error(
                f"call to {expr.name!r} with {len(expr.args)} arguments, "
                f"expected {len(fn.params)}"
            )
        else:
            for arg, param in zip(expr.args, fn.params):
                self.require(arg, param.param_type, scope, "argument {}", param.name)
        if fn.return_type is Type.VOID and not allow_void_call:
            self.error(f"void call to {expr.name!r} used as a value")
            return None
        return fn.return_type


def _always_returns(stmt: Stmt) -> bool:
    if isinstance(stmt, Return):
        return True
    if isinstance(stmt, Block):
        return any(_always_returns(s) for s in stmt.statements)
    if isinstance(stmt, If):
        if stmt.orelse is None:
            return False
        return _always_returns(stmt.then_block) and _always_returns(stmt.orelse)
    # Loops may run zero iterations; never counted as returning.
    return False


def validate(unit: SourceUnit) -> list[SemanticError]:
    """All semantic errors in the unit; empty list means it compiles."""
    return _Checker(unit).run()


def check_call(unit: SourceUnit, call: Call) -> list[SemanticError]:
    """Errors in a call from outside the unit whose arguments are literals,
    such as a test's harness call; its value must be used, so it may not
    be void."""
    checker = _Checker(unit)
    checker.infer(call, _Scope())
    return checker.errors
