"""Semantic validation for MiniLang: the "compiles" rung of the ladder.

MiniLang is interpreted, so compilation is modeled as a static check:
name resolution (declare-before-use, no shadowing), type checking, control
flow legality (break/continue inside loops, return arity against the
function's return type) and an all-paths-return analysis for non-void
functions. The interpreter runs only programs that pass `validate` with
no errors and checks none of these rules again; `check_call` applies the
same rules to a call made from outside the program, a test's harness call.

A function is checked in one walk of its body, which also finds whether
each statement returns on every path. The names visible at each point
are one dict from name to type. A block, and a `for` around its init
clause, pops the dict back to its length on entry when it exits: that is
exact because shadowing is refused, so a block's own names are the
newest entries, and `popitem` takes the newest first. The interpreter
keeps one dict of variables per call on the same rule (its "Variables").
"""

from __future__ import annotations

from minigi.lang.ast import (
    ArrayLit,
    Assign,
    BaseProgram,
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


_Names = dict[str, Type]  # the names visible at a point of a function

# The operand type and the result type of each binary operator but `==`
# and `!=`, which take two operands of any one type and give a bool.
_BINARY = {
    **dict.fromkeys(("+", "-", "*", "/", "%"), (Type.INT, Type.INT)),
    **dict.fromkeys(("<", "<=", ">", ">="), (Type.INT, Type.BOOL)),
    **dict.fromkeys(("&&", "||"), (Type.BOOL, Type.BOOL)),
}


def _name_errors(unit: SourceUnit) -> list[SemanticError]:
    errors = []
    seen = set()
    for fn in unit.functions:
        if fn.name in BUILTINS:
            errors.append(SemanticError("", f"function name {fn.name!r} is reserved"))
        if fn.name in seen:
            errors.append(SemanticError("", f"duplicate function {fn.name!r}"))
        seen.add(fn.name)
    return errors


class _Checker:
    def __init__(self, signatures: dict[str, Function]):
        self.signatures = signatures
        self.errors: list[SemanticError] = []
        self.current: Function | None = None

    def error(self, message: str) -> None:
        name = self.current.name if self.current is not None else ""
        self.errors.append(SemanticError(name, message))

    def check_function(self, fn: Function) -> list[SemanticError]:
        """`fn`'s errors, in a list of their own."""
        self.errors = []
        self.current = fn
        scope: _Names = {}
        for p in fn.params:
            if p.name in BUILTINS:
                self.error(f"parameter name {p.name!r} is reserved")
            elif p.name in scope:
                self.error(f"duplicate parameter {p.name!r}")
            else:
                scope[p.name] = p.param_type
        returns = self.check_block(fn.body, scope, in_loop=False)
        if fn.return_type is not Type.VOID and not returns:
            self.error("missing return on some control path")
        self.current = None
        return self.errors

    # -- statements: each returns whether it returns on every path, as a `return`,
    # a block holding one and an `if` whose branches both do; never a loop --

    def check_block(self, block: Block, scope: _Names, in_loop: bool) -> bool:
        entry = len(scope)
        returns = False
        for stmt in block.statements:
            returns |= self.check_stmt(stmt, scope, in_loop)
        while len(scope) > entry:  # the block's own names are the newest
            scope.popitem()
        return returns

    def check_stmt(self, stmt: Stmt, scope: _Names, in_loop: bool) -> bool:
        if isinstance(stmt, Block):
            return self.check_block(stmt, scope, in_loop)
        if isinstance(stmt, VarDecl):
            self.check_decl(stmt, scope)
        elif isinstance(stmt, Assign):
            self.check_assign(stmt, scope)
        elif isinstance(stmt, If):
            self.require(stmt.cond, Type.BOOL, scope, "if condition")
            returns = self.check_block(stmt.then_block, scope, in_loop)
            if stmt.orelse is not None:
                return self.check_stmt(stmt.orelse, scope, in_loop) and returns
        elif isinstance(stmt, While):
            self.require(stmt.cond, Type.BOOL, scope, "while condition")
            self.check_block(stmt.body, scope, in_loop=True)
        elif isinstance(stmt, For):
            entry = len(scope)
            if isinstance(stmt.init, VarDecl):
                self.check_decl(stmt.init, scope)
            else:
                self.check_assign(stmt.init, scope)
            self.require(stmt.cond, Type.BOOL, scope, "for condition")
            self.check_assign(stmt.update, scope)
            self.check_block(stmt.body, scope, in_loop=True)
            if len(scope) > entry:  # the init clause's name
                scope.popitem()
        elif isinstance(stmt, Break):
            if not in_loop:
                self.error("break outside a loop")
        elif isinstance(stmt, Continue):
            if not in_loop:
                self.error("continue outside a loop")
        elif isinstance(stmt, Return):
            self.check_return(stmt, scope)
            return True
        elif isinstance(stmt, ExprStmt):
            self.infer(stmt.expr, scope, allow_void_call=True)
        else:
            raise TypeError(f"unknown statement node {stmt!r}")
        return False

    def check_decl(self, stmt: VarDecl, scope: _Names) -> None:
        got = self.infer(stmt.init, scope)
        if got is not None and got is not stmt.var_type:
            self.error(
                f"initializer of {stmt.name!r} has type {got.value}, expected {stmt.var_type.value}"
            )
        if stmt.name in BUILTINS:
            self.error(f"variable name {stmt.name!r} is reserved")
        elif stmt.name in scope:
            self.error(f"redeclaration of {stmt.name!r}")
        else:
            scope[stmt.name] = stmt.var_type

    def check_assign(self, stmt: Assign, scope: _Names) -> None:
        value_t = self.infer(stmt.value, scope)
        target = stmt.target
        name = target.base.name if isinstance(target, Index) else target.name
        target_t = scope.get(name)
        if target_t is None:
            self.error(f"assignment to undeclared variable {name!r}")
            return
        if isinstance(target, Index):
            if target_t is not Type.INT_ARRAY:
                self.error(f"{name!r} is not an array")
                return
            self.require(target.index, Type.INT, scope, "array index")
            target_t = Type.INT
        if value_t is not None and value_t is not target_t:
            self.error(f"cannot assign {value_t.value} to {target_t.value} target")

    def check_return(self, stmt: Return, scope: _Names) -> None:
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

    def require(self, expr: Expr, want: Type, scope: _Names, what: str, subject: str = "") -> None:
        """Check that `expr` has type `want`. `what` names the operand in the
        error; a `{}` in it stands for `subject`, quoted, and is filled in
        only when the error fires, so a passing check formats nothing."""
        got = self.infer(expr, scope)
        if got is not None and got is not want:
            what = what.format(repr(subject))
            self.error(f"{what} has type {got.value}, expected {want.value}")

    def infer(self, expr: Expr, scope: _Names, allow_void_call: bool = False) -> Type | None:
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
            t = scope.get(expr.name)
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

    def infer_binary(self, expr: Binary, scope: _Names) -> Type | None:
        op = expr.op
        if op == "==" or op == "!=":
            lt = self.infer(expr.left, scope)
            rt = self.infer(expr.right, scope)
            if lt is not None and rt is not None and lt is not rt:
                self.error(f"cannot compare {lt.value} with {rt.value}")
            return Type.BOOL
        operand, result = _BINARY[op]
        self.require(expr.left, operand, scope, "operand of {}", op)
        self.require(expr.right, operand, scope, "operand of {}", op)
        return result

    def infer_call(self, expr: Call, scope: _Names, allow_void_call: bool) -> Type | None:
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


def validate(unit: SourceUnit, base: BaseProgram | None = None) -> list[SemanticError]:
    """All semantic errors in the unit, the unit-level ones first, then each
    function's in function order; an empty list means it compiles.

    With `base`, the command's BaseProgram, `unit` must be a patch of
    `base.unit`: same functions, same signatures. The signature table is
    then the base's, and each of the base's own functions is checked once
    per command and its errors kept in `base.errors`; only the bodies a
    patch changed are checked again."""
    checker = _Checker({fn.name: fn for fn in unit.functions} if base is None else base.functions)
    errors = _name_errors(unit)
    for fn in unit.functions:
        if base is None or id(fn) not in base.owned:
            errors.extend(checker.check_function(fn))
            continue
        kept = base.errors.get(id(fn))
        if kept is None:
            kept = base.errors[id(fn)] = checker.check_function(fn)
        errors.extend(kept)
    return errors


def check_call(unit: SourceUnit, call: Call) -> list[SemanticError]:
    """Errors in a call from outside the unit whose arguments are literals,
    such as a test's harness call; its value must be used, so it may not
    be void."""
    checker = _Checker({fn.name: fn for fn in unit.functions})
    checker.infer(call, {})
    return checker.errors
