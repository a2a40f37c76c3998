"""Canonical pretty-printer for MiniLang.

Formatting is fixed: four-space indents, one statement per line, a single
space around binary operators, minimal parentheses. Equal ASTs therefore
print to equal text, and the canonical text is a fixpoint of
parse-then-print, which is what patch fingerprinting relies on.

A subtree's lines depend on the subtree and its indent depth alone. So
with a command's `ast.BaseProgram`, the lines of each node it owns (a
base function, or a statement of a base function or of a parsed
payload) are printed once per indent depth and kept in the BaseProgram
by node identity. A base function is then printed once per command, and
a patched function prints only the spine its patch rebuilt and the new
leaves, and joins the kept lines of everything else.
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
)
from minigi.lang.parser import BINARY_LEVELS

INDENT = "    "

# Binding strength from the parser's table; higher binds tighter.
_PRECEDENCE = {op: level for level, ops in enumerate(BINARY_LEVELS, 1) for op in ops}
_UNARY_PREC = len(BINARY_LEVELS) + 1
_POSTFIX_PREC = len(BINARY_LEVELS) + 2


def print_expr(expr: Expr) -> str:
    return _expr(expr, 0)


def _expr(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, ArrayLit):
        return "[" + ", ".join(_expr(e, 0) for e in expr.elements) + "]"
    if isinstance(expr, Call):
        return expr.name + "(" + ", ".join(_expr(a, 0) for a in expr.args) + ")"
    if isinstance(expr, Index):
        return _expr(expr.base, _POSTFIX_PREC) + "[" + _expr(expr.index, 0) + "]"
    if isinstance(expr, Unary):
        text = expr.op + _expr(expr.operand, _UNARY_PREC)
        return f"({text})" if parent_prec > _UNARY_PREC else text
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        left = _expr(expr.left, prec)
        right = _expr(expr.right, prec + 1)  # left-associative chain
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"unknown expression node {expr!r}")


def _type(t: Type) -> str:
    return t.value


def _assign_text(stmt: Assign) -> str:
    return f"{_expr(stmt.target, 0)} = {_expr(stmt.value, 0)}"


def _clause_text(stmt) -> str:
    if isinstance(stmt, VarDecl):
        return f"var {stmt.name}: {_type(stmt.var_type)} = {_expr(stmt.init, 0)}"
    return _assign_text(stmt)


def _stmt_lines(
    stmt: Stmt | Function, depth: int, base: BaseProgram | None = None
) -> list[str]:
    """The lines of `stmt`, a statement or a function, indented `depth`
    levels. With `base`, the lines of a node it owns are printed once per
    depth and kept in `base.lines`. Callers must not change the list
    returned."""
    if base is None or id(stmt) not in base.owned:
        return _printed(stmt, depth, base)
    key = (id(stmt), depth)
    lines = base.lines.get(key)
    if lines is None:
        lines = base.lines[key] = _printed(stmt, depth, base)
    return lines


def _printed(stmt: Stmt | Function, depth: int, base: BaseProgram | None) -> list[str]:
    pad = INDENT * depth
    if isinstance(stmt, Block):
        lines = [pad + "{"]
        for child in stmt.statements:
            lines.extend(_stmt_lines(child, depth + 1, base))
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, VarDecl):
        return [pad + _clause_text(stmt) + ";"]
    if isinstance(stmt, Assign):
        return [pad + _assign_text(stmt) + ";"]
    if isinstance(stmt, If):
        lines = [pad + f"if ({_expr(stmt.cond, 0)}) {{"]
        for child in stmt.then_block.statements:
            lines.extend(_stmt_lines(child, depth + 1, base))
        node = stmt.orelse
        while node is not None:
            if isinstance(node, If):
                lines.append(pad + f"}} else if ({_expr(node.cond, 0)}) {{")
                for child in node.then_block.statements:
                    lines.extend(_stmt_lines(child, depth + 1, base))
                node = node.orelse
            else:
                lines.append(pad + "} else {")
                for child in node.statements:
                    lines.extend(_stmt_lines(child, depth + 1, base))
                node = None
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, While):
        lines = [pad + f"while ({_expr(stmt.cond, 0)}) {{"]
        for child in stmt.body.statements:
            lines.extend(_stmt_lines(child, depth + 1, base))
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, For):
        header = (
            f"for ({_clause_text(stmt.init)}; {_expr(stmt.cond, 0)}; "
            f"{_assign_text(stmt.update)}) {{"
        )
        lines = [pad + header]
        for child in stmt.body.statements:
            lines.extend(_stmt_lines(child, depth + 1, base))
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, Break):
        return [pad + "break;"]
    if isinstance(stmt, Continue):
        return [pad + "continue;"]
    if isinstance(stmt, Return):
        if stmt.value is None:
            return [pad + "return;"]
        return [pad + f"return {_expr(stmt.value, 0)};"]
    if isinstance(stmt, ExprStmt):
        return [pad + _expr(stmt.expr, 0) + ";"]
    if isinstance(stmt, Function):
        params = ", ".join(f"{p.name}: {_type(p.param_type)}" for p in stmt.params)
        arrow = "" if stmt.return_type is Type.VOID else f" -> {_type(stmt.return_type)}"
        lines = [pad + f"fn {stmt.name}({params}){arrow} {{"]
        for child in stmt.body.statements:
            lines.extend(_stmt_lines(child, depth + 1, base))
        lines.append(pad + "}")
        return lines
    raise TypeError(f"unknown statement node {stmt!r}")


def print_statement(stmt: Stmt, depth: int = 0) -> str:
    return "\n".join(_stmt_lines(stmt, depth))


def print_canonical(unit: SourceUnit, base: BaseProgram | None = None) -> str:
    """Canonical text of a whole unit; single trailing newline, LF endings.

    With `base`, the command's BaseProgram, each of the base's own
    functions is printed once per command and its lines reused, and a
    patched function prints only what its patch rebuilt (see the module
    docstring)."""
    lines: list[str] = []
    for fn in unit.functions:
        if lines:
            lines.append("")
        lines.extend(_stmt_lines(fn, 0, base))
    return "\n".join(lines) + "\n"


def source_digest(unit: SourceUnit, base: BaseProgram | None = None) -> str:
    """SHA-256 hex digest of the canonical printing (`base` as there).

    Digest equality is used as syntactic program equality; collision risk
    is delegated to the 256-bit hash. `hashlib` loads OpenSSL, so it is
    imported on the first digest, not with the package.
    """
    import hashlib

    return hashlib.sha256(print_canonical(unit, base).encode("utf-8")).hexdigest()
