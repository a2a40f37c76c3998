"""AST node types and tree addressing for MiniLang.

All nodes are frozen dataclasses with tuple-typed children, so trees are
immutable after construction and may be shared freely between program
variants. Statements are addressed by a `StatementId`: the owning function
name plus the child-index path from the function body root. The body root
itself has the empty path.

Child positions (the path alphabet) per statement kind:
  Block  -> its statements, in order
  If     -> then block, else branch (when present)
  While  -> body block
  For    -> body block
  others -> no children

A statement is a "list statement" when its parent is a Block, i.e. it sits
in a statement list and can be deleted, replaced or swapped. Structural
blocks (if branches, loop bodies) are addressable but are not list
statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union


class Type(Enum):
    INT = "int"
    BOOL = "bool"
    INT_ARRAY = "int[]"
    VOID = "void"


# --- expressions ---


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class ArrayLit(Expr):
    elements: tuple[Expr, ...]


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]


# --- statements ---


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Block(Stmt):
    statements: tuple[Stmt, ...]


@dataclass(frozen=True)
class VarDecl(Stmt):
    name: str
    var_type: Type
    init: Expr


@dataclass(frozen=True)
class Assign(Stmt):
    target: Union[Var, Index]
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_block: Block
    orelse: Optional[Stmt] = None  # Block or If (else-if chain)


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Block


@dataclass(frozen=True)
class For(Stmt):
    init: Union[VarDecl, Assign]
    cond: Expr
    update: Assign
    body: Block


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Continue(Stmt):
    pass


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr


# --- declarations ---


@dataclass(frozen=True)
class Param:
    name: str
    param_type: Type


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[Param, ...]
    return_type: Type
    body: Block


@dataclass(frozen=True)
class SourceUnit:
    name: str
    functions: tuple[Function, ...]

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def has_function(self, name: str) -> bool:
        return any(fn.name == name for fn in self.functions)


# --- statement addressing ---


@dataclass(frozen=True)
class StatementId:
    function: str
    path: tuple[int, ...]

    def __str__(self) -> str:
        if not self.path:
            return f"{self.function}:root"
        return f"{self.function}:" + ".".join(str(i) for i in self.path)


def stmt_children(stmt: Stmt) -> tuple[Stmt, ...]:
    if isinstance(stmt, Block):
        return stmt.statements
    if isinstance(stmt, If):
        return (stmt.then_block,) if stmt.orelse is None else (stmt.then_block, stmt.orelse)
    if isinstance(stmt, (While, For)):
        return (stmt.body,)
    return ()


def get_statement(fn: Function, path: tuple[int, ...]) -> Optional[Stmt]:
    """Resolve a path against a function body; None when it falls off the tree."""
    node: Stmt = fn.body
    for idx in path:
        children = stmt_children(node)
        if idx < 0 or idx >= len(children):
            return None
        node = children[idx]
    return node


def resolve(unit: SourceUnit, sid: StatementId) -> Optional[Stmt]:
    if not unit.has_function(sid.function):
        return None
    return get_statement(unit.function(sid.function), sid.path)


def walk_statements(fn: Function) -> Iterator[tuple[tuple[int, ...], Stmt, Optional[Stmt]]]:
    """Pre-order (path, statement, parent) triples; the body root comes first."""

    def go(path: tuple[int, ...], node: Stmt, parent: Optional[Stmt]):
        yield path, node, parent
        for i, child in enumerate(stmt_children(node)):
            yield from go(path + (i,), child, node)

    yield from go((), fn.body, None)


def list_statement_ids(fn: Function) -> list[StatementId]:
    """Ids of statements that sit in some block's statement list."""
    return [
        StatementId(fn.name, path)
        for path, _stmt, parent in walk_statements(fn)
        if parent is not None and isinstance(parent, Block)
    ]


def block_ids(fn: Function) -> list[StatementId]:
    """Ids of every Block in the function, the body root included."""
    return [
        StatementId(fn.name, path)
        for path, stmt, _parent in walk_statements(fn)
        if isinstance(stmt, Block)
    ]


def insertion_slots(fn: Function) -> list[tuple[StatementId, int]]:
    """All (block id, index) insertion positions, index in 0..len(block)."""
    slots: list[tuple[StatementId, int]] = []
    for path, stmt, _parent in walk_statements(fn):
        if isinstance(stmt, Block):
            sid = StatementId(fn.name, path)
            slots.extend((sid, i) for i in range(len(stmt.statements) + 1))
    return slots

