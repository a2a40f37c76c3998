"""AST node types and tree addressing for MiniLang.

All nodes are `@record` classes with tuple-typed children, so trees are
immutable after construction and may be shared freely between program
variants. `record` gives a class what `@dataclass(frozen=True)` would: a
constructor taking the annotated fields by position or keyword (a class
attribute is the field's default), `==` between records of the same class
with equal fields, a hash of the field tuple, the dataclass `repr`, and
`AttributeError` on assignment or deletion. It is defined here because
importing `dataclasses` would cost each toolchain process most of its
start-up (see the package docstring).

Statements are addressed by a `StatementId`: the owning function
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
statements. `statement_sites` lists, in one walk, every id a draw can
target in a function: its list statements and its blocks, in pre-order;
`StatementSites` keeps that walk for each function object a run draws in.

`BaseProgram` is not a record: it is the store in which the printer, the
validator and the interpreter keep, for one driver run, what they derive
from the run's unpatched program and its tests.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum


class Type(Enum):
    INT = "int"
    BOOL = "bool"
    INT_ARRAY = "int[]"
    VOID = "void"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _fields(record):
    return tuple([getattr(record, n) for n in record.__match_args__])


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return _fields(self) == _fields(other)
    return NotImplemented


def _record_hash(self):
    return hash(_fields(self))


def _record_repr(self):
    shown = ", ".join([f"{n}={getattr(self, n)!r}" for n in self.__match_args__])
    return f"{self.__class__.__qualname__}({shown})"


def record(cls):
    """Make `cls` an immutable value class over its annotated fields.

    Only `__init__` is generated per class, from source, as `dataclasses`
    does, so construction, which the parser and patch application do for
    every node they build, runs no per-call loop over the field names.
    `__eq__`, `__hash__` and `__repr__` are defined once and shared by every
    record class; they loop over the class's `__match_args__`. Generating
    them too cost each toolchain process about 5 ms of `exec` at import
    (Python 3.11, 2-vCPU Linux host), and no hot path compares, hashes or
    prints a record.
    """
    names = getattr(cls, "__match_args__", ()) + tuple(cls.__dict__.get("__annotations__", ()))
    params = "".join(f"{n}=_default_{n}, " if n in cls.__dict__ else f"{n}, " for n in names)
    sets = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    namespace = {"_set": object.__setattr__}
    namespace.update((f"_default_{n}", cls.__dict__[n]) for n in names if n in cls.__dict__)
    exec(f"def __init__(self, {params}):\n{sets}    pass\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = names
    return cls


# --- expressions ---


@record
class Expr:
    pass


@record
class IntLit(Expr):
    value: int


@record
class BoolLit(Expr):
    value: bool


@record
class ArrayLit(Expr):
    elements: tuple[Expr, ...]


@record
class Var(Expr):
    name: str


@record
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@record
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@record
class Index(Expr):
    base: Expr
    index: Expr


@record
class Call(Expr):
    name: str
    args: tuple[Expr, ...]


# --- statements ---


@record
class Stmt:
    pass


@record
class Block(Stmt):
    statements: tuple[Stmt, ...]


@record
class VarDecl(Stmt):
    name: str
    var_type: Type
    init: Expr


@record
class Assign(Stmt):
    target: Var | Index
    value: Expr


@record
class If(Stmt):
    cond: Expr
    then_block: Block
    orelse: Stmt | None = None  # Block or If (else-if chain)


@record
class While(Stmt):
    cond: Expr
    body: Block


@record
class For(Stmt):
    init: VarDecl | Assign
    cond: Expr
    update: Assign
    body: Block


@record
class Break(Stmt):
    pass


@record
class Continue(Stmt):
    pass


@record
class Return(Stmt):
    value: Expr | None = None


@record
class ExprStmt(Stmt):
    expr: Expr


# --- declarations ---


@record
class Param:
    name: str
    param_type: Type


@record
class Function:
    name: str
    params: tuple[Param, ...]
    return_type: Type
    body: Block


@record
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


class BaseProgram:
    """The unpatched program of one driver run, its tests, and the work each
    layer does on them once for the whole run.

    An edit changes function bodies and nothing else (no name, parameter
    or return type), and patch application keeps every function it leaves
    untouched as the base's own `Function` object. So whatever depends on
    one base function and the (shared) signatures alone holds for every
    patch of the run: its canonical text (`texts`, printer), its semantic
    errors (`errors`, semantics) and its compiled closures (`compiled`,
    interpreter). Each layer gets them through `reuse`, which keeps a
    value by function name for the base's own object only, never for an
    equal one, so an entry cannot outlive what it was made from; a patched
    function is worked on afresh and nothing of it is kept. `harness`
    holds each test's checked and compiled harness call by position in
    `tests`, `machine` the interpreter state its closures share, and
    `payloads` each LLM payload text parsed once (see
    `patches.apply_patch`).

    `reach` and `outcomes` let a suite skip the tests a patch cannot
    reach (see `interpreter.run_suite`). `reach` holds, by position in
    `tests`, the names of the base functions each harness call can reach
    through the base's static call graph, or is empty when every test
    reaches every function; it is None until the first suite builds it.
    `outcomes` holds, by step budget and then by test position, each
    test's outcome from the first suite that ran it while every function
    it reaches was the base's own object. A test keeps that outcome for
    every patch that leaves those functions untouched: a function outside
    its reach is never entered from it, since a call a patch adds sits in
    a changed function. The object lives no longer than its run; a caller
    with no run builds one for its single call."""

    __slots__ = (
        "unit", "tests", "functions", "payloads", "texts", "errors", "compiled", "harness",
        "machine", "reach", "outcomes",
    )

    def __init__(self, unit: SourceUnit, tests):
        self.unit = unit
        self.tests = tests
        self.functions = {fn.name: fn for fn in unit.functions}
        self.payloads: dict = {}
        self.texts: dict[str, str] = {}
        self.errors: dict[str, list] = {}
        self.compiled: dict[str, tuple] = {}
        self.harness: dict[int, object] = {}
        self.machine = None
        self.reach: list[frozenset[str]] | None = None
        self.outcomes: dict[int, dict[int, object]] = {}

    def reuse(self, store: dict, fn: Function, make):
        """`make(fn)`, made once and kept in `store`, one of this object's
        dicts, when `fn` is the base's own object; made afresh and not kept
        for any other function. Nothing is kept when `make` raises."""
        if self.functions.get(fn.name) is not fn:
            return make(fn)
        value = store.get(fn.name)
        if value is None:
            value = store[fn.name] = make(fn)
        return value


# --- statement addressing ---


@record
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


Sites = tuple[list[StatementId], list[tuple[StatementId, Block]]]


def statement_sites(fn: Function) -> Sites:
    """What a draw can target in `fn`, from one pre-order walk of its body:
    the ids of its list statements, and each of its blocks with its id, the
    body root first. The walk keeps its own stack, so a function nested
    past Python's recursion limit is walked like any other."""
    statements: list[StatementId] = []
    blocks: list[tuple[StatementId, Block]] = []
    stack: list[tuple[tuple[int, ...], Stmt, bool]] = [((), fn.body, False)]
    while stack:
        path, node, listed = stack.pop()
        sid = StatementId(fn.name, path)
        if listed:
            statements.append(sid)
        is_block = isinstance(node, Block)
        if is_block:
            blocks.append((sid, node))
        children = stmt_children(node)
        for i in range(len(children) - 1, -1, -1):
            stack.append((path + (i,), children[i], is_block))
    return statements, blocks


SitesOf = Callable[[Function], Sites]  # `statement_sites` or a `StatementSites`


class StatementSites:
    """`statement_sites`, walked once per `Function` object and kept by
    function name: asking for another object of a kept name walks that
    object and keeps it instead. A driver run keeps one, so its draws walk
    each function once for as long as the function stays the same object
    (a local-search move that edits it makes a new one). Callers must not
    change the lists it returns."""

    __slots__ = ("kept",)

    def __init__(self):
        self.kept: dict[str, tuple[Function, Sites]] = {}

    def __call__(self, fn: Function) -> Sites:
        entry = self.kept.get(fn.name)
        if entry is None or entry[0] is not fn:
            entry = self.kept[fn.name] = (fn, statement_sites(fn))
        return entry[1]
