"""AST node types and tree addressing for MiniLang.

All nodes are `@record` classes with tuple-typed children, so trees are
immutable after construction and may be shared freely between program
variants. `record` gives a class what `@dataclass(frozen=True,
slots=True)` would: a constructor taking the annotated fields by position
or keyword (a class attribute is the field's default), `==` between
records of the same class with equal fields, a hash of the field tuple,
the dataclass `repr`, `AttributeError` on assignment or deletion, and a
slot per field with no instance `__dict__`. It is defined here because
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
`StatementSites` keeps that walk for each function object a driver call
draws in.

`BaseProgram` is not a record: it is the store in which the printer, the
validator and the interpreter keep, for one command, what they derive
from its unpatched program, its tests and its parsed LLM payloads.
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

    The class returned is a new one, built from `cls`'s namespace with a
    `__slots__` entry for each field it annotates, as
    `dataclass(slots=True)` builds it: its instances have no `__dict__`, so
    each record is smaller and a field read goes straight to its slot. A
    field's default moves from the class body, where it would clash with
    its slot, into `__init__`. A method that uses zero-argument `super()`
    or `__class__` would still see the old class, so no record class has
    one.

    Only `__init__` is generated per class, from source, as `dataclasses`
    does, so construction, which the parser and patch application do for
    every node they build, runs no per-call loop over the field names. It
    stores each field with its slot descriptor's `__set__`, bound once per
    class, which passes the frozen `__setattr__` at less cost than
    `object.__setattr__`: building a `Binary` went from about 670 to
    465 ns, and a four-field `ExecutionOutcome` from about 1.0 to 0.7 µs
    (Python 3.11.7, 2-vCPU Linux host, interleaved `timeit`), and a
    `Binary` takes 56 B instead of 152. Writing `self.__dict__` directly,
    the other way to a cheaper constructor, is a dead end: it materialises
    that dict, and on Python 3.11 and 3.12 every later field read is then
    two to six times slower and each record about 60 B larger, while the
    compiler, validator and printer read each node many times for each
    one that patch application builds.

    `__eq__`, `__hash__` and `__repr__` are defined once and shared by
    every record class; they loop over the class's `__match_args__`.
    Generating them too cost each toolchain process about 5 ms of `exec`
    at import (Python 3.11, 2-vCPU Linux host). Local search's verdict
    dict (`search._one_ls_run`), looked up once per logged row, is keyed
    by each patch's log text, a string, so it hashes no record.
    """
    own = tuple(cls.__dict__.get("__annotations__", ()))
    names = getattr(cls, "__match_args__", ()) + own
    defaults = {n: cls.__dict__[n] for n in own if n in cls.__dict__}
    body = {k: v for k, v in cls.__dict__.items() if k not in defaults and k not in ("__dict__", "__weakref__")}
    body["__slots__"] = own
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    params = "".join(f"{n}=_default_{n}, " if n in defaults else f"{n}, " for n in names)
    sets = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    namespace.update((f"_default_{n}", value) for n, value in defaults.items())
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


# The children of each node class that has any, in field order.
_CHILDREN: dict[type, Callable] = {
    ArrayLit: lambda n: n.elements,
    Unary: lambda n: (n.operand,),
    Binary: lambda n: (n.left, n.right),
    Index: lambda n: (n.base, n.index),
    Call: lambda n: n.args,
    Block: lambda n: n.statements,
    VarDecl: lambda n: (n.init,),
    Assign: lambda n: (n.target, n.value),
    If: lambda n: (n.cond, n.then_block) if n.orelse is None else (n.cond, n.then_block, n.orelse),
    While: lambda n: (n.cond, n.body),
    For: lambda n: (n.init, n.cond, n.update, n.body),
    Return: lambda n: () if n.value is None else (n.value,),
    ExprStmt: lambda n: (n.expr,),
    Function: lambda n: (n.body,),
}


def tree_nodes(root) -> list:
    """Every node of the tree `root` (a function, a statement or an
    expression), `root` first. The walk does not recurse, so a tree nested
    past Python's recursion limit is walked like any other."""
    nodes = [root]
    for node in nodes:  # the list grows as the loop reads it
        children = _CHILDREN.get(type(node))
        if children is not None:
            nodes += children(node)
    return nodes


class BaseProgram:
    """The unpatched program of one command (`minigi sample`, `ls` or
    `profile`, or one replayed record), its tests, and the work each layer
    does on them once for the whole command: the profile, the record's
    digest and every evaluation of the driver call share it.

    An edit changes function bodies and nothing else (no name, parameter
    or return type), and patch application keeps every function it leaves
    untouched as the base's own `Function` object and, within an edited
    function, rebuilds only the spine from its body root down to each
    edit: every other subtree is a node of a base function or of a parsed
    payload. Those nodes live as long as the object, and the object owns
    them: `owned` holds their identities. Every node of every base
    function is marked when the object is built, and a payload's when it
    is parsed. Each layer keeps its work on an owned node by the node's
    identity: the interpreter a subtree's compiled closures and nesting
    depth in `closures`, by (node identity, compile context), the printer
    a subtree's lines in `lines`, by (node identity, indent depth), and
    the validator a base function's semantic errors in `errors`, by
    function identity (checking depends on the function's scope, so it is
    kept per function, not per subtree). A patched function then compiles
    and prints only its spine and its new leaves and is checked afresh,
    and a base function is compiled, printed and checked once. Entries are
    made only for owned nodes, never for an equal one, so each entry's
    node outlives it.

    `harness` holds each test's checked and compiled harness call by
    position in `tests`, `machine` the interpreter state its closures
    share, and `payloads` each LLM payload text parsed once, or the
    message of its parse error (see `patches.apply_patch`). `digest` is
    the unpatched program's source digest, None until the command first
    asks for it (see `evaluation.original_digest`): the run record's
    `original_digest`, and what each evaluation compares its patched
    program's digest with, so a patch that reproduces the base is
    evaluated as `unit` itself. `reach` and `outcomes` let a suite skip
    the tests a patch cannot reach (see `interpreter.run_suite`). `reach`
    holds, by position in `tests`, the names of the base functions each
    harness call can reach through the base's static call graph; it is
    None until the first suite builds it. `outcomes` holds, by step
    budget and then by test position, each test's outcome from the first
    suite that ran it while every function it reaches was the base's own
    object. A test keeps that outcome for every patch that leaves those
    functions untouched: a function outside its reach is never entered
    from it, since a call a patch adds sits in a changed function. So the
    unpatched program itself takes every stored outcome.

    The object lives no longer than its command. Nothing it holds refers
    back to it (the machine holds it only while a suite runs), so
    reference counting frees it, with every tree, closure and entry it
    keeps, as soon as its caller lets go of it."""

    __slots__ = (
        "unit", "tests", "functions", "payloads", "errors", "harness",
        "machine", "digest", "reach", "outcomes", "owned", "closures", "lines",
    )

    def __init__(self, unit: SourceUnit, tests):
        self.unit = unit
        self.tests = tests
        self.functions = {fn.name: fn for fn in unit.functions}
        self.payloads: dict[str, Block | str] = {}
        self.errors: dict[int, list] = {}
        self.harness: dict[int, object] = {}
        self.machine = None
        self.digest: str | None = None
        self.reach: list[frozenset[str]] | None = None
        self.outcomes: dict[int, dict[int, object]] = {}
        self.owned: set[int] = set()
        self.closures: dict[tuple[int, tuple], tuple] = {}
        self.lines: dict[tuple[int, int], list[str]] = {}
        for fn in unit.functions:
            self.own(fn)

    def own(self, root) -> None:
        """Mark `root`, a parsed payload or a base function, and every node
        under it as owned."""
        self.owned.update(map(id, tree_nodes(root)))


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
    object and keeps it instead. A driver call keeps one, so its draws
    walk each function once for as long as the function stays the same
    object (a local-search move that edits it makes a new one). Callers must not
    change the lists it returns."""

    __slots__ = ("kept",)

    def __init__(self):
        self.kept: dict[str, tuple[Function, Sites]] = {}

    def __call__(self, fn: Function) -> Sites:
        entry = self.kept.get(fn.name)
        if entry is None or entry[0] is not fn:
            entry = self.kept[fn.name] = (fn, statement_sites(fn))
        return entry[1]
