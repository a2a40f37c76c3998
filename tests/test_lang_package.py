"""Contracts of the `minigi.lang` package as a whole.

Toolchain processes import the package once per compile or test step, so
what it loads is pinned here. Its record classes (AST nodes, outcomes,
semantic errors) are values: the parity table fixes how each one
is built, compared, hashed, printed and guarded against mutation, and
that its instances carry no `__dict__`.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

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
    Param,
    Return,
    SourceUnit,
    StatementId,
    Stmt,
    Type,
    Unary,
    Var,
    VarDecl,
    While,
)
from minigi.lang.interpreter import ExecutionOutcome, Status
from minigi.lang.interpreter import TestCase as SuiteCase  # a Test* name would be collected
from minigi.lang.parser import parse_source
from minigi.lang.printer import print_canonical, source_digest
from minigi.lang.semantics import SemanticError

from conftest import REPO_ROOT

A = Var("a")
ONE = IntLit(1)
RET = Return(A)
BODY = Block((RET,))
INC = Assign(A, Binary("+", A, ONE))

# (class, field values in order, exact repr); FIELDS names the fields.
RECORDS = [
    (Expr, (), "Expr()"),
    (Stmt, (), "Stmt()"),
    (IntLit, (1,), "IntLit(value=1)"),
    (BoolLit, (True,), "BoolLit(value=True)"),
    (ArrayLit, ((ONE, IntLit(2)),), "ArrayLit(elements=(IntLit(value=1), IntLit(value=2)))"),
    (Var, ("a",), "Var(name='a')"),
    (Unary, ("-", A), "Unary(op='-', operand=Var(name='a'))"),
    (Binary, ("+", A, ONE), "Binary(op='+', left=Var(name='a'), right=IntLit(value=1))"),
    (Index, (A, ONE), "Index(base=Var(name='a'), index=IntLit(value=1))"),
    (Call, ("f", (A,)), "Call(name='f', args=(Var(name='a'),))"),
    (Block, ((RET,),), "Block(statements=(Return(value=Var(name='a')),))"),
    (
        VarDecl,
        ("a", Type.INT, ONE),
        "VarDecl(name='a', var_type=<Type.INT: 'int'>, init=IntLit(value=1))",
    ),
    (Assign, (A, ONE), "Assign(target=Var(name='a'), value=IntLit(value=1))"),
    (
        If,
        (A, BODY, Block(())),
        "If(cond=Var(name='a'), then_block=Block(statements=(Return(value=Var(name='a')),)),"
        " orelse=Block(statements=()))",
    ),
    (
        While,
        (A, BODY),
        "While(cond=Var(name='a'), body=Block(statements=(Return(value=Var(name='a')),)))",
    ),
    (
        For,
        (Assign(A, ONE), A, INC, Block(())),
        "For(init=Assign(target=Var(name='a'), value=IntLit(value=1)), cond=Var(name='a'),"
        " update=Assign(target=Var(name='a'), value=Binary(op='+', left=Var(name='a'),"
        " right=IntLit(value=1))), body=Block(statements=()))",
    ),
    (Break, (), "Break()"),
    (Continue, (), "Continue()"),
    (Return, (ONE,), "Return(value=IntLit(value=1))"),
    (ExprStmt, (Call("f", ()),), "ExprStmt(expr=Call(name='f', args=()))"),
    (Param, ("a", Type.INT_ARRAY), "Param(name='a', param_type=<Type.INT_ARRAY: 'int[]'>)"),
    (
        Function,
        ("f", (Param("a", Type.BOOL),), Type.VOID, Block(())),
        "Function(name='f', params=(Param(name='a', param_type=<Type.BOOL: 'bool'>),),"
        " return_type=<Type.VOID: 'void'>, body=Block(statements=()))",
    ),
    (
        SourceUnit,
        ("u", (Function("f", (), Type.INT, BODY),)),
        "SourceUnit(name='u', functions=(Function(name='f', params=(),"
        " return_type=<Type.INT: 'int'>, body=Block(statements=(Return(value=Var(name='a')),))),))",
    ),
    (StatementId, ("f", (0, 2)), "StatementId(function='f', path=(0, 2))"),
    (
        ExecutionOutcome,
        (Status.FAIL, 7, [1, 2], "boom"),
        "ExecutionOutcome(status=<Status.FAIL: 'fail'>, steps_used=7, value=[1, 2], error='boom')",
    ),
    (
        SuiteCase,
        ("t", Call("f", (ONE,)), True),
        "TestCase(name='t', call=Call(name='f', args=(IntLit(value=1),)), expected=True)",
    ),
    (SemanticError, ("f", "bad"), "SemanticError(function='f', message='bad')"),
]

FIELDS = {
    Expr: (),
    Stmt: (),
    IntLit: ("value",),
    BoolLit: ("value",),
    ArrayLit: ("elements",),
    Var: ("name",),
    Unary: ("op", "operand"),
    Binary: ("op", "left", "right"),
    Index: ("base", "index"),
    Call: ("name", "args"),
    Block: ("statements",),
    VarDecl: ("name", "var_type", "init"),
    Assign: ("target", "value"),
    If: ("cond", "then_block", "orelse"),
    While: ("cond", "body"),
    For: ("init", "cond", "update", "body"),
    Break: (),
    Continue: (),
    Return: ("value",),
    ExprStmt: ("expr",),
    Param: ("name", "param_type"),
    Function: ("name", "params", "return_type", "body"),
    SourceUnit: ("name", "functions"),
    StatementId: ("function", "path"),
    ExecutionOutcome: ("status", "steps_used", "value", "error"),
    SuiteCase: ("name", "call", "expected"),
    SemanticError: ("function", "message"),
}


def test_the_parity_table_covers_every_record_class():
    assert [row[0] for row in RECORDS] == list(FIELDS)
    assert len(FIELDS) == 27


@pytest.mark.parametrize("cls,args,text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_class_parity(cls, args, text):
    names = FIELDS[cls]
    assert len(args) == len(names)
    node = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    twin = cls(*args)

    # Construction stores each field under its name, by position or keyword.
    assert tuple(getattr(node, n) for n in names) == args
    assert tuple(getattr(keyword, n) for n in names) == args
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)

    # Equal fields: equal records with equal hashes (when the fields hash).
    assert node == keyword == twin
    assert not node != twin
    if cls is not ExecutionOutcome:  # its value here is a list
        assert hash(node) == hash(keyword) == hash(tuple(args))
        assert len({node, keyword, twin}) == 1
    assert node != args
    assert node != object()

    assert repr(node) == text

    for name in names:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert getattr(node, name) is getattr(twin, name)
    with pytest.raises(AttributeError):
        node.no_such_field = 1

    # Each field lives in a slot; there is no instance dict to fall back on.
    assert not hasattr(node, "__dict__")
    assert cls.__slots__ == tuple(n for n in names if n not in FIELDS.get(cls.__base__, ()))


@pytest.mark.parametrize("cls", list(FIELDS), ids=[cls.__name__ for cls in FIELDS])
def test_no_record_method_reads_the_class_cell(cls):
    """`record` returns a new class rebuilt from the decorated one, and a
    method's `__class__` cell, which zero-argument `super()` and a bare
    `__class__` read, would still name the old class."""
    for name, value in vars(cls).items():
        code = getattr(value, "__code__", None)
        assert code is None or "__class__" not in code.co_freevars, name


def test_defaults_are_kept():
    assert If(A, BODY) == If(A, BODY, None)
    assert If(A, BODY).orelse is None
    assert Return() == Return(None) == Return(value=None)
    assert repr(Return()) == "Return(value=None)"
    outcome = ExecutionOutcome(Status.PASS, 3)
    assert (outcome.value, outcome.error) == (None, None)
    assert outcome == ExecutionOutcome(status=Status.PASS, steps_used=3, value=None, error=None)
    assert ExecutionOutcome(Status.PASS, 3, error="x").value is None
    with pytest.raises(TypeError):
        If(A)
    with pytest.raises(TypeError):
        ExecutionOutcome(Status.PASS)


def test_records_of_different_classes_with_equal_fields_differ():
    assert IntLit(1) != BoolLit(True)
    assert not IntLit(1) == BoolLit(True)
    assert Break() != Continue()
    assert Expr() != Stmt()
    assert IntLit(1) != IntLit(2)
    assert Binary("+", A, ONE) != Binary("+", ONE, A)
    assert Return() != Return(ONE)
    assert IntLit(True) == IntLit(1)  # fields compare as Python values
    assert len({IntLit(1), BoolLit(True), Break(), Continue()}) == 4


def test_semantic_error_keeps_its_own_str():
    assert str(SemanticError("f", "bad")) == "f: bad"
    assert str(SemanticError("", "bad")) == "<unit>: bad"
    assert str(StatementId("f", ())) == "f:root"
    assert str(StatementId("f", (0, 2))) == "f:0.2"


def _modules_loaded_by(module: str) -> set[str]:
    """Names in `sys.modules` after a fresh, isolated interpreter imports
    `module` from this checkout."""
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
        "print(' '.join(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(REPO_ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(result.stdout.split())


def test_importing_the_language_loads_neither_dataclasses_nor_typing():
    modules = _modules_loaded_by("minigi.lang")
    assert "minigi.lang.interpreter" in modules
    assert not modules & {"dataclasses", "typing", "inspect"}


def test_importing_the_language_loads_no_hash_library():
    """OpenSSL's `_hashlib` loads with the first `source_digest`, which no
    toolchain step computes, not with the package."""
    modules = _modules_loaded_by("minigi.lang")
    assert "minigi.lang.printer" in modules
    assert not modules & {"hashlib", "_hashlib"}


def test_source_digest_is_the_sha256_of_the_canonical_printing():
    unit = parse_source((REPO_ROOT / "benchmarks" / "bench_max.ml").read_text(encoding="utf-8"))
    expected = hashlib.sha256(print_canonical(unit).encode()).hexdigest()
    assert source_digest(unit) == expected
    assert source_digest(unit, BaseProgram(unit, ())) == expected


def test_importing_the_cli_loads_no_http_client():
    """The LLM transport loads on the first live request; every other run
    keeps `urllib.request`, and so `http.client` and `ssl`, out of memory."""
    modules = _modules_loaded_by("minigi.cli")
    assert "minigi.llm" in modules
    assert not modules & {"requests", "urllib.request", "http.client", "ssl"}


def test_importing_the_cli_loads_no_statistics():
    """`statistics`, with `fractions` and `decimal`, loads where a median is
    taken: in `ls` tables and external measurements, not with every run."""
    modules = _modules_loaded_by("minigi.cli")
    assert "minigi.reporting" in modules
    assert "minigi.evaluation" in modules
    assert "statistics" not in modules
