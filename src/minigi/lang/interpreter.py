"""Closure-compiled interpreter with deterministic step counting.

Runtime is measured in interpreter steps, a deterministic stand-in for
wall-clock time in the built-in evaluation backend.

Compile step. `run_suite` compiles each `Function` into nested Python
closures on its first call, after Feeley & Lapalme, "Using closures for
code generation" (1987): each node becomes one closure that calls the
closures of its children, so the dispatch on node kinds happens once per
node instead of once per step. The compiled form lives for one
`run_suite` call and is shared by its tests and, through `profile`, by
profiling.

Precondition. `run_suite` runs only programs that `semantics.validate`
accepts, and relies on it: names are declared before use, values have
the types their operators, conditions, indices and calls expect, every
call names a function with as many parameters as it passes arguments,
`print` is a statement, `break` and `continue` sit inside loops and a
non-void function returns a value on every path. None of this is checked
again while a program runs. The one input validation never sees is each
test's harness call; `run_suite` checks it with `semantics.check_call`,
and a call that fails the check is that test's RUNTIME_ERROR outcome.

Variables. A call keeps all its variables in one dict. Blocks and `for`
init clauses push no scope: validation forbids shadowing and enforces
declare-before-use, so a name in scope is never hidden, and a
declaration that reuses the name of a dead variable (from a sibling
block or an earlier loop iteration) overwrites it before it is read.

The cost model is unchanged:

  * every expression node costs 1 step when its evaluation starts, plus
    the cost of the sub-expressions it actually evaluates (so `&&`/`||`
    charge nothing for a short-circuited right operand);
  * every statement costs 1 step when it starts executing, plus its
    expressions and the sub-statements it executes;
  * loop headers re-charge their condition on every check, the failing
    final check included; a `for` additionally charges its init clause
    once and its update clause per iteration, each like a statement;
  * an assignment charges its target like an expression (1 for an index
    node plus base and subscript) before charging the right-hand side;
  * user calls charge 1 for the call node, each argument, then the callee
    body; `len` charges 1 plus its argument; `print` 1 plus arguments.

Each closure charges its steps through one method that compares the
counter with the budget. Reaching the budget clamps the counter to exactly
the budget and reports a timeout, so `steps_used == budget` iff the run
timed out; a finishing run always used strictly fewer steps. Division by
zero, an out-of-bounds index and calls nested too deeply are the runtime
errors a valid program can hit; they are reported in the outcome, never
raised out of the harness.

Depth rule. A call fails with "call depth exceeded" when MAX_CALL_DEPTH
calls are active, or when the weights of the active calls would exceed
MAX_NESTING_WEIGHT. A call weighs one more than the deepest nesting of
statements and expressions in its function, which compiling measures, so
the verdict is a function of the program alone. Compiling a level of
nesting takes at most _HOST_FRAMES_PER_LEVEL nested host calls and running
it one, and `run_suite` lifts Python's recursion limit by enough frames
for the whole weight, so the MiniLang limit is always reached first, also
for mutants nested deeper than the parser allows.

Integers are 64-bit two's complement, as in Java: `+`, `-`, `*`, unary
`-`, `/` and `%` wrap, `/` truncates toward zero and `%` takes the sign
of its left operand, so `MIN / -1 == MIN` and `MIN % -1 == 0`. Literals
keep the value they are written with.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

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
    If,
    Index,
    IntLit,
    Return,
    SourceUnit,
    Unary,
    Var,
    VarDecl,
    While,
)
from minigi.lang.parser import ParseError, parse_expression
from minigi.lang.semantics import check_call

DEFAULT_STEP_BUDGET = 1_000_000
MAX_CALL_DEPTH = 128
MAX_NESTING_WEIGHT = 2048  # the depth rule in the module docstring
# One level of nesting compiles in at most three nested host calls (the
# level's dispatch, its builder and a helper) and runs in at most one.
_HOST_FRAMES_PER_LEVEL = 3
_HOST_FRAMES = _HOST_FRAMES_PER_LEVEL * MAX_NESTING_WEIGHT + 256

# Profile bucket for steps charged outside any MiniLang function (the test
# harness call expression itself); excluded from hot-method ranking.
HARNESS_FRAME = "<harness>"

_MIN_INT = -(1 << 63)
_MAX_INT = (1 << 63) - 1


class Status(Enum):
    PASS = "pass"
    FAIL = "fail"
    RUNTIME_ERROR = "runtimeError"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExecutionOutcome:
    status: Status
    steps_used: int
    value: Optional[Any] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class TestCase:
    name: str
    call: Call
    expected: Any  # int, bool, or list[int]


class MiniLangRuntimeError(Exception):
    pass


class _Timeout(Exception):
    pass


# What a statement closure returns besides None (carry on) and a 1-tuple
# (the function returns its element): the innermost loop ends or continues.
_BREAK = object()
_CONTINUE = object()


def value_equal(a: Any, b: Any) -> bool:
    """Structural equality keeping bool and int apart (unlike Python's ==)."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is not list:
        return (kind is int or kind is bool) and a == b
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if not value_equal(x, y):
            return False
    return True


def _wrap(value: int) -> int:
    """`value` reduced to 64-bit two's complement."""
    return ((value - _MIN_INT) & 0xFFFF_FFFF_FFFF_FFFF) + _MIN_INT


def _div(left: int, right: int) -> int:
    if right == 0:
        raise MiniLangRuntimeError("division by zero")
    # C-style: quotient truncates toward zero, remainder follows it.
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


def _mod(left: int, right: int) -> int:
    return left - _div(left, right) * right


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "%": _mod}
_COMPARISON = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class _Machine:
    """What the compiled closures of one `run_suite` share: the functions
    compiled so far and the counters of the test that is running."""

    __slots__ = (
        "unit", "functions", "compiled", "budget", "profile", "steps", "calls", "weight", "inner"
    )

    def __init__(self, unit: SourceUnit, budget: int, profile: Optional[dict[str, int]]):
        self.unit = unit
        self.functions = {fn.name: fn for fn in unit.functions}
        self.compiled: dict[str, tuple[Callable, int]] = {}
        self.budget = budget
        self.profile = profile
        self.steps = 0
        self.calls = 0  # active MiniLang calls
        self.weight = 0  # summed weight of the active calls
        self.inner = [0]  # profiling: steps of the callees of each open call

    def charge(self, steps: int) -> None:
        self.steps += steps
        if self.steps >= self.budget:
            raise _Timeout()

    def callee(self, name: str) -> tuple[Callable, int]:
        """The compiled function `name`: its body and its weight. Compiling
        fails with the depth error when the weight would not fit beside
        the active calls."""
        entry = self.compiled.get(name)
        if entry is None:
            compiler = _Compiler(self, MAX_NESTING_WEIGHT - self.weight - 1)
            body = compiler.node(self.functions[name].body)
            entry = (body, compiler.deepest + 1)
            self.compiled[name] = entry
        return entry

    def profiled(self, name: str, body: Callable, env: dict) -> Any:
        """Run a call's body, charging its own steps to `name`. The budget
        is reached inside the innermost call, so clamping to it charges
        every open call exactly."""
        start = self.steps
        self.inner.append(0)
        try:
            return body(env)
        finally:
            spent = min(self.steps, self.budget) - start
            own = spent - self.inner.pop()
            if own:
                self.profile[name] = self.profile.get(name, 0) + own
            self.inner[-1] += spent

    def run(self, test: TestCase) -> ExecutionOutcome:
        errors = check_call(self.unit, test.call)
        if errors:
            return ExecutionOutcome(Status.RUNTIME_ERROR, 0, error=errors[0].message)
        self.steps = self.calls = 0
        self.inner = [0]
        try:
            compiler = _Compiler(self, MAX_NESTING_WEIGHT)
            harness = compiler.node(test.call)
            self.weight = compiler.deepest
            value = harness({})
        except _Timeout:
            return ExecutionOutcome(Status.TIMEOUT, self.budget)
        except MiniLangRuntimeError as exc:
            return ExecutionOutcome(Status.RUNTIME_ERROR, self.steps, error=str(exc))
        finally:
            if self.profile is not None:
                own = min(self.steps, self.budget) - self.inner[0]
                if own:
                    self.profile[HARNESS_FRAME] = self.profile.get(HARNESS_FRAME, 0) + own
        status = Status.PASS if value_equal(value, test.expected) else Status.FAIL
        return ExecutionOutcome(status, self.steps, value=value)


class _Compiler:
    """Compiles one function body, or one test's call, into closures.

    A closure takes the variables of its call, one dict from names to
    values. Expression closures return a value, statement closures None,
    _BREAK, _CONTINUE or a 1-tuple."""

    def __init__(self, machine: _Machine, room: int):
        self.machine = machine
        self.charge = machine.charge
        self.level = 0
        self.deepest = 0
        self.room = room  # levels of nesting that fit beside the active calls

    def node(self, n) -> Callable:
        self.level += 1
        if self.level > self.deepest:
            self.deepest = self.level
            if self.level > self.room:
                raise MiniLangRuntimeError("call depth exceeded")
        closure = _BUILDERS[type(n)](self, n)
        self.level -= 1
        return closure

    # -- expressions --

    def literal(self, e):
        charge, value = self.charge, e.value

        def f(env):
            charge(1)
            return value

        return f

    def variable(self, e):
        charge, name = self.charge, e.name

        def f(env):
            charge(1)
            return env[name]

        return f

    def array(self, e):
        charge, elements = self.charge, [self.node(x) for x in e.elements]

        def f(env):
            charge(1)
            values = []
            for element in elements:
                values.append(element(env))
            return values

        return f

    def unary(self, e):
        charge, operand = self.charge, self.node(e.operand)
        if e.op == "-":

            def f(env):
                charge(1)
                v = -operand(env)
                return v if _MIN_INT <= v <= _MAX_INT else _wrap(v)

            return f

        def f(env):
            charge(1)
            return not operand(env)

        return f

    def binary(self, e):
        charge, op = self.charge, e.op
        if op in ("&&", "||"):
            left, right = self.node(e.left), self.node(e.right)
            decided = op == "||"  # the left value that skips the right operand

            def f(env):
                charge(1)
                v = left(env)
                return v if v is decided else right(env)

            return f
        if op in ("==", "!="):
            left, right = self.node(e.left), self.node(e.right)
            same = op == "=="

            def f(env):
                charge(1)
                return (left(env) == right(env)) is same

            return f
        apply = _ARITHMETIC.get(op)
        wraps = apply is not None
        apply = apply or _COMPARISON[op]
        left, right = self.node(e.left), self.node(e.right)

        def f(env):
            charge(1)
            v = apply(left(env), right(env))
            return v if not wraps or _MIN_INT <= v <= _MAX_INT else _wrap(v)

        return f

    def index(self, e):
        charge, base, subscript = self.charge, self.node(e.base), self.node(e.index)

        def f(env):
            charge(1)
            array, k = base(env), subscript(env)
            if 0 <= k < len(array):
                return array[k]
            raise MiniLangRuntimeError(f"index {k} out of bounds for length {len(array)}")

        return f

    def call(self, e):
        name = e.name
        if name == "len":
            return self.length(e)
        charge, args = self.charge, [self.node(a) for a in e.args]
        if name == "print":

            def f(env):
                charge(1)
                for arg in args:
                    arg(env)

            return f
        m, params = self.machine, [p.name for p in self.machine.functions[name].params]

        def f(env):
            charge(1)
            values = []
            for arg in args:
                values.append(arg(env))
            if m.calls >= MAX_CALL_DEPTH:
                raise MiniLangRuntimeError("call depth exceeded")
            body, weight = m.callee(name)
            if m.weight + weight > MAX_NESTING_WEIGHT:
                raise MiniLangRuntimeError("call depth exceeded")
            callee_env = dict(zip(params, values))
            m.calls += 1
            m.weight += weight
            if m.profile is None:
                signal = body(callee_env)
            else:
                signal = m.profiled(name, body, callee_env)
            m.calls -= 1
            m.weight -= weight
            return None if signal is None else signal[0]

        return f

    def length(self, e):
        charge, arg = self.charge, self.node(e.args[0])

        def f(env):
            charge(1)
            return len(arg(env))

        return f

    # -- statements --

    def block(self, s):
        charge, body = self.charge, [self.node(x) for x in s.statements]

        def f(env):
            charge(1)
            for statement in body:
                signal = statement(env)
                if signal is not None:
                    return signal

        return f

    def var_decl(self, s):
        charge, init, name = self.charge, self.node(s.init), s.name

        def f(env):
            charge(1)
            env[name] = init(env)

        return f

    def assign(self, s):
        charge, target = self.charge, s.target
        if type(target) is Index:
            base, subscript = self.node(target.base), self.node(target.index)
            value = self.node(s.value)

            def f(env):
                charge(2)
                array, i, v = base(env), subscript(env), value(env)
                if 0 <= i < len(array):
                    array[i] = v
                    return
                raise MiniLangRuntimeError(f"index {i} out of bounds for length {len(array)}")

            return f
        value, name = self.node(s.value), target.name

        def f(env):
            charge(2)
            env[name] = value(env)

        return f

    def if_(self, s):
        charge, cond, then = self.charge, self.node(s.cond), self.node(s.then_block)
        orelse = self.node(s.orelse) if s.orelse is not None else None

        def f(env):
            charge(1)
            if cond(env):
                return then(env)
            return None if orelse is None else orelse(env)

        return f

    def loop(self, s):
        """A `while`, or a `for`: its init clause runs once and its update
        clause after each iteration."""
        init = self.node(s.init) if type(s) is For else None
        cond = self.node(s.cond)
        update = self.node(s.update) if type(s) is For else None
        charge, body = self.charge, self.node(s.body)

        def f(env):
            charge(1)
            if init is not None:
                init(env)
            while cond(env):
                signal = body(env)
                if signal is not None and signal is not _CONTINUE:
                    return None if signal is _BREAK else signal
                if update is not None:
                    update(env)

        return f

    def jump(self, s):
        charge, signal = self.charge, _BREAK if type(s) is Break else _CONTINUE

        def f(env):
            charge(1)
            return signal

        return f

    def return_(self, s):
        charge = self.charge
        if s.value is None:

            def f(env):
                charge(1)
                return (None,)

            return f
        value = self.node(s.value)

        def f(env):
            charge(1)
            return (value(env),)

        return f

    def expr_stmt(self, s):
        charge, expr = self.charge, self.node(s.expr)

        def f(env):
            charge(1)
            expr(env)

        return f


_BUILDERS: dict[type, Callable] = {
    IntLit: _Compiler.literal,
    BoolLit: _Compiler.literal,
    ArrayLit: _Compiler.array,
    Var: _Compiler.variable,
    Unary: _Compiler.unary,
    Binary: _Compiler.binary,
    Index: _Compiler.index,
    Call: _Compiler.call,
    Block: _Compiler.block,
    VarDecl: _Compiler.var_decl,
    Assign: _Compiler.assign,
    If: _Compiler.if_,
    While: _Compiler.loop,
    For: _Compiler.loop,
    Break: _Compiler.jump,
    Continue: _Compiler.jump,
    Return: _Compiler.return_,
    ExprStmt: _Compiler.expr_stmt,
}


# -- unit-test harness --


def run_test(
    unit: SourceUnit,
    test: TestCase,
    step_budget: int = DEFAULT_STEP_BUDGET,
    profile: Optional[dict[str, int]] = None,
) -> ExecutionOutcome:
    """Run one test case; a timeout or runtime error is an outcome, not a crash."""
    return run_suite(unit, [test], step_budget, profile)[0]


def run_suite(
    unit: SourceUnit,
    tests: list[TestCase],
    step_budget: int = DEFAULT_STEP_BUDGET,
    profile: Optional[dict[str, int]] = None,
) -> list[ExecutionOutcome]:
    """Run every test independently; no short-circuiting on failure.

    `unit` must pass `semantics.validate` (the precondition in the module
    docstring). A test whose harness call fails `semantics.check_call`
    gets a RUNTIME_ERROR outcome, so no test file makes this raise.
    Functions compile on their first call and the compiled form is shared
    by the tests; a call's variables live in one dict. `profile`, when given, accumulates each function's self
    cost in steps, and HARNESS_FRAME's. The process's recursion limit is
    lifted while the suite runs, so run one suite at a time per process."""
    if step_budget <= 0:
        raise ValueError("step budget must be positive")
    machine = _Machine(unit, step_budget, profile)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _HOST_FRAMES)
    try:
        return [machine.run(t) for t in tests]
    finally:
        sys.setrecursionlimit(limit)
        machine.compiled.clear()  # the closures refer back to the machine


# -- test-file format: `test <name>: <callExpr> == <literal>` --


def _literal_value(expr: Expr) -> Any:
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Unary) and expr.op == "-" and isinstance(expr.operand, IntLit):
        return -expr.operand.value
    if isinstance(expr, ArrayLit):
        return [_literal_value(e) for e in expr.elements]
    raise ValueError("not a literal")


def parse_test_file(text: str) -> list[TestCase]:
    """Parse a `.tests` file; raises ParseError with the offending line number."""
    tests: list[TestCase] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if not line.startswith("test "):
            raise ParseError("expected `test <name>: <call> == <literal>`", lineno, 1)
        head, sep, rest = line[len("test "):].partition(":")
        name = head.strip()
        if not sep or not name:
            raise ParseError("missing `:` after test name", lineno, 1)
        try:
            expr = parse_expression(rest.strip())
        except ParseError as exc:
            raise ParseError(exc.message, lineno, exc.col) from None
        if not (isinstance(expr, Binary) and expr.op == "=="):
            raise ParseError("test body must be `<call> == <literal>`", lineno, 1)
        if not isinstance(expr.left, Call):
            raise ParseError("left side of `==` must be a function call", lineno, 1)
        try:
            for arg in expr.left.args:
                _literal_value(arg)
            expected = _literal_value(expr.right)
        except ValueError:
            raise ParseError("test arguments and expectation must be literals", lineno, 1) from None
        tests.append(TestCase(name, expr.left, expected))
    return tests
