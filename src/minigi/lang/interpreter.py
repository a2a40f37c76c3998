"""Closure-compiled interpreter with deterministic step counting.

Runtime is measured in interpreter steps, a deterministic stand-in for
wall-clock time in the built-in evaluation backend.

Compile step. `run_suite` compiles each `Function` into nested Python
closures on its first call, after Feeley & Lapalme, "Using closures for
code generation" (1987): each node becomes one closure that calls the
closures of its children, so the dispatch on node kinds happens once per
node instead of once per step. The compiled form lives for one
`run_suite` call and is shared by its tests and, through `profile`, by
profiling. Names resolve as they did in the tree-walking interpreter this
replaced: a call starts a chain of scopes, and each block it enters adds
one.

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
zero, an out-of-bounds index, falling off a non-void function and calls
nested too deeply are reported as runtime errors in the outcome, never
raised out of the harness. A `break` or `continue` outside any loop ends
the function body like falling off its end; validation rejects such
programs.

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
    Type,
    Unary,
    Var,
    VarDecl,
    While,
)
from minigi.lang.parser import ParseError, parse_expression

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


@dataclass(frozen=True)
class _PrintStatement(Call):
    """A `print` that is a statement of its own, the one place it may be void."""


# What a statement closure returns besides None (carry on) and a 1-tuple
# (the function returns its element): the innermost loop ends or continues.
_BREAK = object()
_CONTINUE = object()
# The value of a void call, reported as None.
_VOID = object()


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


def _index_error(array: Any, index: Any) -> MiniLangRuntimeError:
    if type(array) is not list:
        return MiniLangRuntimeError("indexed value is not an array")
    if type(index) is not int:
        return MiniLangRuntimeError("array index is not an int")
    return MiniLangRuntimeError(f"index {index} out of bounds for length {len(array)}")


class _Machine:
    """What the compiled closures of one `run_suite` share: the functions
    compiled so far and the counters of the test that is running."""

    __slots__ = ("functions", "compiled", "budget", "profile", "steps", "calls", "weight", "inner")

    def __init__(self, unit: SourceUnit, budget: int, profile: Optional[dict[str, int]]):
        self.functions = {fn.name: fn for fn in unit.functions}
        self.compiled: dict[str, tuple[Callable, int, bool]] = {}
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

    def callee(self, name: str) -> tuple[Callable, int, bool]:
        """The compiled function `name`: its body, its weight and whether
        it is void. Compiling fails with the depth error when the weight
        would not fit beside the active calls."""
        entry = self.compiled.get(name)
        if entry is None:
            fn = self.functions[name]
            compiler = _Compiler(self, MAX_NESTING_WEIGHT - self.weight - 1)
            body = compiler.node(fn.body)
            entry = (body, compiler.deepest + 1, fn.return_type is Type.VOID)
            self.compiled[name] = entry
        return entry

    def profiled(self, name: str, body: Callable, env: list[dict]) -> Any:
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
        self.steps = self.calls = 0
        self.inner = [0]
        try:
            compiler = _Compiler(self, MAX_NESTING_WEIGHT)
            harness = compiler.node(test.call)
            self.weight = compiler.deepest
            value = harness([{}])
        except _Timeout:
            return ExecutionOutcome(Status.TIMEOUT, self.budget)
        except MiniLangRuntimeError as exc:
            return ExecutionOutcome(Status.RUNTIME_ERROR, self.steps, error=str(exc))
        finally:
            if self.profile is not None:
                own = min(self.steps, self.budget) - self.inner[0]
                if own:
                    self.profile[HARNESS_FRAME] = self.profile.get(HARNESS_FRAME, 0) + own
        if value is _VOID:
            value = None
        status = Status.PASS if value_equal(value, test.expected) else Status.FAIL
        return ExecutionOutcome(status, self.steps, value=value)


class _Compiler:
    """Compiles one function body, or one test's call, into closures.

    A closure takes the scope chain of its call, a list of dicts from
    names to values, innermost last. Expression closures return a value,
    statement closures None, _BREAK, _CONTINUE or a 1-tuple."""

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

    def fail(self, message: str) -> Callable:
        """A node whose evaluation fails as soon as its step is charged."""
        charge = self.charge

        def f(env):
            charge(1)
            raise MiniLangRuntimeError(message)

        return f

    # -- expressions --

    def literal(self, e):
        charge, value = self.charge, e.value

        def f(env):
            charge(1)
            return value

        return f

    def variable(self, e):
        charge, name = self.charge, e.name
        message = f"unknown variable {name!r}"

        def f(env):
            charge(1)
            for scope in reversed(env):
                if name in scope:
                    return scope[name]
            raise MiniLangRuntimeError(message)

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
                v = operand(env)
                if type(v) is not int:
                    raise MiniLangRuntimeError("operand of unary '-' is not an int")
                v = -v
                return v if _MIN_INT <= v <= _MAX_INT else _wrap(v)

            return f

        def f(env):
            charge(1)
            v = operand(env)
            if type(v) is not bool:
                raise MiniLangRuntimeError("operand of '!' is not a bool")
            return not v

        return f

    def binary(self, e):
        charge, op = self.charge, e.op
        if op in ("&&", "||"):
            left, right = self.node(e.left), self.node(e.right)
            decided = op == "||"  # the left value that skips the right operand

            def f(env):
                charge(1)
                v = left(env)
                if v is decided:
                    return v
                if type(v) is bool:
                    v = right(env)
                    if type(v) is bool:
                        return v
                raise MiniLangRuntimeError("condition is not a bool")

            return f
        if op in ("==", "!="):
            left, right = self.node(e.left), self.node(e.right)
            same = op == "=="

            def f(env):
                charge(1)
                return value_equal(left(env), right(env)) is same

            return f
        apply = _ARITHMETIC.get(op)
        wraps = apply is not None
        apply = apply or _COMPARISON[op]
        message = f"operand of {op!r} is not an int"
        left, right = self.node(e.left), self.node(e.right)

        def f(env):
            charge(1)
            x, y = left(env), right(env)
            if type(x) is not int or type(y) is not int:
                raise MiniLangRuntimeError(message)
            v = apply(x, y)
            return v if not wraps or _MIN_INT <= v <= _MAX_INT else _wrap(v)

        return f

    def index(self, e):
        charge, base, subscript = self.charge, self.node(e.base), self.node(e.index)

        def f(env):
            charge(1)
            array, k = base(env), subscript(env)
            if type(array) is list and type(k) is int and 0 <= k < len(array):
                return array[k]
            raise _index_error(array, k)

        return f

    def call(self, e):
        name, argc = e.name, len(e.args)
        if name == "len":
            return self.length(e)
        charge = self.charge
        if name == "print":
            args, void = [self.node(a) for a in e.args], type(e) is _PrintStatement

            def f(env):
                charge(1)
                for arg in args:
                    arg(env)
                if not void:
                    raise MiniLangRuntimeError("print used as a value")
                return _VOID

            return f
        fn = self.machine.functions.get(name)
        if fn is None:
            return self.fail(f"unknown function {name!r}")
        if argc != len(fn.params):
            return self.fail(f"call to {name!r} with {argc} arguments, expected {len(fn.params)}")
        m, args = self.machine, [self.node(a) for a in e.args]
        params = [p.name for p in fn.params]

        def f(env):
            charge(1)
            values = []
            for arg in args:
                values.append(arg(env))
            if m.calls >= MAX_CALL_DEPTH:
                raise MiniLangRuntimeError("call depth exceeded")
            body, weight, void = m.callee(name)
            if m.weight + weight > MAX_NESTING_WEIGHT:
                raise MiniLangRuntimeError("call depth exceeded")
            callee_env = [dict(zip(params, values))]
            m.calls += 1
            m.weight += weight
            if m.profile is None:
                signal = body(callee_env)
            else:
                signal = m.profiled(name, body, callee_env)
            m.calls -= 1
            m.weight -= weight
            if type(signal) is tuple:
                return signal[0]
            if void:
                return _VOID
            raise MiniLangRuntimeError(f"{name!r} finished without returning a value")

        return f

    def length(self, e):
        if len(e.args) != 1:
            return self.fail("len takes exactly one argument")
        charge, arg = self.charge, self.node(e.args[0])

        def f(env):
            charge(1)
            v = arg(env)
            if type(v) is list:
                return len(v)
            raise MiniLangRuntimeError("argument of len is not an array")

        return f

    # -- statements --

    def block(self, s):
        charge, body = self.charge, [self.node(x) for x in s.statements]

        def f(env):
            charge(1)
            env.append({})
            for statement in body:
                signal = statement(env)
                if signal is not None:
                    env.pop()
                    return signal
            env.pop()

        return f

    def var_decl(self, s):
        charge, init, name = self.charge, self.node(s.init), s.name

        def f(env):
            charge(1)
            env[-1][name] = init(env)

        return f

    def assign(self, s):
        charge, target = self.charge, s.target
        if type(target) is Index:
            base, subscript = self.node(target.base), self.node(target.index)
            value = self.node(s.value)

            def f(env):
                charge(2)
                array, i, v = base(env), subscript(env), value(env)
                if type(array) is list and type(i) is int and 0 <= i < len(array):
                    array[i] = v
                    return
                raise _index_error(array, i)

            return f
        value, name = self.node(s.value), target.name
        message = f"assignment to undeclared variable {name!r}"

        def f(env):
            charge(2)
            v = value(env)
            for scope in reversed(env):
                if name in scope:
                    scope[name] = v
                    return
            raise MiniLangRuntimeError(message)

        return f

    def if_(self, s):
        charge, cond, then = self.charge, self.node(s.cond), self.node(s.then_block)
        orelse = self.node(s.orelse) if s.orelse is not None else None

        def f(env):
            charge(1)
            v = cond(env)
            if v is True:
                return then(env)
            if v is False:
                return None if orelse is None else orelse(env)
            raise MiniLangRuntimeError("condition is not a bool")

        return f

    def loop(self, s):
        """A `while`, or a `for`: its init clause runs once in a scope of
        its own and its update clause after each iteration."""
        init = self.node(s.init) if type(s) is For else None
        cond = self.node(s.cond)
        update = self.node(s.update) if type(s) is For else None
        charge, body = self.charge, self.node(s.body)

        def f(env):
            charge(1)
            if init is not None:
                env.append({})
                init(env)
            result = None
            while True:
                v = cond(env)
                if v is not True:
                    if v is False:
                        break
                    raise MiniLangRuntimeError("condition is not a bool")
                signal = body(env)
                if signal is not None and signal is not _CONTINUE:
                    if signal is not _BREAK:
                        result = signal
                    break
                if update is not None:
                    update(env)
            if init is not None:
                env.pop()
            return result

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
                return (_VOID,)

            return f
        value = self.node(s.value)

        def f(env):
            charge(1)
            return (value(env),)

        return f

    def expr_stmt(self, s):
        e = s.expr
        if type(e) is Call and e.name == "print":
            e = _PrintStatement(e.name, e.args)
        charge, expr = self.charge, self.node(e)

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
    _PrintStatement: _Compiler.call,
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

    Functions compile on their first call and the compiled form is shared
    by the tests. `profile`, when given, accumulates each function's self
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
