"""Closure-compiled interpreter with deterministic step counting.

Runtime is measured in interpreter steps, a deterministic stand-in for
wall-clock time in the built-in evaluation backend.

Compile step. `run_suite` compiles each `Function` into nested Python
closures on its first call, after Feeley & Lapalme, "Using closures for
code generation" (1987): each node becomes a closure that calls the
closures of its children, so the dispatch on node kinds happens once per
node instead of once per step. Operands follow one rule: a binary
operator or comparison reads a variable on its left by name and, after
it, a variable or a literal on its right inline, and every other pair of
operands runs both closures; an index of a variable by a variable, `len`
of a variable and a store of a literal read theirs inline as well. A
block of one statement runs as that statement, and what follows a
`break`, `continue` or `return` in a block is compiled for its nesting
but never runs. A `continue` that ends the live
statements of a loop body's own block runs as a flat step that sends no
signal, since reaching the end of the body continues the loop as well;
one inside an `if` or a nested block still signals. A compiled function
is shared by the tests of its suite and, through `profile`, by
profiling. Compiled closures refer to no program, only to the command's
one machine, which each suite points at its own functions, and a call
finds its callee by name in the running program. So the closures of
each test's harness call and of each subtree the command's
`ast.BaseProgram` owns (a node of a base function or of a parsed
payload) are kept in the BaseProgram and reused by every suite of the
command: `_Compiler.node` keeps a subtree's closures and nesting depth
by node identity and compile context. A base function's body is such a
subtree, so each suite compiles it as one kept hit, and a patched
function, whose only new nodes are the spine its patch rebuilt and the
new leaves, compiles those and takes every other subtree as kept. Each
suite's table of compiled functions is dropped when the suite ends; a
caller without a BaseProgram gets one for its single `run_suite` call.
The machine holds the BaseProgram only while a suite runs, so nothing
the BaseProgram keeps refers back to it.

Precondition. `run_suite` runs only programs that `semantics.validate`
accepts, and relies on it: names are declared before use, values have
the types their operators, conditions, indices and calls expect, every
call names a function with as many parameters as it passes arguments,
`print` is a statement, `break` and `continue` sit inside loops and a
non-void function returns a value on every path. None of this is checked
again while a program runs. The one input validation never sees is each
test's harness call. It is checked with `semantics.check_call` and
compiled before the test runs, once per BaseProgram, that is once per
command: a patch changes no signature, so the verdict holds for every patch. A call that fails the check is that test's
RUNTIME_ERROR outcome.

Variables. A call keeps all its variables in one dict. Blocks and `for`
init clauses push no scope: validation forbids shadowing and enforces
declare-before-use, so a name in scope is never hidden, and a
declaration that reuses the name of a dead variable (from a sibling
block or an earlier loop iteration) overwrites it before it is read.
`semantics` checks a function with one dict of names on the same rule.

The cost model:

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

Steps are charged through one method that adds to the counter and
compares it with the budget, or by a loop (below) that sets the counter
to the budget at its first check when that check shows the loop never
ends. Reaching the budget clamps the counter to exactly the budget and
reports a timeout, so `steps_used == budget` iff the run timed out; a
finishing run always used strictly fewer steps.

Fused charges. A node's fixed steps, its own and the leading steps of the
operands it evaluates first, are charged in one call before it runs,
together with those of the nodes after it for as long as each node in
between is flat: it charges nothing itself and can neither fail, branch,
call nor return a signal. A loop charges its condition in one call per
check, joined with the steps of its body and update where those are
flat, so a loop whose condition, body and update are all flat charges
once per iteration. Nothing a flat node runs reads the counter. Such a
loop whose body and update assign no variable its condition reads, as
when a mutant deletes a loop's increment, is decided at its first
check: flat statements write only variables and a flat condition reads
only variables and the lengths of the arrays they hold, so the condition
has the same value at every check. False ends the loop as usual; true means
that it never ends, and the loop sets the counter to the budget and
raises the timeout without iterating. This is exact: no failure point,
branch or call lies between two merged charges, so a run reaches the
budget, fails or ends after the same number of steps as when every node
charges for itself; a loop decided at its first check would have
reached the budget, since each of its iterations charges at least one
step, and a timeout reports the budget and charges the profile up to it
whatever the counter holds. So timeouts, the steps at a runtime error,
the profile's self costs and every logged runtime are the same.

Division by zero, an out-of-bounds index and calls nested too deeply are
the runtime errors a valid program can hit; they are reported in the
outcome, never raised out of the harness.

Depth rule. A call fails with "call depth exceeded" when MAX_CALL_DEPTH
calls are active, or when the weights of the active calls would exceed
MAX_NESTING_WEIGHT. A call weighs one more than the deepest nesting of
statements and expressions in its function, which compiling measures, so
the verdict is a function of the program alone. The first call compiles
the callee only as deep as fits beside the active calls and fails when it
does not fit, keeping no compiled function; every later call in this
suite applies the same condition to the stored weight, so a function
refused under deep calls still runs when it is reached shallowly, with
the same outcome as in a fresh suite. A kept subtree, a base function's
body among them, is held to the same rule at its kept depth, so it fails
where compiling it would. Compiling
a level of nesting takes at most _HOST_FRAMES_PER_LEVEL nested host calls
and running it at most two, and `run_suite` lifts Python's recursion
limit by enough frames for the whole weight, so the MiniLang limit is
always reached first, also for mutants nested deeper than the parser
allows.

Integers are 64-bit two's complement, as in Java: `+`, `-`, `*`, unary
`-`, `/` and `%` wrap, `/` truncates toward zero and `%` takes the sign
of its left operand, so `MIN / -1 == MIN` and `MIN % -1 == 0`. Literals
keep the value they are written with.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Callable
from enum import Enum

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
    Unary,
    Var,
    VarDecl,
    While,
    record,
    tree_nodes,
)
from minigi.lang.parser import ParseError, parse_expression
from minigi.lang.semantics import check_call

DEFAULT_STEP_BUDGET = 1_000_000
MAX_CALL_DEPTH = 128
MAX_NESTING_WEIGHT = 2048  # the depth rule in the module docstring
# One level of nesting compiles in at most three nested host calls (the
# level's dispatch, its builder and a helper) and runs in at most two (its
# closure and, for an operand whose steps could not join its parent's
# charge, the closure that charges them); the frame a call adds to run
# its body is the one its weight counts beyond its nesting. Active calls
# hold at most two frames per unit of weight and a function being compiled
# at most three per level of the room left beside them, so three frames
# per unit of MAX_NESTING_WEIGHT bound both together.
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


@record
class ExecutionOutcome:
    status: Status
    steps_used: int
    value: object = None
    error: str | None = None


@record
class TestCase:
    name: str
    call: Call
    expected: object  # int, bool, or list[int]


class MiniLangRuntimeError(Exception):
    pass


class _Timeout(Exception):
    pass


# What a statement closure returns besides None (carry on) and a 1-tuple
# (the function returns its element): the innermost loop ends or continues.
_BREAK = object()
_CONTINUE = object()
_JUMPS = (Break, Continue, Return)  # statements that always return a signal


def value_equal(a: object, b: object) -> bool:
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
_COMPARISONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


class _Machine:
    """What compiled closures share: the BaseProgram and functions of the
    suite that is running, those compiled so far and the counters of the
    running test. A machine serves every suite of its BaseProgram's
    command, and the owned subtrees and the harness calls stay compiled
    between suites."""

    __slots__ = (
        "base", "functions", "compiled", "budget", "profile", "steps", "calls", "weight", "inner"
    )

    def __init__(self):
        self.base: BaseProgram | None = None
        self.functions: dict[str, Function] = {}
        self.compiled: dict[str, tuple[int, Callable, int]] = {}
        self.budget = 0
        self.profile: dict[str, int] | None = None
        self.steps = 0
        self.calls = 0  # active MiniLang calls
        self.weight = 0  # summed weight of the active calls
        self.inner = [0]  # profiling: steps of the callees of each open call

    def start(
        self, base: BaseProgram, unit: SourceUnit, budget: int, profile: dict[str, int] | None
    ) -> None:
        self.base = base
        self.functions = {fn.name: fn for fn in unit.functions}
        self.budget = budget
        self.profile = profile

    def finish(self) -> None:
        """Drop the suite's BaseProgram, its program and what was compiled
        from it alone. The BaseProgram's closures refer to the machine, so
        holding it between suites would make a reference cycle."""
        self.base = None
        self.functions = {}
        self.compiled.clear()
        self.profile = None

    def charge(self, steps: int) -> None:
        self.steps += steps
        if self.steps >= self.budget:
            raise _Timeout()

    def callee(self, name: str) -> tuple[int, Callable, int]:
        """The compiled function `name`: the steps its body charges first,
        the body and its weight. Compiling stops with the depth error when
        the function's nesting would not fit beside the active calls; a
        function compiled earlier is held to the same rule at each call."""
        entry = self.compiled.get(name)
        if entry is None:
            entry = self.compiled[name] = self.compile(self.functions[name])
        return entry

    def compile(self, fn: Function) -> tuple[int, Callable, int]:
        compiler = _Compiler(self, MAX_NESTING_WEIGHT - self.weight - 1)
        lead, body, _flat = compiler.node(fn.body)
        return lead, body, compiler.deepest + 1

    def harness(self, unit: SourceUnit, test: TestCase) -> tuple[int, Callable, int] | str:
        """`test`'s harness call compiled: the steps it charges first, its
        closure and its weight; or the message of the error that makes the
        test a RUNTIME_ERROR before any step is charged."""
        errors = check_call(unit, test.call)
        if errors:
            return errors[0].message
        compiler = _Compiler(self, MAX_NESTING_WEIGHT)
        try:
            lead, call, _flat = compiler.node(test.call)
        except MiniLangRuntimeError as exc:
            return str(exc)
        return lead, call, compiler.deepest

    def profiled(self, name: str, lead: int, body: Callable, env: dict) -> object:
        """Run a call's body, charging its own steps to `name`. The budget
        is reached inside the innermost call, so clamping to it charges
        every open call exactly."""
        start = self.steps
        self.inner.append(0)
        try:
            self.charge(lead)
            return body(env)
        finally:
            spent = min(self.steps, self.budget) - start
            own = spent - self.inner.pop()
            if own:
                self.profile[name] = self.profile.get(name, 0) + own
            self.inner[-1] += spent

    def run(self, test: TestCase, harness: tuple[int, Callable, int] | str) -> ExecutionOutcome:
        if type(harness) is str:
            return ExecutionOutcome(Status.RUNTIME_ERROR, 0, error=harness)
        lead, call, self.weight = harness
        self.steps = self.calls = 0
        self.inner = [0]
        try:
            self.charge(lead)
            value = call({})
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


def _charges(parts) -> list[int]:
    """The steps to charge just before each of a sequence of compiled parts
    runs. A part's cost joins the charge of the part before it when that
    part is flat, so a run of flat parts and the part after them are
    charged in one call, before the first of them runs; 0 marks a part
    that an earlier charge covered."""
    charges: list[int] = []
    head = None  # index of the charge that the next part's cost joins
    for cost, _closure, flat in parts:
        if head is None:
            head = len(charges)
            charges.append(cost)
        else:
            charges[head] += cost
            charges.append(0)
        if not flat:
            head = None
    return charges


def _charging(charge: Callable, cost: int, closure: Callable) -> Callable:
    """`closure` behind a charge of `cost`: the form of an operand whose
    cost could not join its parent's charge."""

    def f(env):
        charge(cost)
        return closure(env)

    return f


def _values(closures: list[Callable]) -> Callable:
    """The closure that evaluates `closures` in order into a list."""

    def f(env):
        values = []
        for closure in closures:
            values.append(closure(env))
        return values

    return f


def _nothing(env) -> None:
    """An empty block."""


def _binary(apply: Callable, e: Binary, left: Callable, right: Callable) -> Callable:
    """`apply`, an arithmetic operator, to the operands of `e`, wrapped to
    64 bits. A variable on the left is read by name, and after it a
    variable or a literal on the right is read inline; any other pair runs
    both closures, `left` and `right`."""
    if type(e.left) is not Var:

        def f(env):
            v = apply(left(env), right(env))
            return v if _MIN_INT <= v <= _MAX_INT else _wrap(v)

        return f
    a, kind = e.left.name, type(e.right)
    if kind is Var:
        b = e.right.name

        def f(env):
            v = apply(env[a], env[b])
            return v if _MIN_INT <= v <= _MAX_INT else _wrap(v)

    elif kind is IntLit or kind is BoolLit:
        b = e.right.value

        def f(env):
            v = apply(env[a], b)
            return v if _MIN_INT <= v <= _MAX_INT else _wrap(v)

    else:

        def f(env):
            v = apply(env[a], right(env))
            return v if _MIN_INT <= v <= _MAX_INT else _wrap(v)

    return f


def _compare(apply: Callable, e: Binary, left: Callable, right: Callable) -> Callable:
    """`apply`, a comparison, to the operands of `e` read as `_binary`
    reads them. A comparison's bool needs no 64-bit wrap."""
    if type(e.left) is not Var:

        def f(env):
            return apply(left(env), right(env))

        return f
    a, kind = e.left.name, type(e.right)
    if kind is Var:
        b = e.right.name

        def f(env):
            return apply(env[a], env[b])

    elif kind is IntLit or kind is BoolLit:
        b = e.right.value

        def f(env):
            return apply(env[a], b)

    else:

        def f(env):
            return apply(env[a], right(env))

    return f


def _invariant(s: While | For) -> bool:
    """Whether no statement of the loop `s` that runs in an iteration, in
    its body or its `for` update, assigns a variable that its condition
    reads; statements after a `break`, `continue` or `return` never run, as
    in `_Compiler.block`. `_Compiler.loop` asks only when the condition,
    body and update are flat. A flat body or update writes only variables,
    by declarations and by stores to a variable, and a flat condition reads
    only variables and the lengths of arrays they hold, so then the
    condition has the same value at every check and the first check
    decides the loop. A declaration in the body names no variable the
    condition reads: validation forbids shadowing."""
    reads = {x.name for x in tree_nodes(s.cond) if type(x) is Var}
    todo = [s.body, s.update] if type(s) is For else [s.body]
    while todo:
        x = todo.pop()
        if type(x) is Block:
            for statement in x.statements:
                todo.append(statement)
                if type(statement) in _JUMPS:
                    break
        elif type(x) is Assign and x.target.name in reads:
            return False
    return True


def _index_error(k: int, array: list) -> MiniLangRuntimeError:
    return MiniLangRuntimeError(f"index {k} out of bounds for length {len(array)}")


class _Compiler:
    """Compiles one function body, or one test's call, into closures.

    `node` returns a triple (cost, closure, flat). `cost` is the steps the
    node charges before anything in it can fail or branch: its own step
    and the leading steps of the operands it evaluates first. Whoever runs
    the closure charges `cost` just before; the closure charges the rest.
    `flat` means the closure charges nothing itself and can neither raise
    nor return a signal, so the cost of what runs after it can join the
    same charge (`_charges`).

    A closure takes the variables of its call, one dict from names to
    values. Expression closures return a value, statement closures None,
    _BREAK, _CONTINUE or a 1-tuple."""

    def __init__(self, machine: _Machine, room: int):
        base = machine.base
        self.machine = machine
        self.charge = machine.charge
        self.owned, self.kept = base.owned, base.closures
        self.level = 0
        self.deepest = 0
        self.room = room  # levels of nesting that fit beside the active calls

    def node(self, n, *context) -> tuple[int, Callable, bool]:
        """`n` compiled one level deeper; `context` goes to its builder.
        A node the command owns is compiled once per context and kept with its
        depth, the levels of nesting from it down to its deepest node. A
        kept node is checked against the room at that depth and counts
        toward `deepest` as compiling it would, so it fails exactly where
        a fresh compile fails."""
        level = self.level
        owned = id(n) in self.owned
        if owned:
            key = (id(n), context)
            kept = self.kept.get(key)
            if kept is not None:
                compiled, depth = kept
                if level + depth > self.deepest:
                    self.deepest = level + depth
                    if self.deepest > self.room:
                        raise MiniLangRuntimeError("call depth exceeded")
                return compiled
            outer, self.deepest = self.deepest, level  # from here `deepest` is n's own
        self.level = level + 1
        if self.level > self.deepest:
            self.deepest = self.level
            if self.level > self.room:
                raise MiniLangRuntimeError("call depth exceeded")
        compiled = _BUILDERS[type(n)](self, n, *context)
        self.level = level
        if owned:
            self.kept[key] = compiled, self.deepest - level
            if outer > self.deepest:
                self.deepest = outer
        return compiled

    def operands(self, nodes) -> tuple[int, list[Callable], bool]:
        """Operands evaluated in order: the steps due before the first runs
        (the costs of the operands up to the first one that is not flat),
        the closures, each operand after that one charging for itself, and
        whether all are flat."""
        lead, closures, flat = 0, [], True
        for x in nodes:
            cost, closure, x_flat = self.node(x)
            if flat:
                lead += cost
            else:
                closure = _charging(self.charge, cost, closure)
            closures.append(closure)
            flat = flat and x_flat
        return lead, closures, flat

    # -- expressions --

    def literal(self, e):
        value = e.value

        def f(env):
            return value

        return 1, f, True

    def variable(self, e):
        return 1, operator.itemgetter(e.name), True

    def array(self, e):
        cost, elements, flat = self.operands(e.elements)
        return 1 + cost, _values(elements), flat

    def unary(self, e):
        cost, operand, flat = self.node(e.operand)
        if e.op == "-":

            def f(env):
                v = -operand(env)
                return v if _MIN_INT <= v <= _MAX_INT else _wrap(v)

            return 1 + cost, f, flat

        def f(env):
            return not operand(env)

        return 1 + cost, f, flat

    def binary(self, e):
        op = e.op
        if op in ("&&", "||"):
            lc, left, _flat = self.node(e.left)
            rc, right, _flat = self.node(e.right)
            charge, decided = self.charge, op == "||"  # the left value that skips the right

            def f(env):
                v = left(env)
                if v is decided:
                    return v
                charge(rc)
                return right(env)

            return 1 + lc, f, False
        cost, (left, right), flat = self.operands((e.left, e.right))
        flat = flat and op not in ("/", "%")
        if op in _COMPARISONS:
            return 1 + cost, _compare(_COMPARISONS[op], e, left, right), flat
        return 1 + cost, _binary(_ARITHMETIC[op], e, left, right), flat

    def index(self, e):
        cost, (base, subscript), _flat = self.operands((e.base, e.index))
        if type(e.base) is Var and type(e.index) is Var:
            a, k = e.base.name, e.index.name

            def f(env):
                array, i = env[a], env[k]
                if 0 <= i < len(array):
                    return array[i]
                raise _index_error(i, array)

            return 1 + cost, f, False

        def f(env):
            array, i = base(env), subscript(env)
            if 0 <= i < len(array):
                return array[i]
            raise _index_error(i, array)

        return 1 + cost, f, False

    def call(self, e):
        name = e.name
        if name == "len":
            return self.length(e)
        cost, args, flat = self.operands(e.args)
        if name == "print":
            return 1 + cost, _values(args), flat
        m, params = self.machine, [p.name for p in self.machine.functions[name].params]

        def f(env):
            values = []
            for arg in args:
                values.append(arg(env))
            if m.calls >= MAX_CALL_DEPTH:
                raise MiniLangRuntimeError("call depth exceeded")
            lead, body, weight = m.callee(name)
            if m.weight + weight > MAX_NESTING_WEIGHT:
                raise MiniLangRuntimeError("call depth exceeded")
            callee_env = dict(zip(params, values))
            m.calls += 1
            m.weight += weight
            if m.profile is None:
                m.charge(lead)
                signal = body(callee_env)
            else:
                signal = m.profiled(name, lead, body, callee_env)
            m.calls -= 1
            m.weight -= weight
            return None if signal is None else signal[0]

        return 1 + cost, f, False

    def length(self, e):
        cost, arg, flat = self.node(e.args[0])
        if type(e.args[0]) is Var:
            name = e.args[0].name

            def f(env):
                return len(env[name])

            return 1 + cost, f, flat

        def f(env):
            return len(arg(env))

        return 1 + cost, f, flat

    # -- statements --

    def block(self, s, loop_body: bool = False):
        """A block; as a loop's body, a `continue` that ends its live
        statements is flat and sends no signal, since reaching the end of
        the body continues the loop as well."""
        parts, ends = [], False
        for x in s.statements:
            compiled = self.node(x)
            if not ends:  # what follows a jump is compiled for its nesting only
                ends = type(x) in _JUMPS
                if loop_body and type(x) is Continue:
                    compiled = compiled[0], _nothing, True
                parts.append(compiled)
        if not parts:
            return 1, _nothing, True
        charges = _charges(parts)
        lead = 1 + charges[0]
        if len(parts) == 1:
            return lead, parts[0][1], parts[0][2]
        flat = all(p[2] for p in parts)
        charge = self.charge
        charges[0] = 0
        body = [(due, p[1]) for due, p in zip(charges, parts)]

        def f(env):
            for due, statement in body:
                if due:
                    charge(due)
                signal = statement(env)
                if signal is not None:
                    return signal

        return lead, f, flat

    def store(self, own: int, name: str, value: Expr):
        """A declaration or an assignment to a variable; `own` is the
        statement's own steps."""
        cost, closure, flat = self.node(value)
        if type(value) is IntLit or type(value) is BoolLit:
            constant = value.value

            def f(env):
                env[name] = constant

            return own + cost, f, flat

        def f(env):
            env[name] = closure(env)

        return own + cost, f, flat

    def var_decl(self, s):
        return self.store(1, s.name, s.init)

    def assign(self, s):
        target = s.target
        if type(target) is not Index:
            return self.store(2, target.name, s.value)
        cost, (base, subscript, value), _flat = self.operands(
            (target.base, target.index, s.value)
        )

        def f(env):
            array, i, v = base(env), subscript(env), value(env)
            if 0 <= i < len(array):
                array[i] = v
                return
            raise _index_error(i, array)

        return 2 + cost, f, False

    def if_(self, s):
        cost, cond, _flat = self.node(s.cond)
        then_cost, then, _flat = self.node(s.then_block)
        charge = self.charge
        if s.orelse is None:

            def f(env):
                if cond(env):
                    charge(then_cost)
                    return then(env)

            return 1 + cost, f, False
        else_cost, orelse, _flat = self.node(s.orelse)

        def f(env):
            if cond(env):
                charge(then_cost)
                return then(env)
            charge(else_cost)
            return orelse(env)

        return 1 + cost, f, False

    def loop(self, s):
        """A `while`, or a `for`: its init clause runs once and its update
        clause after each iteration. The condition's cost is charged once
        per check, joined with the update's and the body's where they are
        flat. A loop whose condition, body and update are all flat and
        whose body and update write no variable its condition reads
        (`_invariant`) is decided at its first check: false ends it, and
        true means every later check is true as well, so the loop sets the
        counter to the budget and times out without iterating."""
        clauses = type(s) is For
        init = self.node(s.init) if clauses else None
        cond = self.node(s.cond)
        update = self.node(s.update) if clauses else None
        body = self.node(s.body, True)
        if clauses:
            lead, checked = _charges([init, cond])  # checked: due before the first check
            body_due, updated, rechecked = _charges([body, update, cond])
            init, update = init[1], update[1]
        else:
            lead, checked, updated = cond[0], 0, 0
            body_due, rechecked = _charges([body, cond])
        test, flat, body, charge = cond[1], cond[2], body[1], self.charge
        if flat and not updated and not rechecked and _invariant(s):
            m = self.machine

            def f(env):
                if init is not None:
                    init(env)
                if checked:
                    charge(checked)
                if test(env):
                    m.steps = m.budget
                    raise _Timeout()

            return 1 + lead, f, False

        def f(env):
            if init is not None:
                init(env)
            if checked:
                charge(checked)
            while test(env):
                charge(body_due)
                signal = body(env)
                if signal is not None and signal is not _CONTINUE:
                    return None if signal is _BREAK else signal
                if update is not None:
                    if updated:
                        charge(updated)
                    update(env)
                if rechecked:
                    charge(rechecked)

        return 1 + lead, f, False

    def jump(self, s):
        signal = _BREAK if type(s) is Break else _CONTINUE

        def f(env):
            return signal

        return 1, f, False

    def return_(self, s):
        if s.value is None:

            def f(env):
                return (None,)

            return 1, f, False
        cost, value, _flat = self.node(s.value)

        def f(env):
            return (value(env),)

        return 1 + cost, f, False

    def expr_stmt(self, s):
        cost, expr, flat = self.node(s.expr)

        def f(env):
            expr(env)

        return 1 + cost, f, flat


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


def run_suite(
    unit: SourceUnit,
    tests: list[TestCase],
    step_budget: int = DEFAULT_STEP_BUDGET,
    profile: dict[str, int] | None = None,
    base: BaseProgram | None = None,
) -> list[ExecutionOutcome]:
    """The outcome of every test, in order; no short-circuiting on failure.

    `unit` must pass `semantics.validate` (the precondition in the module
    docstring). A test whose harness call fails `semantics.check_call`
    gets a RUNTIME_ERROR outcome, so no test file makes this raise.
    Functions compile on their first call and the compiled form is shared
    by the tests; a call's variables live in one dict. `profile`, when
    given, accumulates each function's self cost in steps, and
    HARNESS_FRAME's. The process's recursion limit is lifted while the
    suite runs, so run one suite at a time per process.

    With `base`, the command's BaseProgram, `unit` must be a patch of
    `base.unit` (same functions, same signatures) and `tests` must be
    `base.tests`. Each test's harness call is then checked and compiled
    once per command, and each subtree `base` owns, the body of each of
    the base's own functions among them, compiled once per command; both
    are kept in `base`, which lives no longer than the command. A patched
    function compiles only the nodes `base` does not own (its rebuilt
    spine and new leaves) and takes its other subtrees from `base`; its
    compiled body is dropped when the suite ends. Without `base` one is
    built for this call alone; outcomes are the same either way.

    Test selection. With `base` and without `profile`, a test runs only
    when `unit` changes a function it can reach through the base's static
    call graph (`base.reach`); every other test gets the outcome it had
    under this step budget in the first suite that ran it with all those
    functions the base's own (`base.outcomes`). That outcome is exact: a
    test enters only functions in its reach, and those are the same
    objects. A reused outcome keeps its steps, so a passing patch's
    runtime is the same sum. When every test reaches every function,
    every test runs and nothing is stored."""
    if step_budget <= 0:
        raise ValueError("step budget must be positive")
    stored = None  # this budget's stored outcomes, when the suite selects
    if base is None:
        base = BaseProgram(unit, tests)
    elif tests is not base.tests:
        raise ValueError("run_suite takes the tests its BaseProgram was built with")
    elif profile is None:
        if base.reach is None:
            base.reach = _reach(base)
        if base.reach:
            stored = base.outcomes.setdefault(step_budget, {})
    if base.machine is None:
        base.machine = _Machine()
    machine, harness = base.machine, base.harness
    machine.start(base, unit, step_budget, profile)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _HOST_FRAMES)

    def run(i: int, test: TestCase) -> ExecutionOutcome:
        compiled = harness.get(i)
        if compiled is None:
            compiled = harness[i] = machine.harness(unit, test)
        return machine.run(test, compiled)

    try:
        if stored is None:
            return [run(i, test) for i, test in enumerate(tests)]
        own = base.functions
        changed = {fn.name for fn in unit.functions if own.get(fn.name) is not fn}
        outcomes = []
        for i, (test, reach) in enumerate(zip(tests, base.reach)):
            if not reach.isdisjoint(changed):
                outcomes.append(run(i, test))
                continue
            outcome = stored.get(i)
            if outcome is None:
                outcome = stored[i] = run(i, test)
            outcomes.append(outcome)
        return outcomes
    finally:
        sys.setrecursionlimit(limit)
        machine.finish()


def _reach(base: BaseProgram) -> list[frozenset[str]]:
    """Each test's reach: the names of the base functions its harness call
    can reach through the calls the base's bodies make, by position in
    `base.tests`; empty when every test reaches every function. Names the
    base does not define are left out, so a harness call naming an unknown
    function reaches nothing. Neither the walk of the call graph nor
    `ast.tree_nodes` recurses, since a mutant may nest past Python's
    recursion limit."""
    functions = base.functions
    callees: dict[str, set[str]] = {}  # each function's body walked once
    reach = []
    for test in base.tests:
        seen: set[str] = set()
        todo = list(_called_names(test.call))
        while todo:
            name = todo.pop()
            if name in seen or name not in functions:
                continue
            seen.add(name)
            if name not in callees:
                callees[name] = _called_names(functions[name].body)
            todo += callees[name]
        reach.append(frozenset(seen))
    if all(len(names) == len(functions) for names in reach):
        return []
    return reach


def _called_names(root) -> set[str]:
    """The name of every call in the tree `root`."""
    return {node.name for node in tree_nodes(root) if type(node) is Call}


# -- test-file format: `test <name>: <callExpr> == <literal>` --


def _literal_value(expr: Expr) -> object:
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
    """Parse a `.tests` file; raises ParseError with the offending line
    number, and for an error in a test's expression the column of the
    offending token in that line."""
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
        body = rest.lstrip()  # `line` ends with `rest` and has no trailing space
        try:
            expr = parse_expression(body)
        except ParseError as exc:
            indent = len(raw) - len(raw.lstrip())
            raise ParseError(exc.message, lineno, indent + len(line) - len(body) + exc.col) from None
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
