from __future__ import annotations

import random
import re
import time

import pytest

from minigi.lang import (
    ParseError,
    Status,
    parse_source,
    parse_test_file,
    run_suite,
    run_test,
    validate,
)
from minigi.lang.ast import (
    Binary,
    Block,
    Call,
    Function,
    If,
    Index,
    IntLit,
    Param,
    Return,
    SourceUnit,
    StatementId,
    Type,
    Var,
)
from minigi.lang.interpreter import HARNESS_FRAME, value_equal
from minigi.llm import LlmClientConfig, MockLlmClient
from minigi.operators import sample_insert_edit, sample_statement_edit
from minigi.patches import ApplyError, Edit, EditKind, Patch, apply_patch
from minigi.prompts import PromptCategory, PromptTemplate, make_llm_edits

from oracles import (
    count_to_call_steps,
    max2_call_steps,
    poly_sum_call_steps,
    sort_call_steps,
)


def one_test(src: str, line: str, budget: int = 100_000):
    unit = parse_source(src)
    test = parse_test_file(line)[0]
    return run_test(unit, test, budget)


def test_trivial_call_steps_exact():
    outcome = one_test("fn f() -> int { return 1; }", "test t: f() == 1")
    assert outcome.status is Status.PASS
    # call node + body block + return statement + literal
    assert outcome.steps_used == 4


def test_forced_infinite_loop_times_out_at_budget():
    outcome = one_test("fn f() -> int { while (true) { } return 1; }", "test t: f() == 1", 1000)
    assert outcome.status is Status.TIMEOUT
    assert outcome.steps_used == 1000


def test_timeout_iff_steps_equal_budget():
    src = "fn f() -> int { return 1; }"
    passing = one_test(src, "test t: f() == 1", budget=5)
    assert passing.status is Status.PASS and passing.steps_used < 5
    # Exactly consuming the budget counts as a timeout: 4 steps of work
    # under a budget of 4 trips the watchdog on the final step.
    exact = one_test(src, "test t: f() == 1", budget=4)
    assert exact.status is Status.TIMEOUT and exact.steps_used == 4


def test_bench_sort_golden_steps(bench_sort):
    unit, tests = bench_sort
    outcomes = run_suite(unit, tests)
    assert [o.status for o in outcomes] == [Status.PASS] * 5
    expected = [
        sort_call_steps([3, 1, 2]),
        sort_call_steps([5, 4, 3, 2, 1]),
        sort_call_steps([2, 2, 1]),
        max2_call_steps(7, 3),
        max2_call_steps(3, 9),
    ]
    assert [o.steps_used for o in outcomes] == expected
    # Frozen totals; the oracle values were hand-checked on sort([2, 1]).
    assert expected == [197, 594, 197, 11, 10]
    assert sum(o.steps_used for o in outcomes) == 1009


def test_hand_simulated_two_element_sort(bench_sort):
    unit, _ = bench_sort
    test = parse_test_file("test two: sort([2, 1]) == [1, 2]")[0]
    outcome = run_test(unit, test)
    assert outcome.status is Status.PASS
    assert outcome.steps_used == 102  # full hand simulation, see oracles.py
    assert outcome.steps_used == sort_call_steps([2, 1])


def test_bench_planted_matches_oracle(bench_planted):
    unit, tests = bench_planted
    outcomes = run_suite(unit, tests)
    assert all(o.status is Status.PASS for o in outcomes)
    assert outcomes[0].steps_used == poly_sum_call_steps([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
    assert outcomes[1].steps_used == poly_sum_call_steps([2, 7, 1, 8, 2, 8, 1, 8])


def test_bench_loop_matches_oracle(bench_loop):
    unit, tests = bench_loop
    outcomes = run_suite(unit, tests)
    assert [o.steps_used for o in outcomes] == [count_to_call_steps(5), count_to_call_steps(0)]


def test_determinism_bit_identical(bench_sort):
    unit, tests = bench_sort
    first = run_suite(unit, tests)
    second = run_suite(unit, tests)
    assert first == second


def test_step_monotonicity_under_budget_growth(bench_loop):
    unit, _ = bench_loop
    test = parse_test_file("test t: count_to(50) == 50")[0]
    full = run_test(unit, test)
    assert full.status is Status.PASS
    statuses = []
    for budget in range(1, full.steps_used + 10):
        outcome = run_test(unit, test, budget)
        statuses.append(outcome.status)
        if outcome.status is Status.TIMEOUT:
            assert outcome.steps_used == budget
        else:
            assert outcome.status is Status.PASS
            assert outcome.steps_used == full.steps_used
    # timeouts first, then passes; growing the budget never flips back
    flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
    assert flips == 1


def test_division_semantics():
    src = "fn f(a: int, b: int) -> int { return a / b; }"
    assert one_test(src, "test t: f(7, 2) == 3").status is Status.PASS
    assert one_test(src, "test t: f(-7, 2) == -3").status is Status.PASS
    assert one_test(src, "test t: f(7, -2) == -3").status is Status.PASS
    mod = "fn f(a: int, b: int) -> int { return a % b; }"
    assert one_test(mod, "test t: f(-7, 2) == -1").status is Status.PASS
    assert one_test(mod, "test t: f(7, -2) == 1").status is Status.PASS


def test_runtime_errors_are_outcomes_not_crashes():
    div = one_test("fn f() -> int { return 1 / 0; }", "test t: f() == 1")
    assert div.status is Status.RUNTIME_ERROR and "division" in div.error

    oob = one_test("fn f(a: int[]) -> int { return a[5]; }", "test t: f([1]) == 1")
    assert oob.status is Status.RUNTIME_ERROR and "out of bounds" in oob.error

    neg = one_test("fn f(a: int[]) -> int { return a[-1]; }", "test t: f([1]) == 1")
    assert neg.status is Status.RUNTIME_ERROR and neg.error == "index -1 out of bounds for length 1"


def test_unbounded_recursion_is_a_runtime_error():
    outcome = one_test("fn f() -> int { return f(); }", "test t: f() == 1")
    assert outcome.status is Status.RUNTIME_ERROR
    assert "call depth" in outcome.error


def test_short_circuit_evaluation_skips_right_operand():
    src = "fn f(a: int[]) -> bool { return len(a) > 0 && a[0] > 0; }"
    outcome = one_test(src, "test t: f([]) == false")
    assert outcome.status is Status.PASS  # a[0] never evaluated


def test_arrays_pass_by_reference():
    src = """
    fn bump(a: int[]) { a[0] = a[0] + 1; }
    fn f() -> int { var a: int[] = [1, 2]; bump(a); bump(a); return a[0]; }
    """
    assert one_test(src, "test t: f() == 3").status is Status.PASS


def test_bool_and_int_are_distinct_in_comparisons():
    outcome = one_test("fn f() -> int { return 1; }", "test t: f() == true")
    assert outcome.status is Status.FAIL
    assert not value_equal(1, True)
    assert not value_equal(True, 1)
    assert value_equal([1, 2], [1, 2])
    assert not value_equal([1, 2], [1, 2, 3])


def test_fail_carries_actual_value():
    outcome = one_test("fn f() -> int { return 2; }", "test t: f() == 3")
    assert outcome.status is Status.FAIL
    assert outcome.value == 2


def test_print_charges_its_arguments_without_affecting_outcome():
    outcome = one_test("fn f() -> int { print(1, true, [1, 2]); return 7; }", "test t: f() == 7")
    assert outcome.status is Status.PASS and outcome.value == 7
    # call + body + statement + print + its three arguments (5) + return 7 (2)
    assert outcome.steps_used == 11


def test_harness_calls_that_fail_the_call_check_are_outcomes():
    """The harness call is the one input validation never sees. An ill-typed
    one is that test's runtime error, checked before it runs, and the other
    tests still run."""
    unit = parse_source(
        "fn f(x: int) -> int { return x + 1; } fn g(a: int[]) -> int { return a[0] + 1; }"
        " fn h() { }"
    )
    tests = parse_test_file(
        "test unknown: k(1) == 1\n"
        "test arity: f(1, 2) == 2\n"
        "test array_for_int: f([1]) == 2\n"
        "test nested_array: g([[1]]) == 2\n"
        "test void: h() == 0\n"
        "test fine: f(1) == 2"
    )
    outcomes = run_suite(unit, tests)
    assert [(o.status, o.steps_used, o.error) for o in outcomes[:5]] == [
        (Status.RUNTIME_ERROR, 0, "unknown function 'k'"),
        (Status.RUNTIME_ERROR, 0, "call to 'f' with 2 arguments, expected 1"),
        (Status.RUNTIME_ERROR, 0, "argument 'x' has type int[], expected int"),
        (Status.RUNTIME_ERROR, 0, "array element has type int[], expected int"),
        (Status.RUNTIME_ERROR, 0, "void call to 'h' used as a value"),
    ]
    assert outcomes[5].status is Status.PASS and outcomes[5].steps_used == 7


# Each call keeps its variables in one dict; validation makes that sound.
FLAT_SCOPES = [
    # sibling blocks reuse `x`: call 1 + body 1 + `var r` 2 + two blocks of
    # 1 + `var x` 2 + `r = r + x` 5, + `return r` 2
    ("fn f() -> int { var r: int = 0; { var x: int = 1; r = r + x; }"
     " { var x: int = 2; r = r + x; } return r; }", "f() == 3", 1 + 1 + 2 + 2 * 8 + 2),
    # `sq` is declared on every iteration: call and argument 2 + body 1 +
    # two decls 4 + while 1 + four checks of 3 + three bodies of 1 + 4 + 5 + 5
    # + `return s` 2
    ("fn f(n: int) -> int { var s: int = 0; var i: int = 0;"
     " while (i < n) { var sq: int = i * i; s = s + sq; i = i + 1; } return s; }",
     "f(3) == 5", 2 + 1 + 4 + 1 + 4 * 3 + 3 * 15 + 2),
    # the loop's `i` is declared again after it: call 1 + body 1 + `var s` 2
    # + for (1 + init 2 + four checks of 3 + three updates of 5 + three bodies
    # of 6) + `var i` 2 + `return s + i` 4
    ("fn f() -> int { var s: int = 0; for (var i: int = 0; i < 3; i = i + 1) { s = s + i; }"
     " var i: int = 10; return s + i; }", "f() == 13", 1 + 1 + 2 + 48 + 2 + 4),
    # each call has its own `x`: call and argument 2 + three calls with
    # n > 0 of 17 own steps + f(0) 9
    ("fn f(n: int) -> int { var x: int = n;"
     " if (n > 0) { var y: int = f(n - 1); return x + y; } return x; }",
     "f(3) == 6", 2 + 3 * 17 + 9),
]


@pytest.mark.parametrize("src, call, steps", FLAT_SCOPES)
def test_one_variable_dict_per_call(src, call, steps):
    unit = parse_source(src)
    assert validate(unit) == []
    outcome = run_test(unit, parse_test_file(f"test t: {call}")[0])
    assert outcome.status is Status.PASS and outcome.steps_used == steps


LANGUAGE_ERRORS = re.compile(
    r"division by zero|call depth exceeded|index -?\d+ out of bounds for length \d+"
)


@pytest.mark.parametrize("name", ["bench_sort", "bench_loop", "bench_planted", "bench_max"])
def test_valid_mutants_hit_only_language_errors(name):
    """Seeded Statement, Insert and default-mock LLM mutants of a benchmark
    that validate run without raising, time out exactly at the budget, and
    fail at run time only in the three ways a valid program can."""
    from conftest import load_bench

    unit, tests = load_bench(name)
    hot = [fn.name for fn in unit.functions]
    client = MockLlmClient(LlmClientConfig(mode="mock"))
    template = PromptTemplate(PromptCategory.MEDIUM, project_name=name)
    rng = random.Random(f"mutants:{name}")
    mutants = []
    for _ in range(300):
        draw = rng.choice(["statement", "insert", "llm"])
        if draw == "statement":
            edit = sample_statement_edit(unit, hot, rng)
        elif draw == "insert":
            edit = sample_insert_edit(unit, hot, rng)
        else:
            edit = rng.choice(make_llm_edits(unit, hot, rng, client, template))
        try:
            mutant = apply_patch(unit, Patch(name, (edit,)))
        except ApplyError:
            continue
        if validate(mutant) == []:
            mutants.append(mutant)
    assert len(mutants) >= 60
    for mutant in mutants:
        for budget in (50, 5_000):
            for outcome in run_suite(mutant, tests, budget):
                assert (outcome.status is Status.TIMEOUT) == (outcome.steps_used == budget)
                if outcome.status is Status.RUNTIME_ERROR:
                    assert LANGUAGE_ERRORS.fullmatch(outcome.error), outcome.error


def test_suite_runs_all_tests_without_short_circuit():
    unit = parse_source("fn f(x: int) -> int { return x; }")
    tests = parse_test_file("test a: f(1) == 2\ntest b: f(3) == 3")
    outcomes = run_suite(unit, tests)
    assert [o.status for o in outcomes] == [Status.FAIL, Status.PASS]


def test_test_file_parsing_and_errors():
    tests = parse_test_file(
        "// comment\n\ntest neg: f(-3) == -3\ntest arr: g([1, -2]) == [0]\n"
    )
    assert [t.name for t in tests] == ["neg", "arr"]
    assert tests[0].expected == -3
    assert tests[1].expected == [0]

    with pytest.raises(ParseError):
        parse_test_file("test bad f() == 1")
    with pytest.raises(ParseError):
        parse_test_file("test bad: f() == g()")
    with pytest.raises(ParseError):
        parse_test_file("test bad: f(x) == 1")
    with pytest.raises(ParseError):
        parse_test_file("not a test line")


RECURSION_IN_LOOPS = """
fn f(n: int) -> int {
    for (var i: int = 0; i < 1; i = i + 1) {
        while (true) {
            {
                if (n == 0) {
                    return 0;
                }
                return f(n - 1) + 1;
            }
        }
    }
    return 0;
}
"""


@pytest.mark.parametrize("n", [100, 127])
def test_recursion_through_nested_loops_stays_inside_the_language(n):
    """Each call nests several statements deep; the host stack must not run
    out before MAX_CALL_DEPTH (128) calls are active."""
    outcome = one_test(RECURSION_IN_LOOPS, f"test t: f({n}) == {n}")
    assert outcome.status is Status.PASS
    deeper = one_test(RECURSION_IN_LOOPS, f"test t: f({n + 28}) == {n + 28}")
    assert deeper.status is Status.RUNTIME_ERROR and deeper.error == "call depth exceeded"


def test_mutant_nested_deeper_than_the_parser_allows_returns_outcomes():
    """Two block rewrites stack two payloads of 90 nested ifs each, twice
    what one parse allows; recursion through them is still an outcome."""
    unit = parse_source("fn f(n: int) -> int { return 0; }")
    ifs = "if (n > 0) { " * 90
    outer = "{ " + ifs + "{ } " + "} " * 90 + "return 0; }"
    inner = "{ " + ifs + "return f(n - 1) + 1; " + "} " * 90 + "}"
    first = Edit(EditKind.LLM_BLOCK_REPLACE, src=StatementId("f", ()), payload=outer,
                 prompt_category="medium")
    innermost = StatementId("f", (0, 0) * 90 + (0,))
    second = Edit(EditKind.LLM_BLOCK_REPLACE, src=innermost, payload=inner,
                  prompt_category="medium")
    mutant = apply_patch(unit, Patch("main", (first, second)))
    shallow, deep = run_suite(mutant, parse_test_file("test a: f(3) == 3\ntest b: f(40) == 40"))
    assert shallow.status is Status.PASS
    assert deep.status is Status.RUNTIME_ERROR and deep.error == "call depth exceeded"


def test_recursion_through_operands_that_charge_for_themselves_stays_inside_the_language():
    """Each `a[0] + (...)` can fail before its right operand, so that operand
    charges for itself and runs in two host frames per level: 150 levels
    per call, recursing until the nesting weights fill MAX_NESTING_WEIGHT."""
    expr = Call("f", (Binary("-", Var("n"), IntLit(1)), Var("a")))
    for _ in range(150):
        expr = Binary("+", Index(Var("a"), IntLit(0)), expr)
    base_case = If(Binary("==", Var("n"), IntLit(0)), Block((Return(IntLit(0)),)))
    params = (Param("n", Type.INT), Param("a", Type.INT_ARRAY))
    body = Block((base_case, Return(expr)))
    unit = SourceUnit("chain", (Function("f", params, Type.INT, body),))
    assert validate(unit) == []
    # a call weighs 156, so 13 active calls fit in 2,048 and 14 do not
    fits, deeper = run_suite(unit, parse_test_file("test a: f(12, [0]) == 0\ntest b: f(13, [0]) == 0"))
    assert fits.status is Status.PASS
    assert deeper.status is Status.RUNTIME_ERROR and deeper.error == "call depth exceeded"


def test_integers_wrap_like_java_longs():
    src = """
    fn edge(k: int) -> int {
        var min: int = -9223372036854775807 - 1;
        if (k == 0) { return 9223372036854775807 + 1; }
        if (k == 1) { return min - 1; }
        if (k == 2) { return min / -1; }
        if (k == 3) { return min % -1; }
        if (k == 4) { return -min; }
        return 4294967296 * 4294967296;
    }
    fn square40(x: int) -> int {
        for (var i: int = 0; i < 40; i = i + 1) {
            x = x * x;
        }
        return x;
    }
    """
    lowest, highest = -(2**63), 2**63 - 1
    expected = [lowest, highest, lowest, 0, lowest, 0]
    for k, value in enumerate(expected):
        assert one_test(src, f"test t: edge({k}) == {value}").status is Status.PASS, k
    started = time.monotonic()
    outcome = one_test(src, "test t: square40(3) == -7860764868738023423")
    assert outcome.status is Status.PASS
    assert time.monotonic() - started < 1.0


# Programs whose failure points are derived by hand from the cost model;
# (source, harness call, status, steps at the end, error, profile at the end).
FAILURE_POINTS = [
    # `a[j]` fails, so the right operand is never charged: call 1 + `[1]` 2
    # + body 1 + `var j` 2 + return 1 + `>` 1 + `a[j]` 3
    ("fn f(a: int[]) -> bool { var j: int = 1; return a[j] > a[j + 1]; }",
     "f([1]) == true", Status.RUNTIME_ERROR, 3 + 1 + 2 + 1 + 1 + 3,
     "index 1 out of bounds for length 1", None),
    # the right operand fails after its own 5 steps: `a[j + 1]` is
    # 1 + `a` 1 + `j + 1` 3, on top of 4 for the call and 8 for the rest
    ("fn f(a: int[]) -> bool { var j: int = 1; return a[j] > a[j + 1]; }",
     "f([1, 2]) == true", Status.RUNTIME_ERROR, 4 + 8 + 5,
     "index 2 out of bounds for length 2", None),
    # division by zero after a call, with a statement after it that never
    # runs: harness 2; f: body 1 + `var y = g(x)` 3 + `var q = 10 / y` 4;
    # g: body 1 + return 1 + `x - 1` 3
    ("fn g(x: int) -> int { return x - 1; }"
     " fn f(x: int) -> int { var y: int = g(x); var q: int = 10 / y; return q + 1; }",
     "f(1) == 0", Status.RUNTIME_ERROR, 15, "division by zero",
     {HARNESS_FRAME: 2, "f": 8, "g": 5}),
    # `&&` and `||` both short-circuit, so `a[k] > 0` (5) is never charged
    # and the read after them fails: call 4 + body 1 + two declarations of
    # 1 + operator 1 + `k < len(a)` 4, + `return a[k]` 4
    ("fn f(a: int[], k: int) -> int { var inside: bool = k < len(a) && a[k] > 0;"
     " var outside: bool = k >= len(a) || a[k] > 0; return a[k]; }",
     "f([1], 3) == 1", Status.RUNTIME_ERROR, 4 + 1 + 2 * 6 + 4,
     "index 3 out of bounds for length 1", None),
    # the same program where neither short-circuits: each right operand adds 5
    ("fn f(a: int[], k: int) -> int { var inside: bool = k < len(a) && a[k] > 0;"
     " var outside: bool = k >= len(a) || a[k] > 0; return a[k]; }",
     "f([5], 0) == 5", Status.PASS, 4 + 1 + 2 * 11 + 4, None, None),
    # an element store whose value reads out of bounds, before the store
    # and the return after it: call 3 + body 1 + `var i` 2 + target 4 +
    # `a[i + 1]` 5
    ("fn f(a: int[]) -> int[] { var i: int = 0; a[i] = a[i + 1]; return a; }",
     "f([7]) == [7]", Status.RUNTIME_ERROR, 3 + 1 + 2 + 4 + 5,
     "index 1 out of bounds for length 1", None),
    # a profiled recursive call: f(n > 0) charges 12 of its own (body 1, if
    # 1 + `n == 0` 3, return 1, `+` 1, call 1 + `n - 1` 3, then `1` after
    # the call returns), f(0) 8 (5 + then block 1 + return 1 + call 1), g 3
    ("fn g() -> int { return 7; }"
     " fn f(n: int) -> int { if (n == 0) { return g(); } return f(n - 1) + 1; }",
     "f(2) == 9", Status.PASS, 2 + 12 + 12 + 8 + 3, None,
     {HARNESS_FRAME: 2, "f": 32, "g": 3}),
]


@pytest.mark.parametrize("src, call, status, steps, error, profile", FAILURE_POINTS)
def test_every_budget_stops_exactly_at_the_failure_point(src, call, status, steps, error, profile):
    """Below the hand-derived step count every budget times out exactly at
    the budget, with the profile summing to it; above it the run ends the
    same way after exactly that many steps. A charge moved across a failure
    point or a branch shifts one of these counts."""
    unit = parse_source(src)
    assert validate(unit) == []
    test = parse_test_file(f"test t: {call}")[0]
    for budget in range(1, steps + 3):
        spent: dict[str, int] = {}
        outcome = run_suite(unit, [test], budget, spent)[0]
        if budget <= steps:
            assert (outcome.status, outcome.steps_used) == (Status.TIMEOUT, budget), budget
            assert sum(spent.values()) == budget, (budget, spent)
        else:
            assert (outcome.status, outcome.steps_used, outcome.error) == (status, steps, error)
            assert sum(spent.values()) == steps
            if profile is not None:
                assert spent == profile
