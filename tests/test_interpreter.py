from __future__ import annotations

import time

import pytest

from minigi.lang import (
    ParseError,
    Status,
    parse_source,
    parse_test_file,
    run_suite,
    run_test,
)
from minigi.lang.ast import StatementId
from minigi.lang.interpreter import value_equal
from minigi.patches import Edit, EditKind, Patch, apply_patch

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
    assert neg.status is Status.RUNTIME_ERROR

    # reachable missing return (validation would flag it; the interpreter
    # still must not crash when handed such a program)
    missing = one_test("fn f(x: int) -> int { if (x > 0) { return 1; } }", "test t: f(-1) == 1")
    assert missing.status is Status.RUNTIME_ERROR and "without returning" in missing.error


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
    as_value = one_test("fn f() -> int { return print(1); }", "test t: f() == 1")
    assert as_value.status is Status.RUNTIME_ERROR and as_value.error == "print used as a value"


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
