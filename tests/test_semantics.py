from __future__ import annotations

import pytest

from minigi.lang import parse_source, validate


def check(src: str) -> list[str]:
    return [e.message for e in validate(parse_source(src))]


def test_benchmarks_validate(bench_sort, bench_planted, bench_loop, bench_max):
    for unit, _ in (bench_sort, bench_planted, bench_loop, bench_max):
        assert validate(unit) == []


def test_break_outside_loop_rejected():
    errors = check("fn f() { break; }")
    assert any("break outside" in e for e in errors)


def test_continue_outside_loop_rejected():
    assert any("continue outside" in e for e in check("fn f() { continue; }"))


def test_break_inside_loop_ok():
    assert check("fn f(n: int) { while (n > 0) { break; } }") == []


def test_return_value_in_void_function_rejected():
    assert any("return with value" in e for e in check("fn f() { return 1; }"))


def test_bare_return_in_int_function_rejected():
    errors = check("fn f() -> int { return; }")
    assert any("return without value" in e for e in errors)


def test_missing_return_detected():
    errors = check("fn f(x: int) -> int { if (x > 0) { return 1; } }")
    assert any("missing return" in e for e in errors)


def test_all_paths_return_via_if_else():
    assert check("fn f(x: int) -> int { if (x > 0) { return 1; } else { return 0; } }") == []


def test_loop_does_not_count_as_returning():
    errors = check("fn f() -> int { while (true) { return 1; } }")
    assert any("missing return" in e for e in errors)


def test_for_with_a_bare_assignment_init_needs_a_declared_variable():
    """The init is checked as an assignment; only it names `i`."""
    loop = "for (i = 0; n > 0; n = n - 1) { }"
    assert check("fn f(n: int) { var i: int = 5; " + loop + " }") == []
    assert check("fn f(n: int) { var i: bool = true; " + loop + " }") == [
        "cannot assign int to bool target"
    ]
    assert check("fn f(n: int) { " + loop + " }") == ["assignment to undeclared variable 'i'"]


def test_use_before_declare_rejected():
    assert any("unknown variable" in e for e in check("fn f() -> int { return y; }"))


def test_shadowing_rejected():
    errors = check("fn f() -> int { var x: int = 1; { var x: int = 2; } return x; }")
    assert any("redeclaration" in e for e in errors)


def test_sibling_scopes_may_reuse_names():
    src = """
    fn f() -> int {
        for (var i: int = 0; i < 2; i = i + 1) { }
        for (var i: int = 0; i < 3; i = i + 1) { }
        return 0;
    }
    """
    assert check(src) == []


def test_type_mismatches_rejected():
    assert any("expected int" in e for e in check("fn f() -> int { return true; }"))
    assert any("type" in e for e in check("fn f() { var x: bool = 3; }"))
    assert any("condition" in e for e in check("fn f() { if (1) { } }"))
    assert any("cannot compare" in e for e in check("fn f(a: int[]) { if (a == 1) { } }"))


def test_array_rules():
    assert check("fn f(a: int[]) -> int { return a[0] + len(a); }") == []
    assert any("indexed value" in e for e in check("fn f(x: int) -> int { return x[0]; }"))
    assert any("array element" in e for e in check("fn f() { var a: int[] = [true]; }"))


def test_call_checking():
    src = "fn g(x: int) -> int { return x; } fn f() -> int { return g(1, 2); }"
    assert any("arguments" in e for e in check(src))
    assert any("unknown function" in e for e in check("fn f() -> int { return h(); }"))
    void_as_value = "fn g() { } fn f() -> int { return g(); }"
    assert any("void call" in e for e in check(void_as_value))
    assert "print used as a value" in check("fn f() -> int { return print(1); }")
    assert check("fn g() { print(1); } fn f() { g(); }") == []


def test_reserved_builtin_names():
    assert any("reserved" in e for e in check("fn len(a: int[]) -> int { return 0; }"))
    assert any("reserved" in e for e in check("fn f() { var print: int = 1; }"))


def test_duplicate_function_rejected():
    errors = check("fn f() { } fn f() { }")
    assert any("duplicate function" in e for e in errors)


def test_duplicate_parameter_rejected():
    assert any("duplicate parameter" in e for e in check("fn f(x: int, x: int) { }"))


LABELLED_ERRORS = [
    ("fn f() -> int { return -true; }", "operand of unary '-' has type bool, expected int"),
    ("fn f() -> bool { return !1; }", "operand of '!' has type int, expected bool"),
    ("fn f() -> int { return 1 + true; }", "operand of '+' has type bool, expected int"),
    ("fn f() -> bool { return true < 1; }", "operand of '<' has type bool, expected int"),
    ("fn f() -> bool { return 1 && true; }", "operand of '&&' has type int, expected bool"),
    ("fn f() -> bool { return false || 0; }", "operand of '||' has type int, expected bool"),
    ("fn f() -> int[] { return [1, true]; }", "array element has type bool, expected int"),
    ("fn f(a: int[]) -> int { return a[true]; }", "array index has type bool, expected int"),
    ("fn f(a: int[]) { a[false] = 1; }", "array index has type bool, expected int"),
    ("fn f(x: int) -> int { return x[0]; }", "indexed value has type int, expected int[]"),
    ("fn f() -> int { return len(3); }", "argument of len has type int, expected int[]"),
    ("fn g(x: int) -> int { return x; } fn f() -> int { return g(true); }",
     "argument 'x' has type bool, expected int"),
    ("fn f() { if (1) { } }", "if condition has type int, expected bool"),
    ("fn f() { while (0) { } }", "while condition has type int, expected bool"),
    ("fn f() { for (var i: int = 0; i; i = i + 1) { } }",
     "for condition has type int, expected bool"),
]


@pytest.mark.parametrize("src, message", LABELLED_ERRORS)
def test_operand_type_errors_name_the_operand(src, message):
    assert check(src) == [message]
