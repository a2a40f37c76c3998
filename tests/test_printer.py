from __future__ import annotations

from minigi.lang import parse_source, print_canonical, source_digest
from minigi.lang.ast import ExprStmt
from minigi.lang.parser import parse_block, parse_expression
from minigi.lang.printer import print_statement


def test_round_trip_fixpoint(bench_sort):
    unit, _ = bench_sort
    text = print_canonical(unit)
    assert print_canonical(parse_source(text, unit.name)) == text


def test_idempotent_normalization():
    messy = "fn f(  x :int )->int{   var y:int=x+ 1;\n\n\n return y ;}"
    unit = parse_source(messy)
    text = print_canonical(unit)
    assert text == "fn f(x: int) -> int {\n    var y: int = x + 1;\n    return y;\n}\n"
    assert print_canonical(parse_source(text)) == text


def test_comments_and_whitespace_do_not_change_canonical_text():
    a = parse_source("fn f() -> int { return 1; }")
    b = parse_source("// leading comment\nfn f() -> int {\n  // inner\n  return 1;   // trailing\n}\n")
    assert print_canonical(a) == print_canonical(b)
    assert source_digest(a) == source_digest(b)


def test_equal_asts_print_equally():
    a = parse_source("fn f(x: int) -> int { return x * 2; }")
    b = parse_source("fn  f( x:int ) ->int  { return x*2; }")
    assert a == b
    assert print_canonical(a) == print_canonical(b)


def _round_trip_expr(text: str) -> str:
    """The canonical text of an expression: its print as a statement, without the `;`."""
    return print_statement(ExprStmt(parse_expression(text))).removesuffix(";")


def test_minimal_parentheses():
    assert _round_trip_expr("(a + b) * c") == "(a + b) * c"
    assert _round_trip_expr("a + b * c") == "a + b * c"
    assert _round_trip_expr("a - (b - c)") == "a - (b - c)"
    assert _round_trip_expr("(a - b) - c") == "a - b - c"
    assert _round_trip_expr("a / (b * c)") == "a / (b * c)"
    assert _round_trip_expr("-(a + b)") == "-(a + b)"
    assert _round_trip_expr("-a[0]") == "-a[0]"
    assert _round_trip_expr("!(a && b)") == "!(a && b)"
    assert _round_trip_expr("a && b || c && d") == "a && b || c && d"
    assert _round_trip_expr("(a || b) && c") == "(a || b) && c"


def test_expression_print_parse_fixpoint():
    cases = [
        "a + b * c - d / e % f",
        "-(-x)",
        "a - -b",
        "f(x, y + 1)[2] > len(a)",
        "[1, 2, 3][i]",
        "x == y && !(z < 3 || w >= 4)",
    ]
    for text in cases:
        printed = _round_trip_expr(text)
        assert _round_trip_expr(printed) == printed


def test_statement_print_parse_fixpoint():
    """`print` as a statement and a `for` whose init is an assignment, which
    no benchmark holds, print to text that parses back to the same tree."""
    cases = {
        "{ print(x); }": "{\n    print(x);\n}",
        "{print(a[0],len(a)+1);}": "{\n    print(a[0], len(a) + 1);\n}",
        "{ for (i = 0; i < n; i = i + 1) { print(i); } }":
            "{\n    for (i = 0; i < n; i = i + 1) {\n        print(i);\n    }\n}",
        "{ for(a[0]=1;a[0]<3;a[0]=a[0]+1){} }":
            "{\n    for (a[0] = 1; a[0] < 3; a[0] = a[0] + 1) {\n    }\n}",
    }
    for text, canonical in cases.items():
        block = parse_block(text)
        assert print_statement(block) == canonical
        assert parse_block(canonical) == block


def test_block_printing_shape():
    block = parse_block("{ x = 1; { y = 2; } }")
    assert print_statement(block, 0) == "{\n    x = 1;\n    {\n        y = 2;\n    }\n}"


def test_else_if_chain_prints_flat():
    unit = parse_source(
        "fn f(x: int) -> int { if (x > 2) { return 2; } else if (x > 1) { return 1; } "
        "else { return 0; } }"
    )
    text = print_canonical(unit)
    assert "} else if (x > 1) {" in text
    assert "} else {" in text
    assert print_canonical(parse_source(text)) == text
