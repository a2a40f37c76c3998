from __future__ import annotations

import pytest

from minigi.lang import (
    Block,
    ParseError,
    Type,
    parse_block,
    parse_source,
)
from minigi.lang.ast import (
    Assign,
    Binary,
    For,
    If,
    IntLit,
    Return,
    VarDecl,
    While,
    list_statement_ids,
)


def test_minimal_program():
    unit = parse_source("fn f() -> int { return 1; }")
    assert len(unit.functions) == 1
    assert len(list_statement_ids(unit.functions[0])) == 1
    fn = unit.functions[0]
    assert fn.name == "f"
    assert fn.return_type is Type.INT
    assert fn.body.statements == (Return(IntLit(1)),)


def test_void_function_has_no_arrow():
    unit = parse_source("fn f() { return; }")
    assert unit.functions[0].return_type is Type.VOID


def test_missing_semicolon_reports_closing_brace_position():
    with pytest.raises(ParseError) as excinfo:
        parse_source("fn f() { return }")
    # `return }` fails where the brace sits: line 1, column 17
    assert excinfo.value.line == 1
    assert excinfo.value.col == 17


def test_bench_sort_statement_count(bench_sort):
    unit, _tests = bench_sort
    # Counted by hand from benchmarks/bench_sort.ml: sort has 9 list
    # statements (3 top-level, the inner for, its 2 statements, 3 in the
    # swap branch), max2 has 3.
    assert [len(list_statement_ids(fn)) for fn in unit.functions] == [9, 3]


def test_param_and_type_parsing():
    unit = parse_source("fn g(a: int[], b: bool, c: int) -> int[] { return a; }")
    fn = unit.functions[0]
    assert [p.param_type for p in fn.params] == [Type.INT_ARRAY, Type.BOOL, Type.INT]
    assert fn.return_type is Type.INT_ARRAY


def test_control_flow_shapes():
    unit = parse_source(
        """
        fn f(n: int) -> int {
            var s: int = 0;
            for (var i: int = 0; i < n; i = i + 1) {
                if (i % 2 == 0) {
                    s = s + i;
                } else if (i > 10) {
                    break;
                } else {
                    continue;
                }
            }
            while (s > 100) {
                s = s - 100;
            }
            return s;
        }
        """
    )
    body = unit.functions[0].body.statements
    assert isinstance(body[0], VarDecl)
    assert isinstance(body[1], For)
    branch = body[1].body.statements[0]
    assert isinstance(branch, If)
    assert isinstance(branch.orelse, If)  # else-if chain
    assert isinstance(branch.orelse.orelse, Block)
    assert isinstance(body[2], While)


def test_operator_precedence():
    unit = parse_source("fn f(a: int, b: int, c: int) -> bool { return a + b * c < a * (b + c); }")
    ret = unit.functions[0].body.statements[0]
    assert isinstance(ret, Return)
    cmp = ret.value
    assert isinstance(cmp, Binary) and cmp.op == "<"
    left = cmp.left
    assert isinstance(left, Binary) and left.op == "+"
    assert isinstance(left.right, Binary) and left.right.op == "*"


def test_assignment_targets():
    unit = parse_source("fn f(a: int[]) { a[0] = 1; }")
    stmt = unit.functions[0].body.statements[0]
    assert isinstance(stmt, Assign)
    with pytest.raises(ParseError):
        parse_source("fn f(a: int[]) { f(a)[0] = 1; }")
    with pytest.raises(ParseError):
        parse_source("fn f() { 1 = 2; }")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_source("fn while() -> int { return 1; }")
    with pytest.raises(ParseError):
        parse_source("fn f() -> int { var if: int = 1; return 1; }")


def test_no_partial_ast_on_trailing_garbage():
    with pytest.raises(ParseError):
        parse_source("fn f() -> int { return 1; } garbage")


def test_deep_nesting_is_a_parse_error_not_a_crash():
    text = "fn f() -> int { return " + "(" * 5000 + "1" + ")" * 5000 + "; }"
    with pytest.raises(ParseError) as excinfo:
        parse_source(text)
    assert "nesting" in excinfo.value.message


def _chain(link: str, n: int) -> str:
    """A left-deep chain of n terms (`x + x + ...`), or n indexes (`x[0][0]...`)."""
    return "x" + "[0]" * n if link == "[0]" else f" {link} ".join(["x"] * n)


@pytest.mark.parametrize("link", ["+", "&&", "[0]"])
def test_a_long_chain_nests_too_deep_although_its_text_is_flat(link):
    """Each operator of a chain and each index counts one level: the parser
    bounds the depth of the tree it returns, which every later pass recurses
    into, not only its own recursion."""
    block = "{ return " + _chain(link, 150) + "; }"
    for parse in (parse_block, lambda text: parse_source("fn f() -> int " + text)):
        with pytest.raises(ParseError) as excinfo:
            parse(block)
        assert excinfo.value.message == "nesting too deep"


def test_a_ninety_term_sum_still_parses():
    unit = parse_source("fn f(x: int) -> int { return " + _chain("+", 90) + "; }")
    assert parse_block("{ return " + _chain("+", 90) + "; }") == unit.function("f").body


def test_parse_block_basics():
    block = parse_block("{ x = 1; }")
    assert isinstance(block, Block)
    assert len(block.statements) == 1


def test_parse_block_retries_with_braces():
    block = parse_block("x = 1; y = 2;")
    assert len(block.statements) == 2


def test_parse_block_rejects_declarations():
    with pytest.raises(ParseError):
        parse_block("{ class Foo { } }")
    with pytest.raises(ParseError):
        parse_block("{ fn g() { } }")


def test_parse_block_rejects_trailing_garbage_after_retry():
    with pytest.raises(ParseError):
        parse_block("{ x = 1; } trailing words")


@pytest.mark.parametrize("text, char, line, col", [
    ("fn f() -> int {\n    return 2\u00b2;\n}", "\u00b2", 2, 13),
    ("fn f() -> int { var caf\u00e9: int = 1; return 1; }", "\u00e9", 1, 24),
    ("fn f() {\r\n\t// comment\r\n\tx = \u0663;\n}", "\u0663", 3, 6),
    ("fn f() { // caf\u00e9\n}", "\u00e9", 1, 16),
    ("fn f()\u00a0{ }", "\u00a0", 1, 7),
], ids=["superscript-digit", "letter", "decimal-digit", "in-a-comment", "no-break-space"])
def test_source_is_ascii_and_any_other_character_is_a_parse_error(text, char, line, col):
    """A non-ASCII character never reaches a token, not even one that
    Python counts as a digit, letter or space; it is reported where it is."""
    with pytest.raises(ParseError) as excinfo:
        parse_source(text)
    assert excinfo.value.message == f"unexpected character {char!r}"
    assert (excinfo.value.line, excinfo.value.col) == (line, col)
