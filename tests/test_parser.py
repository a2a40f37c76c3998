from __future__ import annotations

import hashlib
import random
import sys

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
    ExprStmt,
    For,
    If,
    IntLit,
    Return,
    VarDecl,
    While,
    statement_sites,
)
from minigi.lang.parser import parse_expression
from minigi.lang.printer import print_canonical, print_statement


def test_minimal_program():
    unit = parse_source("fn f() -> int { return 1; }")
    assert len(unit.functions) == 1
    assert len(statement_sites(unit.functions[0])[0]) == 1
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
    assert [len(statement_sites(fn)[0]) for fn in unit.functions] == [9, 3]


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


def _else_if_block(arms: int) -> str:
    """A block holding one if statement with `arms` `else if` arms and an `else`."""
    return (
        "{ if (x == 0) { return 0; }"
        + "".join(f" else if (x == {k}) {{ return {k}; }}" for k in range(1, arms + 1))
        + " else { return x; } }"
    )


@pytest.mark.parametrize("link", ["+", "&&", "[0]", "else if"])
def test_a_long_chain_nests_too_deep_although_its_text_is_flat(link):
    """Each operator of a chain, each index and each `else if` arm counts one
    level: the parser bounds the depth of the tree it returns, which every
    later pass recurses into, not only its own recursion."""
    block = _else_if_block(150) if link == "else if" else "{ return " + _chain(link, 150) + "; }"
    for parse in (parse_block, lambda text: parse_source("fn f() -> int " + text)):
        with pytest.raises(ParseError) as excinfo:
            parse(block)
        assert excinfo.value.message == "nesting too deep"


def _nested(kind: str, n: int) -> str:
    """n nested calls, or n nested array literals."""
    return "f(" * n + "x" + ")" * n if kind == "calls" else "[" * n + "]" * n


@pytest.mark.parametrize("kind", ["calls", "arrays"])
def test_nested_calls_and_array_literals_reach_the_nesting_cap_before_the_host_stack(kind):
    """A level of a nested call or array literal costs the recursive descent
    about a dozen Python frames, more than the host's default recursion
    limit allows for 85 levels: the parser lifts that limit while it
    parses, so such text parses up to the cap, then is a ParseError, and
    the limit is put back either way."""
    limit = sys.getrecursionlimit()
    for n in (85, 98):
        block = parse_block("{ return " + _nested(kind, n) + "; }")
        assert parse_block(print_statement(block)) == block
        assert sys.getrecursionlimit() == limit
    with pytest.raises(ParseError) as excinfo:
        parse_block("{ return " + _nested(kind, 200) + "; }")
    assert excinfo.value.message == "nesting too deep"
    assert sys.getrecursionlimit() == limit


def test_an_integer_literal_past_the_int_string_limit_is_a_parse_error():
    """Python refuses to read an integer of more than 4,300 digits; the
    parser refuses the literal first, at its own position."""
    assert parse_block("{ return " + "9" * 4300 + "; }").statements[0].value.value > 0
    with pytest.raises(ParseError) as excinfo:
        parse_block("{\n  x = 0;\n  return " + "1" * 5000 + "; }")
    assert excinfo.value.message == "integer literal longer than 4300 digits"
    assert (excinfo.value.line, excinfo.value.col) == (3, 10)


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


# --- golden corpus ---
#
# About 2,000 inputs drawn with fixed seeds from MiniLang's token alphabet,
# grammar-shaped and then damaged, plus nesting at the parser's cap. Each
# input's outcome is the canonical print of its tree or the exact
# `line:col: message` of its ParseError; GOLDEN_SHA256 is the digest of
# every input with its outcome. It was computed with the lexer this one
# replaced, which built a `Token` record per token, and is kept as data,
# so any change to what the lexer and parser accept, build or report
# (message or position) changes it.

GOLDEN_SHA256 = "4f2d406ae0a14d6e984e599db1daa3694b6b82fa35a85d37db1a9ed67b7ab576"
CORPUS_SEEDS = (3, 17, 2023, 31337)

_PUNCT = [
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "->", "==", "!=", "<=", ">=", "&&", "||",
]
_WORDS = [
    "fn", "var", "if", "else", "while", "for", "break", "continue", "return",
    "true", "false", "int", "bool", "x", "y", "n", "len", "_t", "a1", "Zz_9",
]
_INTS = ["0", "1", "7", "42", "007", "99999999999999999999"]
# Runs the lexer must split, and characters no token takes.
_RUNS = ["/* no */", "<==", "!==", "-->", "===", "&&&", "|||", "->>", "=>", "1abc", "0x1F", "9_", "a-b", "x[0]"]
_BAD = [
    "@", "$", ".", "&", "|", "#", "?", "~", "^", "'", '"', "\\", "`", "\x00", "\x0b", "\x0c", "\x7f",
    "\u00e9", "\u00b2", "\u0663", "\u00a0", "\u2028", "\u03bb", "\U0001f600",
]
_ALPHABET = _PUNCT + _WORDS + _INTS + _RUNS + _BAD
_GAPS = [
    "", "\t", "\n", "\r\n", "\r", "  \t ", " // note\n", "//c\r\n", "\n// x < y @ $ \\\n", "//\n",
    "\t\t\n\n", "\n\n\n",
]
_BINARY_OPS = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]
_TYPES = [["int"], ["bool"], ["int", "[", "]"]]


def _expr_tokens(rng, depth: int) -> list[str]:
    if depth <= 0 or rng.random() < 0.3:
        return [rng.choice(["x", "y", "n", "0", "1", "42", "true", "false"])]
    kind = rng.randrange(6)
    if kind == 0:
        return _expr_tokens(rng, depth - 1) + [rng.choice(_BINARY_OPS)] + _expr_tokens(rng, depth - 1)
    if kind == 1:
        return [rng.choice(["-", "!"])] + _expr_tokens(rng, depth - 1)
    if kind == 2:
        return ["("] + _expr_tokens(rng, depth - 1) + [")"]
    if kind == 3:
        return [rng.choice(["f", "len", "g"]), "("] + _listed(rng, depth) + [")"]
    if kind == 4:
        return [rng.choice(["x", "a1"]), "["] + _expr_tokens(rng, depth - 1) + ["]"]
    return ["["] + _listed(rng, depth) + ["]"]


def _listed(rng, depth: int) -> list[str]:
    tokens: list[str] = []
    for k in range(rng.randrange(4)):
        tokens += ([","] if k else []) + _expr_tokens(rng, depth - 1)
    return tokens


def _target_tokens(rng) -> list[str]:
    """An assignment target; now and then one the parser refuses, or `(x)`,
    which it takes."""
    roll = rng.random()
    if roll < 0.55:
        return ["x"]
    if roll < 0.9:
        return ["a1", "[", rng.choice(["0", "i", "n"]), "]"]
    return rng.choice([["f", "(", "x", ")"], ["1"], ["(", "x", ")"], ["-", "x"], ["f", "(", ")", "[", "0", "]"]])


def _stmt_tokens(rng, depth: int) -> list[str]:
    kind = rng.randrange(11) if depth > 0 else rng.randrange(6)
    if kind == 0:
        return ["var", rng.choice(["x", "i", "t"]), ":"] + rng.choice(_TYPES) + ["="] + _expr_tokens(rng, 2) + [";"]
    if kind == 1:
        return _target_tokens(rng) + ["="] + _expr_tokens(rng, 3) + [";"]
    if kind == 2:
        return ["return"] + (_expr_tokens(rng, 3) if rng.random() < 0.8 else []) + [";"]
    if kind == 3:
        return [rng.choice(["break", "continue"]), ";"]
    if kind == 4:
        return ["f", "("] + _listed(rng, 2) + [")", ";"]
    if kind == 5:
        return _expr_tokens(rng, 2) + [";"]
    if kind == 6:
        return _block_tokens(rng, depth - 1)
    if kind in (7, 8):
        tokens = ["if", "("] + _expr_tokens(rng, 2) + [")"] + _block_tokens(rng, depth - 1)
        for _ in range(rng.randrange(3)):
            tokens += ["else", "if", "("] + _expr_tokens(rng, 2) + [")"] + _block_tokens(rng, depth - 1)
        if rng.random() < 0.5:
            tokens += ["else"] + _block_tokens(rng, depth - 1)
        return tokens
    if kind == 9:
        return ["while", "("] + _expr_tokens(rng, 2) + [")"] + _block_tokens(rng, depth - 1)
    init = ["var", "i", ":", "int", "=", "0"] if rng.random() < 0.7 else ["i", "=", "0"]
    update = ["i", "=", "i", "+", "1"]
    return ["for", "("] + init + [";"] + _expr_tokens(rng, 2) + [";"] + update + [")"] + _block_tokens(rng, depth - 1)


def _block_tokens(rng, depth: int) -> list[str]:
    tokens = ["{"]
    for _ in range(rng.randrange(4)):
        tokens += _stmt_tokens(rng, depth)
    return tokens + ["}"]


def _function_tokens(rng) -> list[str]:
    tokens = ["fn", rng.choice(["f", "g", "main", "sort"]), "("]
    for k in range(rng.randrange(3)):
        tokens += ([","] if k else []) + [rng.choice(["a", "b", "c"]), ":"] + rng.choice(_TYPES)
    tokens.append(")")
    if rng.random() < 0.7:
        tokens += ["->"] + rng.choice(_TYPES)
    return tokens + _block_tokens(rng, 3)


def _damaged(rng, tokens: list[str]) -> list[str]:
    """`tokens` with up to three deletions, insertions, duplications or
    replacements (none half the time)."""
    tokens = list(tokens)
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        at = rng.randrange(len(tokens) + 1)
        move = rng.randrange(4)
        if move == 0 and at < len(tokens):
            del tokens[at]
        elif move == 1 and at < len(tokens):
            tokens.insert(at, tokens[at])
        elif move == 2 and at < len(tokens):
            tokens[at] = rng.choice(_ALPHABET)
        else:
            tokens.insert(at, rng.choice(_ALPHABET))
    return tokens


def _joined(rng, tokens: list[str]) -> str:
    """`tokens` separated by single spaces, or now and then by another gap
    (none at all, tabs, line breaks of every kind, comments)."""
    text = rng.choice(["", "", "\n", "// head\n", "\r\n\t", "\t"])
    for k, tok in enumerate(tokens):
        if k:
            text += " " if rng.random() < 0.9 else rng.choice(_GAPS)
        text += tok
    return text + rng.choice(["", "", "\n", "\r\n", " // tail", "  ", "//", " // caf\u00e9"])


def _nested_inputs() -> list[tuple[str, str]]:
    """Nesting on both sides of the parser's cap, in each construct that
    counts a level. A parenthesis counts two. Array literals and calls stay
    shallow: each level of them costs about eleven Python frames of the
    parser, so near the cap they would meet the host's recursion limit."""
    cases = []
    for n in (97, 98, 99, 100, 101):
        cases += [
            ("source", "fn f() {" + " {" * n + " }" * n + " }"),
            ("source", "fn f() -> int { return " + "- " * n + "x; }"),
            ("source", "fn f() -> bool { return " + "!" * n + "x; }"),
            ("source", "fn f(x: int[]) -> int { return x" + "[0]" * n + "; }"),
            ("source", "fn f(x: int) -> int { return " + " + ".join(["x"] * n) + "; }"),
            ("block", "{ if (x == 0) { return 0; }" + " else if (x) { x = 1; }" * n + " }"),
            ("block", "while (x) {" * n + "}" * n),
        ]
    for n in (47, 48, 49, 50, 51):
        cases.append(("source", "fn f() -> int { return " + "(" * n + "1" + ")" * n + "; }"))
        cases.append(("expression", "(" * n + "x" + ")" * n))
    for n in (20, 30):
        cases.append(("expression", "[" * n + "]" * n))
        cases.append(("expression", "f(" * n + ")" * n))
    return cases


def _outcome(kind: str, text: str) -> str:
    try:
        if kind == "source":
            return print_canonical(parse_source(text))
        if kind == "block":
            return print_statement(parse_block(text))
        return print_statement(ExprStmt(parse_expression(text))).removesuffix(";")
    except ParseError as exc:
        assert str(exc) == f"{exc.line}:{exc.col}: {exc.message}"
        return "error " + str(exc)


def corpus() -> list[tuple[str, str]]:
    """The golden corpus: (parse entry point, input text) pairs."""
    cases = []
    for seed in CORPUS_SEEDS:
        rng = random.Random(seed)
        for _ in range(380):
            tokens = _function_tokens(rng)
            if rng.random() < 0.3:
                tokens += _function_tokens(rng)
            cases.append(("source", _joined(rng, _damaged(rng, tokens))))
        for _ in range(60):
            block = _block_tokens(rng, 3)
            if rng.random() < 0.3:
                block = block[1:-1]  # parse_block retries without the braces
            cases.append(("block", _joined(rng, _damaged(rng, block))))
        for _ in range(60):
            cases.append(("expression", _joined(rng, _damaged(rng, _expr_tokens(rng, 5)))))
    return cases + _nested_inputs()


def test_the_golden_corpus_parses_and_fails_exactly_as_recorded():
    digest = hashlib.sha256()
    outcomes = []
    for kind, text in corpus():
        outcome = _outcome(kind, text)
        outcomes.append(outcome)
        digest.update(f"{kind}\x1f{text}\x1f{outcome}\x1e".encode("utf-8"))
    # The corpus reaches both outcomes and every kind of message.
    errors = [o for o in outcomes if o.startswith("error ")]
    assert len(outcomes) == 2049 and 500 < len(errors) < 1500
    for message in (
        "unexpected character", "nesting too deep", "trailing input after block",
        "trailing input after expression", "expected ';'", "expected identifier",
        "expected a type", "expected an expression", "unterminated block",
        "unexpected keyword", "cannot be used as a name", "invalid assignment target",
        "found end of input",
    ):
        assert any(message in o for o in errors), message
    assert digest.hexdigest() == GOLDEN_SHA256
