"""Lexer and recursive-descent parser for MiniLang.

Tokens. Source is ASCII, comments included. One pattern (`_TOKEN`) reads
it in one pass, one match per token: spaces, tabs, carriage returns,
newlines and `//` comments to the end of the line are folded into the
match of the token after them; an integer is `[0-9]+`; a name is
`[A-Za-z_][A-Za-z0-9_]*`, and a name in KEYWORDS is a keyword; the
two-character operators are tried before the one-character ones. A token
is its text alone, a plain string, and the end of input is "". The parser
tells tokens apart by their text: punctuation, keywords and integers never
share one, an integer starts with a digit and a name with a letter or
`_`. Any other character, every non-ASCII one included, is a ParseError
at its line and column, and the first such character in the text is the
error reported, wherever the parse stopped. Positions are kept by token
number; the line and column of an error are found from its token's
offset in the text only when the error is raised.

The grammar is the one the `_Parser` methods implement, read top-down:
declarations (`parse_unit`, `parse_function`, `parse_type`), statements
(`parse_statement` and the helpers it calls) and expressions, whose
binary operators climb BINARY_LEVELS (loosest first) down to the unary
operators, index chains and `_parse_primary`. The printer takes its
precedences from the same table. Parsing either yields a complete AST or
raises ParseError with the 1-based line/column of the offending token;
there are no partial results. A nesting-depth guard turns pathological
inputs (deeply nested parentheses from machine-generated code) into
ParseError instead of a RecursionError. It bounds the depth of the tree
returned, not only the parser's own recursion: each operator of a
left-deep chain such as `x + x + x`, each `[...]` of an index chain and
each `else if` arm of an if chain counts one level until the chain ends,
since every later pass recurses into those nodes. A level costs the
descent up to twelve Python frames (a call or an array literal inside
an expression passes through every binary level), so the recursion limit
is lifted by that much while a text is parsed and the guard always fires
first. An integer literal longer than Python's default int-string limit
(4,300 digits, a fixed bound) is a ParseError too.
"""

from __future__ import annotations

import re
import sys

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
    Function,
    If,
    Index,
    IntLit,
    Param,
    Return,
    SourceUnit,
    Stmt,
    Type,
    Unary,
    Var,
    VarDecl,
    While,
)

KEYWORDS = {
    "fn", "var", "if", "else", "while", "for",
    "break", "continue", "return", "true", "false", "int", "bool",
}

# Binary operators by binding strength, loosest first; each level is a
# left-associative chain. Unary `-` and `!` bind tighter, indexing tightest.
BINARY_LEVELS = (
    ("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*", "/", "%"),
)

# One match per token: the spaces, tabs, line breaks and `//` comments
# before it, then the token (group 1). `.` takes any character no token
# starts with, and `\Z` the empty end-of-input token, so the matches tile
# the text and the last one is "" at its end.
_SKIP = r"(?:[ \t\r\n]+|//[\x00-\x09\x0b-\x7f]*)*"
_VALID = r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|->|==|!=|<=|>=|&&|\|\||[-(){}\[\],;:+*/%<>=!]"
_TOKEN = re.compile(f"{_SKIP}({_VALID}|.|\\Z)", re.DOTALL)
_VALID_TOKEN = re.compile(_VALID)

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

MAX_NESTING = 100
_NESTING_FRAMES = 12 * MAX_NESTING  # the recursion limit's lift while parsing
MAX_LITERAL_DIGITS = 4300  # sys.int_info.default_max_str_digits


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def tokenize(text: str) -> list[str]:
    """The text of each token of `text`, in order, ending with "" (end of
    input). A character that no token takes is a token of its own here;
    the parser never accepts it, and `_Parser.error` reports it."""
    return _TOKEN.findall(text)


def _describe(tok: str) -> str:
    return repr(tok) if tok else "end of input"


class _Parser:
    """A parser of `text`. It reads the token texts by position, and an
    error names its token by position too (see `error`)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing --

    def error(self, message: str, at: int) -> ParseError:
        """The ParseError for `message` at token number `at`, with the line
        and column of its first character. A character that no token takes
        is reported instead, the first one in the text, wherever it is: no
        input that holds one parses."""
        text, offset = self.text, len(self.text)
        for i, m in enumerate(_TOKEN.finditer(text)):
            tok = m[1]
            if tok and not _VALID_TOKEN.match(tok):
                message, offset = f"unexpected character {tok!r}", m.start(1)
                break
            if i == at:
                offset = m.start(1)
        line_start = text.rfind("\n", 0, offset) + 1
        return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def accept(self, text: str) -> bool:
        """Consume the next token when its text is `text`."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"expected {text!r}, found {_describe(tok)}", self.pos)
        self.pos += 1

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _NAME_START:
            raise self.error(f"expected identifier, found {_describe(tok)}", self.pos)
        if tok in KEYWORDS:
            raise self.error(f"keyword {tok!r} cannot be used as a name", self.pos)
        self.pos += 1
        return tok

    def _enter(self, at: int) -> None:
        """Count one level of nesting, opened by token number `at`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nesting too deep", at)

    def _leave(self) -> None:
        self.depth -= 1

    def _parse_list(self, item, closer: str) -> tuple:
        """Comma-separated `item`s up to `closer`, which is consumed."""
        items = []
        if not self.at(closer):
            items.append(item())
            while self.accept(","):
                items.append(item())
        self.expect(closer)
        return tuple(items)

    # -- declarations --

    def parse_unit(self, name: str) -> SourceUnit:
        functions = []
        while self.tokens[self.pos]:
            functions.append(self.parse_function())
        return SourceUnit(name, tuple(functions))

    def parse_function(self) -> Function:
        self.expect("fn")
        name = self.expect_ident()
        self.expect("(")
        params = self._parse_list(self._parse_param, ")")
        ret = self.parse_type() if self.accept("->") else Type.VOID
        return Function(name, params, ret, self.parse_braced_block())

    def _parse_param(self) -> Param:
        name = self.expect_ident()
        self.expect(":")
        return Param(name, self.parse_type())

    def parse_type(self) -> Type:
        if self.accept("int"):
            if self.accept("["):
                self.expect("]")
                return Type.INT_ARRAY
            return Type.INT
        if self.accept("bool"):
            return Type.BOOL
        raise self.error(f"expected a type, found {_describe(self.peek())}", self.pos)

    # -- statements --

    def parse_braced_block(self) -> Block:
        opener = self.pos
        self.expect("{")
        self._enter(opener)
        statements = []
        while not self.accept("}"):
            if not self.tokens[self.pos]:
                raise self.error("unterminated block", self.pos)
            statements.append(self.parse_statement())
        self._leave()
        return Block(tuple(statements))

    def parse_statement(self) -> Stmt:
        start = self.pos
        tok = self.tokens[start]
        if tok == "{":
            return self.parse_braced_block()
        if tok == "if":
            return self.parse_if()
        if tok == "for":
            return self.parse_for()
        if self.accept("while"):
            return While(self._parse_condition(), self.parse_braced_block())
        if tok == "var":
            stmt = self.parse_var_decl()
        elif self.accept("break"):
            stmt = Break()
        elif self.accept("continue"):
            stmt = Continue()
        elif self.accept("return"):
            stmt = Return(None if self.at(";") else self.parse_expr())
        elif tok in KEYWORDS:
            raise self.error(f"unexpected keyword {tok!r}", start)
        else:
            expr = self.parse_expr()
            stmt = self._parse_assign_value(expr, start) if self.accept("=") else ExprStmt(expr)
        self.expect(";")
        return stmt

    def parse_var_decl(self) -> VarDecl:
        self.expect("var")
        name = self.expect_ident()
        self.expect(":")
        var_type = self.parse_type()
        self.expect("=")
        return VarDecl(name, var_type, self.parse_expr())

    def parse_if(self) -> If:
        self.expect("if")
        cond = self._parse_condition()
        then_block = self.parse_braced_block()
        orelse: Stmt | None = None
        if self.accept("else"):
            if self.at("if"):
                self._enter(self.pos)  # an `else if` arm nests one level in the tree
                orelse = self.parse_if()
                self._leave()
            else:
                orelse = self.parse_braced_block()
        return If(cond, then_block, orelse)

    def _parse_condition(self) -> Expr:
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return cond

    def parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        init = self.parse_var_decl() if self.at("var") else self._parse_bare_assign()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        update = self._parse_bare_assign()
        self.expect(")")
        return For(init, cond, update, self.parse_braced_block())

    def _parse_bare_assign(self) -> Assign:
        start = self.pos
        target = self.parse_expr()
        self.expect("=")
        return self._parse_assign_value(target, start)

    def _parse_assign_value(self, target: Expr, start: int) -> Assign:
        """`target`, parsed from token number `start` on, assigned the value
        after its `=`."""
        if not isinstance(target.base if isinstance(target, Index) else target, Var):
            raise self.error("invalid assignment target", start)
        return Assign(target, self.parse_expr())

    # -- expressions --

    def parse_expr(self) -> Expr:
        self._enter(self.pos)
        try:
            return self._parse_binary(0)
        finally:
            self._leave()

    def _parse_binary(self, level: int) -> Expr:
        """A left-deep chain of the operators of BINARY_LEVELS[level]; each
        operator nests one level until the chain ends."""
        if level == len(BINARY_LEVELS):
            return self._parse_unary()
        ops = BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        depth = self.depth
        tokens = self.tokens
        while tokens[self.pos] in ops:
            op = tokens[self.pos]
            self._enter(self.pos)
            self.pos += 1
            left = Binary(op, left, self._parse_binary(level + 1))
        self.depth = depth
        return left

    def _parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok == "-" or tok == "!":
            self._enter(self.pos)
            self.pos += 1
            try:
                return Unary(tok, self._parse_unary())
            finally:
                self._leave()
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        """An index chain; each `[` nests one level until the chain ends."""
        expr = self._parse_primary()
        depth = self.depth
        while self.at("["):
            self._enter(self.pos)
            self.pos += 1
            index = self.parse_expr()
            self.expect("]")
            expr = Index(expr, index)
        self.depth = depth
        return expr

    def _parse_primary(self) -> Expr:
        start = self.pos
        tok = self.tokens[start]
        self.pos += 1
        first = tok[:1]
        if first in _DIGITS:
            if len(tok) > MAX_LITERAL_DIGITS:
                raise self.error(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", start
                )
            return IntLit(int(tok))
        if first in _NAME_START:
            if tok == "true" or tok == "false":
                return BoolLit(tok == "true")
            if tok in KEYWORDS:
                raise self.error(f"unexpected keyword {tok!r}", start)
            if self.accept("("):
                return Call(tok, self._parse_list(self.parse_expr, ")"))
            return Var(tok)
        if tok == "(":
            self._enter(start)
            expr = self.parse_expr()
            self._leave()
            self.expect(")")
            return expr
        if tok == "[":
            return ArrayLit(self._parse_list(self.parse_expr, "]"))
        raise self.error(f"expected an expression, found {_describe(tok)}", start)


def _parse_whole(text: str, parse, what: str):
    """`parse` applied to a parser of `text`, which must consume all of it,
    with the recursion limit lifted for MAX_NESTING levels."""
    parser = _Parser(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _NESTING_FRAMES)
    try:
        result = parse(parser)
    finally:
        sys.setrecursionlimit(limit)
    tok = parser.peek()
    if tok:
        raise parser.error(f"trailing input after {what}: {tok!r}", parser.pos)
    return result


def parse_source(text: str, name: str = "main") -> SourceUnit:
    """Parse a whole MiniLang file into a SourceUnit."""
    return _parse_whole(text, lambda parser: parser.parse_unit(name), "unit")


def parse_block(text: str) -> Block:
    """Parse a braced statement sequence in isolation.

    When the text does not parse as-is, one retry wraps it in braces (model
    responses often drop the outer braces despite being asked for them).
    The error from the unwrapped attempt is reported if both fail.
    """
    try:
        return _parse_whole(text, _Parser.parse_braced_block, "block")
    except ParseError as first_err:
        try:
            return _parse_whole("{\n" + text + "\n}", _Parser.parse_braced_block, "block")
        except ParseError:
            raise first_err from None


def parse_expression(text: str) -> Expr:
    """Parse a single expression (used by the test-file reader)."""
    return _parse_whole(text, _Parser.parse_expr, "expression")
