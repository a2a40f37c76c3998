"""Lexer and recursive-descent parser for MiniLang.

Tokens. Source is ASCII, comments included. One pattern (`_TOKEN`) reads
it: spaces, tabs, carriage returns, newlines and `//` comments to the end
of the line are skipped; an integer is `[0-9]+`; a name is
`[A-Za-z_][A-Za-z0-9_]*`, and a name in KEYWORDS is a keyword; the
two-character operators are tried before the one-character ones. Any
other character, every non-ASCII one included, is a ParseError at its
line and column. Punctuation, keywords and integers never share a token
text, so the parser tells tokens apart by their text alone.

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
left-deep chain such as `x + x + x` and each `[...]` of an index chain
counts one level until the chain ends, since every later pass recurses
into those nodes.
"""

from __future__ import annotations

import re

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
    record,
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

# `bad` takes any character the others refuse, so the matches tile the text.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[\x00-\x09\x0b-\x7f]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>->|==|!=|<=|>=|&&|\|\||[-(){}\[\],;:+*/%<>=!])"
    r"|(?P<bad>.)",
    re.DOTALL,
)

MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@record
class Token:
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _TOKEN.finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind == "skip":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, m.end()) + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, start - line_start + 1)
        else:
            tokens.append(Token(kind, m.group(), line, start - line_start + 1))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _describe(tok: Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> bool:
        """Consume the next token when its text is `text`."""
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {_describe(tok)}", tok.line, tok.col)
        return tok

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {_describe(tok)}", tok.line, tok.col)
        if tok.text in KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot be used as a name", tok.line, tok.col)
        return tok

    def _enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting too deep", tok.line, tok.col)

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
        while self.peek().kind != "eof":
            functions.append(self.parse_function())
        return SourceUnit(name, tuple(functions))

    def parse_function(self) -> Function:
        self.expect("fn")
        name = self.expect_ident().text
        self.expect("(")
        params = self._parse_list(self._parse_param, ")")
        ret = self.parse_type() if self.accept("->") else Type.VOID
        return Function(name, params, ret, self.parse_braced_block())

    def _parse_param(self) -> Param:
        name = self.expect_ident().text
        self.expect(":")
        return Param(name, self.parse_type())

    def parse_type(self) -> Type:
        tok = self.peek()
        if self.accept("int"):
            if self.accept("["):
                self.expect("]")
                return Type.INT_ARRAY
            return Type.INT
        if self.accept("bool"):
            return Type.BOOL
        raise ParseError(f"expected a type, found {_describe(tok)}", tok.line, tok.col)

    # -- statements --

    def parse_braced_block(self) -> Block:
        self._enter(self.expect("{"))
        statements = []
        while not self.accept("}"):
            tok = self.peek()
            if tok.kind == "eof":
                raise ParseError("unterminated block", tok.line, tok.col)
            statements.append(self.parse_statement())
        self._leave()
        return Block(tuple(statements))

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        if tok.text == "{":
            return self.parse_braced_block()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "for":
            return self.parse_for()
        if self.accept("while"):
            return While(self._parse_condition(), self.parse_braced_block())
        if tok.text == "var":
            stmt = self.parse_var_decl()
        elif self.accept("break"):
            stmt = Break()
        elif self.accept("continue"):
            stmt = Continue()
        elif self.accept("return"):
            stmt = Return(None if self.at(";") else self.parse_expr())
        elif tok.text in KEYWORDS:
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
        else:
            expr = self.parse_expr()
            stmt = self._parse_assign_value(expr, tok) if self.accept("=") else ExprStmt(expr)
        self.expect(";")
        return stmt

    def parse_var_decl(self) -> VarDecl:
        self.expect("var")
        name = self.expect_ident().text
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
            orelse = self.parse_if() if self.at("if") else self.parse_braced_block()
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
        tok = self.peek()
        target = self.parse_expr()
        self.expect("=")
        return self._parse_assign_value(target, tok)

    def _parse_assign_value(self, target: Expr, tok: Token) -> Assign:
        """`target`, parsed from `tok` on, assigned the value after its `=`."""
        if not isinstance(target.base if isinstance(target, Index) else target, Var):
            raise ParseError("invalid assignment target", tok.line, tok.col)
        return Assign(target, self.parse_expr())

    # -- expressions --

    def parse_expr(self) -> Expr:
        tok = self.peek()
        self._enter(tok)
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
        while self.peek().text in ops:
            op = self.next()
            self._enter(op)
            left = Binary(op.text, left, self._parse_binary(level + 1))
        self.depth = depth
        return left

    def _parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text in ("-", "!"):
            self.next()
            self._enter(tok)
            try:
                return Unary(tok.text, self._parse_unary())
            finally:
                self._leave()
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        """An index chain; each `[` nests one level until the chain ends."""
        expr = self._parse_primary()
        depth = self.depth
        while self.at("["):
            self._enter(self.next())
            index = self.parse_expr()
            self.expect("]")
            expr = Index(expr, index)
        self.depth = depth
        return expr

    def _parse_primary(self) -> Expr:
        tok = self.next()
        text = tok.text
        if tok.kind == "int":
            return IntLit(int(text))
        if tok.kind == "ident":
            if text == "true" or text == "false":
                return BoolLit(text == "true")
            if text in KEYWORDS:
                raise ParseError(f"unexpected keyword {text!r}", tok.line, tok.col)
            if self.accept("("):
                return Call(text, self._parse_list(self.parse_expr, ")"))
            return Var(text)
        if text == "(":
            self._enter(tok)
            expr = self.parse_expr()
            self._leave()
            self.expect(")")
            return expr
        if text == "[":
            return ArrayLit(self._parse_list(self.parse_expr, "]"))
        raise ParseError(f"expected an expression, found {_describe(tok)}", tok.line, tok.col)


def _parse_whole(text: str, parse, what: str):
    """`parse` applied to a parser of `text`, which must consume all of it."""
    parser = _Parser(tokenize(text))
    result = parse(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after {what}: {tok.text!r}", tok.line, tok.col)
    return result


def parse_source(text: str, name: str = "main") -> SourceUnit:
    """Parse a whole MiniLang file into a SourceUnit."""
    return _Parser(tokenize(text)).parse_unit(name)


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
