"""Lexer and recursive-descent parser for MiniLang.

The grammar is the one the `_Parser` methods implement, read top-down:
declarations (`parse_unit`, `parse_function`, `parse_type`), statements
(`parse_statement` and the helpers it calls) and expressions by precedence
climbing from `_parse_or` (loosest) to `_parse_primary`. Parsing either
yields a complete AST or raises ParseError with the 1-based line/column of
the offending token; there are no partial results. A nesting-depth guard
turns pathological inputs (deeply nested parentheses from machine-generated
code) into ParseError instead of a RecursionError. It bounds the depth of
the tree returned, not only the parser's own recursion: each operator of a
left-deep chain such as `x + x + x` and each `[...]` of an index chain
counts one level until the chain ends, since every later pass recurses
into those nodes.
"""

from __future__ import annotations

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

_PUNCT2 = ("->", "==", "!=", "<=", ">=", "&&", "||")
_PUNCT1 = "(){}[],;:+-*/%<>=!"

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
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, start_line, start_col))
            advance(2)
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, start_line, start_col))
            advance(1)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


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

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {self._describe(tok)}", tok.line, tok.col)
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise ParseError(f"expected {word!r}, found {self._describe(tok)}", tok.line, tok.col)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {self._describe(tok)}", tok.line, tok.col)
        if tok.text in KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot be used as a name", tok.line, tok.col)
        return self.next()

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def _enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting too deep", tok.line, tok.col)

    def _leave(self) -> None:
        self.depth -= 1

    # -- declarations --

    def parse_unit(self, name: str) -> SourceUnit:
        functions = []
        while not self.peek().kind == "eof":
            functions.append(self.parse_function())
        return SourceUnit(name, tuple(functions))

    def parse_function(self) -> Function:
        self.expect_keyword("fn")
        name = self.expect_ident().text
        self.expect_punct("(")
        params: list[Param] = []
        if not self.at_punct(")"):
            while True:
                pname = self.expect_ident().text
                self.expect_punct(":")
                params.append(Param(pname, self.parse_type()))
                if self.at_punct(","):
                    self.next()
                    continue
                break
        self.expect_punct(")")
        ret = Type.VOID
        if self.at_punct("->"):
            self.next()
            ret = self.parse_type()
        body = self.parse_braced_block()
        return Function(name, tuple(params), ret, body)

    def parse_type(self) -> Type:
        tok = self.peek()
        if self.at_keyword("int"):
            self.next()
            if self.at_punct("["):
                self.next()
                self.expect_punct("]")
                return Type.INT_ARRAY
            return Type.INT
        if self.at_keyword("bool"):
            self.next()
            return Type.BOOL
        raise ParseError(f"expected a type, found {self._describe(tok)}", tok.line, tok.col)

    # -- statements --

    def parse_braced_block(self) -> Block:
        open_tok = self.expect_punct("{")
        self._enter(open_tok)
        statements = []
        while not self.at_punct("}"):
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError("unterminated block", tok.line, tok.col)
            statements.append(self.parse_statement())
        self.next()
        self._leave()
        return Block(tuple(statements))

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        if self.at_punct("{"):
            return self.parse_braced_block()
        if self.at_keyword("var"):
            stmt = self.parse_var_decl()
            self.expect_punct(";")
            return stmt
        if self.at_keyword("if"):
            return self.parse_if()
        if self.at_keyword("while"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            return While(cond, self.parse_braced_block())
        if self.at_keyword("for"):
            return self.parse_for()
        if self.at_keyword("break"):
            self.next()
            self.expect_punct(";")
            return Break()
        if self.at_keyword("continue"):
            self.next()
            self.expect_punct(";")
            return Continue()
        if self.at_keyword("return"):
            self.next()
            if self.at_punct(";"):
                self.next()
                return Return(None)
            value = self.parse_expr()
            self.expect_punct(";")
            return Return(value)
        if tok.kind == "ident" and tok.text in KEYWORDS:
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
        expr = self.parse_expr()
        if self.at_punct("="):
            self.next()
            target = self._as_assign_target(expr, tok)
            value = self.parse_expr()
            self.expect_punct(";")
            return Assign(target, value)
        self.expect_punct(";")
        return ExprStmt(expr)

    def parse_var_decl(self) -> VarDecl:
        self.expect_keyword("var")
        name = self.expect_ident().text
        self.expect_punct(":")
        var_type = self.parse_type()
        self.expect_punct("=")
        return VarDecl(name, var_type, self.parse_expr())

    def parse_if(self) -> If:
        self.expect_keyword("if")
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then_block = self.parse_braced_block()
        orelse: Stmt | None = None
        if self.at_keyword("else"):
            self.next()
            if self.at_keyword("if"):
                orelse = self.parse_if()
            else:
                orelse = self.parse_braced_block()
        return If(cond, then_block, orelse)

    def parse_for(self) -> For:
        self.expect_keyword("for")
        self.expect_punct("(")
        init: VarDecl | Assign
        if self.at_keyword("var"):
            init = self.parse_var_decl()
        else:
            init = self._parse_bare_assign()
        self.expect_punct(";")
        cond = self.parse_expr()
        self.expect_punct(";")
        update = self._parse_bare_assign()
        self.expect_punct(")")
        return For(init, cond, update, self.parse_braced_block())

    def _parse_bare_assign(self) -> Assign:
        tok = self.peek()
        expr = self.parse_expr()
        self.expect_punct("=")
        target = self._as_assign_target(expr, tok)
        return Assign(target, self.parse_expr())

    @staticmethod
    def _as_assign_target(expr: Expr, tok: Token) -> Var | Index:
        if isinstance(expr, Var):
            return expr
        if isinstance(expr, Index) and isinstance(expr.base, Var):
            return expr
        raise ParseError("invalid assignment target", tok.line, tok.col)

    # -- expressions (precedence climbing) --

    def parse_expr(self) -> Expr:
        tok = self.peek()
        self._enter(tok)
        try:
            return self._parse_or()
        finally:
            self._leave()

    def _binary_chain(self, sub, ops: tuple[str, ...]) -> Expr:
        """A left-deep chain; each operator nests one level until it ends."""
        left = sub()
        depth = self.depth
        while self.peek().kind == "punct" and self.peek().text in ops:
            op = self.next()
            self._enter(op)
            left = Binary(op.text, left, sub())
        self.depth = depth
        return left

    def _parse_or(self) -> Expr:
        return self._binary_chain(self._parse_and, ("||",))

    def _parse_and(self) -> Expr:
        return self._binary_chain(self._parse_equality, ("&&",))

    def _parse_equality(self) -> Expr:
        return self._binary_chain(self._parse_relational, ("==", "!="))

    def _parse_relational(self) -> Expr:
        return self._binary_chain(self._parse_additive, ("<", "<=", ">", ">="))

    def _parse_additive(self) -> Expr:
        return self._binary_chain(self._parse_multiplicative, ("+", "-"))

    def _parse_multiplicative(self) -> Expr:
        return self._binary_chain(self._parse_unary, ("*", "/", "%"))

    def _parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("-", "!"):
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
        while self.at_punct("["):
            self._enter(self.next())
            index = self.parse_expr()
            self.expect_punct("]")
            expr = Index(expr, index)
        self.depth = depth
        return expr

    def _parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text))
        if self.at_keyword("true"):
            self.next()
            return BoolLit(True)
        if self.at_keyword("false"):
            self.next()
            return BoolLit(False)
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
            self.next()
            if self.at_punct("("):
                self.next()
                args = self._parse_args(")")
                return Call(tok.text, args)
            return Var(tok.text)
        if self.at_punct("("):
            open_tok = self.next()
            self._enter(open_tok)
            expr = self.parse_expr()
            self._leave()
            self.expect_punct(")")
            return expr
        if self.at_punct("["):
            self.next()
            return ArrayLit(self._parse_args("]"))
        raise ParseError(f"expected an expression, found {self._describe(tok)}", tok.line, tok.col)

    def _parse_args(self, closer: str) -> tuple[Expr, ...]:
        args: list[Expr] = []
        if not self.at_punct(closer):
            while True:
                args.append(self.parse_expr())
                if self.at_punct(","):
                    self.next()
                    continue
                break
        self.expect_punct(closer)
        return tuple(args)


def parse_source(text: str, name: str = "main") -> SourceUnit:
    """Parse a whole MiniLang file into a SourceUnit."""
    parser = _Parser(tokenize(text))
    return parser.parse_unit(name)


def parse_block(text: str) -> Block:
    """Parse a braced statement sequence in isolation.

    When the text does not parse as-is, one retry wraps it in braces (model
    responses often drop the outer braces despite being asked for them).
    The error from the unwrapped attempt is reported if both fail.
    """
    try:
        return _parse_block_exact(text)
    except ParseError as first_err:
        try:
            return _parse_block_exact("{\n" + text + "\n}")
        except ParseError:
            raise first_err from None


def _parse_block_exact(text: str) -> Block:
    parser = _Parser(tokenize(text))
    block = parser.parse_braced_block()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after block: {tok.text!r}", tok.line, tok.col)
    return block


def parse_expression(text: str) -> Expr:
    """Parse a single expression (used by the test-file reader)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after expression: {tok.text!r}", tok.line, tok.col)
    return expr
