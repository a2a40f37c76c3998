"""Edits, patches, patch application and the one-line patch record.

A patch is an ordered edit sequence against one named source unit. Edits
apply one after another; every edit re-resolves its statement ids against
the tree produced by its predecessors, so an earlier edit can strand a
later one. A stranded edit makes the whole patch invalid (UnresolvableId)
rather than being skipped silently.

Application never mutates its input: trees are immutable, and rebuilding
shares untouched subtrees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from minigi.lang.ast import (
    ArrayLit,
    Block,
    BoolLit,
    Function,
    If,
    IntLit,
    Return,
    SourceUnit,
    StatementId,
    Stmt,
    Type,
    Break,
    Continue,
    For,
    While,
    get_statement,
    stmt_children,
)
from minigi.lang.parser import ParseError, parse_block


class EditKind(Enum):
    DELETE = "delete"
    COPY = "copy"
    REPLACE = "replace"
    SWAP = "swap"
    INSERT_BREAK = "insert_break"
    INSERT_CONTINUE = "insert_continue"
    INSERT_RETURN = "insert_return"
    LLM_BLOCK_REPLACE = "llm"


STATEMENT_KINDS = (EditKind.DELETE, EditKind.COPY, EditKind.REPLACE, EditKind.SWAP)
INSERT_KINDS = (EditKind.INSERT_BREAK, EditKind.INSERT_CONTINUE, EditKind.INSERT_RETURN)


@dataclass(frozen=True)
class InsertionPoint:
    block: StatementId
    index: int

    def __str__(self) -> str:
        return f"{self.block}+{self.index}"


@dataclass(frozen=True)
class Edit:
    kind: EditKind
    src: Optional[StatementId] = None
    dst: Optional[Union[StatementId, InsertionPoint]] = None
    payload: Optional[str] = None  # LLM replacement text; None = no code block
    prompt_category: Optional[str] = None

    def __post_init__(self):
        k = self.kind
        if k is EditKind.DELETE:
            ok = self.src is not None and self.dst is None
        elif k is EditKind.COPY:
            ok = self.src is not None and isinstance(self.dst, InsertionPoint)
        elif k in (EditKind.REPLACE, EditKind.SWAP):
            ok = self.src is not None and isinstance(self.dst, StatementId)
        elif k in INSERT_KINDS:
            ok = self.src is None and isinstance(self.dst, InsertionPoint)
        else:  # LLM_BLOCK_REPLACE; payload may be None (blockless draw)
            ok = self.src is not None and self.dst is None and self.prompt_category is not None
        if not ok:
            raise ValueError(f"malformed {k.value} edit")

    def serialize(self) -> str:
        k = self.kind
        if k is EditKind.DELETE:
            return f"delete({self.src})"
        if k is EditKind.COPY:
            return f"copy({self.src}->{self.dst})"
        if k is EditKind.REPLACE:
            return f"replace({self.src}->{self.dst})"
        if k is EditKind.SWAP:
            return f"swap({self.src}<->{self.dst})"
        if k in INSERT_KINDS:
            return f"{k.value}({self.dst})"
        digest = "none" if self.payload is None else _payload_digest(self.payload)
        return f"llm({self.src},{self.prompt_category},{digest})"


def _payload_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Patch:
    base: str  # SourceUnit name the patch targets
    edits: tuple[Edit, ...] = ()
    seed: str = ""

    def is_empty(self) -> bool:
        return not self.edits

    def with_edit(self, edit: Edit) -> "Patch":
        return Patch(self.base, self.edits + (edit,), self.seed)

    def without_edit(self, index: int) -> "Patch":
        return Patch(self.base, self.edits[:index] + self.edits[index + 1 :], self.seed)


class ApplyError(Exception):
    pass


class UnresolvableIdError(ApplyError):
    def __init__(self, sid: StatementId, why: str = "does not resolve"):
        super().__init__(f"{sid}: {why}")
        self.sid = sid


class PayloadUnparsableError(ApplyError):
    pass


# -- tree surgery (pure; rebuilds the spine, shares the rest) --


def _rebuild(node: Stmt, index: int, new_child: Optional[Stmt]) -> Stmt:
    """Replace child `index` of a structural node (None deletes, Block only)."""
    if isinstance(node, Block):
        stmts = list(node.statements)
        if new_child is None:
            del stmts[index]
        else:
            stmts[index] = new_child
        return Block(tuple(stmts))
    assert new_child is not None, "only block children can be deleted"
    if isinstance(node, If):
        if index == 0:
            assert isinstance(new_child, Block)
            return If(node.cond, new_child, node.orelse)
        return If(node.cond, node.then_block, new_child)
    if isinstance(node, While):
        assert isinstance(new_child, Block)
        return While(node.cond, new_child)
    if isinstance(node, For):
        assert isinstance(new_child, Block)
        return For(node.init, node.cond, node.update, new_child)
    raise AssertionError(f"node {node!r} has no children")


def _edit_at(root: Block, path: tuple[int, ...], leaf: Callable[[Stmt], Optional[Stmt]]) -> Block:
    """`root` with the statement at `path` replaced by `leaf` of it; None
    deletes it from its block. Only the spine down to it is rebuilt."""

    def go(node: Stmt, rest: tuple[int, ...]) -> Optional[Stmt]:
        if not rest:
            return leaf(node)
        idx = rest[0]
        return _rebuild(node, idx, go(stmt_children(node)[idx], rest[1:]))

    result = go(root, path)
    assert isinstance(result, Block)
    return result


def _replace_at(root: Block, path: tuple[int, ...], new_stmt: Stmt) -> Block:
    return _edit_at(root, path, lambda _: new_stmt)


def _insert_at(root: Block, path: tuple[int, ...], index: int, stmt: Stmt) -> Block:
    def insert(block: Stmt) -> Stmt:
        assert isinstance(block, Block)
        stmts = list(block.statements)
        stmts.insert(index, stmt)
        return Block(tuple(stmts))

    return _edit_at(root, path, insert)


# -- resolution helpers --


def _function(unit: SourceUnit, sid: StatementId) -> Function:
    if not unit.has_function(sid.function):
        raise UnresolvableIdError(sid, "function does not exist")
    return unit.function(sid.function)


def _node_at(unit: SourceUnit, sid: StatementId) -> Stmt:
    node = get_statement(_function(unit, sid), sid.path)
    if node is None:
        raise UnresolvableIdError(sid)
    return node


def _list_element_at(unit: SourceUnit, sid: StatementId) -> Stmt:
    """Resolve sid and require it to sit in a block's statement list."""
    fn = _function(unit, sid)
    if not sid.path:
        raise UnresolvableIdError(sid, "body root is not a list statement")
    parent = get_statement(fn, sid.path[:-1])
    if parent is None or not isinstance(parent, Block):
        raise UnresolvableIdError(sid, "not inside a statement list")
    node = get_statement(fn, sid.path)
    if node is None:
        raise UnresolvableIdError(sid)
    return node


def _block_at(unit: SourceUnit, sid: StatementId) -> Block:
    node = _node_at(unit, sid)
    if not isinstance(node, Block):
        raise UnresolvableIdError(sid, "does not resolve to a block")
    return node


def _insertion_block(unit: SourceUnit, point: InsertionPoint) -> Block:
    block = _block_at(unit, point.block)
    if point.index < 0 or point.index > len(block.statements):
        raise UnresolvableIdError(point.block, f"insertion index {point.index} out of range")
    return block


def _with_body(unit: SourceUnit, fn_name: str, body: Block) -> SourceUnit:
    functions = tuple(
        Function(fn.name, fn.params, fn.return_type, body) if fn.name == fn_name else fn
        for fn in unit.functions
    )
    return SourceUnit(unit.name, functions)


def _default_return(return_type: Type) -> Return:
    if return_type is Type.VOID:
        return Return(None)
    if return_type is Type.BOOL:
        return Return(BoolLit(False))
    if return_type is Type.INT_ARRAY:
        return Return(ArrayLit(()))
    return Return(IntLit(0))


def _is_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return len(a) < len(b) and b[: len(a)] == a


# -- edit application --


def apply_edit(unit: SourceUnit, edit: Edit) -> SourceUnit:
    k = edit.kind
    if k is EditKind.DELETE:
        assert edit.src is not None
        _list_element_at(unit, edit.src)
        fn = unit.function(edit.src.function)
        return _with_body(unit, fn.name, _edit_at(fn.body, edit.src.path, lambda _: None))

    if k is EditKind.COPY:
        assert edit.src is not None and isinstance(edit.dst, InsertionPoint)
        node = _node_at(unit, edit.src)
        _insertion_block(unit, edit.dst)
        fn = unit.function(edit.dst.block.function)
        body = _insert_at(fn.body, edit.dst.block.path, edit.dst.index, node)
        return _with_body(unit, fn.name, body)

    if k is EditKind.REPLACE:
        assert edit.src is not None and isinstance(edit.dst, StatementId)
        node = _node_at(unit, edit.src)
        _list_element_at(unit, edit.dst)
        fn = unit.function(edit.dst.function)
        return _with_body(unit, fn.name, _replace_at(fn.body, edit.dst.path, node))

    if k is EditKind.SWAP:
        assert edit.src is not None and isinstance(edit.dst, StatementId)
        return _apply_swap(unit, edit.src, edit.dst)

    if k in INSERT_KINDS:
        assert isinstance(edit.dst, InsertionPoint)
        _insertion_block(unit, edit.dst)
        fn = unit.function(edit.dst.block.function)
        stmt: Stmt
        if k is EditKind.INSERT_BREAK:
            stmt = Break()
        elif k is EditKind.INSERT_CONTINUE:
            stmt = Continue()
        else:
            stmt = _default_return(fn.return_type)
        body = _insert_at(fn.body, edit.dst.block.path, edit.dst.index, stmt)
        return _with_body(unit, fn.name, body)

    # LLM block replacement
    assert edit.src is not None
    block_sid = edit.src
    _block_at(unit, block_sid)
    if edit.payload is None:
        raise PayloadUnparsableError("response contained no code block")
    try:
        new_block = parse_block(edit.payload)
    except ParseError as exc:
        raise PayloadUnparsableError(f"payload does not parse: {exc}") from None
    fn = unit.function(block_sid.function)
    return _with_body(unit, fn.name, _replace_at(fn.body, block_sid.path, new_block))


def _apply_swap(unit: SourceUnit, src: StatementId, dst: StatementId) -> SourceUnit:
    src_node = _list_element_at(unit, src)
    dst_node = _list_element_at(unit, dst)
    if src.function != dst.function:
        # Swapping across functions: substitute each side independently.
        unit = _with_body(
            unit, src.function,
            _replace_at(unit.function(src.function).body, src.path, dst_node),
        )
        return _with_body(
            unit, dst.function,
            _replace_at(unit.function(dst.function).body, dst.path, src_node),
        )
    fn = unit.function(src.function)
    if src.path == dst.path:
        return unit
    # When one side encloses the other, the outer substitution absorbs the
    # inner one: the enclosing statement is replaced by the enclosed subtree.
    if _is_prefix(src.path, dst.path):
        return _with_body(unit, fn.name, _replace_at(fn.body, src.path, dst_node))
    if _is_prefix(dst.path, src.path):
        return _with_body(unit, fn.name, _replace_at(fn.body, dst.path, src_node))
    body = _replace_at(fn.body, src.path, dst_node)
    body = _replace_at(body, dst.path, src_node)
    return _with_body(unit, fn.name, body)


def apply_patch(unit: SourceUnit, patch: Patch) -> SourceUnit:
    """Apply all edits in order; raises ApplyError on the first failure."""
    if patch.base != unit.name:
        raise ValueError(f"patch targets {patch.base!r}, unit is {unit.name!r}")
    current = unit
    for edit in patch.edits:
        current = apply_edit(current, edit)
    return current


def serialize_patch(patch: Patch, digest: Optional[str]) -> str:
    """One-line patch record: `seed | edit ; edit ; ... | fingerprint`.

    `digest` is the patched program's canonical digest (its fingerprint),
    or None when the patch did not apply (written as the token `invalid`).
    """
    edits = " ; ".join(e.serialize() for e in patch.edits)
    return f"{patch.seed} | {edits} | {digest if digest is not None else 'invalid'}"


def split_patch_line(line: str) -> tuple[str, str, str]:
    """(seed, edits, fingerprint) fields of a serialized patch line."""
    parts = line.split(" | ")
    if len(parts) != 3:
        raise ValueError(f"malformed patch line {line!r}")
    return parts[0], parts[1], parts[2]

