"""Edits, patches, patch application and the one-line patch record.

A patch is an ordered edit sequence against one named source unit. Edits
apply one after another; every edit re-resolves its statement ids against
the tree produced by its predecessors, so an earlier edit can strand a
later one. A stranded edit makes the whole patch invalid (UnresolvableId)
rather than being skipped silently.

Each edit resolves each of its ids once, walking the path from the
function body down to the statement it names and keeping that spine, and
then rebuilds that spine once, bottom-up, around the new statement (or
without the deleted one). Only a swap of two disjoint statements of one
function resolves an id a second time, after its first substitution.

Application never mutates its input: trees are immutable, rebuilding
shares untouched subtrees, and every function an edit leaves untouched
stays the input's own object, which BaseProgram's caches rely on. For
the same reason one parsed LLM payload can be shared by every program it
is applied to, so a command parses each distinct payload text once: its
driver passes the command's BaseProgram to every application, and each
text is looked up in `BaseProgram.payloads` before it is parsed. A
payload parsed there is marked as the command's own (`BaseProgram.own`),
as every base function is from the start, so the printer and the
interpreter keep their work on it for the command.

Each edit builds its run-log text once, when it is made, and each patch
the join of its edits' texts (`Edit.text`, `Patch.text`; the forms are
in docs/logs.md). The patch line reuses that text, and local search
keys its verdict memo by it, so a repeated row neither rebuilds an
edit's text nor hashes its fields. Equality and hashing of edits and
patches stay by their fields.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from minigi.lang.ast import (
    ArrayLit,
    BaseProgram,
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
    # The edit as the run log writes it (docs/logs.md), built once at
    # construction; equality and hashing stay by the fields above.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k, src, dst = self.kind, self.src, self.dst
        if k is EditKind.DELETE:
            ok, text = src is not None and dst is None, f"delete({src})"
        elif k is EditKind.COPY:
            ok, text = src is not None and isinstance(dst, InsertionPoint), f"copy({src}->{dst})"
        elif k is EditKind.REPLACE:
            ok, text = src is not None and isinstance(dst, StatementId), f"replace({src}->{dst})"
        elif k is EditKind.SWAP:
            ok, text = src is not None and isinstance(dst, StatementId), f"swap({src}<->{dst})"
        elif k in INSERT_KINDS:
            ok, text = src is None and isinstance(dst, InsertionPoint), f"{k.value}({dst})"
        else:  # LLM_BLOCK_REPLACE; payload may be None (blockless draw)
            ok = src is not None and dst is None and self.prompt_category is not None
            payload = self.payload
            digest = "none" if payload is None else hashlib.sha256(payload.encode()).hexdigest()
            text = f"llm({src},{self.prompt_category},{digest})"
        if not ok:
            raise ValueError(f"malformed {k.value} edit")
        object.__setattr__(self, "text", text)


@dataclass(frozen=True)
class Patch:
    base: str  # SourceUnit name the patch targets
    edits: tuple[Edit, ...] = ()
    seed: str = ""
    # The edits' texts joined by " ; ", the patch line's edits field, built
    # once at construction; equality and hashing stay by the fields above.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "text", " ; ".join([e.text for e in self.edits]))

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


def _parse_payload(payload: str, base: Optional[BaseProgram]) -> Block:
    """`payload` parsed as a block, parsing each text at most once per
    `base`. Its memo, `base.payloads`, keeps a parse error as its message,
    so each failed application raises a fresh exception."""
    memo = {} if base is None else base.payloads
    parsed = memo.get(payload)
    if parsed is None:
        try:
            parsed = parse_block(payload)
        except ParseError as exc:
            parsed = f"payload does not parse: {exc}"
        else:
            if base is not None:
                base.own(parsed)
        memo[payload] = parsed
    if isinstance(parsed, str):
        raise PayloadUnparsableError(parsed)
    return parsed


# -- tree surgery: resolve an id once, rebuild its spine once --


def _resolve(
    unit: SourceUnit,
    at: Union[StatementId, InsertionPoint],
    listed: bool = False,
    block: bool = False,
) -> tuple[Function, list[Stmt]]:
    """The function `at` names and its spine: the statements on the path
    from its body (first) down to the one `at` names (last). `listed`
    requires that statement to sit in a block's statement list, `block`
    requires a block, and an insertion point requires a block with its
    index in range. Raises UnresolvableIdError otherwise."""
    sid = at.block if isinstance(at, InsertionPoint) else at
    for fn in unit.functions:
        if fn.name == sid.function:
            break
    else:
        raise UnresolvableIdError(sid, "function does not exist")
    path = sid.path
    if listed and not path:
        raise UnresolvableIdError(sid, "body root is not a list statement")
    spine: list[Stmt] = [fn.body]
    last = len(path) - 1
    for depth, idx in enumerate(path):
        node = spine[-1]
        if listed and depth == last and not isinstance(node, Block):
            raise UnresolvableIdError(sid, "not inside a statement list")
        children = stmt_children(node)
        if idx < 0 or idx >= len(children):
            if listed and depth < last:
                raise UnresolvableIdError(sid, "not inside a statement list")
            raise UnresolvableIdError(sid)
        spine.append(children[idx])
    target = spine[-1]
    if block or isinstance(at, InsertionPoint):
        if not isinstance(target, Block):
            raise UnresolvableIdError(sid, "does not resolve to a block")
        if isinstance(at, InsertionPoint) and not 0 <= at.index <= len(target.statements):
            raise UnresolvableIdError(sid, f"insertion index {at.index} out of range")
    return fn, spine


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


def _splice(
    unit: SourceUnit, fn: Function, path: tuple[int, ...], spine: list[Stmt],
    leaf: Optional[Stmt],
) -> SourceUnit:
    """`unit` with the last statement of `spine`, resolved along `path` in
    `fn`, replaced by `leaf`, or deleted from its block when `leaf` is
    None. Only the spine is rebuilt, bottom-up; every other function stays
    `unit`'s own object."""
    node = leaf
    for depth in reversed(range(len(path))):
        node = _rebuild(spine[depth], path[depth], node)
    assert isinstance(node, Block)
    patched = Function(fn.name, fn.params, fn.return_type, node)
    return SourceUnit(
        unit.name, tuple(patched if f.name == fn.name else f for f in unit.functions)
    )


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


def apply_edit(
    unit: SourceUnit, edit: Edit, base: Optional[BaseProgram] = None
) -> SourceUnit:
    """`unit` with `edit` applied; an LLM payload is looked up in the
    command's `base.payloads` before it is parsed (always parsed when `base`
    is None)."""
    k = edit.kind
    src, dst = edit.src, edit.dst
    if k is EditKind.SWAP:
        assert src is not None and isinstance(dst, StatementId)
        return _apply_swap(unit, src, dst)
    leaf: Stmt
    if k is EditKind.DELETE:
        assert src is not None
        fn, spine = _resolve(unit, src, listed=True)
        return _splice(unit, fn, src.path, spine, None)
    if k is EditKind.REPLACE:
        assert src is not None and isinstance(dst, StatementId)
        leaf = _resolve(unit, src)[1][-1]
        fn, spine = _resolve(unit, dst, listed=True)
        return _splice(unit, fn, dst.path, spine, leaf)
    if k is EditKind.LLM_BLOCK_REPLACE:
        assert src is not None
        fn, spine = _resolve(unit, src, block=True)
        if edit.payload is None:
            raise PayloadUnparsableError("response contained no code block")
        leaf = _parse_payload(edit.payload, base)
        return _splice(unit, fn, src.path, spine, leaf)
    # COPY and the insert kinds add one statement at an insertion point.
    assert isinstance(dst, InsertionPoint)
    if k is EditKind.COPY:
        assert src is not None
        leaf = _resolve(unit, src)[1][-1]
    fn, spine = _resolve(unit, dst)
    if k is EditKind.INSERT_BREAK:
        leaf = Break()
    elif k is EditKind.INSERT_CONTINUE:
        leaf = Continue()
    elif k is EditKind.INSERT_RETURN:
        leaf = _default_return(fn.return_type)
    stmts = spine[-1].statements  # a block: the resolver checked it
    block = Block(stmts[: dst.index] + (leaf,) + stmts[dst.index :])
    return _splice(unit, fn, dst.block.path, spine, block)


def _apply_swap(unit: SourceUnit, src: StatementId, dst: StatementId) -> SourceUnit:
    src_fn, src_spine = _resolve(unit, src, listed=True)
    dst_fn, dst_spine = _resolve(unit, dst, listed=True)
    src_node, dst_node = src_spine[-1], dst_spine[-1]
    if src.function != dst.function:
        # Swapping across functions: substitute each side independently;
        # the first substitution leaves the other function as it was.
        unit = _splice(unit, src_fn, src.path, src_spine, dst_node)
        return _splice(unit, dst_fn, dst.path, dst_spine, src_node)
    if src.path == dst.path:
        return unit
    # When one side encloses the other, the outer substitution absorbs the
    # inner one: the enclosing statement is replaced by the enclosed subtree.
    if _is_prefix(src.path, dst.path):
        return _splice(unit, src_fn, src.path, src_spine, dst_node)
    if _is_prefix(dst.path, src.path):
        return _splice(unit, dst_fn, dst.path, dst_spine, src_node)
    unit = _splice(unit, src_fn, src.path, src_spine, dst_node)
    dst_fn, dst_spine = _resolve(unit, dst)  # the first splice rebuilt their common spine
    return _splice(unit, dst_fn, dst.path, dst_spine, src_node)


def apply_patch(
    unit: SourceUnit, patch: Patch, base: Optional[BaseProgram] = None
) -> SourceUnit:
    """Apply all edits in order; raises ApplyError on the first failure.
    LLM payloads go through the command's `base`, as in `apply_edit`."""
    if patch.base != unit.name:
        raise ValueError(f"patch targets {patch.base!r}, unit is {unit.name!r}")
    current = unit
    for edit in patch.edits:
        current = apply_edit(current, edit, base)
    return current


def serialize_patch(patch: Patch, digest: Optional[str]) -> str:
    """One-line patch record: `seed | edit ; edit ; ... | fingerprint`.

    `digest` is the patched program's canonical digest (its fingerprint),
    or None when the patch did not apply (written as the token `invalid`).
    """
    return f"{patch.seed} | {patch.text} | {digest if digest is not None else 'invalid'}"


def split_patch_line(line: str) -> tuple[str, str, str]:
    """(seed, edits, fingerprint) fields of a serialized patch line."""
    parts = line.split(" | ")
    if len(parts) != 3:
        raise ValueError(f"malformed patch line {line!r}")
    return parts[0], parts[1], parts[2]

