from __future__ import annotations

import hashlib
import random

import pytest

from minigi.lang import (
    parse_source,
    print_canonical,
    source_digest,
    validate,
)
from minigi.lang.ast import BaseProgram, StatementId, statement_sites
from minigi.llm import LlmClientConfig, MockLlmClient
from minigi.operators import sample_insert_edit, sample_statement_edit
from minigi.patches import (
    ApplyError,
    Edit,
    EditKind,
    InsertionPoint,
    Patch,
    PayloadUnparsableError,
    UnresolvableIdError,
    apply_edit,
    apply_patch,
    serialize_patch,
    split_patch_line,
)
from minigi.prompts import PromptCategory, PromptTemplate, make_llm_edits

from conftest import BENCHMARKS


def sid(fn: str, *path: int) -> StatementId:
    return StatementId(fn, tuple(path))


def ip(fn: str, path: tuple[int, ...], index: int) -> InsertionPoint:
    return InsertionPoint(StatementId(fn, path), index)


TINY = "fn f() -> int { return 1; }"


def test_delete_only_statement_leaves_valid_but_uncompilable():
    unit = parse_source(TINY)
    patched = apply_patch(unit, Patch("main", (Edit(EditKind.DELETE, src=sid("f", 0)),)))
    assert print_canonical(patched) == "fn f() -> int {\n}\n"
    assert validate(patched)  # missing return


def test_self_swap_is_identity(bench_sort):
    unit, _ = bench_sort
    s = sid("sort", 1)
    patch = Patch("bench_sort", (Edit(EditKind.SWAP, src=s, dst=s),))
    assert source_digest(apply_patch(unit, patch)) == source_digest(unit)


def test_self_replace_is_identity(bench_sort):
    unit, _ = bench_sort
    s = sid("sort", 0)
    patch = Patch("bench_sort", (Edit(EditKind.REPLACE, src=s, dst=s),))
    assert source_digest(apply_patch(unit, patch)) == source_digest(unit)


def test_every_statement_is_deletable(bench_sort):
    unit, _ = bench_sort
    ids = [s for fn in unit.functions for s in statement_sites(fn)[0]]
    assert len(ids) == 12
    digests = set()
    for s in ids:
        patched = apply_edit(unit, Edit(EditKind.DELETE, src=s))
        digests.add(source_digest(patched))
    assert len(digests) == 12  # all distinct programs


def test_apply_does_not_mutate_input(bench_sort):
    unit, _ = bench_sort
    before = print_canonical(unit)
    apply_patch(unit, Patch("bench_sort", (Edit(EditKind.DELETE, src=sid("sort", 0)),)))
    assert print_canonical(unit) == before


def test_empty_patch_fingerprint_equals_original(bench_sort):
    unit, _ = bench_sort
    assert source_digest(apply_patch(unit, Patch("bench_sort"))) == source_digest(unit)


def test_wrong_base_name_rejected(bench_sort):
    unit, _ = bench_sort
    with pytest.raises(ValueError):
        apply_patch(unit, Patch("other", ()))


def test_copy_then_delete_equals_swap():
    src = "fn f(x: int, y: int) { x = 1; y = 2; }"
    unit = parse_source(src)
    swap = Patch("main", (Edit(EditKind.SWAP, src=sid("f", 0), dst=sid("f", 1)),))
    reorder = Patch(
        "main",
        (
            Edit(EditKind.COPY, src=sid("f", 0), dst=ip("f", (), 2)),
            Edit(EditKind.DELETE, src=sid("f", 0)),
        ),
    )
    assert source_digest(apply_patch(unit, swap)) == source_digest(apply_patch(unit, reorder))


def test_swap_across_functions(bench_sort):
    unit, _ = bench_sort
    patch = Patch(
        "bench_sort", (Edit(EditKind.SWAP, src=sid("sort", 2), dst=sid("max2", 1)),)
    )
    patched = apply_patch(unit, patch)
    text = print_canonical(patched)
    assert text.index("return y;") < text.index("return a;")


def test_swap_with_enclosed_statement_hoists_it(bench_sort):
    unit, _ = bench_sort
    outer_for = sid("sort", 1)
    planted = sid("sort", 1, 0, 0, 0, 0)  # n = len(a); inside the inner loop
    patch = Patch("bench_sort", (Edit(EditKind.SWAP, src=outer_for, dst=planted),))
    patched = apply_patch(unit, patch)
    sort_fn = patched.function("sort")
    # the whole loop nest is replaced by the single inner statement
    assert print_canonical(patched).count("for (") == 0
    assert len(sort_fn.body.statements) == 3


def test_insert_break_and_continue():
    unit = parse_source("fn f(n: int) -> int { while (n > 0) { n = n - 1; } return n; }")
    brk = apply_edit(unit, Edit(EditKind.INSERT_BREAK, dst=ip("f", (0, 0), 0)))
    assert "break;" in print_canonical(brk)
    cont = apply_edit(unit, Edit(EditKind.INSERT_CONTINUE, dst=ip("f", (0, 0), 1)))
    assert "continue;" in print_canonical(cont)


def _sign(then: str = "s = 0 - 1;", elif_: str = "s = 0; x = 1;", else_: str = "s = 1; x = 2;"):
    """A function whose if statement has an `else if` arm and an `else`
    branch, with the given statements in its three blocks."""
    return (
        "fn sign(x: int) -> int { var s: int = 0;"
        f" if (x < 0) {{ {then} }} else if (x == 0) {{ {elif_} }} else {{ {else_} }}"
        " return s; }"
    )


# Paths in `_sign()`: 1 the if, 1.0 its then block, 1.1 the `else if`,
# 1.1.0 that arm's block and 1.1.1 the `else` block.
@pytest.mark.parametrize("edit, blocks", [
    (Edit(EditKind.DELETE, src=sid("sign", 1, 1, 1, 0)), {"else_": "x = 2;"}),
    (Edit(EditKind.DELETE, src=sid("sign", 1, 1, 0, 0)), {"elif_": "x = 1;"}),
    (Edit(EditKind.COPY, src=sid("sign", 2), dst=ip("sign", (1, 1, 1), 2)),
     {"else_": "s = 1; x = 2; return s;"}),
    (Edit(EditKind.COPY, src=sid("sign", 1, 0, 0), dst=ip("sign", (1, 1, 0), 0)),
     {"elif_": "s = 0 - 1; s = 0; x = 1;"}),
    (Edit(EditKind.INSERT_RETURN, dst=ip("sign", (1, 1, 1), 0)),
     {"else_": "return 0; s = 1; x = 2;"}),
    (Edit(EditKind.INSERT_BREAK, dst=ip("sign", (1, 1, 0), 2)),
     {"elif_": "s = 0; x = 1; break;"}),
    (Edit(EditKind.SWAP, src=sid("sign", 1, 1, 1, 0), dst=sid("sign", 1, 1, 1, 1)),
     {"else_": "x = 2; s = 1;"}),
    (Edit(EditKind.SWAP, src=sid("sign", 1, 1, 0, 0), dst=sid("sign", 1, 1, 1, 1)),
     {"elif_": "x = 2; x = 1;", "else_": "s = 1; s = 0;"}),
    (Edit(EditKind.SWAP, src=sid("sign", 1, 0, 0), dst=sid("sign", 1, 1, 1, 0)),
     {"then": "s = 1;", "else_": "s = 0 - 1; x = 2;"}),
], ids=[
    "delete-else", "delete-else-if", "copy-else", "copy-else-if", "insert-else",
    "insert-else-if", "swap-in-else", "swap-else-if-else", "swap-then-else",
])
def test_edits_inside_else_and_else_if_blocks(edit, blocks):
    """An edit under an `else` or `else if` rebuilds the if's else branch:
    only the named blocks change, and the printed program parses back."""
    patched = apply_edit(parse_source(_sign()), edit)
    assert patched == parse_source(_sign(**blocks))
    assert parse_source(print_canonical(patched)) == patched


@pytest.mark.parametrize(
    "src,expected",
    [
        ("fn f() -> int { return 1; }", "return 0;"),
        ("fn f() -> bool { return true; }", "return false;"),
        ("fn f() -> int[] { return [1]; }", "return [];"),
        ("fn f() { }", "return;"),
    ],
)
def test_insert_return_uses_default_literal_of_return_type(src, expected):
    unit = parse_source(src)
    patched = apply_edit(unit, Edit(EditKind.INSERT_RETURN, dst=ip("f", (), 0)))
    first_line = print_canonical(patched).splitlines()[1].strip()
    assert first_line == expected


def test_insert_return_at_body_start_fails_nonzero_tests(bench_max):
    unit, tests = bench_max
    from minigi.lang import run_suite, Status

    patched = apply_edit(unit, Edit(EditKind.INSERT_RETURN, dst=ip("max2", (), 0)))
    assert validate(patched) == []
    outcomes = run_suite(patched, tests)
    max2_outcomes = [o for t, o in zip(tests, outcomes) if t.call.name == "max2"]
    assert all(o.status is Status.FAIL for o in max2_outcomes)


def test_stale_id_after_delete_is_unresolvable(bench_sort):
    unit, _ = bench_sort
    patch = Patch(
        "bench_sort",
        (
            Edit(EditKind.DELETE, src=sid("sort", 2)),
            Edit(EditKind.DELETE, src=sid("sort", 2)),  # now out of range
        ),
    )
    with pytest.raises(UnresolvableIdError):
        apply_patch(unit, patch)


def test_structural_block_cannot_be_deleted(bench_sort):
    unit, _ = bench_sort
    inner_body = sid("sort", 1, 0, 0, 0)  # inner for's body block
    with pytest.raises(UnresolvableIdError):
        apply_edit(unit, Edit(EditKind.DELETE, src=inner_body))


def test_unknown_function_is_unresolvable(bench_sort):
    unit, _ = bench_sort
    with pytest.raises(UnresolvableIdError):
        apply_edit(unit, Edit(EditKind.DELETE, src=sid("nope", 0)))


def test_insertion_index_out_of_range(bench_sort):
    unit, _ = bench_sort
    with pytest.raises(UnresolvableIdError):
        apply_edit(unit, Edit(EditKind.INSERT_BREAK, dst=ip("max2", (), 9)))


def test_llm_block_replace_round_trip(bench_sort):
    unit, _ = bench_sort
    then_block = sid("sort", 1, 0, 0, 0, 1, 0)
    edit = Edit(
        EditKind.LLM_BLOCK_REPLACE,
        src=then_block,
        payload="{ }",
        prompt_category="medium",
    )
    patched = apply_edit(unit, edit)
    assert "var t" not in print_canonical(patched)


def test_llm_payload_unparsable(bench_sort):
    unit, _ = bench_sort
    bad = Edit(
        EditKind.LLM_BLOCK_REPLACE,
        src=sid("sort", 1, 0, 0, 0, 1, 0),
        payload="{ not ((( minilang",
        prompt_category="medium",
    )
    with pytest.raises(PayloadUnparsableError):
        apply_edit(unit, bad)
    blockless = Edit(
        EditKind.LLM_BLOCK_REPLACE,
        src=sid("sort", 1, 0, 0, 0, 1, 0),
        payload=None,
        prompt_category="medium",
    )
    with pytest.raises(PayloadUnparsableError):
        apply_edit(unit, blockless)


def test_llm_target_must_be_a_block(bench_sort):
    unit, _ = bench_sort
    not_a_block = Edit(
        EditKind.LLM_BLOCK_REPLACE, src=sid("sort", 0), payload="{ }", prompt_category="simple"
    )
    with pytest.raises(UnresolvableIdError):
        apply_edit(unit, not_a_block)


def test_composition_one_at_a_time_equals_whole_patch(bench_sort):
    unit, _ = bench_sort
    hot = ["sort", "max2"]
    for seed in range(40):
        rng = random.Random(seed)
        edits = []
        current = unit
        ok = True
        for _ in range(3):
            edit = sample_statement_edit(current, hot, rng)
            try:
                current = apply_edit(current, edit)
            except UnresolvableIdError:
                ok = False
                break
            edits.append(edit)
        if not ok:
            continue
        whole = apply_patch(unit, Patch("bench_sort", tuple(edits)))
        assert print_canonical(whole) == print_canonical(current)


def test_malformed_edit_shapes_rejected():
    with pytest.raises(ValueError):
        Edit(EditKind.DELETE)  # no src
    with pytest.raises(ValueError):
        Edit(EditKind.SWAP, src=sid("f", 0))  # no dst
    with pytest.raises(ValueError):
        Edit(EditKind.INSERT_BREAK, dst=sid("f", 0))  # dst must be insertion point
    with pytest.raises(ValueError):
        Edit(EditKind.LLM_BLOCK_REPLACE, src=sid("f", 0), payload="{}")  # no category


def test_serialization_round_trip_fields(bench_sort):
    unit, _ = bench_sort
    edit = Edit(EditKind.REPLACE, src=sid("sort", 0), dst=sid("sort", 2))
    patch = Patch("bench_sort", (edit,), seed="42:statement:7")
    digest = source_digest(apply_patch(unit, patch))
    line = serialize_patch(patch, digest)
    seed, edits, fp = split_patch_line(line)
    assert seed == "42:statement:7"
    assert edits == "replace(sort:0->sort:2)"
    assert fp == digest
    invalid_line = serialize_patch(patch, None)
    assert split_patch_line(invalid_line)[2] == "invalid"
    empty = serialize_patch(Patch("bench_sort", (), "s"), digest)
    assert split_patch_line(empty)[1] == ""


def golden_stream():
    """2,400 drawn patches of one and two Statement, Insert and LLM edits on
    every benchmark, in a fixed order: for each, its base unit, the
    BaseProgram its run shares, the patch, and the patched unit or the
    ApplyError."""
    for stem in ("bench_loop", "bench_max", "bench_planted", "bench_sort"):
        unit = parse_source((BENCHMARKS / f"{stem}.ml").read_text(encoding="utf-8"), name=stem)
        hot = [fn.name for fn in unit.functions]
        client = MockLlmClient(LlmClientConfig())
        template = PromptTemplate(project_name=stem)
        run = BaseProgram(unit, ())  # the payload memo of a run
        for family in ("statement", "insert", "llm-medium"):
            draw = sample_statement_edit if family == "statement" else sample_insert_edit
            for i in range(200):
                rng = random.Random(f"{stem}:{family}:{i}")
                if family != "llm-medium":
                    first, second = draw(unit, hot, rng), draw(unit, hot, rng)
                    patches = [(first,) if i % 2 == 0 else (first, second)]
                elif i % 5 == 0:
                    edits = make_llm_edits(
                        unit, hot, rng, client, template, PromptCategory.MEDIUM
                    )
                    patches = [
                        (e,) if j % 2 == 0 else (edits[0], e) for j, e in enumerate(edits)
                    ]
                else:
                    patches = []
                for edits in patches:
                    patch = Patch(stem, edits)
                    try:
                        yield unit, run, patch, apply_patch(unit, patch, run)
                    except ApplyError as exc:
                        yield unit, run, patch, exc


# Every outcome of the golden stream, joined by newlines, hashed.
GOLDEN_OUTCOMES = "aeb53225278446467af12f39f629f71adfb5e71c93ec0c07aeb7dc1c976f6602"


def test_every_application_matches_the_golden_stream():
    """Each patch's digest, or its ApplyError's type and text, hashes to a
    value fixed when the patch code was last rewritten. Every applied
    program prints and parses back to itself."""
    outcomes, refused = [], 0
    for _, _, _, patched in golden_stream():
        if isinstance(patched, ApplyError):
            outcomes.append(f"{type(patched).__name__}: {patched}")
            refused += 1
            continue
        assert parse_source(print_canonical(patched), name=patched.name) == patched
        outcomes.append(source_digest(patched))
    assert (len(outcomes), refused) == (2400, 266)
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == GOLDEN_OUTCOMES


# Every applied program's semantic errors, one line per program, hashed.
GOLDEN_ERRORS = "a646900ae45b834420be0237ad46743f72b868909983b17b0edcd4e5771ac415"


def test_every_applied_program_validates_as_in_the_golden_stream():
    """The full error list of each applied program of the golden stream, in
    order and with each error's function, hashes to a value fixed before
    the checker was last rewritten. The run's warm BaseProgram, whose kept
    errors every earlier patch has filled, gives the same list as a fresh
    one and as no BaseProgram at all."""
    lines, rejected, kinds = [], 0, set()  # kinds: each message up to its first quote
    for unit, run, _, patched in golden_stream():
        if isinstance(patched, ApplyError):
            continue
        errors = validate(patched, run)
        assert errors == validate(patched, BaseProgram(unit, ())) == validate(patched)
        lines.append(" | ".join(map(str, errors)))
        rejected += bool(errors)
        kinds.update(e.message.split("'")[0] for e in errors)
    assert (len(lines), rejected) == (2134, 901)
    assert kinds == {
        "assignment to undeclared variable ",
        "break outside a loop",
        "continue outside a loop",
        "missing return on some control path",
        "redeclaration of ",
        "unknown variable ",
    }
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_ERRORS


# Every patch line of the golden stream, joined by newlines, hashed; fixed
# before edits and patches carried their text.
GOLDEN_LINES = "dab886efc5766a0f381515423b5272873771e91cb04ff39496d8523b49744b17"


def test_every_patch_line_matches_the_golden_stream():
    """The patch line of each patch of the golden stream, with its digest or
    `invalid`, hashes to a fixed value, and the stream writes every edit
    kind, an LLM edit without a code block among them."""
    lines, kinds = [], set()
    for _, _, patch, patched in golden_stream():
        digest = None if isinstance(patched, ApplyError) else source_digest(patched)
        lines.append(serialize_patch(patch, digest))
        kinds.update(e.kind for e in patch.edits)
    assert kinds == set(EditKind)
    assert any(",none)" in line for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_LINES
