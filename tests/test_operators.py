from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from minigi.lang import parse_source
from minigi.lang.ast import insertion_slots, list_statement_ids
from minigi.operators import (
    NoTargetStatementsError,
    sample_insert_edit,
    sample_statement_edit,
)
from minigi.patches import (
    Edit,
    EditKind,
    INSERT_KINDS,
    InsertionPoint,
    STATEMENT_KINDS,
    apply_edit,
)

SINGLE = "fn f() -> int { return 1; }"


def enumerate_statement_edits(unit, fn_name: str) -> set[Edit]:
    """Brute-force reachable set of Statement-family edits in one function."""
    fn = unit.function(fn_name)
    statements = list_statement_ids(fn)
    slots = insertion_slots(fn)
    edits: set[Edit] = set()
    for src in statements:
        edits.add(Edit(EditKind.DELETE, src=src))
        for block, index in slots:
            edits.add(Edit(EditKind.COPY, src=src, dst=InsertionPoint(block, index)))
        for dst in statements:
            edits.add(Edit(EditKind.REPLACE, src=src, dst=dst))
            edits.add(Edit(EditKind.SWAP, src=src, dst=dst))
    return edits


def test_single_statement_function_reachable_set():
    unit = parse_source(SINGLE)
    expected = enumerate_statement_edits(unit, "f")
    # 1 delete + 2 copy slots + 1 replace + 1 swap
    assert len(expected) == 5
    drawn = set()
    for seed in range(1000):
        drawn.add(sample_statement_edit(unit, ["f"], random.Random(seed)))
    assert drawn == expected


def test_sampler_is_deterministic(bench_sort):
    unit, _ = bench_sort
    a = sample_statement_edit(unit, ["sort"], random.Random(7))
    b = sample_statement_edit(unit, ["sort"], random.Random(7))
    assert a == b
    c = sample_insert_edit(unit, ["sort"], random.Random(7))
    d = sample_insert_edit(unit, ["sort"], random.Random(7))
    assert c == d


def test_kind_histogram_near_uniform(bench_sort):
    """1000 draws, seed 7: each of the 4 kinds within +-5% of uniform."""
    unit, _ = bench_sort
    rng = random.Random(7)
    counts = Counter(
        sample_statement_edit(unit, ["sort", "max2"], rng).kind for _ in range(1000)
    )
    assert set(counts) == set(STATEMENT_KINDS)
    for kind in STATEMENT_KINDS:
        assert abs(counts[kind] - 250) <= 50, (kind, counts[kind])


def test_insert_kind_histogram_near_uniform(bench_sort):
    unit, _ = bench_sort
    rng = random.Random(7)
    counts = Counter(sample_insert_edit(unit, ["sort"], rng).kind for _ in range(900))
    for kind in INSERT_KINDS:
        assert abs(counts[kind] - 300) <= 54, (kind, counts[kind])


def test_fresh_draws_always_apply(bench_sort, bench_max):
    for unit, hot in ((bench_sort[0], ["sort", "max2"]), (bench_max[0], ["max2", "clamp_low"])):
        for seed in range(300):
            rng = random.Random(seed)
            edit = sample_statement_edit(unit, hot, rng)
            apply_edit(unit, edit)  # must not raise
            edit = sample_insert_edit(unit, hot, rng)
            apply_edit(unit, edit)


def test_insertion_slot_count_is_statements_plus_one_per_block():
    unit = parse_source("fn f(x: int) { x = 1; x = 2; x = 3; }")
    slots = insertion_slots(unit.function("f"))
    assert len(slots) == 4  # one block with three statements
    assert [index for _sid, index in slots] == [0, 1, 2, 3]


def test_nested_blocks_contribute_slots(bench_sort):
    unit, _ = bench_sort
    # sort: root (3 stmts -> 4), outer body (1 -> 2), inner body (2 -> 3),
    # then-block (3 -> 4) = 13 slots
    assert len(insertion_slots(unit.function("sort"))) == 13


def test_empty_hot_function_raises_after_redraws():
    unit = parse_source("fn f() { }")
    with pytest.raises(NoTargetStatementsError):
        sample_statement_edit(unit, ["f"], random.Random(0))


def test_empty_function_redraw_recovers():
    unit = parse_source("fn empty() { } fn g(x: int) -> int { return x; }")
    # with both functions hot, draws eventually land on g
    hits = Counter()
    for seed in range(100):
        edit = sample_statement_edit(unit, ["empty", "g"], random.Random(seed))
        hits[edit.src.function] += 1
    assert hits["g"] == 100


def test_insert_always_possible_even_in_empty_function():
    unit = parse_source("fn f() { }")
    edit = sample_insert_edit(unit, ["f"], random.Random(0))
    assert isinstance(edit.dst, InsertionPoint)
    assert edit.dst.index == 0


def test_statement_dst_stays_within_the_chosen_function(bench_sort):
    unit, _ = bench_sort
    for seed in range(500):
        edit = sample_statement_edit(unit, ["sort", "max2"], random.Random(seed))
        assert edit.src is not None
        if isinstance(edit.dst, InsertionPoint):
            assert edit.dst.block.function == edit.src.function
        elif edit.dst is not None:
            assert edit.dst.function == edit.src.function


def test_seed_sweep_stays_in_enumerated_set(bench_sort):
    unit, _ = bench_sort
    expected = enumerate_statement_edits(unit, "sort")
    for seed in range(1000):
        edit = sample_statement_edit(unit, ["sort"], random.Random(seed))
        assert edit in expected


def test_insert_edits_enumerate_all_slots():
    unit = parse_source("fn f(x: int) { x = 1; }")
    drawn = set()
    for seed in range(400):
        drawn.add(sample_insert_edit(unit, ["f"], random.Random(seed)))
    slots = insertion_slots(unit.function("f"))
    expected = {
        Edit(kind, dst=InsertionPoint(block, index))
        for kind in INSERT_KINDS
        for block, index in slots
    }
    assert drawn == expected


def test_multinomial_tail_bound_is_sound():
    """The +-5% histogram bound has negligible false-failure mass.

    Exact binomial tail for one kind out of n=1000 uniform draws over 4
    kinds: P(|X - 250| > 50) is about 2.3e-4, so even the union bound
    over the 4 kinds stays below 0.1%. The assertion on the frozen seed
    is deterministic; this documents that 5% was a safe tolerance.
    """
    import math

    n, p = 1000, 0.25

    def pmf(k: int) -> float:
        return math.comb(n, k) * (p**k) * ((1 - p) ** (n - k))

    tail = sum(pmf(k) for k in range(0, 200)) + sum(pmf(k) for k in range(301, n + 1))
    assert 4 * tail < 0.002
