from __future__ import annotations

import csv

import pytest

from minigi.lang import parse_source, parse_test_file, run_suite
from minigi.lang.interpreter import HARNESS_FRAME
from minigi.profiling import (
    DEFAULT_TOP_K,
    HotMethodProfile,
    ProfileOnFailingProgramError,
    profile,
    write_profile_csv,
)


def test_hot_set_is_the_top_k_of_one_run(bench_sort):
    unit, tests = bench_sort
    costs: dict[str, int] = {}
    run_suite(unit, tests, profile=costs)
    costs.pop(HARNESS_FRAME, None)
    prof = profile(unit, tests, top_k=10)
    assert prof.costs == costs
    assert prof.hot_set == sorted(costs, key=lambda name: (-costs[name], name))[:10]


def test_bench_sort_hot_set_golden(bench_sort):
    unit, tests = bench_sort
    prof = profile(unit, tests)
    assert prof.hot_set == ["sort", "max2"]
    assert prof.costs["sort"] > 20 * prof.costs["max2"]


def test_self_cost_attribution_ranks_callee_above_caller():
    src = """
    fn g(n: int) -> int {
        var s: int = 0;
        for (var i: int = 0; i < n; i = i + 1) {
            s = s + i;
        }
        return s;
    }
    fn f(n: int) -> int {
        return g(n) + 1;
    }
    """
    unit = parse_source(src)
    tests = parse_test_file("test t: f(1000) == 499501")
    prof = profile(unit, tests, top_k=2)
    assert prof.hot_set[0] == "g"
    assert prof.costs["g"] > 1000
    assert prof.costs["f"] < 20  # call overhead only; g's interior is not f's


def test_profiling_a_failing_program_is_an_error(bench_sort):
    unit, _ = bench_sort
    bad = parse_test_file("test wrong: max2(1, 2) == 99")
    with pytest.raises(ProfileOnFailingProgramError):
        profile(unit, bad, top_k=5)
    # the interpreter runs only valid programs, so profiling validates first
    invalid = parse_source("fn f() -> int { return x; }")
    with pytest.raises(ProfileOnFailingProgramError, match="unknown variable 'x'"):
        profile(invalid, parse_test_file("test t: f() == 1"))


def test_top_k_truncates_ranking(bench_sort):
    unit, tests = bench_sort
    prof = profile(unit, tests, top_k=1)
    assert prof.hot_set == ["sort"]
    assert list(prof.costs) == ["sort", "max2"]  # the ranking itself is not truncated
    for bad in (0, -1, True):  # -1 would drop the last method of the ranking
        with pytest.raises(ValueError, match=f"top_k must be an integer of at least 1, got {bad}"):
            profile(unit, tests, top_k=bad)


# Three functions with the same self cost, each called by its own test.
TIED = """
fn zeta() -> int { return 1; }
fn alpha() -> int { return 1; }
fn mid() -> int { return 1; }
"""
TIED_TESTS = "test z: zeta() == 1\ntest a: alpha() == 1\ntest m: mid() == 1\n"


def test_ties_break_by_name_for_determinism(tmp_path):
    prof = profile(parse_source(TIED), parse_test_file(TIED_TESTS), top_k=2)
    assert len(set(prof.costs.values())) == 1
    assert list(prof.costs) == ["alpha", "mid", "zeta"]
    assert prof.hot_set == ["alpha", "mid"]
    out = tmp_path / "profile.csv"
    write_profile_csv(prof, out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [(row[0], row[2]) for row in rows[1:]] == [("alpha", "1"), ("mid", "1"), ("zeta", "0")]


def test_profile_csv_format(tmp_path, bench_sort):
    unit, tests = bench_sort
    prof = profile(unit, tests, top_k=1)
    out = tmp_path / "profile.csv"
    write_profile_csv(prof, out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows == [
        ["function", "steps", "hot"],
        ["sort", str(prof.costs["sort"]), "1"],
        ["max2", str(prof.costs["max2"]), "0"],  # top_k=1 leaves max2 out
    ]


def test_profile_defaults_match_protocol():
    assert DEFAULT_TOP_K == 10
    src = "\n".join(f"fn f{i:02d}() -> int {{ return {i}; }}" for i in range(12))
    tests = "\n".join(f"test t{i:02d}: f{i:02d}() == {i}" for i in range(12))
    prof = profile(parse_source(src), parse_test_file(tests))
    assert isinstance(prof, HotMethodProfile)
    assert len(prof.costs) == 12
    assert prof.hot_set == [f"f{i:02d}" for i in range(10)]
