"""A run's BaseProgram: the work done once per base function and per test.

Every evaluation of a run shares one BaseProgram. These tests hold it to
its contract: it changes no result, it reuses only the base's own
functions and each test's harness call, and it keeps nothing of a
patched program once that program's suite has ended.
"""

from __future__ import annotations

import pytest

import minigi.lang.interpreter as interpreter
from minigi.evaluation import evaluate
from minigi.lang import parse_source, parse_test_file
from minigi.lang.ast import (
    BaseProgram,
    Binary,
    Block,
    Call,
    Function,
    If,
    IntLit,
    Param,
    Return,
    SourceUnit,
    StatementId,
    Type,
    Unary,
    Var,
)
from minigi.lang.interpreter import (
    MAX_NESTING_WEIGHT,
    Status,
    TestCase as SuiteCase,  # a Test* name would be collected
    run_suite,
)
from minigi.llm import LlmClientConfig, MockLlmClient
from minigi.patches import Edit, EditKind, Patch, apply_patch
from minigi.profiling import profile
from minigi.prompts import PromptTemplate
from minigi.search import (
    LlmSearchContext,
    LocalSearchConfig,
    RandomSamplingConfig,
    _draw_family,
    local_search,
    random_sampling,
)

from conftest import BENCHMARKS, DATA, load_bench

DRAWS = 150  # per family and program
STEP_BUDGET = 50_000  # keeps bench_loop's non-terminating mutants cheap


def drawn_patches(unit) -> list[Patch]:
    """Statement, insert and mock llm-medium draws over every function of
    `unit`, and two-edit patches joining consecutive draws of a family, as
    local search builds them."""
    cfg = RandomSamplingConfig(
        families=("statement", "insert", "llm-medium"),
        methods=[fn.name for fn in unit.functions],
        budget=DRAWS,
        seed=5,
    )
    llm = LlmSearchContext(
        MockLlmClient(LlmClientConfig(mode="mock")), PromptTemplate(project_name="bench")
    )
    patches = []
    for family in cfg.families:
        drawn = _draw_family(unit, cfg, llm, family)
        patches += drawn
        patches += [a.with_edit(b.edits[0]) for a, b in zip(drawn[::2], drawn[1::2])]
    return patches


def fields(result) -> tuple:
    return result.classification, result.tests_failed, result.runtime, result.fingerprint


# the benchmark programs, and one whose functions call each other
PROGRAMS = {
    "bench_sort": BENCHMARKS, "bench_planted": BENCHMARKS, "bench_loop": BENCHMARKS,
    "bench_max": BENCHMARKS, "call_chain": DATA,
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_evaluating_with_the_base_program_gives_the_fresh_result(name):
    unit, tests = load_bench(name, PROGRAMS[name])
    base = BaseProgram(unit, tests)
    rungs = set()
    for patch in drawn_patches(unit):
        fresh = evaluate(BaseProgram(unit, tests), patch, step_budget=STEP_BUDGET)
        shared = evaluate(base, patch, step_budget=STEP_BUDGET)
        assert fields(shared) == fields(fresh), patch
        rungs.add(fresh.classification.value)
    assert rungs == {"Invalid", "ValidOnly", "CompiledOnly", "Passed"}
    # what the run keeps belongs to the base program alone
    assert set(base.compiled) <= set(base.functions)
    assert set(base.texts) == set(base.errors) == set(base.functions)
    assert sorted(base.harness) == list(range(len(tests)))


def test_a_base_function_refused_under_deep_calls_runs_when_reached_shallowly():
    """`deep` nests too deeply to be called under 100 active `rec` calls, so
    its first compile is refused; a shallow call later in the same suite
    compiles it, and every later suite holds it to the same depth rule at
    call time. Each suite gives the outcomes a fresh `run_suite` gives."""
    value: object = Var("x")
    for _ in range(1500):  # deeper than the parser allows, as a mutant may be
        value = Unary("-", value)
    x = (Param("x", Type.INT),)
    deep = Function("deep", x, Type.INT, Block((Return(value),)))
    n = Var("n")
    rec = Function("rec", (Param("n", Type.INT),), Type.INT, Block((
        If(Binary("==", n, IntLit(0)), Block((Return(Call("deep", (IntLit(7),))),))),
        Return(Call("rec", (Binary("-", n, IntLit(1)),))),
    )))
    unit = SourceUnit("deep", (deep, rec))
    tests = [
        SuiteCase("under_deep_calls", Call("rec", (IntLit(100),)), 7),
        SuiteCase("shallow", Call("rec", (IntLit(0),)), 7),
        SuiteCase("under_deep_calls_again", Call("rec", (IntLit(100),)), 7),
    ]
    fresh = run_suite(unit, tests)
    assert [o.status for o in fresh] == [Status.RUNTIME_ERROR, Status.PASS, Status.RUNTIME_ERROR]
    assert fresh[0].error == "call depth exceeded"
    base = BaseProgram(unit, tests)
    for _ in range(3):
        assert run_suite(unit, tests, base=base) == fresh
        assert set(base.compiled) == {"deep", "rec"}
        assert base.compiled["deep"][2] > MAX_NESTING_WEIGHT // 2


def counting_compiles(monkeypatch) -> list:
    """The root node of every compile from now on: a function body, or a
    test's harness call."""
    roots: list = []

    class Compiler(interpreter._Compiler):
        def node(self, n, *context):
            if self.level == 0:
                roots.append(n)
            return super().node(n, *context)

    monkeypatch.setattr(interpreter, "_Compiler", Compiler)
    return roots


def test_only_patched_functions_compile_again_and_none_is_kept(bench_sort, monkeypatch):
    unit, tests = bench_sort
    roots = counting_compiles(monkeypatch)
    payload = "{ if (y > x) { return y; } return x; }"
    patch = Patch("bench_sort", (Edit(EditKind.LLM_BLOCK_REPLACE, src=StatementId("max2", ()),
                                      payload=payload, prompt_category="medium"),))
    base = BaseProgram(unit, tests)
    for _ in range(5):
        assert evaluate(base, patch).passed
        assert evaluate(base, Patch("bench_sort")).passed
    sort, max2 = unit.function("sort").body, unit.function("max2").body
    patched_max2 = [r for r in roots if type(r) is Block and r is not sort and r is not max2]
    assert sum(r is sort for r in roots) == 1
    assert sum(r is max2 for r in roots) == 1
    assert len(patched_max2) == 5  # once per suite of the patched program
    assert [r for r in roots if type(r) is Call] == [t.call for t in tests]
    assert set(base.compiled) == {"sort", "max2"}
    # the machine keeps no patched program between suites
    assert base.machine.functions == {} and base.machine.compiled == {}
    assert base.machine.profile is None


def counting_harness_checks(monkeypatch) -> list:
    calls: list = []
    real = interpreter.check_call

    def check_call(unit, call):
        calls.append(call)
        return real(unit, call)

    monkeypatch.setattr(interpreter, "check_call", check_call)
    return calls


def test_each_harness_call_is_checked_once_per_run(bench_sort, monkeypatch):
    unit, tests = bench_sort
    checked = counting_harness_checks(monkeypatch)
    cfg = RandomSamplingConfig(
        families=("statement", "insert"), methods=["sort", "max2"], budget=30, seed=2
    )
    records = random_sampling(unit, tests, cfg)
    assert sum(r.classification != "Invalid" for r in records) > 20
    assert checked == [t.call for t in tests]
    checked.clear()
    ls = LocalSearchConfig(families=("statement",), methods=("sort", "max2"), evals=20, seed=1)
    local_search(unit, tests, ls)
    assert checked == 2 * [t.call for t in tests]  # one run per method


def test_run_suite_refuses_a_base_program_of_other_tests(bench_sort):
    unit, tests = bench_sort
    _, twin_tests = load_bench("bench_sort")  # equal, but other objects
    assert twin_tests == tests
    with pytest.raises(ValueError, match="BaseProgram"):
        run_suite(unit, tests, base=BaseProgram(unit, twin_tests))
    outcomes = run_suite(unit, tests, base=BaseProgram(unit, tests))
    assert all(o.status is Status.PASS for o in outcomes)


def test_a_base_program_serves_one_program_and_keeps_its_tests_apart():
    unit = parse_source("fn f(a: int) -> int { return a + 1; }", "one")
    tests = parse_test_file("test t: f(1) == 2\ntest u: f(true) == 2\ntest v: g(1) == 2")
    base = BaseProgram(unit, tests)
    outcomes = run_suite(unit, tests, base=base)
    assert outcomes == run_suite(unit, tests)
    assert [o.status for o in outcomes] == [Status.PASS] + 2 * [Status.RUNTIME_ERROR]
    assert type(base.harness[0]) is tuple
    assert base.harness[1] == outcomes[1].error and base.harness[2] == outcomes[2].error
    assert run_suite(unit, tests, base=base) == outcomes


# -- test selection: a suite runs only the tests a patch can reach --


def counting_runs(monkeypatch) -> list:
    """The name of every test the interpreter runs from now on."""
    ran: list = []
    real = interpreter._Machine.run

    def run(self, test, harness):
        ran.append(test.name)
        return real(self, test, harness)

    monkeypatch.setattr(interpreter._Machine, "run", run)
    return ran


def rewrite(program: str, function: str, payload: str, *more: tuple[str, str]) -> Patch:
    """A patch replacing the body of `function` with `payload`, and of
    each further (function, payload) pair."""
    edits = [
        Edit(EditKind.LLM_BLOCK_REPLACE, src=StatementId(name, ()), payload=body,
             prompt_category="medium")
        for name, body in ((function, payload),) + more
    ]
    return Patch(program, tuple(edits))


def test_a_patch_of_one_function_runs_only_the_tests_that_reach_it(bench_sort, monkeypatch):
    unit, tests = bench_sort
    ran = counting_runs(monkeypatch)
    base = BaseProgram(unit, tests)
    max2 = rewrite("bench_sort", "max2", "{ if (y > x) { return y; } return x; }")
    # the planted target: drop the refresh of `n` in the inner loop
    sort = Patch("bench_sort", (Edit(EditKind.DELETE, src=StatementId("sort", (1, 0, 0, 0, 0))),))
    assert evaluate(base, Patch("bench_sort")).passed
    assert ran == [t.name for t in tests]  # the first suite runs every test
    for patch, reached in [
        (max2, ["max_left", "max_right"]),
        (sort, ["sort_small", "sort_reverse", "sort_dup"]),
    ]:
        fresh = evaluate(BaseProgram(unit, tests), patch)
        for _ in range(3):
            ran.clear()
            assert fields(evaluate(base, patch)) == fields(fresh)
            assert ran == reached
    assert evaluate(base, sort).runtime < evaluate(base, Patch("bench_sort")).runtime


def test_a_patch_reruns_every_test_that_reaches_a_changed_function(call_chain, monkeypatch):
    unit, tests = call_chain
    ran = counting_runs(monkeypatch)
    base = BaseProgram(unit, tests)
    assert run_suite(unit, tests, base=base) == run_suite(unit, tests)
    for patch, reached in [
        (rewrite("call_chain", "leaf", "{ return 3 * x + 1; }"),
         ["top_one", "mid_two", "leaf_three"]),
        (rewrite("call_chain", "mid", "{ return 2 * leaf(x); }"), ["top_one", "mid_two"]),
        (rewrite("call_chain", "is_odd", "{ if (n == 0) { return false; } return is_even(n - 1); }"),
         ["even_four", "odd_three"]),
        # a changed function calling into unchanged ones, which keep their outcomes
        (rewrite("call_chain", "alone", "{ return leaf(x) - 3 * x + top(0) - 2; }"),
         ["alone_five"]),
        (rewrite("call_chain", "alone", "{ if (is_even(x)) { return 0; } return mid(x) - 28; }"),
         ["alone_five"]),
        (rewrite("call_chain", "alone", "{ return leaf(x); }"), ["alone_five"]),
        (rewrite("call_chain", "leaf", "{ return alone(x) * 0 + 3 * x + 1; }",
                 ("alone", "{ return x - 1; }")),
         ["top_one", "mid_two", "leaf_three", "alone_five"]),
    ]:
        fresh = evaluate(BaseProgram(unit, tests), patch)
        ran.clear()
        shared = evaluate(base, patch)
        assert ran == reached, patch
        assert fields(shared) == fields(fresh), patch
    assert fresh.passed and fresh.runtime != evaluate(base, Patch("call_chain")).runtime
    assert sorted(base.outcomes) == [interpreter.DEFAULT_STEP_BUDGET]
    assert sorted(base.outcomes[interpreter.DEFAULT_STEP_BUDGET]) == list(range(len(tests)))


def test_stored_outcomes_serve_only_their_own_step_budget(call_chain):
    unit, tests = call_chain
    base = BaseProgram(unit, tests)
    patch = rewrite("call_chain", "alone", "{ return x - 1; }")
    for budget in (1000, 45, 20, 1000, 45, 20):
        outcomes = run_suite(apply_patch(unit, patch), tests, budget, base=base)
        assert outcomes == run_suite(apply_patch(unit, patch), tests, budget), budget
    assert sorted(base.outcomes) == [20, 45, 1000]
    assert [o.status for o in run_suite(unit, tests, 20, base=base)].count(Status.TIMEOUT) == 4


def test_a_harness_call_naming_an_unknown_function_keeps_its_runtime_error(call_chain):
    unit, _ = call_chain
    tests = parse_test_file("test t: top(1) == 11\ntest u: nowhere(1) == 2\ntest v: alone(5) == 4")
    base = BaseProgram(unit, tests)
    for patch in [Patch("call_chain"), rewrite("call_chain", "top", "{ return 11; }")] * 2:
        patched = apply_patch(unit, patch)
        outcomes = run_suite(patched, tests, base=base)
        assert outcomes == run_suite(patched, tests)
        assert [o.status for o in outcomes] == [Status.PASS, Status.RUNTIME_ERROR, Status.PASS]
        assert outcomes[1].steps_used == 0 and "nowhere" in outcomes[1].error
    assert base.reach[1] == frozenset()


def test_a_program_whose_tests_reach_every_function_stores_no_outcome(bench_loop):
    unit, tests = bench_loop
    base = BaseProgram(unit, tests)
    for _ in range(2):
        assert all(o.status is Status.PASS for o in run_suite(unit, tests, base=base))
    assert base.reach == [] and base.outcomes == {}


def test_profiled_costs_are_the_same_after_a_run_that_stored_outcomes(call_chain):
    unit, tests = call_chain
    base = BaseProgram(unit, tests)
    fresh: dict = {}
    run_suite(unit, tests, profile=fresh)
    run_suite(unit, tests, base=base)
    assert len(base.outcomes[interpreter.DEFAULT_STEP_BUDGET]) == len(tests)
    after: dict = {}
    assert run_suite(unit, tests, profile=after, base=base) == run_suite(unit, tests)
    assert after == fresh
    assert profile(unit, tests).costs == {
        name: steps for name, steps in fresh.items() if name != interpreter.HARNESS_FRAME
    }
    assert set(profile(unit, tests).costs) == set(base.functions)
