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
from minigi.patches import Edit, EditKind, Patch
from minigi.prompts import PromptTemplate
from minigi.search import (
    LlmSearchContext,
    LocalSearchConfig,
    RandomSamplingConfig,
    _draw_family,
    local_search,
    random_sampling,
)

from conftest import load_bench

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


@pytest.mark.parametrize("name", ["bench_sort", "bench_planted", "bench_loop", "bench_max"])
def test_evaluating_with_the_base_program_gives_the_fresh_result(name):
    unit, tests = load_bench(name)
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
