"""A command's BaseProgram: the work done once per owned node and per test.

Every evaluation of a command shares one BaseProgram, which owns every
node of the base's functions from the moment it is built. These tests
hold it to its contract: it changes no result, it keeps work only for
the nodes it owns (the base's own functions and their subtrees, and each
parsed payload) and for each test's harness call, it keeps nothing of a
patched program once that program's suite has ended, and reference
counting frees it when its caller lets go of it.
"""

from __future__ import annotations

import gc
import sys
import types
from collections import Counter

import pytest

import minigi.lang.interpreter as interpreter
from minigi.evaluation import Classification, FailedTest, evaluate
from minigi.lang import parse_source, parse_test_file
from minigi.lang.ast import (
    BaseProgram,
    Binary,
    Block,
    Call,
    Expr,
    Function,
    If,
    IntLit,
    Param,
    Return,
    SourceUnit,
    StatementId,
    Stmt,
    Type,
    Unary,
    Var,
    VarDecl,
    tree_nodes,
)
from minigi.lang.interpreter import (
    MAX_NESTING_WEIGHT,
    Status,
    TestCase as SuiteCase,  # a Test* name would be collected
    run_suite,
)
from minigi.lang.printer import print_canonical, source_digest
from minigi.lang.semantics import validate
from minigi.llm import LlmClientConfig, make_client
from minigi.patches import ApplyError, Edit, EditKind, Patch, apply_patch
from minigi.profiling import profile
from minigi.prompts import PromptTemplate
from minigi.search import (
    FAMILIES,
    LlmSearchContext,
    LocalSearchConfig,
    RandomSamplingConfig,
    _draw_family,
    _Run,
    local_search,
    random_sampling,
)

from conftest import BENCHMARKS, DATA, counting_builds, load_bench
from test_patches import golden_stream

DRAWS = 150  # per family and program
STEP_BUDGET = 50_000  # keeps bench_loop's non-terminating mutants cheap


def drawn_patches(
    unit, families=("statement", "insert", "llm-medium"), draws=DRAWS
) -> list[Patch]:
    """Draws of `families` (mock LLM) over every function of `unit`, and
    two-edit patches joining consecutive draws of a family, as local
    search builds them."""
    cfg = RandomSamplingConfig(
        families=families,
        methods=[fn.name for fn in unit.functions],
        budget=draws,
        seed=5,
    )
    llm = LlmSearchContext(
        make_client(LlmClientConfig(mode="mock")), PromptTemplate(project_name="bench")
    )
    run = _Run(BaseProgram(unit, ()), cfg, None, llm, None)
    patches = []
    for family in cfg.families:
        drawn = _draw_family(run, family)
        patches += drawn
        patches += [a.with_edit(b.edits[0]) for a, b in zip(drawn[::2], drawn[1::2])]
    return patches


def fields(result) -> tuple:
    return result.classification, result.reason, result.runtime, result.fingerprint


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
    # what the command keeps belongs to the nodes it owns alone: closures
    # of no patched function, and the lines and errors of each base function
    own = {id(fn) for fn in unit.functions}
    assert {key for key, _ in base.closures} <= base.owned
    assert {key for key, depth in base.lines if depth == 0} == set(base.errors) == own
    assert sorted(base.harness) == list(range(len(tests)))


def full_suite_fields(unit, tests, patch: Patch, budget: int) -> tuple:
    """The classification, runtime and fingerprint of `patch`, and the
    first test that did not pass with its outcome, from a suite that runs
    every test: a profiled one."""
    try:
        patched = apply_patch(unit, patch)
    except ApplyError:
        return Classification.INVALID, None, None, None
    digest = source_digest(patched)
    if validate(patched):
        return Classification.VALID_ONLY, None, digest, None
    outcomes = run_suite(patched, tests, budget, profile={})
    for test, outcome in zip(tests, outcomes):
        if outcome.status is not Status.PASS:
            return Classification.COMPILED_ONLY, None, digest, (test.name, outcome)
    return Classification.PASSED, sum(o.steps_used for o in outcomes), digest, None


def ladder_fields(result) -> tuple:
    failed = result.reason
    first = (failed.test, failed.outcome) if isinstance(failed, FailedTest) else None
    return result.classification, result.runtime, result.fingerprint, first


def test_a_suite_that_stops_at_its_first_failing_test_gives_the_full_suite_verdict():
    """Each patch of the golden stream (`test_patches.py`) and each draw
    of every family on every program is classified, timed and fingerprinted
    by `evaluate`, whose suites stop at their first failing test and reuse
    stored outcomes, as a suite that runs every test would. The reason of a
    CompiledOnly verdict is that suite's first failing test and outcome."""
    streams = {name: [] for name in PROGRAMS}
    for _, _, patch, _ in golden_stream():
        streams[patch.base].append(patch)
    for name in PROGRAMS:
        unit, _ = load_bench(name, PROGRAMS[name])
        streams[name] += drawn_patches(unit, FAMILIES, draws=40)
    assert sum(map(len, streams.values())) == 3900
    rungs = Counter()
    for name, patches in streams.items():
        unit, tests = load_bench(name, PROGRAMS[name])
        base = BaseProgram(unit, tests)
        for patch in patches:
            full = full_suite_fields(unit, tests, patch, STEP_BUDGET)
            assert ladder_fields(evaluate(base, patch, step_budget=STEP_BUDGET)) == full, patch
            rungs[full[0]] += 1
    assert all(rungs[c] > 100 for c in Classification), rungs


def kept_bodies(base: BaseProgram) -> dict:
    """The kept closures and depth of each base function's body, by name."""
    return {
        fn.name: base.closures[id(fn.body), ()]
        for fn in base.unit.functions if (id(fn.body), ()) in base.closures
    }


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_a_fresh_base_program_owns_every_base_node_and_has_computed_nothing(name):
    unit, tests = load_bench(name, PROGRAMS[name])
    base = BaseProgram(unit, tests)
    assert base.owned == {id(node) for fn in unit.functions for node in tree_nodes(fn)}
    assert base.unit is unit and base.tests is tests
    assert base.functions == {fn.name: fn for fn in unit.functions}
    assert base.payloads == base.errors == base.harness == base.outcomes == {}
    assert base.closures == base.lines == {}
    assert base.machine is None and base.reach is None
    # every slot is one of those above
    assert set(BaseProgram.__slots__) == {
        "unit", "tests", "functions", "payloads", "errors", "harness", "machine", "reach",
        "outcomes", "owned", "closures", "lines",
    }


def test_a_base_function_refused_under_deep_calls_runs_when_reached_shallowly():
    """`deep` nests too deeply to be called under 100 active `rec` calls, so
    its first compile is refused; a shallow call later in the same suite
    compiles it, and every later suite holds it to the same depth rule at
    call time. Each suite gives the outcomes a fresh `run_suite` gives.
    The first test's error stops a suite, so the suites that reach the
    later tests are profiled, which runs every test."""
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
    fresh = run_suite(unit, tests, profile={})
    assert [o.status for o in fresh] == [Status.RUNTIME_ERROR, Status.PASS, Status.RUNTIME_ERROR]
    assert fresh[0].error == "call depth exceeded"
    assert run_suite(unit, tests) == fresh[:1]
    base = BaseProgram(unit, tests)
    for _ in range(3):
        assert run_suite(unit, tests, profile={}, base=base) == fresh
        kept = kept_bodies(base)
        assert set(kept) == {"deep", "rec"}
        assert kept["deep"][1] + 1 > MAX_NESTING_WEIGHT // 2  # a call weighs its depth + 1
        assert run_suite(unit, tests, base=base) == fresh[:1]


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_a_warm_base_program_runs_and_prints_as_an_uncached_one(name):
    """Each patch of every family runs, through a BaseProgram warmed by
    the patches before it, to the outcomes (status, steps, value, error)
    that a suite with nothing kept gives, and prints to the same text."""
    unit, tests = load_bench(name, PROGRAMS[name])
    warm = BaseProgram(unit, tests)
    statuses = Counter()
    for patch in drawn_patches(unit, FAMILIES, draws=40):
        try:
            patched = apply_patch(unit, patch, warm)
        except ApplyError:
            continue
        assert print_canonical(patched, warm) == print_canonical(patched), patch
        if validate(patched, warm):
            continue
        outcomes = run_suite(patched, tests, STEP_BUDGET, base=warm)
        assert outcomes == run_suite(patched, tests, STEP_BUDGET), patch
        statuses.update(o.status for o in outcomes)
    assert statuses[Status.PASS] and statuses[Status.FAIL]
    # the run kept closures and lines of the subtrees it owns
    assert warm.closures and warm.lines
    assert {key for key, _ in warm.closures} <= warm.owned
    assert {key for key, _ in warm.lines} <= warm.owned


def test_a_kept_subtree_is_refused_under_deep_calls_as_a_fresh_compile_is():
    """`deep` nests too deeply to be called under 100 active `rec` calls.
    A patch deletes its first statement, so the patched body is a new
    block around the base's own `return`, which the first shallow call
    compiles and the run keeps. Every later suite takes that `return`
    from the BaseProgram, and a call under deep calls is refused at the
    kept depth, with the outcomes of a fresh `run_suite`. The suites are
    profiled, so the tests after the first one's error run."""
    value: object = Var("x")
    for _ in range(1500):  # deeper than the parser allows, as a mutant may be
        value = Unary("-", value)
    returned = Return(value)
    x = (Param("x", Type.INT),)
    deep = Function("deep", x, Type.INT, Block((VarDecl("y", Type.INT, IntLit(0)), returned)))
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
    patch = Patch("deep", (Edit(EditKind.DELETE, src=StatementId("deep", (0,))),))
    base = BaseProgram(unit, tests)
    for suite in range(3):
        patched = apply_patch(unit, patch)  # a new spine each time, as in a run
        assert patched.function("deep").body.statements[0] is returned
        fresh = run_suite(patched, tests, profile={})
        assert [o.status for o in fresh] == [
            Status.RUNTIME_ERROR, Status.PASS, Status.RUNTIME_ERROR,
        ]
        assert fresh[0].error == "call depth exceeded"
        assert run_suite(patched, tests, profile={}, base=base) == fresh, suite
        assert run_suite(patched, tests, base=base) == fresh[:1], suite
        # the `return` and its 1,501 nested expressions, kept at their depth
        assert base.closures[id(returned), ()][1] == 1502
    # the patched body (1 level) and the kept `return` (1,502) fit beside
    # active calls of weight MAX_NESTING_WEIGHT - 1504 and no heavier
    fn = patched.function("deep")
    verdicts = []
    for weight in (MAX_NESTING_WEIGHT - 1504, MAX_NESTING_WEIGHT - 1503):
        cold = BaseProgram(patched, tests)  # has kept nothing yet
        verdicts.append(compiled_weight(interpreter._Machine(), cold, fn, weight))
        assert compiled_weight(base.machine, base, fn, weight) == verdicts[-1]
    assert verdicts == [1504, "call depth exceeded"]


def compiled_weight(machine, base: BaseProgram, fn: Function, weight: int) -> int | str:
    """The weight of `fn` compiled beside active calls of `weight`, or the
    error that refuses it, with the host frames `run_suite` allows."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + interpreter._HOST_FRAMES)
    machine.start(base, base.unit, interpreter.DEFAULT_STEP_BUDGET, None)
    machine.weight = weight
    try:
        return machine.compile(fn)[2]
    except interpreter.MiniLangRuntimeError as exc:
        return str(exc)
    finally:
        machine.finish()
        sys.setrecursionlimit(limit)


def test_a_driver_call_leaves_no_reference_cycle(bench_sort):
    """With the collector off, both drivers and a bare `run_suite` leave no
    BaseProgram, machine, tree or compiled closure for it to find: each
    call's state is freed by reference counting when the call returns."""
    unit, tests = bench_sort
    llm = LlmSearchContext(
        make_client(LlmClientConfig(mode="mock")), PromptTemplate(project_name="bench_sort")
    )
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        del gc.garbage[:]
        records = random_sampling(BaseProgram(unit, tests), RandomSamplingConfig(
            families=("statement", "insert", "llm-medium"), methods=("sort", "max2"),
            budget=20, seed=3,
        ), llm=llm)
        records += local_search(BaseProgram(unit, tests), LocalSearchConfig(
            families=("llm-medium",), methods=("sort", "max2"), evals=30, seed=3,
        ), llm=llm)
        assert run_suite(unit, tests)[0].status is Status.PASS
        gc.collect()
        found = Counter(
            type(o).__name__ for o in gc.garbage
            if isinstance(o, (BaseProgram, interpreter._Machine, Expr, Stmt, Function, SourceUnit))
            or type(o) is types.FunctionType and o.__module__ == interpreter.__name__
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        gc.collect()
        if enabled:
            gc.enable()
    assert {r.classification for r in records} >= {"Passed", "CompiledOnly", "Invalid"}
    assert not found, found


def counting_compiles(monkeypatch) -> list:
    """The root node of every compile from now on, a function body or a
    test's harness call, with whether the compile built it (False when it
    took it as kept)."""
    roots: list = []

    class Compiler(interpreter._Compiler):
        def node(self, n, *context):
            if self.level == 0:
                roots.append((n, (id(n), context) not in self.kept))
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
    built = [r for r, fresh in roots if fresh]
    patched_max2 = [r for r, _ in roots if type(r) is Block and r is not sort and r is not max2]
    assert sum(r is sort for r in built) == 1
    assert sum(r is max2 for r in built) == 1
    assert len(patched_max2) == 5  # once per suite of the patched program
    # whose body is the payload's block, parsed once and owned, so built once
    assert all(r is patched_max2[0] for r in patched_max2)
    assert sum(r is patched_max2[0] for r in built) == 1
    assert [r for r in built if type(r) is Call] == [t.call for t in tests]
    assert set(kept_bodies(base)) == {"sort", "max2"}
    # the machine keeps no patched program between suites
    assert base.machine.functions == {} and base.machine.compiled == {}
    assert base.machine.profile is None


def test_a_patched_caller_reaches_unchanged_callees_built_once_per_command(
    call_chain, monkeypatch
):
    """Patches of `top` run the test of `top`, which calls the unchanged
    `mid` and `leaf`, in suite after suite. Each suite compiles those
    callees again, as every function it calls, but takes their bodies from
    the BaseProgram: no node of `mid` or `leaf` is built twice in the
    command, while the spine the deletion rebuilds in `top` is built in
    every suite."""
    unit, tests = call_chain
    patches = [
        rewrite("call_chain", "top", "{ var y: int = mid(x); return y + 3; }"),
        rewrite("call_chain", "top", "{ return mid(x) + leaf(0) + 2; }"),
        Patch("call_chain", (Edit(EditKind.DELETE, src=StatementId("top", (1,))),)),
    ]
    fresh = [fields(evaluate(BaseProgram(unit, tests), patch)) for patch in patches]
    assert [f[0].value for f in fresh] == ["Passed", "Passed", "CompiledOnly"]
    builds = counting_builds(monkeypatch)
    base = BaseProgram(unit, tests)
    for _ in range(4):
        assert [fields(evaluate(base, patch)) for patch in patches] == fresh
    built = Counter(builds)
    callees = [n for name in ("mid", "leaf") for n in tree_nodes(unit.function(name))]
    assert max(built[id(n)] for n in callees) == 1
    assert built[id(unit.function("mid").body)] == built[id(unit.function("leaf").body)] == 1
    assert built[id(unit.function("top").body)] == 0  # every patch replaces it
    assert sum(n for key, n in built.items() if key not in base.owned) >= 4


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
    records = random_sampling(BaseProgram(unit, tests), cfg)
    assert sum(r.classification != "Invalid" for r in records) > 20
    assert checked == [t.call for t in tests]
    checked.clear()
    ls = LocalSearchConfig(families=("statement",), methods=("sort", "max2"), evals=20, seed=1)
    local_search(BaseProgram(unit, tests), ls)
    assert checked == [t.call for t in tests]  # one BaseProgram for both methods


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
    # u's error stops the suite; a profiled suite runs v as well
    assert run_suite(unit, tests, base=base) == run_suite(unit, tests)
    outcomes = run_suite(unit, tests, profile={}, base=base)
    assert outcomes == run_suite(unit, tests, profile={})
    assert [o.status for o in outcomes] == [Status.PASS] + 2 * [Status.RUNTIME_ERROR]
    assert type(base.harness[0]) is tuple
    assert base.harness[1] == outcomes[1].error and base.harness[2] == outcomes[2].error
    assert run_suite(unit, tests, base=base) == outcomes[:2]
    assert run_suite(unit, tests, profile={}, base=base) == outcomes


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
    # each stored outcome is the one a full suite gives under its budget;
    # the suites stopped at even_four's timeout under 45 and top_one's under 20
    assert [sorted(base.outcomes[b]) for b in (20, 45, 1000)] == [[0], [0, 1, 2, 3], [0, 1, 2, 3, 4]]
    full = {budget: run_suite(unit, tests, budget, profile={}) for budget in base.outcomes}
    for budget, stored in base.outcomes.items():
        assert all(outcome == full[budget][i] for i, outcome in stored.items()), budget
    assert [o.status for o in full[20]].count(Status.TIMEOUT) == 4
    # an unpatched suite takes them under its own budget: a timeout under
    # 20 and 45, where every test passes under 1000
    for budget in (20, 45, 1000):
        assert run_suite(unit, tests, budget, base=base) == run_suite(unit, tests, budget)
    assert run_suite(unit, tests, 20, base=base) == full[20][:1]
    assert run_suite(unit, tests, 45, base=base) == full[45][:4]


def test_a_harness_call_naming_an_unknown_function_keeps_its_runtime_error(call_chain):
    unit, _ = call_chain
    tests = parse_test_file("test t: top(1) == 11\ntest u: nowhere(1) == 2\ntest v: alone(5) == 4")
    base = BaseProgram(unit, tests)
    for patch in [Patch("call_chain"), rewrite("call_chain", "top", "{ return 11; }")] * 2:
        patched = apply_patch(unit, patch)
        outcomes = run_suite(patched, tests, base=base)
        assert outcomes == run_suite(patched, tests)
        assert [o.status for o in outcomes] == [Status.PASS, Status.RUNTIME_ERROR]
        assert outcomes[1].steps_used == 0 and "nowhere" in outcomes[1].error
        # the error stops the suite; a profiled one runs v too
        profiled = run_suite(patched, tests, profile={}, base=base)
        assert profiled[:2] == outcomes
        assert [o.status for o in profiled] == [Status.PASS, Status.RUNTIME_ERROR, Status.PASS]
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
    assert profile(BaseProgram(unit, tests)).costs == {
        name: steps for name, steps in fresh.items() if name != interpreter.HARNESS_FRAME
    }
    assert set(profile(BaseProgram(unit, tests)).costs) == set(base.functions)
