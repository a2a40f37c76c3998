"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines as they happen). Criterion 6 includes a real ten-second watchdog
kill, so the module takes a little over ten seconds end to end.
"""

from __future__ import annotations

import random
import time

from minigi.cli import main
from minigi.evaluation import (
    Classification,
    ExternalToolchain,
    evaluate,
)
from minigi.lang import (
    Status,
    parse_source,
    parse_test_file,
    run_suite,
    source_digest,
    validate,
)
from minigi.lang.ast import BaseProgram, StatementId, statement_sites
from minigi.lang.interpreter import HARNESS_FRAME
from minigi.llm import LlmClientConfig, MockLlmClient
from minigi.operators import sample_statement_edit
from minigi.patches import (
    ApplyError,
    Edit,
    EditKind,
    InsertionPoint,
    Patch,
    apply_patch,
    serialize_patch,
    split_patch_line,
)
from minigi.profiling import profile
from minigi.prompts import (
    PromptCategory,
    PromptTemplate,
    build_prompt,
    extract_code_blocks,
)
from minigi.reporting import (
    LadderCounts,
    aggregate_table1,
    read_records_csv,
)
from minigi.search import (
    EvalRecord,
    LlmSearchContext,
    LocalSearchConfig,
    RandomSamplingConfig,
    local_search,
    random_sampling,
)

from conftest import BENCHMARKS
from oracles import poly_sum_call_steps, poly_sum_planted_cost


def report_pass(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


# -- 1. pipeline ladder exactness ------------------------------------------


def test_criterion_1_pipeline_ladder_exactness(bench_sort):
    started = time.monotonic()
    unit, tests = bench_sort

    wrap = "{{\n{code}\n}}"
    noncompile = "{ undeclared_variable_xyz = 1; }"
    unparseable = "{ not ((( minilang"

    def fenced(body: str) -> str:
        return f"```\n{body}\n```"

    responses_plan = [
        ["wrap"] * 5,
        ["wrap"] * 3 + ["noncompile"] * 2,
        ["noncompile"] * 4 + ["unparseable"],
        ["unparseable"] * 3,  # 3 blocks only: 2 of 5 variants are blockless
    ]
    cursor = {"i": 0}

    def scripted(prompt) -> str:
        code = extract_code_blocks(prompt)[0]
        kinds = responses_plan[cursor["i"]]
        cursor["i"] += 1
        parts = []
        for kind in kinds:
            if kind == "wrap":
                parts.append(fenced(wrap.format(code=code)))
            elif kind == "noncompile":
                parts.append(fenced(noncompile))
            else:
                parts.append(fenced(unparseable))
        parts.append("That is all I can offer.")
        return "\n".join(parts)

    client = MockLlmClient(LlmClientConfig(mode="mock"), script=scripted)
    llm = LlmSearchContext(client, PromptTemplate(project_name="bench_sort"))
    cfg = RandomSamplingConfig(families=("llm-medium",), methods=["sort"], budget=20, seed=13)
    records = random_sampling(BaseProgram(unit, tests), cfg, llm=llm)

    assert len(records) == 20
    assert client.requests_made == 4
    reports = aggregate_table1(records, source_digest(unit))
    assert len(reports) == 1
    # wraps always differ canonically from the original, so nothing was
    # excluded: 20 drawn, 8+6 parse, 8 compile, and all 8 compiling
    # rewrites are behavior-preserving, the mock-determined passed count
    assert reports[0].all_counts == LadderCounts(patches=20, valid=14, compiled=8, passed=8)

    assert time.monotonic() - started < 10.0
    report_pass(1, "pipeline ladder exactness")


# -- 2. brute-force edit-space oracle --------------------------------------


def ladder_oracle(unit, patch, tests) -> Classification:
    """The documented ladder, built from its parts rather than `evaluate`."""
    try:
        patched = apply_patch(unit, patch)
    except ApplyError:
        return Classification.INVALID
    if validate(patched):
        return Classification.VALID_ONLY
    if all(o.status is Status.PASS for o in run_suite(patched, tests)):
        return Classification.PASSED
    return Classification.COMPILED_ONLY


def test_criterion_2_brute_force_edit_space_oracle(bench_sort):
    started = time.monotonic()
    unit, tests = bench_sort
    fn = unit.function("sort")
    statements, blocks = statement_sites(fn)
    assert len(statements) <= 12

    enumerated: list[Edit] = []
    for src in statements:
        enumerated.append(Edit(EditKind.DELETE, src=src))
        for dst in statements:
            enumerated.append(Edit(EditKind.REPLACE, src=src, dst=dst))
            enumerated.append(Edit(EditKind.SWAP, src=src, dst=dst))
        for block_id, block in blocks:
            for index in range(len(block.statements) + 1):
                slot = InsertionPoint(block_id, index)
                enumerated.append(Edit(EditKind.COPY, src=src, dst=slot))

    oracle: dict[Edit, Classification] = {
        edit: ladder_oracle(unit, Patch("bench_sort", (edit,)), tests) for edit in enumerated
    }

    cfg = RandomSamplingConfig(families=("statement",), methods=["sort"], budget=1000, seed=0)
    records = random_sampling(BaseProgram(unit, tests), cfg)
    assert len(records) == 1000
    agreements = 0
    for record in records:
        seed, edits, _digest = split_patch_line(record.patch_line)
        edit = sample_statement_edit(unit, ["sort"], random.Random(seed))
        assert edit.text == edits, f"logged seed {seed} re-draws another edit"
        assert edit in oracle, f"sampled edit outside the enumerated space: {edit}"
        assert record.classification == oracle[edit].value, f"{edit}"
        agreements += 1
    assert agreements == 1000  # 100% agreement

    assert time.monotonic() - started < 60.0
    report_pass(2, "brute-force edit-space oracle")


# -- 3. planted-improvement recovery ---------------------------------------


def test_criterion_3_planted_improvement_recovery(bench_planted):
    started = time.monotonic()
    unit, tests = bench_planted

    arrays = ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], [2, 7, 1, 8, 2, 8, 1, 8])
    baseline = sum(poly_sum_call_steps(a) for a in arrays)
    planted_delta = sum(poly_sum_planted_cost(a) for a in arrays)
    assert planted_delta * 5 >= baseline  # the dead store costs >= 20% of all steps

    recovered = 0
    for seed in range(10):
        cfg = LocalSearchConfig(
            families=("statement",), methods=("poly_sum",), evals=100, seed=seed
        )
        records = local_search(BaseProgram(unit, tests), cfg)
        assert records[0].runtime == baseline
        improving = [
            baseline - r.runtime
            for r in records[1:]
            if r.runtime is not None and r.runtime < baseline
        ]
        if improving:
            recovered += 1
            assert max(improving) == planted_delta  # exactly the trip-count delta
    assert recovered >= 8

    assert time.monotonic() - started < 60.0
    report_pass(3, "planted-improvement recovery")


# -- 4. budget fidelity ------------------------------------------------------


def test_criterion_4_budget_fidelity(tmp_path):
    program = str(BENCHMARKS / "bench_max.ml")
    tests_file = str(BENCHMARKS / "bench_max.tests")

    sample_dir = tmp_path / "sample"
    assert main([
        "sample", program, tests_file, "--family", "statement,insert",
        "--seed", "6", "--out-dir", str(sample_dir),
    ]) == 0  # no --budget: default config
    records = read_records_csv(sample_dir / "sample_log.csv")
    by_family = {}
    for record in records:
        by_family.setdefault(record.run_id, []).append(record)
    assert set(by_family) == {"statement", "insert"}
    for family, rows in by_family.items():
        assert len(rows) == 1000, family
        assert [r.eval_index for r in rows] == list(range(1000))

    ls_dir = tmp_path / "ls"
    assert main([
        "ls", program, tests_file, "--family", "statement", "--seed", "6",
        "--methods", "max2,clamp_low", "--out-dir", str(ls_dir),
    ]) == 0  # no --evals: default 100 per run
    ls_records = read_records_csv(ls_dir / "ls_log.csv")
    runs = {}
    for record in ls_records:
        runs.setdefault(record.run_id, []).append(record)
    assert set(runs) == {"statement/max2", "statement/clamp_low"}
    for run_id, rows in runs.items():
        assert len(rows) == 100, run_id  # exactly 100 evaluations
        assert rows[0].eval_index == 0
        head_edits = rows[0].patch_line.split(" | ")[1]
        assert head_edits == ""  # evaluation 1 is the unpatched program
    report_pass(4, "budget fidelity")


# -- 5. prompt byte-exactness ------------------------------------------------


def test_criterion_5_prompt_byte_exactness():
    golden = (
        "Give me 5 different Java implementations of this method body:\n"
        "```\n"
        "{ return 1; }\n"
        "```\n"
        "This code belongs to project bench.\n"
        "Wrap all code in curly braces, if it is not already.\n"
        "Do not include any method or class declarations.\n"
        "label all code as java.\n"
    )

    template = PromptTemplate(project_name="bench", language="Java", code_label="java")

    medium = build_prompt(template, PromptCategory.MEDIUM, "{ return 1; }")
    assert medium == golden

    simple = build_prompt(template, PromptCategory.SIMPLE, "{ return 1; }")
    assert medium.startswith(simple) and simple != medium  # strict subset

    detailed = build_prompt(template, PromptCategory.DETAILED, "{ return 1; }")
    assert detailed.startswith(medium) and detailed != medium  # prefix property
    report_pass(5, "prompt byte-exactness")


# -- 6. timeout semantics ----------------------------------------------------


def test_criterion_6_timeout_semantics(bench_loop):
    unit, tests = bench_loop
    increment = StatementId("count_to", (1, 0, 0))
    hang = Patch("bench_loop", (Edit(EditKind.DELETE, src=increment),))

    budget = 20_000
    result = evaluate(BaseProgram(unit, tests), hang, step_budget=budget)
    assert result.classification is Classification.COMPILED_ONLY
    assert result.tests_failed == 1  # the timeout counts as a test failure

    from minigi.patches import apply_patch

    hung_unit = apply_patch(unit, hang)
    looping = parse_test_file("test t: count_to(5) == 5")[0]
    outcome = run_suite(hung_unit, [looping], budget)[0]
    assert outcome.status is Status.TIMEOUT
    assert outcome.steps_used == budget  # trapped within stepBudget steps

    # external analog: the watchdog kills a hung test at 10000 ms +- 500 ms
    import sys

    toolchain = ExternalToolchain(
        compile_cmd="true",
        test_cmd=f"{sys.executable} -c 'import time; time.sleep(60)'",
        measure_cmd="echo 1",
        timeout_ms=10_000,
    )
    started = time.monotonic()
    external_result = evaluate(BaseProgram(unit, tests), Patch("bench_loop"), toolchain)
    elapsed_ms = (time.monotonic() - started) * 1000.0
    assert external_result.classification is Classification.COMPILED_ONLY
    assert external_result.tests_failed == 1
    assert 9_500 <= elapsed_ms <= 10_500, elapsed_ms
    report_pass(6, "timeout semantics")


# -- 7. determinism / replay -------------------------------------------------


def test_criterion_7_determinism_replay(tmp_path):
    program = str(BENCHMARKS / "bench_sort.ml")
    tests_file = str(BENCHMARKS / "bench_sort.tests")
    transcripts = tmp_path / "transcripts"

    # record transcripts once with the deterministic mock
    seed_run = tmp_path / "seeded"
    assert main([
        "sample", program, tests_file, "--family", "statement,llm-medium",
        "--budget", "20", "--seed", "42", "--llm-mode", "mock",
        "--transcript-dir", str(transcripts), "--out-dir", str(seed_run),
    ]) == 0

    outputs = []
    for name in ("replay1", "replay2"):
        out_dir = tmp_path / name
        assert main([
            "sample", program, tests_file, "--family", "statement,llm-medium",
            "--budget", "20", "--seed", "42", "--llm-mode", "replay",
            "--transcript-dir", str(transcripts), "--out-dir", str(out_dir),
        ]) == 0
        table = out_dir / "table1.csv"
        assert main([
            "report", "table1", str(out_dir / "sample_log.csv"), "--out", str(table)
        ]) == 0
        outputs.append(
            ((out_dir / "sample_log.csv").read_bytes(), table.read_bytes())
        )
    assert outputs[0] == outputs[1]  # byte-identical logs and reports
    assert (seed_run / "sample_log.csv").read_bytes() == outputs[0][0]
    report_pass(7, "determinism and replay")


# -- 8. uniqueness filter ----------------------------------------------------


def test_criterion_8_uniqueness_filter(bench_sort):
    unit, tests = bench_sort
    s0 = StatementId("sort", (0,))
    noop_swap = Patch("bench_sort", (Edit(EditKind.SWAP, src=s0, dst=s0),))
    delete = Patch("bench_sort", (Edit(EditKind.DELETE, src=s0),))

    original = source_digest(unit)
    assert source_digest(apply_patch(unit, noop_swap)) == original
    assert source_digest(apply_patch(unit, delete)) != original

    # the report keys uniqueness on that digest: the no-op vanishes
    # entirely, the repeat collapses in the Unique columns only
    records = []
    for index, patch in enumerate([noop_swap, delete, delete]):
        result = evaluate(BaseProgram(unit, tests), patch)
        records.append(
            EvalRecord(
                "statement", index, serialize_patch(patch, result.fingerprint),
                result.classification.value, result.runtime,
            )
        )
    assert split_patch_line(records[0].patch_line)[2] == original
    reports = aggregate_table1(records, original)
    assert reports[0].all_counts.patches == 2
    assert reports[0].unique_counts.patches == 1
    report_pass(8, "uniqueness filter")


# -- 9. profiler protocol ----------------------------------------------------


def test_criterion_9_profiler_protocol(bench_sort):
    unit, tests = bench_sort
    costs: dict[str, int] = {}
    run_suite(unit, tests, profile=costs)  # one run of the suite, self costs
    costs.pop(HARNESS_FRAME, None)
    prof = profile(BaseProgram(unit, tests), top_k=10)
    assert prof.costs == costs
    ranked = sorted(costs, key=lambda name: (-costs[name], name))
    assert prof.hot_set == ranked[:10] == ["sort", "max2"]
    assert profile(BaseProgram(unit, tests), top_k=1).hot_set == ["sort"]

    # equal self costs: the hot set breaks the tie by name
    tied = parse_source("\n".join(f"fn {n}() -> int {{ return 1; }}" for n in "bca"))
    tied_tests = parse_test_file("\n".join(f"test t{n}: {n}() == 1" for n in "bca"))
    assert profile(BaseProgram(tied, tied_tests), top_k=2).hot_set == ["a", "b"]
    report_pass(9, "profiler protocol")
