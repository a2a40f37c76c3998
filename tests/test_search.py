from __future__ import annotations

import hashlib
import random
import re
import time
import traceback
from collections import Counter

import pytest

from minigi.lang import source_digest
from minigi.lang.ast import BaseProgram, StatementId
from minigi.llm import LlmClientConfig, make_client
from minigi.patches import (
    INSERT_KINDS,
    Edit,
    EditKind,
    InsertionPoint,
    Patch,
    PayloadUnparsableError,
    serialize_patch,
    split_patch_line,
)
from minigi.prompts import PromptTemplate
from minigi.search import (
    EvalRecord,
    LlmSearchContext,
    LocalSearchConfig,
    RandomSamplingConfig,
    SearchState,
    SearchSetupError,
    _Run,
    local_search,
    propose_neighbor,
    random_sampling,
)

from conftest import REPO_ROOT
from oracles import poly_sum_call_steps, poly_sum_planted_cost


def mock_context(script=None) -> LlmSearchContext:
    client = make_client(LlmClientConfig(mode="mock"), script=script)
    return LlmSearchContext(client, PromptTemplate(project_name="bench"))


def test_sampling_respects_budget_and_indices(bench_max):
    unit, tests = bench_max
    cfg = RandomSamplingConfig(families=("statement",), methods=["max2"], budget=10, seed=3)
    records = random_sampling(BaseProgram(unit, tests), cfg)
    assert len(records) == 10
    assert [r.eval_index for r in records] == list(range(10))
    assert all(r.run_id == "statement" for r in records)


def test_a_run_walks_each_function_object_it_draws_in_once(bench_sort, monkeypatch):
    import minigi.lang.ast as ast

    unit, tests = bench_sort
    walked = []
    real = ast.statement_sites

    def statement_sites(fn):
        walked.append(fn)
        return real(fn)

    monkeypatch.setattr(ast, "statement_sites", statement_sites)
    families = ("statement", "insert", "llm-medium")
    cfg = RandomSamplingConfig(families=families, methods=["sort", "max2"], budget=40, seed=3)
    random_sampling(BaseProgram(unit, tests), cfg, llm=mock_context())
    assert Counter(fn.name for fn in walked) == {"sort": 1, "max2": 1}  # once per call
    assert all(unit.function(fn.name) is fn for fn in walked)
    walked.clear()
    ls = LocalSearchConfig(families=("statement",), methods=("sort", "max2"), evals=80, seed=1)
    records = local_search(BaseProgram(unit, tests), ls)
    improvements = 0
    for method in ls.methods:
        rows = [r.runtime for r in records if r.run_id == f"statement/{method}"]
        runtimes = [runtime for runtime in rows if runtime is not None]
        improvements += sum(b < min(runtimes[:i + 1]) for i, b in enumerate(runtimes[1:]))
    assert improvements >= 1 and walked[0] is unit.function("sort")
    assert len(walked) == len({id(fn) for fn in walked}) == len(ls.methods) + improvements


def test_sampling_is_replayable_bit_exactly(bench_max):
    unit, tests = bench_max
    cfg = RandomSamplingConfig(
        families=("statement", "insert"), methods=["max2", "clamp_low"], budget=10, seed=3
    )
    first = random_sampling(BaseProgram(unit, tests), cfg)
    second = random_sampling(BaseProgram(unit, tests), cfg)
    assert first == second


def test_sampling_sinks_each_record_before_the_next_evaluation(bench_max, monkeypatch):
    """Each sampled record is evaluated once and reaches the sink before
    the next evaluation starts."""
    unit, tests = bench_max
    events: list[str] = []
    sunk: list[EvalRecord] = []

    def sink(record):
        events.append("sink")
        sunk.append(record)

    count_evaluations(monkeypatch, events)
    cfg = RandomSamplingConfig(families=("statement", "insert"), methods=["max2"], budget=5, seed=9)
    records = random_sampling(BaseProgram(unit, tests), cfg, sink=sink)
    assert sunk == records
    assert events[-1] == "sink" and ("eval", "eval") not in zip(events, events[1:])
    assert events.count("eval") == len(records)
    assert [(r.run_id, r.eval_index) for r in records] == [
        (family, i) for family in ("statement", "insert") for i in range(5)
    ]


def test_each_logged_classic_patch_is_replayable_from_its_seed(bench_max):
    from minigi.operators import sample_statement_edit

    unit, tests = bench_max
    cfg = RandomSamplingConfig(families=("statement",), methods=["max2"], budget=5, seed=11)
    records = random_sampling(BaseProgram(unit, tests), cfg)
    for record in records:
        seed, edits, _fp = split_patch_line(record.patch_line)
        redrawn = sample_statement_edit(unit, ["max2"], random.Random(seed))
        assert redrawn.text == edits


def test_llm_budget_of_ten_issues_exactly_two_requests(bench_sort):
    unit, tests = bench_sort
    llm = mock_context(script=lambda prompt: "```\n{ }\n```\n" * 5)
    cfg = RandomSamplingConfig(families=("llm-medium",), methods=["sort"], budget=10, seed=1)
    records = random_sampling(BaseProgram(unit, tests), cfg, llm=llm)
    assert len(records) == 10
    assert llm.client.requests_made == 2  # ceil(10 / 5)


def test_llm_request_count_is_ceil_of_budget_over_variants(bench_sort):
    unit, tests = bench_sort
    llm = mock_context(script=lambda prompt: "```\n{ }\n```")
    cfg = RandomSamplingConfig(families=("llm-simple",), methods=["sort"], budget=7, seed=1)
    random_sampling(BaseProgram(unit, tests), cfg, llm=llm)
    assert llm.client.requests_made == 2  # ceil(7 / 5)


def test_llm_family_needs_context(bench_sort):
    unit, tests = bench_sort
    cfg = RandomSamplingConfig(families=("llm-medium",), methods=["sort"], budget=5, seed=1)
    with pytest.raises(SearchSetupError):
        random_sampling(BaseProgram(unit, tests), cfg)


def test_unknown_family_rejected(bench_sort):
    unit, tests = bench_sort
    cfg = RandomSamplingConfig(families=("mystery",), methods=["sort"], budget=5, seed=1)
    with pytest.raises(SearchSetupError):
        random_sampling(BaseProgram(unit, tests), cfg)


def test_unknown_hot_method_rejected(bench_sort):
    """Both drivers check their target methods before the first draw."""
    unit, tests = bench_sort
    base = BaseProgram(unit, tests)
    for hot in (["nope"], [], ["sort", "nope"]):
        with pytest.raises(SearchSetupError):
            random_sampling(base, RandomSamplingConfig(["statement"], hot, budget=5))
        with pytest.raises(SearchSetupError):
            local_search(base, LocalSearchConfig(["statement"], hot, evals=5))


@pytest.mark.parametrize("make", [
    lambda: RandomSamplingConfig(("statement",), ("sort",), budget=0),
    lambda: RandomSamplingConfig(("statement",), ("sort",), step_budget=0),
    lambda: LocalSearchConfig(("statement",), ("sort",), evals=0),
    lambda: LocalSearchConfig(("statement",), ("sort",), step_budget=-1),
])
def test_configs_refuse_counts_below_one(make):
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        make()


def test_sink_sees_every_record_in_order(bench_max):
    unit, tests = bench_max
    seen: list[EvalRecord] = []
    cfg = RandomSamplingConfig(families=("insert",), methods=["max2"], budget=8, seed=2)
    records = random_sampling(BaseProgram(unit, tests), cfg, sink=seen.append)
    assert seen == records


# -- local search --


def test_local_search_budget_exact_first_eval_unpatched(bench_planted):
    unit, tests = bench_planted
    cfg = LocalSearchConfig(families=("statement",), methods=("poly_sum",), evals=100, seed=0)
    records = local_search(BaseProgram(unit, tests), cfg)
    assert len(records) == 100
    assert records[0].eval_index == 0
    seed, edits, _ = split_patch_line(records[0].patch_line)
    assert edits == ""  # evaluation 1 is the empty patch
    assert records[0].classification == "Passed"
    assert [r.eval_index for r in records] == list(range(100))


def test_local_search_multiple_runs(bench_max):
    unit, tests = bench_max
    cfg = LocalSearchConfig(families=("insert",), methods=("max2", "clamp_low"), evals=20, seed=5)
    records = local_search(BaseProgram(unit, tests), cfg)
    assert len(records) == 40
    assert {r.run_id for r in records} == {"insert/max2", "insert/clamp_low"}


def test_local_search_requires_passing_baseline(bench_sort):
    unit, _ = bench_sort
    from minigi.lang import parse_source, parse_test_file

    failing = parse_test_file(
        "test right: max2(1, 2) == 2\ntest wrong: max2(1, 2) == 0\ntest also_wrong: max2(3, 2) == 0"
    )
    cfg = LocalSearchConfig(families=("statement",), methods=("max2",), evals=5, seed=0)
    # the error names the first failing test and how it failed
    expected = (
        "unpatched program fails its tests (test wrong: fail); "
        "local search needs a passing baseline"
    )
    with pytest.raises(SearchSetupError) as caught:
        local_search(BaseProgram(unit, failing), cfg)
    assert str(caught.value) == expected
    for body, how in [
        ("while (true) { } return x;", "timeout"),
        ("return x / (y - y);", "runtime error"),
    ]:
        broken = parse_source(f"fn max2(x: int, y: int) -> int {{ {body} }}", "broken")
        with pytest.raises(SearchSetupError) as caught:
            local_search(BaseProgram(broken, failing), cfg)
        assert str(caught.value) == expected.replace("wrong: fail", f"right: {how}")


def test_local_search_unknown_method_rejected(bench_sort):
    unit, tests = bench_sort
    cfg = LocalSearchConfig(families=("statement",), methods=("nope",), evals=5, seed=0)
    with pytest.raises(SearchSetupError):
        local_search(BaseProgram(unit, tests), cfg)


def test_local_search_finds_planted_deletion(bench_planted):
    """Statement-family hill climbing recovers the planted dead store."""
    unit, tests = bench_planted
    baseline = poly_sum_call_steps([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]) + poly_sum_call_steps(
        [2, 7, 1, 8, 2, 8, 1, 8]
    )
    delta = poly_sum_planted_cost([0] * 12) + poly_sum_planted_cost([0] * 8)
    assert delta == 240
    hits = 0
    for seed in range(10):
        cfg = LocalSearchConfig(
            families=("statement",), methods=("poly_sum",), evals=100, seed=seed
        )
        records = local_search(BaseProgram(unit, tests), cfg)
        passing = [
            r.runtime
            for r in records
            if r.classification == "Passed" and r.runtime is not None and r.eval_index > 0
        ]
        if passing and min(passing) < baseline:
            hits += 1
            assert baseline - min(passing) == delta
    assert hits >= 8


def test_every_improving_eval_passed_and_acceptance_is_strict(bench_planted):
    unit, tests = bench_planted
    cfg = LocalSearchConfig(families=("statement",), methods=("poly_sum",), evals=100, seed=4)
    records = local_search(BaseProgram(unit, tests), cfg)
    baseline = records[0].runtime
    for record in records:
        if record.runtime is not None:
            assert record.classification == "Passed"
            # runtimes only exist for passing patches; improvements strictly
            # below baseline, others anywhere >= best
    best = min(r.runtime for r in records if r.runtime is not None)
    assert best <= baseline


def test_no_improvement_when_everything_fails(bench_max):
    unit, tests = bench_max
    # every rewrite from this mock is unparsable, so no neighbor ever passes
    llm = mock_context(script=lambda prompt: "```\nnot ((( code\n```")
    cfg = LocalSearchConfig(families=("llm-medium",), methods=("max2",), evals=30, seed=1)
    records = local_search(BaseProgram(unit, tests), cfg, llm=llm)
    baseline = records[0].runtime
    improving = [
        r for r in records[1:] if r.runtime is not None and r.runtime < baseline
    ]
    assert improving == []
    assert all(r.classification == "Invalid" for r in records[1:] if "llm(" in r.patch_line)


def test_equal_runtime_neighbor_not_accepted(bench_max):
    """Self-swap neighbors leave runtime unchanged; strict < rejects them."""
    unit, tests = bench_max
    cfg = LocalSearchConfig(families=("statement",), methods=("max2",), evals=60, seed=7)
    records = local_search(BaseProgram(unit, tests), cfg)
    baseline = records[0].runtime
    # find a Swap(s,s) evaluation: fingerprint equals the original digest
    original = source_digest(unit)
    noop_rows = [
        r for r in records[1:] if split_patch_line(r.patch_line)[2] == original
    ]
    assert noop_rows, "seed 7 never drew a no-op neighbor; pick another seed"
    for row in noop_rows:
        # passed with the baseline's runtime (a repeat reuses its first verdict); rejected
        assert row.runtime == baseline


def count_evaluations(monkeypatch, events=None) -> list[tuple]:
    """Every `search.evaluate` call's (patch seed, edits), in call order; a
    local-search patch's seed names its run. Each call also appends "eval"
    to `events` when given."""
    import minigi.search as search

    calls: list[tuple] = []
    real_evaluate = search.evaluate

    def evaluate(base, patch, *args, **kwargs):
        calls.append((patch.seed, patch.edits))
        if events is not None:
            events.append("eval")
        return real_evaluate(base, patch, *args, **kwargs)

    monkeypatch.setattr(search, "evaluate", evaluate)
    return calls


def distinct_edit_lists(records) -> set[tuple[str, str]]:
    return {(r.run_id, split_patch_line(r.patch_line)[1]) for r in records}


@pytest.mark.parametrize("family", ["statement", "insert", "llm-medium"])
def test_local_search_evaluates_each_distinct_edit_list_once_per_run(
    bench_max, monkeypatch, family
):
    """On the builtin backend a neighbor whose edit list its run has
    already evaluated is logged with that verdict, not evaluated again."""
    unit, tests = bench_max
    calls = count_evaluations(monkeypatch)
    cfg = LocalSearchConfig((family,), ("max2", "clamp_low"), evals=60, seed=3)
    llm = mock_context() if family == "llm-medium" else None
    records = local_search(BaseProgram(unit, tests), cfg, llm=llm)
    distinct = distinct_edit_lists(records)
    assert len(distinct) < len(records)  # the runs do repeat edit lists
    assert len(calls) == len(set(calls)) == len(distinct)


def test_equal_llm_payloads_share_one_verdict_and_a_different_one_gets_its_own(monkeypatch):
    """The memo knows an edit list by its log text, which names an LLM
    payload by its SHA-256: one reply's two equal code blocks become two
    edit objects with one text and are evaluated once, and its different
    block is evaluated on its own."""
    import minigi.search as search
    from minigi.lang import parse_source, parse_test_file

    unit = parse_source("fn f(n: int) -> int { var s: int = 0; s = s + n; return s; }", "f")
    tests = parse_test_file("test five: f(5) == 5")
    slower = "{ var s: int = 0; s = s + n; s = s + 0; return s; }"  # passes, not accepted
    wrong = "{ return n + 1; }"  # fails its test
    reply = "\n".join(f"```\n{code}\n```" for code in (slower, slower, wrong))
    drawn = []
    real_make_llm_edits = search.make_llm_edits

    def make_llm_edits(*args, **kwargs):
        edits = real_make_llm_edits(*args, **kwargs)
        drawn.extend(edits)
        return edits

    monkeypatch.setattr(search, "make_llm_edits", make_llm_edits)
    calls = count_evaluations(monkeypatch)
    client = make_client(LlmClientConfig(mode="mock"), script=lambda _: reply)
    llm = LlmSearchContext(client, PromptTemplate(project_name="f", variant_count=3))
    cfg = LocalSearchConfig(("llm-medium",), ("f",), evals=4, seed=0)
    records = local_search(BaseProgram(unit, tests), cfg, llm=llm)
    first, again, other = drawn
    assert first is not again and first.text == again.text != other.text
    assert [edits for _, edits in calls] == [(), (first,), (other,)]
    assert calls[1][1][0] is first
    assert records[1].patch_line == records[2].patch_line != records[3].patch_line
    assert [r.classification for r in records] == ["Passed", "Passed", "Passed", "CompiledOnly"]
    assert records[0].runtime < records[1].runtime == records[2].runtime


def test_a_neighbor_carries_the_join_of_its_edits_texts():
    a, b, c = (
        Edit(EditKind.DELETE, src=StatementId("f", (0,))),
        Edit(EditKind.INSERT_BREAK, dst=InsertionPoint(StatementId("f", (1,)), 0)),
        Edit(EditKind.LLM_BLOCK_REPLACE, src=StatementId("f", ()), prompt_category="simple"),
    )
    empty = Patch("u", (), "s")
    full = empty.with_edit(a).with_edit(b).with_edit(c)
    assert empty.text == ""
    assert full.text == "delete(f:0) ; insert_break(f:1+0) ; llm(f:root,simple,none)"
    assert full.without_edit(1).text == f"{a.text} ; {c.text}"
    assert full.without_edit(0).without_edit(0).without_edit(0).text == ""
    assert split_patch_line(serialize_patch(full, None))[1] == full.text
    # equality and hashing stay by the fields
    assert full.without_edit(1) == empty.with_edit(a).with_edit(c)
    assert hash(full.without_edit(2)) == hash(Patch("u", (a, b), "s"))
    assert full != Patch("u", full.edits, "t")


def test_every_edit_kind_is_written_as_docs_logs_md_documents_it():
    """Each form the log's documentation gives, its placeholders filled in
    order with the edit's ids, point, category and payload digest."""
    text = (REPO_ROOT / "docs" / "logs.md").read_text(encoding="utf-8")
    sentence = re.search(r"The edits are written (.*?)\.\n", text, re.S).group(1)
    forms = dict(re.findall(r"`(\w+)\(([^`]*)\)`", sentence))
    src, dst = StatementId("f", (0, 2)), StatementId("f", ())
    point = InsertionPoint(StatementId("f", (1,)), 3)
    payload = "{ return 1; }"
    edits = [
        Edit(EditKind.DELETE, src=src),
        Edit(EditKind.COPY, src=src, dst=point),
        Edit(EditKind.REPLACE, src=src, dst=dst),
        Edit(EditKind.SWAP, src=src, dst=dst),
        *(Edit(kind, dst=point) for kind in INSERT_KINDS),
        Edit(EditKind.LLM_BLOCK_REPLACE, src=src, payload=payload, prompt_category="medium"),
    ]
    assert {e.kind.value for e in edits} == set(forms) == {k.value for k in EditKind}
    assert (str(src), str(dst), str(point)) == ("f:0.2", "f:root", "f:1+3")
    for edit in edits:
        values = {
            "id": iter([str(src), str(dst)]),
            "point": iter([str(point)]),
            "category": iter(["medium"]),
            "payload": iter([hashlib.sha256(payload.encode("utf-8")).hexdigest()]),
        }
        args = re.sub(
            r"id|point|category|payload", lambda m: next(values[m.group()]),
            forms[edit.kind.value],
        )
        assert edit.text == f"{edit.kind.value}({args})"
    blockless = Edit(EditKind.LLM_BLOCK_REPLACE, src=src, prompt_category="medium")
    assert blockless.text == "llm(f:0.2,medium,none)"


def test_the_evaluation_memo_lives_no_longer_than_its_run(bench_planted, monkeypatch):
    unit, tests = bench_planted
    calls = count_evaluations(monkeypatch)
    cfg = LocalSearchConfig(("statement",), ("poly_sum",), evals=80, seed=2)
    first = local_search(BaseProgram(unit, tests), cfg)
    once = len(calls)
    assert once < len(first)
    assert local_search(BaseProgram(unit, tests), cfg) == first
    assert calls[once:] == calls[:once]


def test_the_external_backend_evaluates_every_local_search_row(bench_max, monkeypatch):
    """An external runtime is a wall-clock measurement, so even a repeated
    edit list runs the toolchain again. The stand-in measure reports the
    patched file's size, so deletions are accepted and removals return to
    earlier patches."""
    import sys

    from minigi.evaluation import ExternalToolchain

    unit, tests = bench_max
    size = f"{sys.executable} -c 'import os, sys; print(os.path.getsize(sys.argv[1]))'"
    toolchain = ExternalToolchain(
        compile_cmd="true", test_cmd="true", measure_cmd=size + " {PATCHED_FILE}",
        measure_repeats=1,
    )
    calls = count_evaluations(monkeypatch)
    cfg = LocalSearchConfig(("statement",), ("max2",), evals=25, seed=3)
    records = local_search(BaseProgram(unit, tests), cfg, toolchain=toolchain)
    assert len(distinct_edit_lists(records)) < len(records)
    assert len(calls) == len(records)


def test_local_search_sinks_each_record_before_the_next_evaluation(bench_max, monkeypatch):
    """Each sampled record is evaluated once and reaches the sink before
    the next evaluation starts."""
    unit, tests = bench_max
    events: list[str] = []
    sunk: list[EvalRecord] = []

    def sink(record):
        events.append("sink")
        sunk.append(record)

    count_evaluations(monkeypatch, events)
    cfg = LocalSearchConfig(("statement",), ("max2", "clamp_low"), evals=30, seed=3)
    records = local_search(BaseProgram(unit, tests), cfg, sink=sink)
    assert sunk == records
    assert events[-1] == "sink" and ("eval", "eval") not in zip(events, events[1:])


def ls_run(unit, tests, family) -> _Run:
    cfg = LocalSearchConfig((family,), ("max2",))
    return _Run(BaseProgram(unit, tests), cfg, None, None, None)


def test_propose_neighbor_empty_always_appends(bench_max):
    unit, tests = bench_max
    run = ls_run(unit, tests, "statement")
    state = SearchState(current_patch=Patch("bench_max"), current_runtime=100, current_unit=unit)
    for seed in range(50):
        neighbor = propose_neighbor(run, state, "statement", random.Random(seed), "max2")
        assert len(neighbor.edits) == 1


def test_propose_neighbor_append_remove_split(bench_max):
    unit, tests = bench_max
    run = ls_run(unit, tests, "statement")
    base = Patch("bench_max")
    rng = random.Random(123)
    edits = tuple(
        propose_neighbor(run, SearchState(base, 100, unit), "statement", rng, "max2").edits[0]
        for _ in range(3)
    )
    current = Patch("bench_max", edits)
    state = SearchState(current, 100, unit)
    counts = Counter()
    rng = random.Random(99)
    for _ in range(10_000):
        neighbor = propose_neighbor(run, state, "statement", rng, "max2")
        counts[len(neighbor.edits)] += 1
    appends, removals = counts[4], counts[2]
    assert appends + removals == 10_000
    # exact binomial bound: P(|X - 5000| > 200) < 6e-5 for p = 1/2
    assert abs(appends - 5000) <= 200


def test_propose_neighbor_deterministic(bench_max):
    unit, tests = bench_max
    base = Patch("bench_max")
    state1 = SearchState(base, 100, unit)
    state2 = SearchState(base, 100, unit)
    n1 = propose_neighbor(ls_run(unit, tests, "insert"), state1, "insert", random.Random(5), "max2")
    n2 = propose_neighbor(ls_run(unit, tests, "insert"), state2, "insert", random.Random(5), "max2")
    assert n1 == n2


def test_statement_family_thousand_draw_golden_counts(bench_sort):
    """Frozen ladder counts for the default-size statement run, seed 42.

    GOLDEN_PARTITION_SIZES pins how the draws split into distinct programs,
    repeats, no-ops and invalid patches; criterion 2 of the acceptance suite checks the ladder
    itself, against an oracle built without `evaluate`, but only for
    Statement edits inside `sort` (hot list ["sort"], its own seed), so it
    never sees this run's `max2` draws or its `42:statement:i` stream.
    This golden pins the aggregate of this run so regressions surface cheaply.
    """
    from minigi.reporting import aggregate_table1
    from minigi.lang import source_digest

    unit, tests = bench_sort
    cfg = RandomSamplingConfig(
        families=("statement",), methods=["sort", "max2"], budget=1000, seed=42
    )
    records = random_sampling(BaseProgram(unit, tests), cfg)
    verdicts: dict[str, set[str]] = {}
    for record in records:
        digest = split_patch_line(record.patch_line)[2]
        verdicts.setdefault(digest, set()).add(record.classification)
    mixed = {d: v for d, v in verdicts.items() if d != "invalid" and len(v) > 1}
    assert not mixed, (
        f"programs with more than one classification: {mixed}; the unique "
        "ladder counts each program once, so it depends on one verdict per digest"
    )
    report = aggregate_table1(records, source_digest(unit))[0]
    counts = report.all_counts
    assert (counts.patches, counts.valid, counts.compiled, counts.passed) == GOLDEN_1000_ALL
    unique = report.unique_counts
    assert (unique.patches, unique.valid, unique.compiled, unique.passed) == GOLDEN_1000_UNIQUE
    invalid = sum(1 for r in records if r.classification == "Invalid")
    partition = (unique.patches, counts.patches - unique.patches, 1000 - counts.patches, invalid)
    assert partition == GOLDEN_PARTITION_SIZES


# Seed 42, the same 1000 draws: (distinct programs, repeats of an earlier
# program, no-ops equivalent to the original, invalid). Fresh draws always
# apply, so none is invalid. About 11 % of draws are self-targeting
# Swap/Replace (2 kinds * 1/4 each * mean 2/9 chance of src == dst), which
# lands near the 125 no-ops excluded from both ladders below.
GOLDEN_PARTITION_SIZES = (184, 691, 125, 0)


# Seed 42, bench_sort fixture. 125 of the 1000 draws were equivalent to the
# original (see GOLDEN_PARTITION_SIZES) and are excluded from both ladders; the other 875 draws give 184 distinct programs.
#
# Every program carries one classification (asserted above), so the unique
# ladder is the verdicts of the 184 programs: 46 CompiledOnly + 29 Passed
# = 75 compiled, and 109 ValidOnly. No test of the 75 compiling programs
# ends in a runtime error or timeout; the 46 fail only on a wrong result.
# The first semantic error of each of the 109 breaks a rule documented in
# lang/semantics.py: 63 declare-before-use (61 "unknown variable", 2
# "assignment to undeclared variable"), 40 no-shadowing ("redeclaration")
# and 6 all-paths-return ("missing return").
#
# The two ladders agree by weight: the 75 compiling programs occur exactly
# 526 times among the draws and the 29 passing ones exactly 158 times, the
# compiled and passed totals of GOLDEN_1000_ALL. Each program occurs at
# least once, so a unique count of 105 compiled / 34 passed would need at
# least 556 / 163 draws in the all-draws ladder, unless some of these
# compiled or passed verdicts were wrong; the runtime and rule checks above
# show that none is.
GOLDEN_1000_ALL = (875, 875, 526, 158)
GOLDEN_1000_UNIQUE = (184, 184, 75, 29)


def test_llm_local_search_amortizes_requests(bench_sort):
    unit, tests = bench_sort
    llm = mock_context(script=lambda prompt: "```\n{ }\n```\n" * 5)
    cfg = LocalSearchConfig(families=("llm-medium",), methods=("sort",), evals=40, seed=2)
    records = local_search(BaseProgram(unit, tests), cfg, llm=llm)
    appends = sum(1 for r in records[1:] if "llm(" in r.patch_line)
    # every append pops one queued variant; requests refill five at a time
    assert llm.client.requests_made == -(-appends // 5)  # ceil
    assert len(records) == 40


def test_llm_local_search_requests_again_after_an_accepted_move():
    """Queued variants were drawn against the program before the move, so
    acceptance discards them: the next append asks about the new program."""
    from minigi.lang import parse_source, parse_test_file

    unit = parse_source(
        "fn f(n: int) -> int { var s: int = 0; s = s + n; s = s + 0; return s; }", "slow"
    )
    tests = parse_test_file("test five: f(5) == 5")
    records: list[EvalRecord] = []
    requests = []  # (evaluations logged when the request was sent, prompt)

    def script(prompt):
        requests.append((len(records), prompt))
        variants = ["{ return n; }"] + ["{ return n + 0; }"] * 4
        return "\n".join(f"```\n{v}\n```" for v in variants)

    cfg = LocalSearchConfig(families=("llm-medium",), methods=("f",), evals=12, seed=0)
    local_search(BaseProgram(unit, tests), cfg, llm=mock_context(script), sink=records.append)
    assert records[1].runtime is not None and records[1].runtime < records[0].runtime
    edit_counts = [len(split_patch_line(r.patch_line)[1].split(" ; ")) for r in records]
    first_append = next(i for i in range(2, len(records)) if edit_counts[i] == 2)
    assert [logged for logged, _ in requests[:2]] == [1, first_append]
    assert "return n;" in requests[1][1] and "var s" not in requests[1][1]


def test_a_request_after_an_accepted_move_renders_the_rebuilt_block():
    """The run keeps each request's prompt by block object: the accepted
    move rebuilds the drawn body, so every later request, sent again for
    each draw, renders the new body's text, never the kept old one."""
    from minigi.lang import parse_block, parse_source, parse_test_file
    from minigi.lang.printer import print_statement
    from minigi.prompts import PromptCategory, build_prompt

    unit = parse_source(
        "fn f(n: int) -> int { var s: int = 0; s = s + n; s = s + 0; return s; }", "slow"
    )
    tests = parse_test_file("test five: f(5) == 5")
    records: list[EvalRecord] = []
    requests = []  # (evaluations logged when the request was sent, prompt)

    def script(prompt):
        requests.append((len(records), prompt))
        variants = ["{ return n; }"] + ["{ return n + 0; }"] * 4
        return "\n".join(f"```\n{v}\n```" for v in variants)

    llm = mock_context(script)
    cfg = LocalSearchConfig(families=("llm-medium",), methods=("f",), evals=40, seed=0)
    local_search(BaseProgram(unit, tests), cfg, llm=llm, sink=records.append)
    assert records[1].runtime < records[0].runtime  # the one accepted move
    assert all(r.runtime is None or r.runtime >= records[1].runtime for r in records[2:])
    old, new = (
        build_prompt(llm.prompt, PromptCategory.MEDIUM, print_statement(body))
        for body in (unit.function("f").body, parse_block("{ return n; }"))
    )
    assert [prompt for _, prompt in requests] == [old] + [new] * (len(requests) - 1)
    assert requests[0][0] == 1 and all(logged > 1 for logged, _ in requests[1:])
    assert len(requests) > 2  # the rebuilt body is requested more than once
    assert llm.client.requests_made == len(requests)


def test_statement_runs_without_a_statement_to_draw_are_refused():
    """Sampling needs a statement in one target method, local search in each."""
    from minigi.lang import parse_source, parse_test_file

    unit = parse_source("fn noop() { } fn one(x: int) -> int { return x; }", "noop")
    tests = parse_test_file("test same: one(1) == 1")
    base = BaseProgram(unit, tests)
    records = random_sampling(
        base, RandomSamplingConfig(("statement",), ["noop", "one"], seed=1, budget=50)
    )
    assert all("noop:" not in split_patch_line(r.patch_line)[1] for r in records)
    with pytest.raises(SearchSetupError, match="no statement to draw in noop"):
        random_sampling(base, RandomSamplingConfig(("statement",), ["noop"], 1, budget=5))
    with pytest.raises(SearchSetupError, match="no statement to draw in noop"):
        local_search(base, LocalSearchConfig(("statement",), ("one", "noop"), 1, evals=5))
    insert = LocalSearchConfig(("insert",), ("noop",), 1, evals=5)
    assert len(local_search(base, insert)) == 5


def _nested_ifs(depth: int) -> str:
    return "{ " + "if (n > 0) { " * depth + "return f(n - 1) + 1; " + "} " * depth + "return 0; }"


def test_adversarial_rewrites_each_log_a_row_within_a_wall_bound():
    """Mutants are adversarial. A rewrite that recurses without end through
    nested loops, squares a value forty times, or nests as deep as a
    payload may parse is an outcome like any other, and cheap."""
    from minigi.lang import parse_block, parse_source, parse_test_file
    from minigi.lang.parser import MAX_NESTING, ParseError

    depth = MAX_NESTING - 4  # the body, the return, the call's argument and its `-` nest 4 levels
    parse_block(_nested_ifs(depth))
    with pytest.raises(ParseError):
        parse_block(_nested_ifs(depth + 1))
    blocks = (
        "{ for (var i: int = 0; i < 1; i = i + 1) { while (true) { { return f(n + 1); } } }"
        " return 0; }",
        "{ var x: int = n; for (var i: int = 0; i < 40; i = i + 1) { x = x * x; } return x; }",
        _nested_ifs(depth),
    )
    response = "\n".join(f"```\n{block}\n```" for block in blocks)
    unit = parse_source("fn f(n: int) -> int { return n; }", "adversary")
    tests = parse_test_file("test three: f(3) == 3")
    cfg = RandomSamplingConfig(families=("llm-medium",), methods=["f"], budget=10, seed=0)
    started = time.monotonic()
    records = random_sampling(BaseProgram(unit, tests), cfg, llm=mock_context(lambda _: response))
    assert time.monotonic() - started < 10.0
    assert [r.eval_index for r in records] == list(range(10))
    # per request: the three rewrites in order, then two variants without code
    assert [r.classification for r in records[:5]] == [
        "CompiledOnly", "CompiledOnly", "Passed", "Invalid", "Invalid",
    ]


# -- the per-run payload memo --

LOGGED_PAYLOAD = re.compile(r",([0-9a-f]{64})\)")


def count_parses(monkeypatch) -> list[str]:
    """Every text `apply_edit` hands to the parser from now on."""
    import minigi.patches as patches

    parsed: list[str] = []
    real = patches.parse_block

    def parse_block(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(patches, "parse_block", parse_block)
    return parsed


def logged_payloads(records) -> list[str]:
    """The payload digest of every LLM edit with code in every logged patch."""
    return [d for r in records for d in LOGGED_PAYLOAD.findall(r.patch_line)]


def digests(texts) -> list[str]:
    return sorted(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts)


def test_sampling_parses_each_distinct_payload_once_per_run(bench_sort, monkeypatch):
    unit, tests = bench_sort
    parsed = count_parses(monkeypatch)
    cfg = RandomSamplingConfig(
        families=("llm-medium",), methods=["sort", "max2"], budget=40, seed=3
    )
    first = random_sampling(BaseProgram(unit, tests), cfg, llm=mock_context())
    logged = logged_payloads(first)
    assert len(logged) > 3 * len(set(logged))  # the mock repeats its payloads
    assert digests(parsed) == sorted(set(logged))
    # the memo lives no longer than its run: running it again parses them again
    second = random_sampling(BaseProgram(unit, tests), cfg, llm=mock_context())
    assert second == first
    assert digests(parsed) == sorted(2 * list(set(logged)))


def test_local_search_parses_each_distinct_payload_once_across_moves(monkeypatch):
    """Every evaluation re-applies the current patch's edits, and an
    accepted move applies the patch once more; none of these parses a
    payload the run has already parsed."""
    from minigi.lang import parse_source, parse_test_file

    unit = parse_source(
        "fn f(n: int) -> int { var s: int = 0; s = s + n; s = s + 0; return s; }", "slow"
    )
    tests = parse_test_file("test five: f(5) == 5")
    variants = ["{ return n; }"] + ["{ return n + 0; }"] * 3 + ["{ return ((( ; }"]
    response = "\n".join(f"```\n{v}\n```" for v in variants)
    parsed = count_parses(monkeypatch)
    cfg = LocalSearchConfig(families=("llm-medium",), methods=("f",), evals=40, seed=0)
    records = local_search(BaseProgram(unit, tests), cfg, llm=mock_context(lambda _: response))
    assert records[1].runtime is not None and records[1].runtime < records[0].runtime
    edit_counts = Counter(len(split_patch_line(r.patch_line)[1].split(" ; ")) for r in records)
    assert edit_counts[2] > 10  # appends to the accepted one-edit patch
    assert len(logged_payloads(records)) > 30
    assert sorted(parsed) == sorted(set(variants))


def test_a_repeated_unparsable_payload_raises_a_fresh_error_each_time(bench_sort, monkeypatch):
    """The memo keeps an error's message, not the exception: one stored
    exception raised again would grow its traceback on every raise."""
    import minigi.evaluation as evaluation

    unit, tests = bench_sort
    parsed = count_parses(monkeypatch)
    raised: list[PayloadUnparsableError] = []
    real_apply_patch = evaluation.apply_patch

    def apply_patch(*args):
        try:
            return real_apply_patch(*args)
        except PayloadUnparsableError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(evaluation, "apply_patch", apply_patch)
    client = make_client(LlmClientConfig(mode="mock"), script=["```\nnot ((( code\n```"] * 3)
    llm = LlmSearchContext(client, PromptTemplate(project_name="bench", variant_count=1))
    cfg = RandomSamplingConfig(families=("llm-medium",), methods=["sort"], budget=3, seed=1)
    records = random_sampling(BaseProgram(unit, tests), cfg, llm=llm)
    assert [r.classification for r in records] == ["Invalid"] * 3
    assert parsed == ["not ((( code"]
    assert len(raised) == 3 and len({id(exc) for exc in raised}) == 3
    assert len({str(exc) for exc in raised}) == 1
    assert str(raised[0]).startswith("payload does not parse: ")
    assert len({len(traceback.extract_tb(exc.__traceback__)) for exc in raised}) == 1


DRAW_GOLDEN_STEMS = ("bench_loop", "bench_max", "bench_planted", "bench_sort")
# Frozen with the rows below before the classic and LLM draws shared one path.
DRAW_GOLDEN_ROWS = 3140
DRAW_GOLDEN_SHA256 = "eee0033eff55fcda021d660dbcb902559b8f94cfcfc389557501dacea4a7a404"


def test_every_family_draws_and_searches_the_rows_it_always_did():
    """Sampling and two local-search runs per family and benchmark: every
    logged row, joined, hashes to the frozen digest. A change to how a
    family seeds its draws or queues its edits changes a row."""
    from conftest import BENCHMARKS
    from minigi.lang import parse_source, parse_test_file
    from minigi.operators import statement_targets
    from minigi.search import FAMILIES

    lines = []
    for stem in DRAW_GOLDEN_STEMS:
        text = (BENCHMARKS / f"{stem}.ml").read_text(encoding="utf-8")
        unit = parse_source(text, name=stem)
        tests = parse_test_file((BENCHMARKS / f"{stem}.tests").read_text(encoding="utf-8"))
        hot = [fn.name for fn in unit.functions]
        runs = tuple(name for name in hot if statement_targets(unit, [name]))
        for family in FAMILIES:
            llm = LlmSearchContext(
                make_client(LlmClientConfig()), PromptTemplate(project_name=stem)
            )
            cfg = RandomSamplingConfig((family,), hot, 5, 20_000, budget=37)
            records = random_sampling(BaseProgram(unit, tests), cfg, llm=llm)
            for seed in (1, 2):
                ls_cfg = LocalSearchConfig((family,), runs, seed, 20_000, evals=40)
                records += local_search(BaseProgram(unit, tests), ls_cfg, llm=llm)
            lines += [
                f"{stem} {r.run_id} {r.eval_index} {r.patch_line} {r.classification} {r.runtime}"
                for r in records
            ]
    text = "\n".join(lines)
    assert len(lines) == DRAW_GOLDEN_ROWS
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DRAW_GOLDEN_SHA256
