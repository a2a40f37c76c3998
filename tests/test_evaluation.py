from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

from minigi.evaluation import (
    ApplyFailure,
    Classification,
    CommandFailure,
    EvaluationResult,
    ExternalToolchain,
    FailedTest,
    InfrastructureError,
    evaluate,
)
from minigi.lang import parse_source
from minigi.lang.ast import BaseProgram, StatementId
from minigi.lang.interpreter import ExecutionOutcome, Status, run_suite
from minigi.lang.semantics import SemanticError
from minigi.patches import Edit, EditKind, InsertionPoint, Patch, apply_patch

from oracles import sort_call_steps, sort_planted_cost

PY = sys.executable


def sid(fn: str, *path: int) -> StatementId:
    return StatementId(fn, tuple(path))


def delete(fn: str, *path: int) -> Edit:
    return Edit(EditKind.DELETE, src=sid(fn, *path))


def test_empty_patch_passes_with_original_runtime(bench_sort):
    unit, tests = bench_sort
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"))
    assert result.classification is Classification.PASSED
    assert result.passed
    assert result.runtime == 1009  # frozen S0, see test_interpreter
    assert result.reason is None


def test_a_program_without_tests_passes_in_no_steps():
    unit = parse_source("fn f() -> int { return 1; }", "alone")
    result = evaluate(BaseProgram(unit, []), Patch("alone"))
    assert (result.classification, result.reason, result.runtime) == (
        Classification.PASSED, None, 0,
    )


def test_unresolvable_patch_is_invalid(bench_sort):
    unit, tests = bench_sort
    patch = Patch("bench_sort", (delete("sort", 2), delete("sort", 2)))
    result = evaluate(BaseProgram(unit, tests), patch)
    assert result.classification is Classification.INVALID
    assert not result.passed and result.runtime is None
    assert result.fingerprint is None
    assert result.reason == ApplyFailure("sort:2: does not resolve")


def test_insert_break_outside_loop_is_valid_only(bench_sort):
    unit, tests = bench_sort
    edit = Edit(EditKind.INSERT_BREAK, dst=InsertionPoint(sid("max2"), 0))
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort", (edit,)))
    assert result.classification is Classification.VALID_ONLY
    assert not result.passed and result.runtime is None
    assert result.fingerprint is not None  # it applied, so the patched program has a digest
    assert result.reason == SemanticError("max2", "break outside a loop")


def test_failing_tests_give_compiled_only(bench_sort):
    unit, tests = bench_sort
    # Deleting the swap's temp decl breaks compilation; deleting the whole
    # if-statement compiles but sorts nothing.
    drop_if = Patch("bench_sort", (delete("sort", 1, 0, 0, 0, 1),))
    result = evaluate(BaseProgram(unit, tests), drop_if)
    assert result.classification is Classification.COMPILED_ONLY
    assert result.runtime is None
    # the suite stops at the first sort test; run with a profile, every
    # sort test fails and the max2 tests still pass
    assert result.reason == FailedTest(
        "sort_small", ExecutionOutcome(Status.FAIL, result.reason.outcome.steps_used, [3, 1, 2])
    )
    outcomes = run_suite(apply_patch(unit, drop_if), tests, profile={})
    assert [(t.name, o.status) for t, o in zip(tests, outcomes)] == [
        ("sort_small", Status.FAIL), ("sort_reverse", Status.FAIL), ("sort_dup", Status.FAIL),
        ("max_left", Status.PASS), ("max_right", Status.PASS),
    ]
    assert result.reason.outcome == outcomes[0]


def test_infinite_loop_patch_times_out_as_compiled_only(bench_loop):
    unit, tests = bench_loop
    patch = Patch("bench_loop", (delete("count_to", 1, 0, 0),))  # drop the increment
    result = evaluate(BaseProgram(unit, tests), patch, step_budget=5000)
    assert result.classification is Classification.COMPILED_ONLY
    # count_five loops forever and stops the suite; count_zero still passes
    assert result.reason == FailedTest("count_five", ExecutionOutcome(Status.TIMEOUT, 5000))
    outcomes = run_suite(apply_patch(unit, patch), tests, 5000, profile={})
    assert [o.status for o in outcomes] == [Status.TIMEOUT, Status.PASS]
    assert result.passed is False


def test_infinite_loop_patch_times_out_without_iterating(bench_loop):
    """The loop without its increment writes nothing its condition reads,
    so its first check decides it; iterating to 10**9 steps would take
    minutes."""
    unit, tests = bench_loop
    patch = Patch("bench_loop", (delete("count_to", 1, 0, 0),))
    started = time.monotonic()
    result = evaluate(BaseProgram(unit, tests), patch, step_budget=10**9)
    assert result.classification is Classification.COMPILED_ONLY
    assert result.reason == FailedTest("count_five", ExecutionOutcome(Status.TIMEOUT, 10**9))
    assert time.monotonic() - started < 0.5


def test_planted_statement_deletion_delta_matches_trip_count_oracle(bench_sort):
    unit, tests = bench_sort
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort", (delete("sort", 1, 0, 0, 0, 0),)))
    assert result.classification is Classification.PASSED
    expected_delta = sum(
        sort_planted_cost(arr) for arr in ([3, 1, 2], [5, 4, 3, 2, 1], [2, 2, 1])
    )
    assert expected_delta == 64
    assert result.runtime == 1009 - expected_delta
    # and the oracle agrees with itself: removing the planted cost from the
    # per-call formula reproduces the measured total
    assert result.runtime == (
        sum(sort_call_steps(a) - sort_planted_cost(a) for a in ([3, 1, 2], [5, 4, 3, 2, 1], [2, 2, 1]))
        + 11 + 10  # max2 tests unchanged
    )


def test_evaluation_is_bit_deterministic(bench_sort):
    unit, tests = bench_sort
    patch = Patch("bench_sort", (delete("sort", 1, 0, 0, 0, 0),))
    assert evaluate(BaseProgram(unit, tests), patch) == evaluate(BaseProgram(unit, tests), patch)


def test_the_payload_memo_changes_no_result(bench_sort):
    """A run's payload memo (`BaseProgram.payloads`) that already holds
    every payload, as it does after the run's first evaluations, gives the
    results a fresh memo gives."""
    unit, tests = bench_sort
    body = sid("max2")
    payloads = [
        "{ if (y > x) { return y; } return x; }",  # Passed
        "{ return x; }",  # CompiledOnly
        "{ return z; }",  # ValidOnly
        "{ return ((( ; }",  # Invalid: does not parse
        None,  # Invalid: no code block
    ]
    patches = [
        Patch("bench_sort", (Edit(EditKind.LLM_BLOCK_REPLACE, src=body, payload=text,
                                  prompt_category="medium"),))
        for text in payloads
    ]
    fresh = [evaluate(BaseProgram(unit, tests), patch) for patch in patches]
    assert [r.classification.value for r in fresh] == [
        "Passed", "CompiledOnly", "ValidOnly", "Invalid", "Invalid",
    ]
    base = BaseProgram(unit, tests)
    for _ in range(2):
        assert [evaluate(base, patch) for patch in patches] == fresh
    assert list(base.payloads) == payloads[:4]


def _else_if_payload(arms: int) -> str:
    """max2's body as an if statement with `arms` `else if` arms, none of
    which is ever taken."""
    return (
        "{ if (x > y) { return x; }"
        + "".join(f" else if (x > y + {k}) {{ return x; }}" for k in range(arms))
        + " return y; }"
    )


@pytest.mark.parametrize("payload, rung", [
    ("{ return x" + " + x" * 149 + "; }", "Invalid"),
    ("{ return x" + " && x" * 149 + "; }", "Invalid"),
    ("{ return x" + "[0]" * 150 + "; }", "Invalid"),
    ("{ return x" + " + x" * 89 + "; }", "CompiledOnly"),
    (_else_if_payload(1000), "Invalid"),
    (_else_if_payload(90), "Passed"),
], ids=["sum-150", "conjunction-150", "index-150", "sum-90", "else-if-1000", "else-if-90"])
def test_a_payload_past_the_nesting_cap_is_invalid_not_a_crash(bench_max, payload, rung):
    """A flat chain nests one level per operator, index or `else if` arm,
    so a long one is a parse error and the patch Invalid; no later pass
    recurses that deep."""
    unit, tests = bench_max
    edit = Edit(EditKind.LLM_BLOCK_REPLACE, src=sid("max2"), payload=payload,
                prompt_category="medium")
    assert evaluate(BaseProgram(unit, tests), Patch("bench_max", (edit,))).classification.value == rung


@pytest.mark.parametrize("payload, rung", [
    ("{ if (x > y) { return x; } return " + "clamp_low(" * 85 + "y" + ", y)" * 85 + "; }",
     "Passed"),
    ("{ return " + "[" * 85 + "]" * 85 + "; }", "ValidOnly"),
    ("{ return " + "1" * 5000 + "; }", "Invalid"),
], ids=["calls-85", "arrays-85", "literal-5000"])
def test_a_payload_of_deep_calls_or_a_long_literal_gets_a_verdict(bench_max, payload, rung):
    """Nested calls and array literals, which cost the parser a dozen
    frames a level, and a literal past Python's int-string limit are
    classified like any other payload, never raised out of `evaluate`."""
    unit, tests = bench_max
    edit = Edit(EditKind.LLM_BLOCK_REPLACE, src=sid("max2"), payload=payload,
                prompt_category="medium")
    assert evaluate(BaseProgram(unit, tests), Patch("bench_max", (edit,))).classification.value == rung


@pytest.mark.parametrize("payload", [
    "{ return 2\u00b2; }",  # a digit to str.isdigit, which int() refuses
    "{ return x\u00e9; }",  # a letter to str.isalpha
], ids=["superscript-digit", "letter"])
def test_a_payload_with_a_non_ascii_character_is_invalid_not_a_crash(bench_max, payload):
    """An LLM payload is MiniLang source, which is ASCII: any other
    character makes it unparsable, so the patch is Invalid."""
    unit, tests = bench_max
    edit = Edit(EditKind.LLM_BLOCK_REPLACE, src=sid("max2"), payload=payload,
                prompt_category="medium")
    result = evaluate(BaseProgram(unit, tests), Patch("bench_max", (edit,)))
    assert result.classification is Classification.INVALID


def test_ladder_invariants_enforced(bench_sort):
    # a runtime is recorded if and only if the patch passed, and a reason
    # if and only if it did not
    reason = ApplyFailure("f:0: does not resolve")
    for classification in (
        Classification.INVALID, Classification.VALID_ONLY, Classification.COMPILED_ONLY
    ):
        with pytest.raises(ValueError):
            EvaluationResult(classification, reason, runtime=10)
        with pytest.raises(ValueError):
            EvaluationResult(classification)
        assert not EvaluationResult(classification, reason).passed
    with pytest.raises(ValueError):
        EvaluationResult(Classification.PASSED)
    with pytest.raises(ValueError):
        EvaluationResult(Classification.PASSED, reason, runtime=10)
    assert EvaluationResult(Classification.PASSED, runtime=10).passed


def test_builtin_runtime_is_exact_steps(bench_sort):
    unit, tests = bench_sort
    results = [evaluate(BaseProgram(unit, tests), Patch("bench_sort")) for _ in range(2)]
    assert [r.runtime for r in results] == [1009, 1009]


def test_failing_program_has_no_runtime(bench_sort):
    unit, _ = bench_sort
    from minigi.lang import parse_test_file

    result = evaluate(BaseProgram(unit, parse_test_file("test t: max2(1, 2) == 0")), Patch("bench_sort"))
    assert result.classification is Classification.COMPILED_ONLY
    assert result.runtime is None
    assert str(result.reason) == "test t: fail"


# -- external adapter --


def tc(**kwargs) -> ExternalToolchain:
    defaults = dict(compile_cmd="true", test_cmd="true", measure_cmd=f"{PY} -c 'print(421)'")
    defaults.update(kwargs)
    return ExternalToolchain(**defaults)


def test_external_measure_parses_integer_ms(bench_sort):
    base = BaseProgram(*bench_sort)
    result = evaluate(base, Patch("bench_sort"), tc())
    assert result.classification is Classification.PASSED
    assert result.runtime == 421
    assert evaluate(base, Patch("bench_sort"), tc(measure_repeats=3)).runtime == 421


def test_external_compile_failure_is_valid_only(bench_sort):
    unit, tests = bench_sort
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), tc(compile_cmd="false"))
    assert result.classification is Classification.VALID_ONLY
    assert result.reason == CommandFailure("compile_cmd", None, 1)
    assert str(result.reason) == "compile_cmd: exit status 1"


# A command's output is decoded as UTF-8 with U+FFFD for undecodable bytes,
# so a toolchain that writes a byte such as 0xFF still gets its verdict.
NOT_UTF8 = "sh -c \"printf '\\377' >&2; exit 1\""


def test_external_compile_writing_non_utf8_fails_as_valid_only(bench_sort):
    result = evaluate(BaseProgram(*bench_sort), Patch("bench_sort"), tc(compile_cmd=NOT_UTF8))
    assert result.classification is Classification.VALID_ONLY


def test_external_test_writing_non_utf8_fails_its_test(bench_sort):
    result = evaluate(BaseProgram(*bench_sort), Patch("bench_sort"), tc(test_cmd=NOT_UTF8))
    assert result.classification is Classification.COMPILED_ONLY
    assert result.reason == CommandFailure("test_cmd", None, 1)  # the whole-suite command


def test_external_measure_reads_its_integer_after_a_non_utf8_line(bench_sort):
    toolchain = tc(measure_cmd="sh -c \"printf 'x\\377y\\n42\\n'\"")
    result = evaluate(BaseProgram(*bench_sort), Patch("bench_sort"), toolchain)
    assert result.classification is Classification.PASSED
    assert result.runtime == 42


def per_test_runner(tmp_path: Path, failing: str) -> tuple[ExternalToolchain, Path]:
    """A per-test toolchain whose test command appends its test's name to
    a file, the second returned, and fails the tests whose names start
    with `failing` (exit status 3)."""
    spawned = tmp_path / "spawned.txt"
    script = tmp_path / "runner.py"
    script.write_text(
        "import sys\n"
        f"with open({str(spawned)!r}, 'a') as fh:\n"
        "    fh.write(sys.argv[1] + '\\n')\n"
        f"sys.exit(3 if sys.argv[1].startswith({failing!r}) else 0)\n"
    )
    return tc(test_cmd=f"{PY} {script} {{TEST}}"), spawned


def test_external_per_test_command_stops_at_the_first_failing_test(bench_sort, tmp_path):
    unit, tests = bench_sort
    names = [t.name for t in tests]
    assert names == ["sort_small", "sort_reverse", "sort_dup", "max_left", "max_right"]
    toolchain, spawned = per_test_runner(tmp_path, "sort_rev")
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert result.classification is Classification.COMPILED_ONLY
    assert result.reason == CommandFailure("test_cmd", "sort_reverse", 3)
    assert str(result.reason) == "test_cmd for test sort_reverse: exit status 3"
    # no test after the first failing one is spawned
    assert spawned.read_text().split() == ["sort_small", "sort_reverse"]


def test_external_per_test_command_spawns_every_test_of_a_passing_patch(bench_sort, tmp_path):
    unit, tests = bench_sort
    toolchain, spawned = per_test_runner(tmp_path, "no test")
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert result.classification is Classification.PASSED and result.reason is None
    assert spawned.read_text().split() == [t.name for t in tests]


def test_external_watchdog_kills_hung_test(bench_sort):
    unit, tests = bench_sort
    toolchain = tc(test_cmd=f"{PY} -c 'import time; time.sleep(60)'", timeout_ms=300)
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert result.classification is Classification.COMPILED_ONLY
    assert result.reason == CommandFailure("test_cmd", None, None)  # the watchdog's kill
    assert str(result.reason) == "test_cmd: outlived its watchdog"


def test_external_watchdog_kills_hung_compile(bench_sort):
    unit, tests = bench_sort
    toolchain = tc(compile_cmd="sleep 60", test_cmd="false", timeout_ms=300)
    started = time.monotonic()
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert time.monotonic() - started < 10
    assert result.classification is Classification.VALID_ONLY  # as a failed compile
    assert result.fingerprint is not None
    assert result.reason == CommandFailure("compile_cmd", None, None)


def _alive(pid: int) -> bool:
    """True while `pid` runs; a zombie (dead, not yet reaped) counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    try:
        return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not Path("/proc").is_dir()


def test_external_watchdog_kills_the_whole_process_group(bench_sort, tmp_path):
    """A child the test command started in the background dies with it."""
    unit, tests = bench_sort
    pid_file = tmp_path / "sleep.pid"
    toolchain = tc(test_cmd=f"sh -c 'sleep 30 & echo $! > {pid_file}; wait'", timeout_ms=1000)
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert result.reason == CommandFailure("test_cmd", None, None)
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 2
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _alive(pid), f"background sleep {pid} outlived the watchdog"


def test_external_command_that_returns_leaves_no_background_child(bench_sort, tmp_path):
    """A child that a passing test command left running dies when it returns."""
    unit, tests = bench_sort
    pid_file = tmp_path / "sleep.pid"
    toolchain = tc(test_cmd=f"sh -c 'sleep 30 >/dev/null 2>&1 & echo $! > {pid_file}'")
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert result.classification is Classification.PASSED
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 2
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _alive(pid), f"background sleep {pid} outlived its command"


def test_external_hung_measurement_is_infrastructure(bench_sort):
    unit, tests = bench_sort
    started = time.monotonic()
    with pytest.raises(InfrastructureError, match="watchdog"):
        evaluate(
            BaseProgram(unit, tests), Patch("bench_sort"),
            tc(measure_cmd=f"{PY} -c 'import time; time.sleep(60)'", timeout_ms=300),
        )
    assert time.monotonic() - started < 10


def test_external_median_of_repeats(bench_sort, tmp_path):
    unit, tests = bench_sort
    counter = tmp_path / "count.txt"
    script = tmp_path / "measure.py"
    script.write_text(
        "from pathlib import Path\n"
        f"p = Path({str(counter)!r})\n"
        "n = int(p.read_text()) if p.exists() else 0\n"
        "p.write_text(str(n + 1))\n"
        "print([500, 410, 430, 405, 420][n % 5])\n"
    )
    toolchain = tc(measure_cmd=f"{PY} {script}", measure_repeats=5)
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert result.runtime == 420  # median of the five samples


def test_external_command_not_found_is_infrastructure(bench_sort):
    unit, tests = bench_sort
    with pytest.raises(InfrastructureError):
        evaluate(
            BaseProgram(unit, tests), Patch("bench_sort"),
            tc(compile_cmd="definitely-not-a-binary-xyz"),
        )


def test_external_unparsable_measurement_is_infrastructure(bench_sort):
    unit, tests = bench_sort
    with pytest.raises(InfrastructureError):
        evaluate(
            BaseProgram(unit, tests), Patch("bench_sort"),
            tc(measure_cmd=f"{PY} -c 'print(\"fast\")'"),
        )


def test_external_negative_measurement_is_infrastructure(bench_sort):
    """A negative runtime would be logged as Passed and beat every baseline."""
    unit, tests = bench_sort
    with pytest.raises(InfrastructureError, match="negative runtime: -5"):
        evaluate(BaseProgram(unit, tests), Patch("bench_sort"), tc(measure_cmd="echo -5"))


def test_external_working_copy_gets_both_files(bench_sort, tmp_path):
    unit, tests = bench_sort
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import sys, pathlib\n"
        "src, patched = sys.argv[1], sys.argv[2]\n"
        "assert pathlib.Path(src).read_text() != ''\n"
        "assert pathlib.Path(patched).read_text() != ''\n"
        "sys.exit(0)\n"
    )
    toolchain = tc(compile_cmd=f"{PY} {probe} {{SRC}} {{PATCHED_FILE}}")
    result = evaluate(BaseProgram(unit, tests), Patch("bench_sort"), toolchain)
    assert result.classification is Classification.PASSED


def test_invalid_patch_never_reaches_the_toolchain(bench_sort):
    unit, tests = bench_sort
    patch = Patch("bench_sort", (delete("sort", 2), delete("sort", 2)))
    # a compile command that would blow up if ever invoked
    result = evaluate(
        BaseProgram(unit, tests), patch, tc(compile_cmd="definitely-not-a-binary-xyz")
    )
    assert result.classification is Classification.INVALID
