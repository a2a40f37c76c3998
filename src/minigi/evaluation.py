"""Patch evaluation: the Valid -> Compiled -> Passed -> timed ladder.

A patch is Valid when it applies (and, for block-rewrite edits, its
payload parses), Compiled when the patched program passes semantic
validation, and Passed when every unit test passes; a test that exceeds
its budget counts as a failure. Runtime is recorded only for passing
patches: interpreter steps on the built-in backend, milliseconds on the
external one. A patch's rung is all a run log records, so the tests stop
at the first one that does not pass, on both backends (the external one
in its per-test mode), and a verdict below Passed carries its `reason`:
what stopped the patch, as data, not text.

Two backends implement the ladder, chosen by whether an ExternalToolchain
is given. Without one, the built-in backend validates and interprets
in-process and is bit-deterministic. With one, the external backend drives
that toolchain inside a private working copy; its command contract
(placeholders, exit codes, watchdog) is stated on ExternalToolchain.
Failures of the toolchain itself (missing binaries, unparsable or negative
measurements, a hung measurement) raise InfrastructureError and are never
misfiled as patch failures. A command's output is decoded as UTF-8, with
U+FFFD for each undecodable byte, so a toolchain that writes other bytes
still gets its verdict. `subprocess` loads on the first external command
and `statistics` on the first external measurement, so the builtin backend
holds neither in memory.

An evaluation takes its command's `BaseProgram`: the base program and
tests of one `minigi` command, built once when the command loads its
program, shared by its profile, its record's digest and every family and
method of its driver call, and freed when the command ends. The patch
applies to that program and runs those tests. The BaseProgram owns every
node of the base's functions and of each LLM payload, parsed once, and
keeps by node identity the printed lines and compiled closures of each
owned subtree, the semantic errors of each of the base's own functions,
and each test's checked and compiled harness call. Patch application
keeps every function a patch does not edit as the base's own object, and
within an edited function rebuilds only the spine down to the edit,
sharing every other subtree with the base or with a parsed payload. So
an evaluation validates only the functions its patch changed, prints and
compiles only their spines and new leaves, and the external backend
prints the unpatched program once per command. The builtin backend also
runs only the tests that can reach a changed function; every other test
keeps the outcome, steps included, it had earlier in the command (see
`interpreter.run_suite`). The external backend is a black box and
runs each test it reaches. No result depends on that reuse.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import signal
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

from minigi.checks import LONGEST_WAIT, check_count
from minigi.lang.ast import BaseProgram, SourceUnit, record
from minigi.lang.interpreter import (
    DEFAULT_STEP_BUDGET,
    ExecutionOutcome,
    Status,
    TestCase,
    run_suite,
)
from minigi.lang.printer import print_canonical, source_digest
from minigi.lang.semantics import SemanticError, validate
from minigi.patches import ApplyError, Patch, apply_patch


class InfrastructureError(Exception):
    """Toolchain breakage; excluded from every report counter."""


class Classification(Enum):
    INVALID = "Invalid"
    VALID_ONLY = "ValidOnly"
    COMPILED_ONLY = "CompiledOnly"
    PASSED = "Passed"


# -- why a patch stopped below Passed --
#
# Local search's verdict memo keeps each result alive, so a builtin reason
# refers only to objects its evaluation made anyway: it formats no text and
# keeps no exception or traceback.


@record
class ApplyFailure:
    """Invalid: the message of the ApplyError the patch raised."""

    message: str


_STATUS_TEXT = {
    Status.FAIL: "fail",
    Status.TIMEOUT: "timeout",
    Status.RUNTIME_ERROR: "runtime error",
}


@record
class FailedTest:
    """CompiledOnly on the builtin backend: the first test, in file order,
    that did not pass, and its outcome."""

    test: str
    outcome: ExecutionOutcome

    def __str__(self) -> str:
        return f"test {self.test}: {_STATUS_TEXT[self.outcome.status]}"


@record
class CommandFailure:
    """ValidOnly or CompiledOnly on the external backend: the command that
    stopped the patch (`compile_cmd` or `test_cmd`), the test it ran in
    per-test mode, and its exit status, None when the watchdog killed it."""

    command: str
    test: Optional[str]
    exit_status: Optional[int]

    def __str__(self) -> str:
        what = self.command if self.test is None else f"{self.command} for test {self.test}"
        if self.exit_status is None:
            return f"{what}: outlived its watchdog"
        return f"{what}: exit status {self.exit_status}"


# The first SemanticError stops a builtin patch at ValidOnly.
Reason = Union[ApplyFailure, SemanticError, FailedTest, CommandFailure]


@dataclass(frozen=True)
class EvaluationResult:
    classification: Classification
    reason: Optional[Reason] = None  # what stopped the patch; None if and only if it passed
    runtime: Optional[int] = None  # Passed only: steps (builtin) or milliseconds (external)
    fingerprint: Optional[str] = None  # canonical digest of the patched program

    @property
    def passed(self) -> bool:
        return self.classification is Classification.PASSED

    def __post_init__(self):
        if (self.runtime is not None) != self.passed:
            raise ValueError("a runtime is recorded if and only if the patch passed")
        if (self.reason is None) != self.passed:
            raise ValueError("a reason is recorded if and only if the patch did not pass")


# -- the external backend's commands --


@dataclass(frozen=True)
class ExternalToolchain:
    """Commands driving an external target.

    Placeholders substituted into command tokens: {SRC} the unpatched
    source file, {PATCHED_FILE} the patched source file, {WORKDIR} the
    private working copy, {TEST} the current test name (test_cmd only;
    without it the whole suite runs as one process).

    Exit codes: measure_cmd must exit 0, or the run stops with
    InfrastructureError. compile_cmd exiting non-zero, or outliving the
    `timeout_ms` watchdog, makes the patch ValidOnly. test_cmd exiting
    non-zero, or outliving the watchdog, fails that test, and in per-test
    mode no test after it is spawned. measure_cmd
    prints an integer of at least 0 on its last stdout line, or the run
    stops with InfrastructureError; the median-low of
    `measure_repeats` runs is the runtime, and a measure_cmd outliving
    `timeout_ms` stops the run with InfrastructureError. Every command
    runs in a process group of its own, and its whole process group is
    killed when it returns or times out. A descendant that starts a group
    or session of its own leaves the group and is outside this contract.
    Each command is split into words by shell quoting rules (`shlex`) once,
    at construction, and each placeholder is substituted within a word, so
    a substituted path is never split. Construction refuses a command that
    is not a non-empty string or does not split (an unbalanced quote, a
    trailing backslash), a count that is not an integer of at least 1 and
    a `timeout_ms` above `checks.LONGEST_WAIT`, which not every platform
    can wait for.
    """

    compile_cmd: str
    test_cmd: str
    measure_cmd: str
    timeout_ms: int = 10_000
    measure_repeats: int = 5

    def __post_init__(self):
        words = {}
        for name in ("compile_cmd", "test_cmd", "measure_cmd"):
            value = getattr(self, name)
            if type(value) is not str or not value.strip():
                raise ValueError(f"{name} must be a non-empty command, got {value!r}")
            try:
                words[name] = shlex.split(value)
            except ValueError as exc:
                raise ValueError(
                    f"{name} must split into words by shell quoting rules ({exc}), got {value!r}"
                ) from None
        object.__setattr__(self, "_words", words)  # not a field: no record key, no compare
        check_count("timeout_ms", self.timeout_ms)
        if self.timeout_ms > LONGEST_WAIT:
            raise ValueError(f"timeout_ms must be at most {LONGEST_WAIT}, got {self.timeout_ms}")
        check_count("measure_repeats", self.measure_repeats)

    def argv(self, command: str, mapping: dict[str, str]) -> list[str]:
        """The words of `command` (a field name) with each `{KEY}` of
        `mapping` replaced by its value."""
        out = []
        for word in self._words[command]:
            for key, value in mapping.items():
                word = word.replace("{" + key + "}", value)
            out.append(word)
        return out


# -- evaluation --


def evaluate(
    base: BaseProgram,
    patch: Patch,
    toolchain: Optional[ExternalToolchain] = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EvaluationResult:
    """Classify `patch` applied to the command's program `base.unit` against
    its tests `base.tests` (see the module docstring): on `toolchain` when
    given, else on the built-in backend, which is deterministic."""
    try:
        patched = apply_patch(base.unit, patch, base)
    except ApplyError as exc:
        # str() of a one-argument exception is that argument, the same object
        return EvaluationResult(Classification.INVALID, ApplyFailure(str(exc)))
    digest = source_digest(patched, base)
    if toolchain is None:
        return _evaluate_builtin(patched, step_budget, digest, base)
    return _evaluate_external(patched, toolchain, digest, base)


def _evaluate_builtin(
    patched: SourceUnit,
    step_budget: int,
    digest: str,
    base: BaseProgram,
) -> EvaluationResult:
    errors = validate(patched, base)
    if errors:
        return EvaluationResult(Classification.VALID_ONLY, errors[0], fingerprint=digest)
    outcomes = run_suite(patched, base.tests, step_budget, base=base)
    if outcomes and outcomes[-1].status is not Status.PASS:  # the suite stopped there
        failure = FailedTest(base.tests[len(outcomes) - 1].name, outcomes[-1])
        return EvaluationResult(Classification.COMPILED_ONLY, failure, fingerprint=digest)
    steps = sum(o.steps_used for o in outcomes)
    return EvaluationResult(Classification.PASSED, runtime=steps, fingerprint=digest)


def _run_command(argv: list[str], cwd: Path, timeout_ms: Optional[int] = None):
    """Run one command in a process group of its own, reading no terminal
    input: its CompletedProcess, or None when it outlives `timeout_ms`.
    When it returns, times out or fails in any other way, its whole
    process group is killed and the command reaped, so no descendant in
    the group outlives the command."""
    import subprocess

    try:
        with subprocess.Popen(
            argv,
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            encoding="utf-8",
            errors="replace",
            process_group=0,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(
                    timeout=None if timeout_ms is None else timeout_ms / 1000.0
                )
            finally:
                # The group keeps its id while any member lives, even after
                # the command itself has been reaped.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)
    except subprocess.TimeoutExpired:
        return None
    except FileNotFoundError as exc:
        raise InfrastructureError(f"command not found: {exc}") from None
    except OSError as exc:
        raise InfrastructureError(f"cannot run {argv[0]!r}: {exc}") from None


def _evaluate_external(
    patched: SourceUnit,
    toolchain: ExternalToolchain,
    digest: str,
    base: BaseProgram,
) -> EvaluationResult:
    with tempfile.TemporaryDirectory(prefix="minigi-eval-") as tmp:
        workdir = Path(tmp)
        src = workdir / "original.ml"
        patched_file = workdir / "patched.ml"
        src.write_text(print_canonical(base.unit, base), encoding="utf-8")
        patched_file.write_text(print_canonical(patched, base), encoding="utf-8")
        mapping = {
            "SRC": str(src),
            "PATCHED_FILE": str(patched_file),
            "WORKDIR": str(workdir),
        }
        argv = toolchain.argv("compile_cmd", mapping)
        proc = _run_command(argv, workdir, timeout_ms=toolchain.timeout_ms)
        failure = _command_failure("compile_cmd", None, proc)
        if failure is not None:
            return EvaluationResult(Classification.VALID_ONLY, failure, fingerprint=digest)
        failure = _run_external_tests(base.tests, toolchain, mapping, workdir)
        if failure is not None:
            return EvaluationResult(Classification.COMPILED_ONLY, failure, fingerprint=digest)
        ms = _measure_external(toolchain, mapping, workdir)
        return EvaluationResult(Classification.PASSED, runtime=ms, fingerprint=digest)


def _run_external_tests(
    tests: Sequence[TestCase],
    toolchain: ExternalToolchain,
    mapping: dict[str, str],
    workdir: Path,
) -> Optional[CommandFailure]:
    """The first test_cmd that failed, or None when every one passed; a
    watchdog kill at timeout_ms is a failure. In per-test mode no test
    after the first failing one is spawned."""
    per_test = "{TEST}" in toolchain.test_cmd
    names: list[Optional[str]] = [t.name for t in tests] if per_test else [None]
    for name in names:
        cmd_mapping = dict(mapping)
        if name is not None:
            cmd_mapping["TEST"] = name
        argv = toolchain.argv("test_cmd", cmd_mapping)
        proc = _run_command(argv, workdir, timeout_ms=toolchain.timeout_ms)
        failure = _command_failure("test_cmd", name, proc)
        if failure is not None:
            return failure
    return None


def _command_failure(command: str, test: Optional[str], proc) -> Optional[CommandFailure]:
    """What stopped the patch when `proc`, the CompletedProcess of
    `command` or None when the watchdog killed it, did not exit 0."""
    if proc is None:
        return CommandFailure(command, test, None)
    if proc.returncode != 0:
        return CommandFailure(command, test, proc.returncode)
    return None


def _measure_external(
    toolchain: ExternalToolchain,
    mapping: dict[str, str],
    workdir: Path,
) -> int:
    import statistics

    samples = []
    for _ in range(toolchain.measure_repeats):
        argv = toolchain.argv("measure_cmd", mapping)
        proc = _run_command(argv, workdir, timeout_ms=toolchain.timeout_ms)
        if proc is None:
            raise InfrastructureError(
                f"measure command outlived its {toolchain.timeout_ms} ms watchdog"
            )
        if proc.returncode != 0:
            raise InfrastructureError(
                f"measure command failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        try:
            sample = int(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise InfrastructureError(
                f"measure command printed no integer: {proc.stdout!r}"
            ) from None
        if sample < 0:  # no runtime is negative, and it would beat every baseline
            raise InfrastructureError(f"measure command printed a negative runtime: {sample}")
        samples.append(sample)
    return int(statistics.median_low(samples))
