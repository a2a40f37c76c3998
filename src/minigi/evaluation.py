"""Patch evaluation: the Valid -> Compiled -> Passed -> timed ladder.

A patch is Valid when it applies (and, for block-rewrite edits, its
payload parses), Compiled when the patched program passes semantic
validation, and Passed when every unit test passes; a test that exceeds
its budget counts as a failure. Runtime is recorded only for passing
patches: interpreter steps on the built-in backend, milliseconds on the
external one.

Two backends implement the ladder. The built-in backend validates and
interprets in-process and is bit-deterministic. The external backend
drives a user-supplied toolchain inside a private working copy; its
command contract (placeholders, exit codes, watchdog) is stated on
ExternalToolchain. Failures of the toolchain itself (missing binaries,
unparsable measurements, a hung measurement) raise InfrastructureError and
are never misfiled as patch failures. `subprocess` loads on the first
external command, so the builtin backend does not hold it in memory.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import signal
import statistics
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from minigi.lang.ast import SourceUnit
from minigi.lang.interpreter import (
    DEFAULT_STEP_BUDGET,
    Status,
    TestCase,
    run_suite,
)
from minigi.lang.printer import print_canonical, source_digest
from minigi.lang.semantics import validate
from minigi.patches import ApplyError, Patch, apply_patch

if TYPE_CHECKING:
    import subprocess

DEFAULT_TIMEOUT_MS = 10_000
DEFAULT_MEASURE_REPEATS = 5


class InfrastructureError(Exception):
    """Toolchain breakage; excluded from every report counter."""


class Classification(Enum):
    INVALID = "Invalid"
    VALID_ONLY = "ValidOnly"
    COMPILED_ONLY = "CompiledOnly"
    PASSED = "Passed"


@dataclass(frozen=True)
class EvaluationResult:
    patch: Patch
    classification: Classification
    tests_failed: int = 0
    runtime: Optional[int] = None  # Passed only: steps (builtin) or milliseconds (external)
    fingerprint: Optional[str] = None  # canonical digest of the patched program

    @property
    def passed(self) -> bool:
        return self.classification is Classification.PASSED

    def __post_init__(self):
        if (self.runtime is not None) != self.passed:
            raise ValueError("a runtime is recorded if and only if the patch passed")


# -- adapters --


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
    non-zero, or outliving the watchdog, fails that test. measure_cmd
    prints an integer on its last stdout line; the median-low of
    `measure_repeats` runs is the runtime, and a measure_cmd outliving
    `timeout_ms` stops the run with InfrastructureError. Every command
    runs in a session of its own, and its whole process group is killed
    when it returns or times out. A descendant that starts a session of
    its own leaves the group and is outside this contract.
    """

    compile_cmd: str
    test_cmd: str
    measure_cmd: str
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    measure_repeats: int = DEFAULT_MEASURE_REPEATS


@dataclass(frozen=True)
class TargetAdapter:
    kind: str = "builtin"  # builtin | external
    external: Optional[ExternalToolchain] = None

    def __post_init__(self):
        if self.kind not in ("builtin", "external"):
            raise ValueError(f"unknown adapter kind {self.kind!r}")
        if self.kind == "external" and self.external is None:
            raise ValueError("external adapter needs a toolchain")


BUILTIN_ADAPTER = TargetAdapter()


# -- evaluation --


def evaluate(
    unit: SourceUnit,
    patch: Patch,
    tests: list[TestCase],
    adapter: TargetAdapter = BUILTIN_ADAPTER,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EvaluationResult:
    """Classify one patch; deterministic on the built-in backend."""
    try:
        patched = apply_patch(unit, patch)
    except ApplyError:
        return EvaluationResult(patch, Classification.INVALID)
    digest = source_digest(patched)
    if adapter.kind == "builtin":
        return _evaluate_builtin(patch, patched, tests, step_budget, digest)
    return _evaluate_external(unit, patch, patched, tests, adapter.external, digest)


def _evaluate_builtin(
    patch: Patch,
    patched: SourceUnit,
    tests: list[TestCase],
    step_budget: int,
    digest: str,
) -> EvaluationResult:
    if validate(patched):
        return EvaluationResult(patch, Classification.VALID_ONLY, fingerprint=digest)
    outcomes = run_suite(patched, tests, step_budget)
    failed = sum(1 for o in outcomes if o.status is not Status.PASS)
    if failed:
        return EvaluationResult(
            patch, Classification.COMPILED_ONLY, tests_failed=failed, fingerprint=digest
        )
    steps = sum(o.steps_used for o in outcomes)
    return EvaluationResult(patch, Classification.PASSED, runtime=steps, fingerprint=digest)


def _substitute(cmd: str, mapping: dict[str, str]) -> list[str]:
    tokens = shlex.split(cmd)
    out = []
    for token in tokens:
        for key, value in mapping.items():
            token = token.replace("{" + key + "}", value)
        out.append(token)
    return out


def _run_command(
    argv: list[str], cwd: Path, timeout_ms: Optional[int] = None
) -> subprocess.CompletedProcess:
    """Run one command in a session of its own. When it returns, times out
    or fails in any other way, its whole process group is killed and the
    command reaped, so no descendant in the group outlives the command."""
    import subprocess

    try:
        with subprocess.Popen(
            argv,
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
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
    except FileNotFoundError as exc:
        raise InfrastructureError(f"command not found: {exc}") from None
    except OSError as exc:
        raise InfrastructureError(f"cannot run {argv[0]!r}: {exc}") from None


def _evaluate_external(
    unit: SourceUnit,
    patch: Patch,
    patched: SourceUnit,
    tests: list[TestCase],
    toolchain: ExternalToolchain,
    digest: str,
) -> EvaluationResult:
    import subprocess

    with tempfile.TemporaryDirectory(prefix="minigi-eval-") as tmp:
        workdir = Path(tmp)
        src = workdir / "original.ml"
        patched_file = workdir / "patched.ml"
        src.write_text(print_canonical(unit), encoding="utf-8")
        patched_file.write_text(print_canonical(patched), encoding="utf-8")
        mapping = {
            "SRC": str(src),
            "PATCHED_FILE": str(patched_file),
            "WORKDIR": str(workdir),
        }
        argv = _substitute(toolchain.compile_cmd, mapping)
        try:
            proc = _run_command(argv, workdir, timeout_ms=toolchain.timeout_ms)
            compiled = proc.returncode == 0
        except subprocess.TimeoutExpired:
            compiled = False
        if not compiled:
            return EvaluationResult(patch, Classification.VALID_ONLY, fingerprint=digest)
        failed = _run_external_tests(tests, toolchain, mapping, workdir)
        if failed:
            return EvaluationResult(
                patch, Classification.COMPILED_ONLY, tests_failed=failed, fingerprint=digest
            )
        ms = _measure_external(toolchain, mapping, workdir, toolchain.measure_repeats)
        return EvaluationResult(patch, Classification.PASSED, runtime=ms, fingerprint=digest)


def _run_external_tests(
    tests: Sequence[TestCase],
    toolchain: ExternalToolchain,
    mapping: dict[str, str],
    workdir: Path,
) -> int:
    """Failed-test count; a watchdog kill at timeout_ms counts as a failure."""
    import subprocess

    per_test = "{TEST}" in toolchain.test_cmd
    names: list[Optional[str]] = [t.name for t in tests] if per_test else [None]
    failed = 0
    for name in names:
        cmd_mapping = dict(mapping)
        if name is not None:
            cmd_mapping["TEST"] = name
        argv = _substitute(toolchain.test_cmd, cmd_mapping)
        try:
            proc = _run_command(argv, workdir, timeout_ms=toolchain.timeout_ms)
        except subprocess.TimeoutExpired:
            failed += 1
            continue
        if proc.returncode != 0:
            failed += 1
    return failed


def _measure_external(
    toolchain: ExternalToolchain,
    mapping: dict[str, str],
    workdir: Path,
    repeats: int,
) -> int:
    import subprocess

    samples = []
    for _ in range(max(1, repeats)):
        argv = _substitute(toolchain.measure_cmd, mapping)
        try:
            proc = _run_command(argv, workdir, timeout_ms=toolchain.timeout_ms)
        except subprocess.TimeoutExpired:
            raise InfrastructureError(
                f"measure command outlived its {toolchain.timeout_ms} ms watchdog"
            ) from None
        if proc.returncode != 0:
            raise InfrastructureError(
                f"measure command failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        try:
            samples.append(int(proc.stdout.strip().splitlines()[-1]))
        except (ValueError, IndexError):
            raise InfrastructureError(
                f"measure command printed no integer: {proc.stdout!r}"
            ) from None
    return int(statistics.median_low(samples))
