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
unparsable measurements) raise InfrastructureError and are never
misfiled as patch failures.
"""

from __future__ import annotations

import shlex
import statistics
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

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
    valid: bool
    compiled: bool
    passed: bool
    tests_failed: int
    runtime_steps: Optional[int]
    wall_clock_ms: Optional[int]
    classification: Classification
    fingerprint: Optional[str]  # canonical digest of the patched program

    def runtime(self) -> Optional[int]:
        return self.runtime_steps if self.runtime_steps is not None else self.wall_clock_ms

    def __post_init__(self):
        if self.compiled and not self.valid:
            raise ValueError("compiled implies valid")
        if self.passed and not self.compiled:
            raise ValueError("passed implies compiled")
        if (self.runtime_steps is not None or self.wall_clock_ms is not None) and not self.passed:
            raise ValueError("runtime recorded for a non-passing patch")
        if self.passed and self.runtime_steps is None and self.wall_clock_ms is None:
            raise ValueError("passing patch without a runtime")


def _classify(valid: bool, compiled: bool, passed: bool) -> Classification:
    if not valid:
        return Classification.INVALID
    if not compiled:
        return Classification.VALID_ONLY
    if not passed:
        return Classification.COMPILED_ONLY
    return Classification.PASSED


def _result(
    patch: Patch,
    valid: bool,
    compiled: bool = False,
    passed: bool = False,
    tests_failed: int = 0,
    runtime_steps: Optional[int] = None,
    wall_clock_ms: Optional[int] = None,
    fingerprint: Optional[str] = None,
) -> EvaluationResult:
    return EvaluationResult(
        patch=patch,
        valid=valid,
        compiled=compiled,
        passed=passed,
        tests_failed=tests_failed,
        runtime_steps=runtime_steps,
        wall_clock_ms=wall_clock_ms,
        classification=_classify(valid, compiled, passed),
        fingerprint=fingerprint,
    )


# -- adapters --


@dataclass(frozen=True)
class ExternalToolchain:
    """Commands driving an external target.

    Placeholders substituted into command tokens: {SRC} the unpatched
    source file, {PATCHED_FILE} the patched source file, {WORKDIR} the
    private working copy, {TEST} the current test name (test_cmd only;
    without it the whole suite runs as one process).

    Exit codes: patch_apply_cmd and measure_cmd must exit 0, or the run
    stops with InfrastructureError. compile_cmd exiting non-zero makes the
    patch ValidOnly. test_cmd exiting non-zero, or outliving its
    `timeout_ms` watchdog, fails that test. measure_cmd prints an integer
    on its last stdout line; the median-low of `measure_repeats` runs is
    the runtime.
    """

    compile_cmd: str
    test_cmd: str
    measure_cmd: str
    patch_apply_cmd: Optional[str] = None
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
        return _result(patch, valid=False)
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
        return _result(patch, valid=True, fingerprint=digest)
    outcomes = run_suite(patched, tests, step_budget)
    failed = sum(1 for o in outcomes if o.status is not Status.PASS)
    if failed:
        return _result(
            patch, valid=True, compiled=True, tests_failed=failed, fingerprint=digest
        )
    total_steps = sum(o.steps_used for o in outcomes)
    return _result(
        patch, valid=True, compiled=True, passed=True,
        runtime_steps=total_steps, fingerprint=digest,
    )


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
    try:
        return subprocess.run(
            argv,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=None if timeout_ms is None else timeout_ms / 1000.0,
        )
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
        if toolchain.patch_apply_cmd:
            proc = _run_command(_substitute(toolchain.patch_apply_cmd, mapping), workdir)
            if proc.returncode != 0:
                raise InfrastructureError(
                    f"patch apply command failed ({proc.returncode}): {proc.stderr.strip()}"
                )
        proc = _run_command(_substitute(toolchain.compile_cmd, mapping), workdir)
        if proc.returncode != 0:
            return _result(patch, valid=True, fingerprint=digest)
        failed = _run_external_tests(tests, toolchain, mapping, workdir)
        if failed:
            return _result(
                patch, valid=True, compiled=True, tests_failed=failed, fingerprint=digest
            )
        ms = _measure_external(toolchain, mapping, workdir, toolchain.measure_repeats)
        return _result(
            patch, valid=True, compiled=True, passed=True,
            wall_clock_ms=ms, fingerprint=digest,
        )


def _run_external_tests(
    tests: Sequence[TestCase],
    toolchain: ExternalToolchain,
    mapping: dict[str, str],
    workdir: Path,
) -> int:
    """Failed-test count; a watchdog kill at timeout_ms counts as a failure."""
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
    samples = []
    for _ in range(max(1, repeats)):
        proc = _run_command(_substitute(toolchain.measure_cmd, mapping), workdir)
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


def evaluate_batch(
    unit: SourceUnit,
    patches: Sequence[Patch],
    tests: list[TestCase],
    adapter: TargetAdapter = BUILTIN_ADAPTER,
    step_budget: int = DEFAULT_STEP_BUDGET,
    workers: int = 1,
) -> list[EvaluationResult]:
    """Evaluate patches independently; results in input order regardless of
    completion order. Worker width > 1 mainly helps the external backend."""
    if workers <= 1:
        return [evaluate(unit, p, tests, adapter, step_budget) for p in patches]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda p: evaluate(unit, p, tests, adapter, step_budget), patches))
