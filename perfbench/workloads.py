"""The benchmark's workloads: which `minigi` commands one invocation runs.
Why each workload exists is in README.md and BENCHMARK.json.

An invocation runs every command of its workload once with one seed and
a fresh output directory. A measured run repeats invocations with seeds
derived from the benchmark's `--seed`; the check invocation runs once per
run at the workload's recorded seed, whose run-log digests are frozen in
`digests.json`.
"""

from __future__ import annotations

import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

from minigi.lang.interpreter import DEFAULT_STEP_BUDGET

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROGRAMS = ROOT / "benchmarks"

# Step budget of the timeout-loop workload. At the default 1,000,000 steps
# one timed-out evaluation costs about a second, so a short run sees only a
# few dozen of them and its evals/s swings with how many a seed happens to
# draw. At 20,000 steps a run sees several hundred, still spends most of
# its wall time in timed-out tests, and `interp.steps_per_s` scales the
# cost back to the default budget.
LOOP_STEP_BUDGET = 20_000


@dataclass(frozen=True)
class Command:
    label: str  # names the command's run log in digests.json
    argv: tuple[str, ...]  # minigi arguments; the runner adds --seed and --out-dir
    planned: int  # evaluations the command logs when nothing fails


# Invocations are kept short (well under a second on the builtin backend,
# about a second on the external one) because the host slowdown is measured
# between invocations; see README.md, Calibration.


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    trace_invocations: int  # fixed work of a traced pass, so its counts repeat
    layers: tuple[str, ...]  # layers the traced pass must see called
    external: bool = False  # commands take --config with the external toolchain


def _program(stem: str) -> list[str]:
    return [str(PROGRAMS / f"{stem}.ml"), str(PROGRAMS / f"{stem}.tests")]


FRONT_END = ("draw", "apply", "digest", "validate", "interp", "eval")
ALWAYS = ("search", "log", "profile", "parse")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1-sort",
            commands=(
                Command(
                    "sample",
                    ("sample", *_program("bench_sort"),
                     "--family", "statement,insert,llm-medium", "--budget", "250"),
                    750,
                ),
            ),
            trace_invocations=12,
            layers=FRONT_END + ALWAYS + ("llm",),
        ),
        Workload(
            name="table2-planted",
            commands=tuple(
                Command(
                    f"ls-{family}",
                    ("ls", *_program("bench_planted"), "--family", family, "--evals", "100"),
                    100,
                )
                for family in ("statement", "llm-medium")
            ),
            trace_invocations=30,
            layers=FRONT_END + ALWAYS + ("llm",),
        ),
        Workload(
            name="timeout-loop",
            commands=(
                Command(
                    "sample",
                    ("sample", *_program("bench_loop"), "--family", "statement,insert",
                     "--budget", "250", "--step-budget", str(LOOP_STEP_BUDGET)),
                    500,
                ),
            ),
            trace_invocations=10,
            layers=FRONT_END + ALWAYS,
        ),
        Workload(
            name="external-max",
            commands=(
                Command(
                    "sample",
                    ("sample", *_program("bench_max"), "--family", "statement,insert",
                     "--budget", "4", "--adapter", "external"),
                    8,
                ),
            ),
            trace_invocations=5,
            layers=("draw", "apply", "digest", "eval", "ext", "interp") + ALWAYS,
            external=True,
        ),
    )
}


def external_config(path: Path) -> None:
    """Write the external toolchain config: toolchain.py compiles and tests,
    and `cat` prints the step total the test step recorded. toolchain.py needs
    only the standard library and minigi, so it starts without site packages."""
    toolchain = [sys.executable, "-I", "-S", str(BENCH_DIR / "toolchain.py")]
    tests = str(PROGRAMS / "bench_max.tests")
    compile_cmd = shlex.join(toolchain + ["compile"]) + " {PATCHED_FILE}"
    test_cmd = (
        shlex.join(toolchain + ["test"]) + " {PATCHED_FILE} "
        + shlex.join([tests, str(DEFAULT_STEP_BUDGET)]) + " {WORKDIR}/steps"
    )
    path.write_text(
        f"compile_cmd = {compile_cmd}\n"
        f"test_cmd = {test_cmd}\n"
        "measure_cmd = cat {WORKDIR}/steps\n",
        encoding="utf-8",
    )


def builtin_twin(command: Command) -> Command:
    """The same command on the builtin backend; its log must match byte for byte."""
    argv = list(command.argv)
    at = argv.index("--adapter")
    del argv[at : at + 2]
    return Command(command.label + "-builtin", tuple(argv), command.planned)
