"""Benchmark for minigi: end-to-end evaluation throughput and latency, and a
traced per-layer breakdown. See README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --print-digests

Runs from the root of a source checkout, in one process and one thread,
through `minigi.cli.main`. `--trace 0` measures for S seconds and prints
the end-to-end metrics, with times calibrated to a reference host speed;
`--trace 1` runs a fixed amount of work traced, untraced and traced again,
and prints the per-layer metrics. The last line of standard output is one
JSON object. The exit code is 0 only when every output check passed and no
evaluation was lost.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
RECORDED_SEED = 1  # seed of the check invocation whose log digests digests.json records
# The host's speed drifts by up to 1.7x in phases of about a minute (see
# README.md). A fixed loop that runs no minigi code is timed before and
# after every invocation; end-to-end times are scaled to the speed at which
# that loop takes REF_NOMINAL_S.
REF_ITERATIONS = 10_000
REF_TREES = 6
REF_NOMINAL_S = 0.008
SETUP_SAMPLES = 40  # set-up times a measured run collects at least, when it can
PROBES = 3  # set-up probes per command and invocation while short of samples


@dataclass
class CommandRun:
    """One `minigi` command: what its run log held and when each row was written."""

    label: str
    planned: int
    wall_s: float  # main() call to return
    stamps: list[float]  # main() called, log opened, then one per row written
    log_sha: str
    distinct: int  # distinct patched programs per family
    problems: list[str]
    slowdown: float = 1.0  # host slowdown during the invocation, against REF_NOMINAL_S

    @property
    def rows(self) -> int:
        return max(0, len(self.stamps) - 2)

    @property
    def setup_s(self) -> float | None:
        return self.stamps[1] - self.stamps[0] if len(self.stamps) > 1 else None

    @property
    def gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps[1:], self.stamps[2:])]

    @property
    def eval_s(self) -> float:
        return self.stamps[-1] - self.stamps[1] if self.rows else 0.0


@dataclass
class Pass:
    """Every command run of one sequence of invocations."""

    runs: list[CommandRun] = field(default_factory=list)  # builtin twins not included
    problems: list[str] = field(default_factory=list)
    # (seconds, host slowdown) of each set-up, from measured commands and probes
    setups: list[tuple[float, float]] = field(default_factory=list)


class Bench:
    def __init__(self, workload, work_dir: Path):
        from minigi import cli

        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.counter = 0
        self.config = None
        if workload.external:
            from workloads import external_config

            self.config = work_dir / "external.cfg"
            external_config(self.config)
        self.attempted = 0
        self.failed = 0

    def _fresh_dir(self) -> Path:
        # A fresh out-dir also means a fresh transcript store: the store skips
        # writes whose file exists, so a reused one would make repeats cheaper.
        self.counter += 1
        path = self.work_dir / f"run{self.counter}"
        path.mkdir()
        return path

    def _argv(self, command, seed: int, out_dir: Path) -> list[str]:
        argv = [*command.argv, "--seed", str(seed), "--out-dir", str(out_dir)]
        if "--adapter" in argv:
            argv += ["--config", str(self.config)]
        return argv

    def _main(self, argv: list[str], writer, stamps: list[float]) -> None:
        """Run `minigi` with `writer` as its run-log writer; the start of
        main() goes first into `stamps`, which the writer appends to."""
        from minigi.reporting import RecordWriter

        self.cli.RecordWriter = writer
        stamps.append(perf_counter())
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        finally:
            self.cli.RecordWriter = RecordWriter
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    def probe_setup(self, command, seed: int) -> float:
        """Set-up time of `command`, stopping it before its first evaluation."""
        from minigi.reporting import RecordWriter

        stamps: list[float] = []

        class SetupDone(Exception):
            pass

        class StopWriter(RecordWriter):
            def __init__(self, path):
                super().__init__(path)
                stamps.append(perf_counter())
                self.close()
                raise SetupDone

        out_dir = self._fresh_dir()
        try:
            self._main(self._argv(command, seed, out_dir), StopWriter, stamps)
            raise RuntimeError(f"{command.label}: set-up probe ran to completion")
        except SetupDone:
            return stamps[1] - stamps[0]
        finally:
            shutil.rmtree(out_dir)

    def run_command(self, command, seed: int) -> CommandRun:
        from minigi.reporting import RecordWriter, read_records_csv

        cli = self.cli
        out_dir = self._fresh_dir()
        argv = self._argv(command, seed, out_dir)
        stamps: list[float] = []

        class TimedWriter(RecordWriter):
            def __init__(self, path):
                super().__init__(path)
                stamps.append(perf_counter())

            def write(self, rec):
                super().write(rec)
                stamps.append(perf_counter())

        error = None
        try:
            self._main(argv, TimedWriter, stamps)
        except Exception:  # noqa: BLE001 - a raising run is counted, not fatal
            error = traceback.format_exc()
        wall = perf_counter() - stamps[0]
        log_path = out_dir / (cli.SAMPLE_LOG if argv[0] == "sample" else cli.LS_LOG)
        records = [] if error else read_records_csv(log_path)
        sha = hashlib.sha256(log_path.read_bytes()).hexdigest() if log_path.exists() else ""
        shutil.rmtree(out_dir)
        if error:
            print(f"{command.label} seed {seed}: {error}", file=sys.stderr)
            problems = [f"{command.label} seed {seed}: {error.strip().splitlines()[-1]}"]
        else:
            problems = check_log(records, command, seed)
        run = CommandRun(command.label, command.planned, wall, stamps, sha,
                         distinct_programs(records), problems)
        self.attempted += command.planned
        self.failed += command.planned - min(run.rows, command.planned)
        return run

    def run_pass(self, seeds, twins: bool, deadline: float | None = None,
                 setup_samples: int = 0) -> Pass:
        """Run invocations for `seeds`, or until `deadline` when one is given.
        The reference loop is timed around each invocation to set its host
        slowdown.

        Commands that run long give few set-up samples, so while the pass has
        fewer than `setup_samples`, each invocation also probes the set-up of
        each of its commands a few times."""
        from workloads import builtin_twin

        result = Pass()
        ref = reference_time()
        for i, seed in enumerate(seeds):
            if deadline is not None and i > 0 and perf_counter() >= deadline:
                break
            runs: list[CommandRun] = []
            setups: list[float] = []
            for command in self.workload.commands:
                if len(result.setups) + len(setups) < setup_samples:
                    setups += [self.probe_setup(command, seed) for _ in range(PROBES)]
                run = self.run_command(command, seed)
                runs.append(run)
                result.problems += run.problems
                if run.setup_s is not None:
                    setups.append(run.setup_s)
                if twins and self.workload.external:
                    twin = self.run_command(builtin_twin(command), seed)
                    result.problems += twin.problems
                    if twin.log_sha != run.log_sha:
                        result.problems.append(
                            f"{command.label} seed {seed}: external log differs from builtin"
                        )
            ref_after = reference_time()
            slowdown = (ref + ref_after) / 2 / REF_NOMINAL_S
            ref = ref_after
            for run in runs:
                run.slowdown = slowdown
            result.runs += runs
            result.setups += [(t, slowdown) for t in setups]
        return result

    def check_recorded(self) -> list[str]:
        """Run the workload once at its recorded seed and compare log digests."""
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[self.workload.name]
        checked = self.run_pass([recorded["seed"]], twins=True)
        problems = list(checked.problems)
        for run in checked.runs:
            want = recorded["logs"].get(run.label)
            if run.log_sha != want:
                problems.append(
                    f"{run.label} at recorded seed {recorded['seed']}: log sha256 "
                    f"{run.log_sha} != recorded {want}"
                )
        return problems


class _RefNode:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: int, left, right):
        self.op, self.left, self.right = op, left, right


def _ref_tree(depth: int, i: int):
    if depth == 0:
        return i
    return _RefNode(i % 3, _ref_tree(depth - 1, i + 1), _ref_tree(depth - 1, i + 2))


def _ref_eval(node, scopes: list[dict]) -> int:
    if isinstance(node, int):
        scopes[-1]["n"] = scopes[-1].get("n", 0) + 1
        return node
    scopes.append({})
    try:
        a = _ref_eval(node.left, scopes)
        b = _ref_eval(node.right, scopes)
    finally:
        scopes.pop()
    return (a + b, a - b, a * b % 1_000_003)[node.op]


def reference_loop() -> int:
    """Fixed pure-Python work that runs no minigi code: dict updates and
    integer arithmetic, then building and walking small trees with
    recursion, scopes and an exception, the kind of work an interpreter does."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
        acc += (i * 7) % 13
    for i in range(REF_TREES):
        acc += _ref_eval(_ref_tree(9, i), [{}])
        try:
            raise LookupError(acc)
        except LookupError as exc:
            acc = exc.args[0] % 7919
    return acc


def reference_time() -> float:
    """Median of three timings of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def invocation_seeds(seed: int):
    i = 0
    while True:
        yield seed * 10_000 + i
        i += 1


# -- output checks --


def check_log(records, command, seed: int) -> list[str]:
    """Consistency of one run log: every planned row, in order, and one
    verdict per distinct patched program."""
    from minigi.patches import split_patch_line

    where = f"{command.label} seed {seed}"
    problems = []
    if len(records) != command.planned:
        problems.append(f"{where}: {len(records)} rows, planned {command.planned}")
    next_index: dict[str, int] = {}
    verdicts: dict[str, tuple] = {}
    for rec in records:
        if rec.eval_index != next_index.get(rec.run_id, 0):
            problems.append(f"{where}: {rec.run_id} row {rec.eval_index} out of order")
        next_index[rec.run_id] = rec.eval_index + 1
        if (rec.classification == "Passed") != (rec.runtime is not None):
            problems.append(f"{where}: {rec.run_id} row {rec.eval_index} runtime does not "
                            "match its classification")
        _seed, edits, digest = split_patch_line(rec.patch_line)
        if command.argv[0] == "ls" and rec.eval_index == 0 and (edits.strip() or rec.runtime is None):
            problems.append(f"{where}: {rec.run_id} has no passing empty baseline")
        if digest != "invalid":
            verdict = (rec.classification, rec.runtime)
            if verdicts.setdefault(digest, verdict) != verdict:
                problems.append(f"{where}: program {digest[:12]} got two verdicts")
    return problems


def distinct_programs(records) -> int:
    """Distinct patched-program digests per family in one run log."""
    from minigi.patches import split_patch_line

    seen = set()
    for rec in records:
        digest = split_patch_line(rec.patch_line)[2]
        if digest != "invalid":
            seen.add((rec.run_id.split("/", 1)[0], digest))
    return len(seen)


# -- metrics --


def tail(gaps_ms: list[float]) -> tuple[float, str, int]:
    """Highest of p99, p95, p90 with at least 10 samples beyond it."""
    ordered = sorted(gaps_ms)
    n = len(ordered)
    for pct in (99, 95, 90):
        rank = math.ceil(pct / 100 * n)
        beyond = n - rank
        if beyond >= 10:
            return ordered[rank - 1], f"p{pct}", beyond
    return ordered[-1], "max", 0


def end_to_end(runs: list[CommandRun], setups: list[tuple[float, float]],
               calibrated: bool) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; `calibrated` scales every time by the host
    slowdown measured around its invocation."""

    def scale(slowdown: float) -> float:
        return slowdown if calibrated else 1.0

    gaps_ms = [1000 * g / scale(r.slowdown) for r in runs for g in r.gaps]
    tail_ms, tail_name, beyond = tail(gaps_ms)
    print(f"eval_ms_tail is {tail_name}: {beyond} of {len(gaps_ms)} evaluations beyond it")
    eval_s = sum(r.eval_s / scale(r.slowdown) for r in runs)
    return {
        "evals_per_s": (sum(r.rows for r in runs) / eval_s, "1/s"),
        "eval_ms_p50": (statistics.median(gaps_ms), "ms"),
        "eval_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(t / scale(slowdown) for t, slowdown in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Pass, untraced: Pass, traced_again: Pass) -> dict[str, tuple[float, str]]:
    layers = tracer.layers
    counts = tracer.counts
    runs = traced.runs
    wall = sum(r.wall_s for r in runs)
    slowdown = wall / sum(r.wall_s / r.slowdown for r in runs)  # calibrates the absolute times
    commands = len(runs)
    rows = sum(r.rows for r in runs)
    distinct = sum(r.distinct for r in runs)

    def pct(layer: str) -> tuple[float, str]:
        return 100 * layers[layer].self_s / wall, "%"

    def ratio(part: int, whole: int) -> tuple[float, str]:
        return (part / whole if whole else 0.0), "ratio"

    untraced_wall = sum(r.wall_s for r in untraced.runs)
    traced_wall = (wall + sum(r.wall_s for r in traced_again.runs)) / 2
    return {
        "interp.calls": (layers["interp"].calls, "count"),
        "interp.steps": (counts["interp.steps"], "count"),
        "interp.timeouts": (counts["interp.timeouts"], "count"),
        "interp.steps_per_s": (slowdown * counts["interp.steps"] / layers["interp"].self_s, "1/s"),
        "interp.self_pct": pct("interp"),
        "eval.calls": (layers["eval"].calls, "count"),
        "eval.distinct_ratio": ratio(distinct, rows),
        "eval.self_pct": pct("eval"),
        "ext.subprocesses": (counts["ext.subprocesses"], "count"),
        "ext.subprocess_pct": pct("ext"),
        "validate.calls": (layers["validate"].calls, "count"),
        "validate.reject_ratio": ratio(counts["validate.rejects"], layers["validate"].calls),
        "validate.self_pct": pct("validate"),
        "digest.calls": (layers["digest"].calls, "count"),
        "digest.self_pct": pct("digest"),
        "apply.calls": (layers["apply"].calls, "count"),
        "apply.error_ratio": ratio(tracer.apply_errors(), layers["apply"].calls),
        "apply.self_pct": pct("apply"),
        "draw.calls": (layers["draw"].calls, "count"),
        "draw.self_pct": pct("draw"),
        "llm.requests": (counts["llm.requests"], "count"),
        "llm.transcript_writes": (counts["llm.transcript_writes"], "count"),
        "llm.self_pct": pct("llm"),
        "search.accepted": (counts["search.accepted"], "count"),
        "search.self_pct": pct("search"),
        "log.rows": (layers["log"].calls, "count"),
        "log.write_pct": pct("log"),
        "setup.profile_ms": (1000 * layers["profile"].total_s / commands / slowdown, "ms"),
        "setup.parse_ms": (1000 * layers["parse"].total_s / commands / slowdown, "ms"),
        "trace.overhead_pct": (100 * (traced_wall - untraced_wall) / untraced_wall, "%"),
    }


def print_layers(tracer, traced: Pass) -> None:
    wall = sum(r.wall_s for r in traced.runs)
    print(f"{'layer':<10} {'calls':>9} {'self_s':>9} {'self_%':>7} {'us/call':>9}")
    accounted = 0.0
    for name, stats in tracer.layers.items():
        accounted += stats.self_s
        per_call = 1e6 * stats.self_s / stats.calls if stats.calls else 0.0
        print(f"{name:<10} {stats.calls:>9} {stats.self_s:>9.4f} "
              f"{100 * stats.self_s / wall:>7.2f} {per_call:>9.1f}")
    print(f"{'other':<10} {'':>9} {wall - accounted:>9.4f} {100 * (wall - accounted) / wall:>7.2f}")


def timeout_eval_ms(tracer, untraced: Pass) -> None:
    """Median untraced wall time of the evaluations the traced pass saw time out."""
    gaps = [g / r.slowdown for r in untraced.runs for g in r.gaps]
    hits = [1000 * g for g, flagged in zip(gaps, tracer.timed_out) if flagged]
    if len(hits) >= 10:
        print(f"timeout_eval_ms: {statistics.median(hits):.4f} ms (median of {len(hits)})")
    else:
        print(f"timeout_eval_ms: not reported, {len(hits)} timed-out evaluations (< 10)")


# -- modes --


def measure(bench: Bench, seed: int, seconds: float) -> tuple[dict, list[str]]:
    problems = bench.check_recorded()
    deadline = perf_counter() + seconds
    measured = bench.run_pass(invocation_seeds(seed), twins=True, deadline=deadline,
                              setup_samples=SETUP_SAMPLES)
    runs = measured.runs
    print(f"{len(runs)} commands, {sum(r.rows for r in runs)} evaluations, "
          f"{len(measured.setups)} set-up samples")
    slowdowns = [r.slowdown for r in runs]
    print(f"host slowdown against the reference speed: median {statistics.median(slowdowns):.3f}, "
          f"range {min(slowdowns):.3f} to {max(slowdowns):.3f}")
    for name, (value, unit) in end_to_end(runs, measured.setups, calibrated=False).items():
        print(f"uncalibrated {name}: {value} {unit}")
    return end_to_end(runs, measured.setups, calibrated=True), problems + measured.problems


def trace(bench: Bench, seed: int) -> tuple[dict, list[str]]:
    """Traced, untraced and traced again, interleaved per invocation so that
    all three see the same machine load; the traced passes' exact counts
    and all three passes' run logs must agree."""
    from tracer import Tracer

    problems = bench.check_recorded()
    seeds = [s for s, _ in zip(invocation_seeds(seed), range(bench.workload.trace_invocations))]
    tracers = [Tracer(), None, Tracer()]
    passes = [Pass(), Pass(), Pass()]
    for one_seed in seeds:
        for tracer, into in zip(tracers, passes):
            if tracer:
                tracer.install()
            try:
                done = bench.run_pass([one_seed], twins=tracer is None)
            finally:
                if tracer:
                    tracer.uninstall()
            into.runs += done.runs
            into.problems += done.problems
    first, untraced, second = passes
    for p in passes:
        problems += p.problems
    for a, u, b in zip(first.runs, untraced.runs, second.runs):
        if not a.log_sha == u.log_sha == b.log_sha:
            problems.append(f"{a.label}: traced and untraced run logs differ")
    counts_a, counts_b = tracers[0].exact_counts(), tracers[2].exact_counts()
    if counts_a != counts_b:
        diff = {k: (counts_a.get(k), counts_b.get(k)) for k in set(counts_a) | set(counts_b)
                if counts_a.get(k) != counts_b.get(k)}
        problems.append(f"exact counts differ between traced passes: {diff}")
    silent = [name for name in bench.workload.layers if not tracers[0].layers[name].calls]
    if silent:
        problems.append(f"layers recorded no call: {', '.join(silent)}")
    print_layers(tracers[0], first)
    timeout_eval_ms(tracers[0], untraced)
    return per_layer(tracers[0], first, untraced, second), problems


def print_digests() -> int:
    """Print digests.json for the current code (run after an intended change)."""
    from workloads import WORKLOADS

    out = {}
    for name, workload in WORKLOADS.items():
        with work_area() as work_dir:
            bench = Bench(workload, work_dir)
            runs = bench.run_pass([RECORDED_SEED], twins=True)
        if runs.problems:
            print("\n".join(runs.problems), file=sys.stderr)
            return 1
        out[name] = {"seed": RECORDED_SEED, "logs": {r.label: r.log_sha for r in runs.runs}}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


@contextlib.contextmanager
def work_area():
    """A private working directory inside the checkout, removed afterwards."""
    import tempfile

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    saved = tempfile.tempdir
    tempfile.tempdir = str(path)  # the external adapter's working copies go here
    try:
        yield path
    finally:
        tempfile.tempdir = saved
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "minigi" / "__init__.py").is_file():
        print(f"error: minigi sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.print_digests:
        return print_digests()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    with work_area() as work_dir:
        bench = Bench(WORKLOADS[args.workload], work_dir)
        if args.trace:
            metrics, problems = trace(bench, args.seed)
        else:
            metrics, problems = measure(bench, args.seed, args.seconds)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"error_ratio: {bench.failed / bench.attempted:.6f} "
          f"({bench.failed} of {bench.attempted} planned evaluations not logged)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
