"""Command-line entry points.

Subcommands: profile, sample (random sampling), ls (local search),
report (aggregate run logs into the two tables) and replay (re-execute a
recorded run and compare logs byte for byte). Exit codes: 0 success,
1 replay mismatch, 2 configuration error, 3 infrastructure error.

Every randomized command needs a seed: give one with --seed or a fresh
one is drawn and printed. `sample` and `ls` resolve their options once
into a run record, written as the log's .meta.json sidecar; `replay`
runs that record again offline. docs/logs.md lists the record's keys.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional

from minigi.evaluation import (
    DEFAULT_MEASURE_REPEATS,
    DEFAULT_TIMEOUT_MS,
    ExternalToolchain,
    InfrastructureError,
    TargetAdapter,
)
from minigi.lang.interpreter import DEFAULT_STEP_BUDGET, parse_test_file
from minigi.lang.parser import ParseError, parse_source
from minigi.lang.printer import source_digest
from minigi.llm import ClientError, LlmClientConfig, make_client
from minigi.profiling import (
    DEFAULT_TOP_K,
    ProfileOnFailingProgramError,
    profile,
    write_profile_csv,
)
from minigi.prompts import DEFAULT_MODEL, DEFAULT_TEMPERATURE, DEFAULT_VARIANT_COUNT
from minigi.reporting import (
    RecordWriter,
    ReportError,
    aggregate_table1,
    aggregate_table2,
    read_records_csv,
    read_run_meta,
    render_table1,
    render_table2,
    write_run_meta,
)
from minigi.search import (
    DEFAULT_LS_EVALS,
    DEFAULT_SAMPLE_BUDGET,
    FAMILIES,
    LlmSearchContext,
    LocalSearchConfig,
    RandomSamplingConfig,
    SearchSetupError,
    is_llm_family,
    local_search,
    random_sampling,
)

SAMPLE_LOG = "sample_log.csv"
LS_LOG = "ls_log.csv"

# The keys `_run_record` writes, by command, and the prompt keys
# `_llm_settings` writes; docs/logs.md describes them.
_RECORD_KEYS = {
    command: frozenset({
        "command", "program", "tests", "seed", "families", "step_budget", "adapter",
        "toolchain", "llm", "methods", "original_digest", "log", count,
    })
    for command, count in (("sample", "budget"), ("ls", "evals"))
}
_PROMPT_KEYS = frozenset({"project_name", "language", "code_label", "variant_count"})


class ConfigError(Exception):
    pass


# -- option plumbing --


@functools.cache
def _config_keys() -> frozenset[str]:
    """Option dests of every subcommand. One --config file may serve them
    all, so a key that any subcommand takes is allowed in it."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(
        action.dest
        for sub in commands.choices.values()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    )


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    known = _config_keys()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


class Options:
    """Flag > config file > built-in default, resolved per key."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, convert=str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            try:
                return convert(self.config[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
        return default

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        return self.get(key, default, int)


def _load_program(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read program: {exc}") from None
    try:
        return parse_source(text, name=Path(path).stem)
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_tests(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read tests: {exc}") from None
    try:
        return parse_test_file(text)
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve_seed(opts: Options) -> int:
    seed = opts.get_int("seed")
    if seed is None:
        seed = random.SystemRandom().randrange(2**31)
        print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)")
    return seed


def _out_dir(opts: Options) -> Path:
    return Path(opts.get("out_dir", "minigi-out"))


def _parse_families(opts: Options) -> list[str]:
    raw = opts.get("family")
    if not raw:
        raise ConfigError("--family is required (e.g. --family statement,insert)")
    families = []
    for token in str(raw).split(","):
        token = token.strip()
        if token == "llm":
            token = f"llm-{opts.get('prompt', 'medium')}"
        if token not in FAMILIES:
            raise ConfigError(f"unknown family {token!r}; known: {', '.join(FAMILIES)}")
        families.append(token)
    return families


def _adapter_settings(opts: Options) -> tuple[str, Optional[dict]]:
    """(adapter kind, ExternalToolchain fields or None for the builtin backend)."""
    kind = opts.get("adapter", "builtin")
    if kind == "builtin":
        return kind, None
    if kind != "external":
        raise ConfigError(f"unknown adapter {kind!r}")
    compile_cmd = opts.get("compile_cmd")
    test_cmd = opts.get("test_cmd")
    measure_cmd = opts.get("measure_cmd")
    if not (compile_cmd and test_cmd and measure_cmd):
        raise ConfigError(
            "external adapter needs compile_cmd, test_cmd and measure_cmd "
            "(set them in the --config file)"
        )
    toolchain = ExternalToolchain(
        compile_cmd=compile_cmd,
        test_cmd=test_cmd,
        measure_cmd=measure_cmd,
        timeout_ms=opts.get_int("timeout_ms", DEFAULT_TIMEOUT_MS),
        measure_repeats=opts.get_int("measure_repeats", DEFAULT_MEASURE_REPEATS),
    )
    return kind, asdict(toolchain)


def _llm_settings(
    opts: Options, families: list[str], out_dir: Path, program_path: str
) -> Optional[dict]:
    """LlmClientConfig fields under "client", the prompt's LlmSearchContext
    fields under "prompt"; None when no family asks an LLM."""
    if not any(is_llm_family(f) for f in families):
        return None
    mode = opts.get("llm_mode", "mock")
    if mode not in ("live", "replay", "mock"):
        raise ConfigError(f"unknown llm_mode {mode!r}")
    transcript_dir = opts.get("transcript_dir") or out_dir / "transcripts"
    client = LlmClientConfig(
        endpoint_url=opts.get("endpoint", "https://api.openai.com/v1/chat/completions"),
        api_key_env_var=opts.get("api_key_env", "OPENAI_API_KEY"),
        model=opts.get("model", DEFAULT_MODEL),
        temperature=opts.get("temperature", DEFAULT_TEMPERATURE, float),
        request_timeout=opts.get("request_timeout", 60.0, float),
        max_retries=opts.get_int("max_retries", 3),
        transcript_dir=str(Path(transcript_dir).resolve()),
        mode=mode,
    )
    prompt = {
        "project_name": opts.get("project_name", Path(program_path).stem),
        "language": opts.get("language", "MiniLang"),
        "code_label": opts.get("code_label", "minilang"),
        "variant_count": opts.get_int("variants", DEFAULT_VARIANT_COUNT),
    }
    return {"client": asdict(client), "prompt": prompt}


def _hot_methods(opts: Options, unit, tests, step_budget: int) -> list[str]:
    methods = opts.get("methods")
    if methods:
        names = [m.strip() for m in str(methods).split(",") if m.strip()]
        for name in names:
            if not unit.has_function(name):
                raise ConfigError(f"method {name!r} not in program")
        return names
    return profile(unit, tests, opts.get_int("top_k", DEFAULT_TOP_K), step_budget).hot_set


# -- the run record --


def _run_record(command: str, opts: Options, unit, tests, out_dir: Path) -> dict:
    """Resolve every option that determines the run log, once.

    The record is written as the run's .meta.json and is all `replay`
    needs; docs/logs.md lists its keys.
    """
    args = opts.args
    families = _parse_families(opts)
    if command == "ls" and len(families) != 1:
        raise ConfigError("local search takes exactly one --family")
    seed = _resolve_seed(opts)
    step_budget = opts.get_int("step_budget", DEFAULT_STEP_BUDGET)
    adapter, toolchain = _adapter_settings(opts)
    record = {
        "command": command,
        "program": str(Path(args.program).resolve()),
        "tests": str(Path(args.tests).resolve()),
        "seed": seed,
        "families": families,
        "step_budget": step_budget,
        "adapter": adapter,
        "toolchain": toolchain,
        "llm": _llm_settings(opts, families, out_dir, args.program),
        "methods": _hot_methods(opts, unit, tests, step_budget),
        "original_digest": source_digest(unit),
    }
    if command == "sample":
        record["budget"] = opts.get_int("budget", DEFAULT_SAMPLE_BUDGET)
        record["log"] = SAMPLE_LOG
    else:
        record["evals"] = opts.get_int("evals", DEFAULT_LS_EVALS)
        record["log"] = LS_LOG
    return record


def _check_record(record, meta_path: Path) -> None:
    """ConfigError naming the sidecar unless `record` has exactly the keys
    this version writes, so a malformed or older record is never run."""

    def check(where: str, value, keys: frozenset[str]) -> None:
        if not isinstance(value, dict):
            raise ConfigError(f"{meta_path}: {where} is not a JSON object")
        problems = [f"missing key {k!r}" for k in sorted(keys - value.keys())]
        problems += [f"unknown key {k!r}" for k in sorted(value.keys() - keys)]
        if problems:
            raise ConfigError(f"{meta_path}: {where}: {', '.join(problems)}")

    if not isinstance(record, dict) or record.get("command") not in _RECORD_KEYS:
        raise ConfigError(f"{meta_path}: not the record of a sample or ls run")
    check("run record", record, _RECORD_KEYS[record["command"]])
    toolchain, llm = record["toolchain"], record["llm"]
    if toolchain is not None:
        check("toolchain", toolchain, frozenset(f.name for f in fields(ExternalToolchain)))
    if llm is not None:
        check("llm", llm, frozenset({"client", "prompt"}))
        check("llm.client", llm["client"], frozenset(f.name for f in fields(LlmClientConfig)))
        check("llm.prompt", llm["prompt"], _PROMPT_KEYS)


def _execute(record: dict, unit, tests, out_dir: Path) -> int:
    """Run a resolved record into `out_dir`."""
    external = ExternalToolchain(**record["toolchain"]) if record["toolchain"] else None
    adapter = TargetAdapter(record["adapter"], external)
    llm = None
    if record["llm"] is not None:
        client = make_client(LlmClientConfig(**record["llm"]["client"]))
        llm = LlmSearchContext(client, **record["llm"]["prompt"])
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / record["log"]
    write_run_meta(log_path, record)
    with RecordWriter(log_path) as writer:
        if record["command"] == "sample":
            cfg = RandomSamplingConfig(
                tuple(record["families"]), record["budget"], record["seed"], record["step_budget"]
            )
            records = random_sampling(
                unit, tests, record["methods"], cfg, adapter, llm, sink=writer.write
            )
        else:
            cfg = LocalSearchConfig(
                record["families"][0], tuple(record["methods"]), record["evals"],
                record["seed"], record["step_budget"],
            )
            records = local_search(unit, tests, cfg, adapter, llm, sink=writer.write)
    print(f"wrote {len(records)} records to {log_path}")
    if record["command"] == "sample":
        print(render_table1(aggregate_table1(records, record["original_digest"])), end="")
    else:
        print(render_table2(aggregate_table2(records)), end="")
    return 0


# -- subcommands --


def _cmd_profile(args: argparse.Namespace) -> int:
    opts = Options(args)
    unit = _load_program(args.program)
    tests = _load_tests(args.tests)
    prof = profile(
        unit,
        tests,
        top_k=opts.get_int("top_k", DEFAULT_TOP_K),
        step_budget=opts.get_int("step_budget", DEFAULT_STEP_BUDGET),
    )
    out_dir = _out_dir(opts)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "profile.csv"
    write_profile_csv(prof, out)
    for rank, name in enumerate(prof.hot_set, start=1):
        print(f"{rank}. {name} ({prof.costs[name]} steps)")
    print(f"wrote {out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """`sample` and `ls`: resolve the run record, then execute it."""
    opts = Options(args)
    unit = _load_program(args.program)
    tests = _load_tests(args.tests)
    out_dir = _out_dir(opts)
    record = _run_record(args.command, opts, unit, tests, out_dir)
    return _execute(record, unit, tests, out_dir)


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_records_csv(args.log)
    if args.table == "table1":
        digest = args.original_digest
        if digest is None:
            meta = read_run_meta(args.log)
            digest = (meta or {}).get("original_digest")
        if digest is None:
            raise ConfigError(
                "table1 needs the original program digest: pass --original-digest "
                "or keep the run's .meta.json next to the log"
            )
        text = render_table1(aggregate_table1(records, digest))
    else:
        text = render_table2(aggregate_table2(records))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    metas = sorted(run_dir.glob("*.csv.meta.json"))
    if not metas:
        raise ConfigError(f"no run metadata (*.csv.meta.json) under {run_dir}")
    out_dir = Path(args.out_dir) if args.out_dir else run_dir / "replay"
    if out_dir.resolve() == run_dir.resolve():
        raise ConfigError("replay would overwrite the recorded logs; pick another --out-dir")
    mismatches = 0
    for meta_path in metas:
        try:
            record = read_run_meta(run_dir / meta_path.name.removesuffix(".meta.json"))
        except ValueError as exc:
            raise ConfigError(f"{meta_path}: not JSON: {exc}") from None
        _check_record(record, meta_path)
        if record["llm"] is not None:
            record["llm"]["client"]["mode"] = "replay"
        log_name = record["log"]
        print(f"replaying {record['command']} run -> {out_dir / log_name}")
        unit = _load_program(record["program"])
        if source_digest(unit) != record["original_digest"]:
            raise ConfigError(f"{record['program']} changed since the run was recorded")
        _execute(record, unit, _load_tests(record["tests"]), out_dir)
        original = (run_dir / log_name).read_bytes()
        replayed = (out_dir / log_name).read_bytes()
        if original == replayed:
            print(f"{log_name}: identical")
        else:
            print(f"{log_name}: DIFFERS")
            mismatches += 1
    return 1 if mismatches else 0


# -- argument parsing --


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("program", help="MiniLang source file (.ml)")
    p.add_argument("tests", help="test file (one `test name: call == literal` per line)")
    p.add_argument("--seed", type=int, help="RNG seed; drawn and printed when omitted")
    p.add_argument("--step-budget", type=int, dest="step_budget",
                   help=f"interpreter steps per test (default {DEFAULT_STEP_BUDGET})")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default minigi-out)")
    p.add_argument("--config", help="key=value file overriding defaults (flags win)")
    p.add_argument("--adapter", choices=["builtin", "external"],
                   help="evaluation backend (external commands come from --config)")
    p.add_argument("--top-k", type=int, dest="top_k",
                   help=f"hot methods to target (default {DEFAULT_TOP_K})")
    p.add_argument("--methods", help="comma-separated target methods (skips profiling)")
    p.add_argument("--llm-mode", dest="llm_mode", choices=["live", "replay", "mock"],
                   help="LLM transport (default mock)")
    p.add_argument("--prompt", choices=["simple", "medium", "detailed"],
                   help="prompt category for the bare `llm` family token")
    p.add_argument("--model", help=f"model name (default {DEFAULT_MODEL})")
    p.add_argument("--endpoint", help="chat-completions endpoint URL")
    p.add_argument("--api-key-env", dest="api_key_env",
                   help="environment variable holding the API key")
    p.add_argument("--temperature", type=float, help="sampling temperature (default 0.7)")
    p.add_argument("--variants", type=int, help="variations requested per prompt (default 5)")
    p.add_argument("--transcript-dir", dest="transcript_dir",
                   help="LLM transcript directory (default <out-dir>/transcripts)")
    p.add_argument("--project-name", dest="project_name",
                   help="project name substituted into prompts")
    p.add_argument("--language", help="language name used in prompts (default MiniLang)")
    p.add_argument("--code-label", dest="code_label",
                   help="code-fence label requested in prompts (default minilang)")
    p.add_argument("--request-timeout", type=float, dest="request_timeout",
                   help="HTTP timeout for live mode, seconds")
    p.add_argument("--max-retries", type=int, dest="max_retries",
                   help="retries on rate limiting in live mode")
    p.add_argument("--timeout-ms", type=int, dest="timeout_ms",
                   help="external adapter per-test watchdog (default 10000)")
    p.add_argument("--measure-repeats", type=int, dest="measure_repeats",
                   help="external adapter timing repeats, median taken (default 5)")
    for name in ("compile_cmd", "test_cmd", "measure_cmd"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minigi",
        description="Search for runtime-improving patches with classic and LLM-backed edits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser("profile", help="identify hot methods")
    p_profile.add_argument("program")
    p_profile.add_argument("tests")
    p_profile.add_argument("--top-k", type=int, dest="top_k")
    p_profile.add_argument("--step-budget", type=int, dest="step_budget")
    p_profile.add_argument("--out-dir", dest="out_dir")
    p_profile.add_argument("--config")
    p_profile.set_defaults(func=_cmd_profile)

    p_sample = sub.add_parser("sample", help="random sampling experiment")
    _add_common_run_flags(p_sample)
    p_sample.add_argument("--family", help="comma-separated families: statement, insert, "
                          "llm-simple, llm-medium, llm-detailed (or `llm` + --prompt)")
    p_sample.add_argument("--budget", type=int,
                          help=f"patches per family (default {DEFAULT_SAMPLE_BUDGET})")
    p_sample.set_defaults(func=_cmd_run)

    p_ls = sub.add_parser("ls", help="local search experiment")
    _add_common_run_flags(p_ls)
    p_ls.add_argument("--family", help="one family to search with")
    p_ls.add_argument("--evals", type=int,
                      help=f"evaluations per run (default {DEFAULT_LS_EVALS})")
    p_ls.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="aggregate a run log into a table")
    p_report.add_argument("table", choices=["table1", "table2"])
    p_report.add_argument("log", help="run log CSV")
    p_report.add_argument("--out", help="write the table here instead of stdout")
    p_report.add_argument("--original-digest", dest="original_digest",
                          help="canonical digest of the unpatched program (table1)")
    p_report.set_defaults(func=_cmd_report)

    p_replay = sub.add_parser("replay", help="re-execute a recorded run and compare logs")
    p_replay.add_argument("run_dir", help="directory holding run logs and .meta.json sidecars")
    p_replay.add_argument("--out-dir", dest="out_dir", help="where to write the replayed run")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SearchSetupError, ProfileOnFailingProgramError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfrastructureError, ClientError) as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
