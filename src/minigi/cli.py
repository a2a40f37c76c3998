"""Command-line entry points.

Subcommands: profile, sample (random sampling), ls (local search),
report (aggregate run logs into the two tables) and replay (re-execute a
recorded run and compare logs byte for byte). Exit codes: 0 success,
1 replay mismatch, 2 configuration error, 3 infrastructure error.

Each option that fills a setting keeps its value under that setting's
field name, which is also its run-record key, and reads its default from
the setting. The parser is built once per process, at import. The values
of a --config file of key=value lines, each key an option's name with `_`
for `-`, are read as the same flags, placed before the command line's
own, so a flag wins over the file, which wins over the default, and a bad
value in the file gets argparse's own message, as the same flag would.
Every randomized command needs a seed: give one with --seed or a fresh
one is drawn and printed. `sample` and `ls` resolve their options once
into a run record, written as the log's .meta.json sidecar; `replay`
runs that record again offline. A fresh run and a replay build the run's
settings from the record the same way, and each setting refuses its own
bad values, with exit code 2, before any file is written. docs/logs.md
lists the record's keys.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from minigi.evaluation import ExternalToolchain, InfrastructureError, original_digest
from minigi.lang.ast import BaseProgram
from minigi.lang.interpreter import DEFAULT_STEP_BUDGET, parse_test_file
from minigi.lang.parser import ParseError, parse_source
from minigi.lang.printer import source_digest
from minigi.llm import MODES, ClientError, LlmClientConfig, make_client
from minigi.profiling import (
    DEFAULT_TOP_K,
    ProfileOnFailingProgramError,
    profile,
    write_profile_csv,
)
from minigi.prompts import PromptTemplate
from minigi.reporting import (
    RecordWriter,
    ReportError,
    aggregate_table1,
    aggregate_table2,
    meta_path_for,
    read_records_csv,
    read_run_meta,
    render_table1,
    render_table2,
    write_run_meta,
)
from minigi.search import (
    FAMILIES,
    LlmSearchContext,
    LocalSearchConfig,
    RandomSamplingConfig,
    SearchSetupError,
    check_families,
    check_targets,
    is_llm_family,
    local_search,
    random_sampling,
)

SAMPLE_LOG = "sample_log.csv"
LS_LOG = "ls_log.csv"
_LOGS = {"sample": SAMPLE_LOG, "ls": LS_LOG}

_CONFIGS = {"sample": RandomSamplingConfig, "ls": LocalSearchConfig}

# The keys `_run_record` writes, by command; docs/logs.md describes them.
# The search settings are the command's config fields, and each nested
# section is one dataclass's fields.
_RECORD_KEYS = {
    command: frozenset(
        {"command", "program", "tests", "adapter", "toolchain", "llm", "original_digest", "log"}
        | {f.name for f in fields(config)}
    )
    for command, config in _CONFIGS.items()
}


class ConfigError(Exception):
    pass


# -- option plumbing --


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the `what` file at `path`, or a ConfigError
    naming the file when it cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {what}: {path}: not UTF-8 text") from None


def _read_config_file(path: str, known: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    lines = _read_text(path, "config file").splitlines()
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


def _unwritable(exc: OSError, path) -> ConfigError:
    """The ConfigError for an output at `path` that cannot be written, such
    as one under an --out-dir that is a regular file; it names the path."""
    return ConfigError(f"cannot write {exc.filename or path}: {exc.strerror}")


def _load_program(path: str):
    text = _read_text(path, "program")
    try:
        return parse_source(text, name=Path(path).stem)
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_tests(path: str):
    text = _read_text(path, "tests")
    try:
        return parse_test_file(text)
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is None:
        seed = random.SystemRandom().randrange(2**31)
        print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)")
    return seed


def _profile(args: argparse.Namespace, base: BaseProgram):
    try:
        return profile(base, args.top_k, args.step_budget)
    except ValueError as exc:  # profile refuses a top_k, the interpreter a step budget, below 1
        raise ConfigError(
            f"profile (top_k {args.top_k}, step_budget {args.step_budget}): {exc}"
        ) from None


def _hot_methods(args: argparse.Namespace, base: BaseProgram) -> list[str]:
    if args.methods:
        return [m.strip() for m in args.methods.split(",") if m.strip()]
    return _profile(args, base).hot_set


# -- the run record --


def _run_record(command: str, args: argparse.Namespace, base: BaseProgram) -> dict:
    """Resolve every option that determines the run log, once.

    The record is written as the run's .meta.json and is all `replay`
    needs; docs/logs.md lists its keys. Each section holds the fields of
    one settings class, each read from the option of its name unless it is
    worked out from the input. `_settings` checks its values.
    """
    families = [token.strip() for token in args.families.split(",")] if args.families else []
    values = vars(args) | {
        "seed": _resolve_seed(args.seed),
        "families": families,
        "methods": _hot_methods(args, base),
    }

    def section(settings) -> dict:
        return {f.name: values[f.name] for f in fields(settings)}

    record = {
        "command": command,
        "program": str(Path(args.program).resolve()),
        "tests": str(Path(args.tests).resolve()),
        "adapter": args.adapter,
        "toolchain": None if args.adapter == "builtin" else section(ExternalToolchain),
        "llm": None,
        "original_digest": original_digest(base),
        "log": _LOGS[command],
        **section(_CONFIGS[command]),
    }
    if any(is_llm_family(f) for f in families):
        transcript_dir = args.transcript_dir or Path(args.out_dir) / "transcripts"
        values["transcript_dir"] = str(Path(transcript_dir).resolve())
        values["project_name"] = (
            Path(args.program).stem if args.project_name is None else args.project_name
        )
        record["llm"] = {"client": section(LlmClientConfig), "prompt": section(PromptTemplate)}
    return record


def _check_record(record, meta_path: Path) -> None:
    """ConfigError naming the sidecar unless `record` has exactly the keys
    this version writes, at every level, strings for the paths and the
    digest, the command's log name and an `adapter` that agrees with its
    `toolchain`, so a malformed or older record is never run. `_settings`
    then checks the values of the settings."""

    def fail(where: str, problem: str):
        raise ConfigError(f"{meta_path}: {where}: {problem}")

    def check(where: str, value, keys: frozenset[str]) -> None:
        if not isinstance(value, dict):
            raise ConfigError(f"{meta_path}: {where} is not a JSON object")
        problems = [f"missing key {k!r}" for k in sorted(keys - value.keys())]
        problems += [f"unknown key {k!r}" for k in sorted(value.keys() - keys)]
        if problems:
            fail(where, ", ".join(problems))

    def field_names(section) -> frozenset[str]:
        return frozenset(f.name for f in fields(section))

    command = record.get("command") if isinstance(record, dict) else None
    if type(command) is not str or command not in _RECORD_KEYS:  # a list is unhashable
        raise ConfigError(f"{meta_path}: not the record of a sample or ls run")
    check("run record", record, _RECORD_KEYS[command])
    for key in ("program", "tests", "original_digest"):
        if type(record[key]) is not str:
            fail(key, f"expected string, got {json.dumps(record[key])}")
    if record["log"] != _LOGS[command]:
        fail("log", f"a {command} run logs to {_LOGS[command]}")
    toolchain, llm = record["toolchain"], record["llm"]
    if toolchain is not None:
        check("toolchain", toolchain, field_names(ExternalToolchain))
    if record["adapter"] != ("builtin" if toolchain is None else "external"):
        raise ConfigError(f"{meta_path}: adapter {record['adapter']!r} disagrees with toolchain")
    if llm is not None:
        check("llm", llm, frozenset({"client", "prompt"}))
        check("llm.client", llm["client"], field_names(LlmClientConfig))
        check("llm.prompt", llm["prompt"], field_names(PromptTemplate))


def _settings(record: dict, unit, prefix: str = ""):
    """The search config, toolchain and LLM context of a record, for a
    fresh run and a replay alike. Each setting checks its own values; a
    value it refuses is a ConfigError that starts with `prefix` and names
    the setting, raised before any file is written."""

    def build(where: str, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except (TypeError, ValueError, SearchSetupError) as exc:
            raise ConfigError(f"{prefix}{where}: {exc}") from None

    toolchain = None
    if record["toolchain"] is not None:
        toolchain = build("toolchain", ExternalToolchain, **record["toolchain"])
    llm = None
    if record["llm"] is not None:
        client = build("llm.client", LlmClientConfig, **record["llm"]["client"])
        llm = LlmSearchContext(
            build("llm.client", make_client, client),
            build("llm.prompt", PromptTemplate, **record["llm"]["prompt"]),
        )
    command = record["command"]
    config = _CONFIGS[command]
    cfg = build(command, config, **{f.name: record[f.name] for f in fields(config)})
    build("families", check_families, cfg, llm)
    build("methods", check_targets, unit, cfg)
    return cfg, toolchain, llm


def _execute(record: dict, base: BaseProgram, out_dir: Path, settings) -> int:
    """Run a resolved record on the command's `base`, with the settings
    built from it, into `out_dir`."""
    cfg, toolchain, llm = settings
    log_path = out_dir / record["log"]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # The record goes first, inside perfbench's set-up span, which ends
        # when the writer is built; a log that cannot be opened takes it back.
        write_run_meta(log_path, record)
        try:
            writer = RecordWriter(log_path)
        except OSError:
            meta_path_for(log_path).unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise _unwritable(exc, log_path) from None
    # Read from the module's globals on each run, so a rebound driver name takes effect.
    run = random_sampling if record["command"] == "sample" else local_search
    with writer:
        records = run(base, cfg, toolchain, llm, sink=writer.write)
    print(f"wrote {len(records)} records to {log_path}")
    if record["command"] == "sample":
        print(render_table1(aggregate_table1(records, record["original_digest"])), end="")
    else:
        print(render_table2(aggregate_table2(records)), end="")
    return 0


# -- subcommands --


def _cmd_profile(args: argparse.Namespace) -> int:
    prof = _profile(args, BaseProgram(_load_program(args.program), _load_tests(args.tests)))
    out = Path(args.out_dir) / "profile.csv"
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_profile_csv(prof, out)
    except OSError as exc:
        raise _unwritable(exc, out) from None
    for rank, name in enumerate(prof.hot_set, start=1):
        print(f"{rank}. {name} ({prof.costs[name]} steps)")
    print(f"wrote {out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """`sample` and `ls`: resolve the run record, then execute it, both on
    the command's one BaseProgram."""
    base = BaseProgram(_load_program(args.program), _load_tests(args.tests))
    record = _run_record(args.command, args, base)
    return _execute(record, base, Path(args.out_dir), _settings(record, base.unit))


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
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _unwritable(exc, args.out) from None
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
        record = read_run_meta(run_dir / meta_path.name.removesuffix(".meta.json"))
        _check_record(record, meta_path)
        if record["llm"] is not None:
            record["llm"]["client"]["mode"] = "replay"
        log_name = record["log"]
        try:
            original = (run_dir / log_name).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read {run_dir / log_name}: {exc.strerror}") from None
        print(f"replaying {record['command']} run -> {out_dir / log_name}")
        unit = _load_program(record["program"])
        digest = source_digest(unit)
        if digest != record["original_digest"]:
            raise ConfigError(f"{record['program']} changed since the run was recorded")
        base = BaseProgram(unit, _load_tests(record["tests"]))
        base.digest = digest  # the command's one digest of its program
        _execute(record, base, out_dir, _settings(record, unit, f"{meta_path}: "))
        replayed = (out_dir / log_name).read_bytes()
        if original == replayed:
            print(f"{log_name}: identical")
        else:
            print(f"{log_name}: DIFFERS")
            mismatches += 1
    return 1 if mismatches else 0


# -- argument parsing --


def _input_flags() -> argparse.ArgumentParser:
    """The flags of every command that reads a program and its tests."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("program", help="MiniLang source file (.ml)")
    p.add_argument("tests", help="test file (one `test name: call == literal` per line)")
    p.add_argument("--step-budget", type=int, default=DEFAULT_STEP_BUDGET,
                   help="interpreter steps per test (default %(default)s)")
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K,
                   help="hot methods to target (default %(default)s)")
    p.add_argument("--out-dir", default="minigi-out", help="output directory (default %(default)s)")
    p.add_argument("--config", help="key=value file overriding defaults (flags win)")
    return p


def _run_flags(inputs: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The input flags plus the flags that `sample` and `ls` share."""
    p = argparse.ArgumentParser(add_help=False, parents=[inputs])
    p.add_argument("--seed", type=int, help="RNG seed; drawn and printed when omitted")
    p.add_argument("--adapter", choices=["builtin", "external"], default="builtin",
                   help="evaluation backend (default %(default)s; external commands come "
                   "from --config)")
    p.add_argument("--methods", help="comma-separated target methods (skips profiling)")
    p.add_argument("--llm-mode", dest="mode", choices=MODES, default=LlmClientConfig.mode,
                   help="LLM transport (default %(default)s)")
    p.add_argument("--model", default=LlmClientConfig.model,
                   help="model name (default %(default)s)")
    p.add_argument("--endpoint", dest="endpoint_url", default=LlmClientConfig.endpoint_url,
                   help="chat-completions endpoint URL (default %(default)s)")
    p.add_argument("--api-key-env", dest="api_key_env_var", default=LlmClientConfig.api_key_env_var,
                   help="environment variable holding the API key (default %(default)s)")
    p.add_argument("--temperature", type=float, default=LlmClientConfig.temperature,
                   help="sampling temperature (default %(default)s)")
    p.add_argument("--variants", dest="variant_count", type=int,
                   default=PromptTemplate.variant_count,
                   help="variations requested per prompt (default %(default)s)")
    p.add_argument("--transcript-dir",
                   help="LLM transcript directory (default <out-dir>/transcripts)")
    p.add_argument("--project-name",
                   help="project name substituted into prompts (default the program's file stem)")
    p.add_argument("--language", default=PromptTemplate.language,
                   help="language name used in prompts (default %(default)s)")
    p.add_argument("--code-label", default=PromptTemplate.code_label,
                   help="code-fence label requested in prompts (default %(default)s)")
    p.add_argument("--request-timeout", type=float, default=LlmClientConfig.request_timeout,
                   help="HTTP timeout for live mode, seconds (default %(default)s)")
    p.add_argument("--max-retries", type=int, default=LlmClientConfig.max_retries,
                   help="retries on rate limiting in live mode (default %(default)s)")
    p.add_argument("--timeout-ms", type=int, default=ExternalToolchain.timeout_ms,
                   help="external adapter per-test watchdog (default %(default)s)")
    p.add_argument("--measure-repeats", type=int, default=ExternalToolchain.measure_repeats,
                   help="external adapter timing repeats, median taken (default %(default)s)")
    for name in ("compile_cmd", "test_cmd", "measure_cmd"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, help=argparse.SUPPRESS)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The whole command line. Each subcommand takes its shared flags from
    a parent parser, which argparse copies without building them again."""
    parser = argparse.ArgumentParser(
        prog="minigi",
        description="Search for runtime-improving patches with classic and LLM-backed edits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = _input_flags()
    runs = _run_flags(inputs)

    p_profile = sub.add_parser("profile", help="identify hot methods", parents=[inputs])
    p_profile.set_defaults(func=_cmd_profile)

    p_sample = sub.add_parser("sample", help="random sampling experiment", parents=[runs])
    p_sample.add_argument("--family", dest="families",
                          help=f"comma-separated families: {', '.join(FAMILIES)}")
    p_sample.add_argument("--budget", type=int, default=RandomSamplingConfig.budget,
                          help="patches per family (default %(default)s)")
    p_sample.set_defaults(func=_cmd_run)

    p_ls = sub.add_parser("ls", help="local search experiment", parents=[runs])
    p_ls.add_argument("--family", dest="families", help="one family to search with")
    p_ls.add_argument("--evals", type=int, default=LocalSearchConfig.evals,
                      help="evaluations per run (default %(default)s)")
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


_PARSER = build_parser()  # shared by every main() call in the process; nothing changes it


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    """Flag > --config file > default. The parser is built once per
    process, at import, and never changed. The file's values are read as
    the same flags, one `--option=value` token per key that the subcommand
    takes, placed right after the subcommand ahead of the command line's
    own, so the command line's flag wins and a bad value is refused by
    argparse as the same flag would be."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _PARSER.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    commands = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    # A key is the option's name with `_` for `-`, whatever the `dest` it fills.
    keys = {
        name: {a.option_strings[0][2:].replace("-", "_") for a in sub._actions
               if a.option_strings and a.dest != "help"}
        for name, sub in commands.choices.items()
    }
    # One --config file may serve every subcommand, so a key that any of them takes is allowed.
    values = _read_config_file(args.config, set().union(*keys.values()))
    tokens = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()
              if key in keys[args.command]]
    at = argv.index(args.command) + 1
    return _PARSER.parse_args(argv[:at] + tokens + argv[at:])


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (ConfigError, SearchSetupError, ProfileOnFailingProgramError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfrastructureError, ClientError) as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
