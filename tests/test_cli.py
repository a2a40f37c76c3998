from __future__ import annotations

import json
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

import minigi.search as search
from minigi import cli
from minigi.checks import LONGEST_WAIT
from minigi.cli import main
from minigi.evaluation import ExternalToolchain
from minigi.lang.ast import BaseProgram, tree_nodes
from minigi.llm import LlmClientConfig
from minigi.prompts import PromptTemplate
from minigi.reporting import read_records_csv
from minigi.search import RandomSamplingConfig

from conftest import BENCHMARKS, REPO_ROOT, counting_builds

SORT = str(BENCHMARKS / "bench_sort.ml")
SORT_TESTS = str(BENCHMARKS / "bench_sort.tests")
MAX = str(BENCHMARKS / "bench_max.ml")
MAX_TESTS = str(BENCHMARKS / "bench_max.tests")

# The run record's keys at each level, as docs/logs.md lists them.
RECORD_KEYS = {
    "command", "program", "tests", "seed", "families", "step_budget", "adapter",
    "toolchain", "llm", "methods", "original_digest", "log",
}
TOOLCHAIN_KEYS = {"compile_cmd", "test_cmd", "measure_cmd", "timeout_ms", "measure_repeats"}
CLIENT_KEYS = {
    "mode", "endpoint_url", "api_key_env_var", "model", "temperature", "request_timeout",
    "max_retries", "transcript_dir",
}
PROMPT_KEYS = {"project_name", "language", "code_label", "variant_count"}


def run(*argv: str) -> int:
    """The exit status of `minigi ARGV`: main's return value, or the code
    that argparse exits with on a usage or option-value error."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_profile_command(tmp_path, capsys):
    code = run("profile", SORT, SORT_TESTS, "--out-dir", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("1. sort")
    csv_text = (tmp_path / "profile.csv").read_text()
    assert csv_text.startswith("function,steps,hot\nsort,")


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_profile_refuses_a_top_k_below_one(tmp_path, capsys, top_k):
    """A negative top_k would slice the ranking from its end and drop the
    last hot method without a word."""
    out_dir = tmp_path / "out"
    assert run("profile", SORT, SORT_TESTS, "--top-k", top_k, "--out-dir", str(out_dir)) == 2
    assert f"top_k must be an integer of at least 1, got {top_k}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sample_writes_log_with_budget_rows(tmp_path, capsys):
    code = run(
        "sample", MAX, MAX_TESTS, "--family", "statement",
        "--budget", "10", "--seed", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    records = read_records_csv(tmp_path / "sample_log.csv")
    assert len(records) == 10
    meta = json.loads((tmp_path / "sample_log.csv.meta.json").read_text())
    assert meta["seed"] == 3
    assert meta["families"] == ["statement"]
    out = capsys.readouterr().out
    assert "EditCategory,UniquePatches" in out


def test_sample_is_deterministic_across_runs(tmp_path):
    args = ["sample", MAX, MAX_TESTS, "--family", "statement,insert",
            "--budget", "15", "--seed", "42"]
    assert run(*args, "--out-dir", str(tmp_path / "a")) == 0
    assert run(*args, "--out-dir", str(tmp_path / "b")) == 0
    log_a = (tmp_path / "a" / "sample_log.csv").read_bytes()
    log_b = (tmp_path / "b" / "sample_log.csv").read_bytes()
    assert log_a == log_b


def test_sample_draws_and_prints_seed_when_missing(tmp_path, capsys):
    code = run(
        "sample", MAX, MAX_TESTS, "--family", "statement",
        "--budget", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("seed: ")
    meta = json.loads((tmp_path / "sample_log.csv.meta.json").read_text())
    assert isinstance(meta["seed"], int)


def test_sample_with_mock_llm_family(tmp_path):
    code = run(
        "sample", SORT, SORT_TESTS, "--family", "llm-medium",
        "--budget", "10", "--seed", "1", "--llm-mode", "mock",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    records = read_records_csv(tmp_path / "sample_log.csv")
    assert len(records) == 10
    transcripts = list((tmp_path / "transcripts").glob("*.json"))
    assert len(transcripts) == 2  # ceil(10/5) requests recorded
    meta = json.loads((tmp_path / "sample_log.csv.meta.json").read_text())
    assert meta.keys() == RECORD_KEYS | {"budget"}
    assert meta["adapter"] == "builtin" and meta["toolchain"] is None
    assert meta["llm"].keys() == {"client", "prompt"}
    assert meta["llm"]["client"].keys() == CLIENT_KEYS
    assert meta["llm"]["prompt"].keys() == PROMPT_KEYS


def test_ls_command_and_table2(tmp_path, capsys):
    code = run(
        "ls", MAX, MAX_TESTS, "--family", "statement", "--evals", "20",
        "--seed", "5", "--methods", "max2", "--out-dir", str(tmp_path),
    )
    assert code == 0
    records = read_records_csv(tmp_path / "ls_log.csv")
    assert len(records) == 20
    out = capsys.readouterr().out
    assert "EditCategory,Patches,Compiled,Passed,ImprovFound,BestImprov,Median" in out


def test_report_table1_from_log_and_meta(tmp_path, capsys):
    run(
        "sample", MAX, MAX_TESTS, "--family", "statement",
        "--budget", "8", "--seed", "2", "--out-dir", str(tmp_path),
    )
    capsys.readouterr()
    code = run("report", "table1", str(tmp_path / "sample_log.csv"))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "EditCategory,UniquePatches,UniqueValid,UniqueCompiled,UniquePassed,"
        "Patches,Valid,Compiled,Passed\n"
    )


def test_report_table1_without_digest_or_meta_fails(tmp_path, capsys):
    run(
        "sample", MAX, MAX_TESTS, "--family", "statement",
        "--budget", "4", "--seed", "2", "--out-dir", str(tmp_path),
    )
    (tmp_path / "sample_log.csv.meta.json").unlink()
    code = run("report", "table1", str(tmp_path / "sample_log.csv"))
    assert code == 2
    assert "original" in capsys.readouterr().err


def test_report_table2_writes_out_file(tmp_path):
    run(
        "ls", MAX, MAX_TESTS, "--family", "insert", "--evals", "10",
        "--seed", "1", "--methods", "max2", "--out-dir", str(tmp_path),
    )
    out_file = tmp_path / "table2.csv"
    code = run("report", "table2", str(tmp_path / "ls_log.csv"), "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("EditCategory,")


def test_replay_reproduces_run(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(
        "sample", SORT, SORT_TESTS, "--family", "statement,llm-medium",
        "--budget", "10", "--seed", "7", "--llm-mode", "mock",
        "--out-dir", str(run_dir),
    ) == 0
    capsys.readouterr()
    code = run("replay", str(run_dir), "--out-dir", str(tmp_path / "again"))
    assert code == 0
    out = capsys.readouterr().out
    assert "identical" in out
    original = (run_dir / "sample_log.csv").read_bytes()
    replayed = (tmp_path / "again" / "sample_log.csv").read_bytes()
    assert original == replayed


def test_replay_of_a_changed_log_differs(tmp_path, capsys):
    """A recorded log with one row changed is reported `<log>: DIFFERS`,
    and replay exits 1."""
    run_dir = tmp_path / "run"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "5",
        "--seed", "3", "--out-dir", str(run_dir),
    ) == 0
    log = run_dir / "sample_log.csv"
    rows = log.read_text(encoding="utf-8").splitlines(keepends=True)
    rows[-1] = rows[-1].replace("\n", "0\n")  # the last row's runtime, tenfold
    log.write_text("".join(rows), encoding="utf-8")
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 1
    out = capsys.readouterr().out.splitlines()
    assert "sample_log.csv: DIFFERS" in out and "sample_log.csv: identical" not in out, out


def test_replay_of_ls_run(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(
        "ls", MAX, MAX_TESTS, "--family", "statement", "--evals", "15",
        "--seed", "9", "--methods", "max2,clamp_low", "--out-dir", str(run_dir),
    ) == 0
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 0
    assert "identical" in capsys.readouterr().out


def counting_base_programs(monkeypatch) -> list:
    """Every BaseProgram built from now on."""
    built: list = []
    real = BaseProgram.__init__

    def init(self, unit, tests):
        built.append(self)
        real(self, unit, tests)

    monkeypatch.setattr(BaseProgram, "__init__", init)
    return built


# Each command without --methods, so that `sample` and `ls` profile first.
ONE_BASE_COMMANDS = {
    "profile": (),
    "sample": ("--family", "statement,insert,llm-medium", "--budget", "10", "--seed", "6"),
    "ls": ("--family", "statement", "--evals", "10", "--seed", "6"),
}


@pytest.mark.parametrize("command", list(ONE_BASE_COMMANDS))
def test_a_command_builds_one_base_program(tmp_path, capsys, monkeypatch, command):
    """The profile, the record's digest and every evaluation of a command
    share the BaseProgram it built when it loaded its program."""
    built = counting_base_programs(monkeypatch)
    out_dir = str(tmp_path / "run")
    assert run(command, SORT, SORT_TESTS, *ONE_BASE_COMMANDS[command], "--out-dir", out_dir) == 0
    assert len(built) == 1
    base = built[0]
    assert base.unit.name == "bench_sort" and len(base.tests) == 5
    own = {id(fn) for fn in base.unit.functions}
    assert set(base.errors) == own and base.closures and base.harness  # the profile's work
    if command != "profile":  # the record's digest printed each base function
        assert {key for key, depth in base.lines if depth == 0} == own


def test_replay_builds_one_base_program_per_record(tmp_path, capsys, monkeypatch):
    run_dir = tmp_path / "run"
    for command in ("sample", "ls"):
        assert run(command, SORT, SORT_TESTS, *ONE_BASE_COMMANDS[command],
                   "--out-dir", str(run_dir)) == 0
    built = counting_base_programs(monkeypatch)
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 0
    assert capsys.readouterr().out.count("identical") == 2
    assert len(built) == 2


@pytest.mark.parametrize("command", ["sample", "ls"])
def test_after_profiling_the_first_evaluation_builds_no_base_node(
    tmp_path, capsys, monkeypatch, command
):
    """Profiling compiles every base function the tests reach into the
    command's BaseProgram, so the driver's first evaluation builds only the
    nodes its patch made: none for the unpatched baseline of `ls`."""
    built = counting_builds(monkeypatch)
    evaluations = []  # (base, result, builds before it, builds after it)
    real = search.evaluate

    def evaluate(base, patch, *args):
        start = len(built)
        result = real(base, patch, *args)
        evaluations.append((base, result, start, len(built)))
        return result

    monkeypatch.setattr(search, "evaluate", evaluate)
    assert run(command, SORT, SORT_TESTS, *ONE_BASE_COMMANDS[command],
               "--out-dir", str(tmp_path)) == 0
    base, result, start, end = evaluations[0]
    profiled, first = set(built[:start]), set(built[start:end])
    harness = {id(n) for t in base.tests for n in tree_nodes(t.call)}
    assert profiled and profiled <= base.owned | harness
    assert result.classification.value in ("CompiledOnly", "Passed")  # its tests ran
    assert not first & base.owned
    if command == "ls":
        assert first == set()


@pytest.mark.parametrize("command", [
    ("sample", "--family", "llm-medium", "--budget", "40"),
    ("ls", "--family", "llm-medium", "--evals", "40", "--methods", "max2,clamp_low"),
])
def test_replay_of_a_run_whose_replies_vary_per_occurrence(tmp_path, capsys, monkeypatch, command):
    """The mock answers occurrence k of a prompt with k mod 3 extra empty
    blocks ahead of its default variants, as a live endpoint at a nonzero
    temperature answers a repeated prompt anew. Replay serves every
    occurrence its own reply, so the run replays byte for byte."""
    import minigi.llm as llm

    seen: dict = {}
    default = llm._default_mock_response

    def respond(prompt: str) -> str:
        k = seen[prompt] = seen.get(prompt, -1) + 1
        return "```\n{ }\n```\n" * (k % 3) + default(prompt)

    monkeypatch.setattr(llm, "_default_mock_response", respond)
    run_dir = tmp_path / "run"
    assert run(*command[:1], MAX, MAX_TESTS, *command[1:], "--seed", "5", "--llm-mode", "mock",
               "--out-dir", str(run_dir)) == 0
    transcripts = [path.name for path in (run_dir / "transcripts").iterdir()]
    assert any(name.count(".") == 2 for name in transcripts)  # a repeat got its own reply
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 0
    assert f"{command[0]}_log.csv: identical" in capsys.readouterr().out


def test_a_live_run_replays_identical(tmp_path, capsys, monkeypatch):
    """A live run against a stubbed transport, which answers occurrences 2
    and 3 of a prompt with an extra empty block ahead of the default
    variants, then 4 and 5 without it, and so on. Each changed reply gets
    its own transcript, and replay serves every occurrence without a
    request and writes the same log."""
    import minigi.llm as llm

    seen: dict = {}

    def post(url, body, headers, timeout):
        assert url == "http://127.0.0.1:9/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-stub"
        prompt = body["messages"][0]["content"]
        k = seen[prompt] = seen.get(prompt, -1) + 1
        content = "```\n{ }\n```\n" * (k // 2 % 2) + llm._default_mock_response(prompt)
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(llm, "_post_json", post)
    monkeypatch.setenv("STUB_KEY", "sk-stub")
    run_dir = tmp_path / "run"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "llm-medium", "--budget", "40", "--seed", "5",
        "--llm-mode", "live", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
        "--api-key-env", "STUB_KEY", "--out-dir", str(run_dir),
    ) == 0
    assert max(seen.values()) >= 2  # some prompt got a changed reply
    config = LlmClientConfig()
    expected = []
    for prompt, last in seen.items():
        digest = llm.request_digest(config, prompt)
        expected += [f"{digest}.json"] + [f"{digest}.{k}.json" for k in range(2, last + 1, 2)]
    assert sorted(path.name for path in (run_dir / "transcripts").iterdir()) == sorted(expected)

    def refuse(*args):
        raise AssertionError("replay sent a request")

    monkeypatch.setattr(llm, "_post_json", refuse)
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 0
    assert "sample_log.csv: identical" in capsys.readouterr().out


def test_replay_opens_only_the_transcripts_that_exist(tmp_path, capsys, monkeypatch):
    """Replay lists its store once and answers an occurrence that has no
    file from that listing: of the transcript names CI's `ls` of
    bench_planted asks for, it opens just those of the files recorded."""
    import minigi.llm as llm

    run_dir = tmp_path / "run"
    assert run(
        "ls", str(BENCHMARKS / "bench_planted.ml"), str(BENCHMARKS / "bench_planted.tests"),
        "--family", "llm-medium", "--llm-mode", "mock", "--evals", "100", "--seed", "11",
        "--out-dir", str(run_dir),
    ) == 0
    recorded = sorted(path.name for path in (run_dir / "transcripts").iterdir())
    asked, opened = [], []
    get, read_text = llm.TranscriptStore.get, llm.Path.read_text

    def counted_get(self, name):
        asked.append(name)
        return get(self, name)

    def counted_read_text(self, *args, **kwargs):
        if self.parent.name == "transcripts":
            opened.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(llm.TranscriptStore, "get", counted_get)
    monkeypatch.setattr(llm.Path, "read_text", counted_read_text)
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 0
    assert "ls_log.csv: identical" in capsys.readouterr().out
    assert sorted(opened) == recorded
    assert len(asked) > len(opened)  # the occurrences with no transcript of their own


def test_config_file_provides_defaults_flags_win(tmp_path):
    config = tmp_path / "run.conf"
    # `evals` is a key of `ls`; one file may serve several subcommands
    config.write_text("budget = 6\nseed = 10\n# comment\nevals = 4\n")
    out_a = tmp_path / "a"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "statement",
        "--config", str(config), "--out-dir", str(out_a),
    ) == 0
    assert len(read_records_csv(out_a / "sample_log.csv")) == 6
    out_b = tmp_path / "b"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "3",
        "--config", str(config), "--out-dir", str(out_b),
    ) == 0
    assert len(read_records_csv(out_b / "sample_log.csv")) == 3


def test_one_process_builds_one_parser_and_no_call_leaks_into_the_next(tmp_path, capsys):
    """The parser is built once per process and never changed: a --config
    file's values, a usage error and --help leave nothing behind for the
    next main() call in the same process."""
    config = tmp_path / "budget.conf"
    config.write_text("budget = 2\n")
    argv = ["sample", MAX, MAX_TESTS, "--family", "statement", "--seed", "1"]

    def logged_budget(out_dir: Path) -> int:
        meta = json.loads((out_dir / "sample_log.csv.meta.json").read_text())
        assert len(read_records_csv(out_dir / "sample_log.csv")) == meta["budget"]
        return meta["budget"]

    assert run(*argv, "--config", str(config), "--out-dir", str(tmp_path / "file")) == 0
    parser = cli._PARSER
    assert parser is not None
    assert logged_budget(tmp_path / "file") == 2
    assert run(*argv, "--out-dir", str(tmp_path / "default")) == 0
    assert logged_budget(tmp_path / "default") == RandomSamplingConfig.budget
    bad = tmp_path / "bad.conf"
    bad.write_text("temperature = warm\n")
    for index, (exits, code) in enumerate([
        (["sample", "--nonsense-flag"], 2),
        (["sample", "--help"], 0),
        (["--help"], 0),
        ([*argv, "--config", str(bad), "--out-dir", str(tmp_path / "bad")], 2),
    ]):
        assert run(*exits) == code, exits
        out_dir = tmp_path / f"after{index}"
        capsys.readouterr()
        assert run(*argv, "--budget", "3", "--out-dir", str(out_dir)) == 0, exits
        assert capsys.readouterr().out.startswith(f"wrote 3 records to {out_dir}")
        assert logged_budget(out_dir) == 3
    assert cli._PARSER is parser


# Each option of `sample` and `ls`: (a value that differs from its default
# and that a run accepts, its value on the base command line or None to
# leave it at its default). `out_dir` differs per run; `config` is the file.
RUN_OPTION_VALUES = {
    "step_budget": ("500000", None), "top_k": ("1", None), "seed": ("7", "1"),
    "adapter": ("external", "external"), "methods": ("clamp_low,max2", "max2"),
    "llm_mode": ("replay", None), "model": ("gpt-4", None),
    "endpoint": ("http://127.0.0.1:9/v1", None), "api_key_env": ("MINIGI_KEY", None),
    "temperature": ("0.25", None), "variants": ("2", None),
    "transcript_dir": ("other transcripts", "transcripts"),
    "project_name": ("a project", None), "language": ("Mini Lang", None),
    "code_label": ("-ml", None), "request_timeout": ("12.5", None), "max_retries": ("1", None),
    "timeout_ms": ("5000", None), "measure_repeats": ("2", None),
    "compile_cmd": ("true {PATCHED_FILE}", "true"), "test_cmd": ("true {WORKDIR}", "true"),
    "measure_cmd": ("sh -c 'echo 11'", "echo 7"),
}
RUN_COMMAND_VALUES = {
    "sample": {"family": ("statement,llm-simple", "llm-medium"), "budget": ("2", "1")},
    "ls": {"family": ("llm-simple", "llm-medium"), "evals": ("3", "2")},
}


@pytest.mark.parametrize("command", ["sample", "ls"])
def test_a_config_key_and_its_flag_are_the_same_setting(tmp_path, capsys, monkeypatch, command):
    """For every option, `key = value` in a --config file and `--key value`
    on the command line write byte-identical run records, also for values
    with spaces or a leading `-`; a refused `-5` is refused alike. Each
    value differs from its default, so a key the file lost would show."""
    values = {**RUN_OPTION_VALUES, **RUN_COMMAND_VALUES[command]}
    parser = next(a for a in cli.build_parser()._actions if a.dest == "command")
    options = {o[2:].replace("-", "_") for a in parser.choices[command]._actions
               for o in a.option_strings if o.startswith("--")}
    assert options - {"help", "config", "out_dir"} == values.keys()
    base = {key: pair[1] for key, pair in values.items() if pair[1] is not None}
    monkeypatch.chdir(tmp_path)  # the relative transcript directories resolve here

    def minigi(key: str, value: str, form: str, out_dir: Path) -> int:
        # top_k picks the methods only when --methods is missing
        dropped = {key, "methods"} if key == "top_k" else {key}
        flags = {k: v for k, v in base.items() if k not in dropped}
        argv = [command, MAX, MAX_TESTS]
        for option, given in flags.items():
            argv += [f"--{option.replace('_', '-')}", given]
        flag = f"--{key.replace('_', '-')}"
        if form == "flag":
            # argparse reads `-ml` after a flag as another flag, but `-5` as a value
            argv += [f"{flag}={value}"] if value == "-ml" else [flag, value]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"{key} = {value}\n")
            argv += ["--config", str(conf)]
        if key != "out_dir":
            argv += ["--out-dir", str(out_dir)]
        return run(*argv)

    # The base run leaves the mock transcripts that the replay-mode runs read.
    assert minigi("out_dir", str(tmp_path / "base"), "flag", tmp_path / "base") == 0
    for key in sorted(values.keys() | {"out_dir"}):
        records = []
        for form in ("flag", "file"):
            out_dir = tmp_path / key / form
            value = str(out_dir) if key == "out_dir" else values[key][0]
            assert minigi(key, value, form, out_dir) == 0, (key, form, capsys.readouterr().err)
            records.append((out_dir / f"{cli._LOGS[command]}.meta.json").read_bytes())
        assert records[0] == records[1], key
    capsys.readouterr()
    for form in ("flag", "file"):
        out_dir = tmp_path / "negative" / form
        assert minigi("temperature", "-5", form, out_dir) == 2, form
        assert "temperature must be a finite number of at least 0, got -5.0" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()


# The record values that `_run_record` works out from the input; every other
# field of a settings class is read from the option of its name.
COMPUTED_KEYS = {"seed", "families", "methods", "transcript_dir", "project_name"}


@pytest.mark.parametrize("command", ["sample", "ls"])
def test_every_field_of_a_run_setting_is_an_option_of_its_name(command):
    """A settings field without the option that fills it fails here, not
    at the first run that reads it."""
    parser = next(a for a in cli.build_parser()._actions if a.dest == "command")
    dests = {a.dest for a in parser.choices[command]._actions if a.option_strings}
    for settings in (cli._CONFIGS[command], ExternalToolchain, LlmClientConfig, PromptTemplate):
        names = {f.name for f in fields(settings)}
        assert names - COMPUTED_KEYS <= dests, (settings.__name__, names - COMPUTED_KEYS - dests)


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    assert run("sample", MAX, MAX_TESTS, "--out-dir", str(tmp_path)) == 2  # no family
    for family in ("bogus", "llm"):
        assert run(
            "sample", MAX, MAX_TESTS, "--family", family, "--out-dir", str(tmp_path)
        ) == 2
        assert f"unknown family {family!r}" in capsys.readouterr().err
    assert run(
        "sample", str(tmp_path / "missing.ml"), MAX_TESTS,
        "--family", "statement", "--out-dir", str(tmp_path),
    ) == 2
    unparsable = tmp_path / "broken.ml"
    unparsable.write_text("fn f( {")
    assert run(
        "sample", str(unparsable), MAX_TESTS,
        "--family", "statement", "--out-dir", str(tmp_path),
    ) == 2
    bad_mode = tmp_path / "bad_mode.conf"
    bad_mode.write_text("llm_mode = bogus\n")
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "llm-medium", "--config", str(bad_mode),
        "--out-dir", str(tmp_path),
    ) == 2
    assert "--llm-mode" in capsys.readouterr().err
    assert run(
        "sample", SORT, SORT_TESTS, "--family", "llm-medium", "--variants", "0",
        "--out-dir", str(tmp_path / "no_variants"),
    ) == 2
    assert not (tmp_path / "no_variants").exists()
    capsys.readouterr()
    misspelled = tmp_path / "misspelled.conf"
    misspelled.write_text("seed = 1\nstep_buget = 5\n")
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "2",
        "--config", str(misspelled), "--out-dir", str(tmp_path / "misspelled"),
    ) == 2
    err = capsys.readouterr().err
    assert f"{misspelled}:2" in err and "step_buget" in err
    # Each value below is refused, named, and leaves the out-dir unwritten.
    toolchain = "adapter = external\ncompile_cmd = true\ntest_cmd = true\nmeasure_cmd = echo 7\n"
    for command, flags, config, complaint in [
        ("sample", ["--step-budget", "0"], "", "step_budget 0"),
        ("sample", ["--top-k", "-1"], "", "top_k must be an integer of at least 1, got -1"),
        ("sample", ["--family", "llm-medium", "--max-retries", "-1"], "",
         "max_retries must be an integer of at least 0, got -1"),
        ("ls", ["--family", "llm-medium", "--request-timeout", "0"], "",
         "request_timeout must be a finite number above 0 seconds, got 0.0"),
        ("ls", ["--family", "llm-medium", "--request-timeout", "inf"], "",
         "llm.client: request_timeout must be a finite number above 0 seconds, got inf"),
        ("sample", ["--family", "llm-medium"], "request_timeout = inf\n",
         "llm.client: request_timeout must be a finite number above 0 seconds, got inf"),
        ("sample", ["--step-budget", "0", "--methods", "max2"], "",
         "step_budget must be an integer of at least 1, got 0"),
        ("sample", ["--budget", "-1"], "", "budget must be an integer of at least 1, got -1"),
        ("ls", ["--evals", "0"], "", "evals must be an integer of at least 1, got 0"),
        ("sample", ["--methods", "max2,nothere"], "", "target methods not in program: nothere"),
        ("sample", ["--methods", "max2,clamp_low,max2"], "",
         "error: sample: methods names 'max2' more than once\n"),
        ("ls", ["--methods", "max2,max2"], "", "error: ls: methods names 'max2' more than once\n"),
        ("ls", ["--family", "statement,insert"], "", "local search takes exactly one family"),
        ("sample", [], toolchain + "timeout_ms = -5\n",
         "timeout_ms must be an integer of at least 1, got -5"),
        ("sample", [], toolchain + "measure_repeats = 0\n",
         "measure_repeats must be an integer of at least 1, got 0"),
        ("sample", [], "temperature = warm\n",
         "argument --temperature: invalid float value: 'warm'"),
        ("sample", ["--family", "llm-medium", "--temperature", "nan"], "",
         "llm.client: temperature must be a finite number of at least 0, got nan"),
        ("ls", ["--family", "llm-medium", "--temperature", "-5"], "",
         "llm.client: temperature must be a finite number of at least 0, got -5.0"),
        ("sample", ["--family", "llm-medium"], "temperature = inf\n",
         "llm.client: temperature must be a finite number of at least 0, got inf"),
        ("sample", ["--family", "llm-medium", "--model", ""], "",
         "llm.client: model must be a non-empty string, got ''"),
    ]:
        out_dir = tmp_path / "refused"
        conf = tmp_path / "refused.conf"
        conf.write_text(config)
        assert run(
            command, MAX, MAX_TESTS, "--family", "statement", "--seed", "1", *flags,
            "--config", str(conf), "--out-dir", str(out_dir),
        ) == 2, flags + [config]
        assert complaint in capsys.readouterr().err
        assert not out_dir.exists()


def test_a_wait_no_platform_can_hold_is_a_config_error(tmp_path, capsys):
    """A watchdog or request timeout past LONGEST_WAIT (a C int of
    milliseconds or seconds) is refused with one `error:` line before any
    file is written; it used to fail the run's first command with exit 3
    after the record and the log header were written. The longest wait
    itself is accepted."""
    config = tmp_path / "adapter.conf"
    config.write_text(
        "adapter = external\ncompile_cmd = true\ntest_cmd = true\nmeasure_cmd = echo 7\n"
    )
    external = ["--family", "statement", "--config", str(config), "--timeout-ms"]
    llm = ["--family", "llm-medium", "--llm-mode", "live", "--request-timeout"]
    for flags, value, complaint in [
        (external, "2147483648", "toolchain: timeout_ms must be at most 2147483647, got 2147483648"),
        (external, "10000000000000000",
         "toolchain: timeout_ms must be at most 2147483647, got 10000000000000000"),
        (llm, "2147483648", "llm.client: request_timeout must be at most 2147483647 seconds,"
         " got 2147483648.0"),
        (llm, "1e10", "llm.client: request_timeout must be at most 2147483647 seconds,"
         " got 10000000000.0"),
    ]:
        out_dir = tmp_path / "refused"
        assert run(
            "sample", MAX, MAX_TESTS, "--budget", "1", "--seed", "1", *flags, value,
            "--out-dir", str(out_dir),
        ) == 2, value
        assert capsys.readouterr().err.splitlines() == [f"error: {complaint}"]
        assert not out_dir.exists()
    assert ExternalToolchain("true", "true", "echo 7", LONGEST_WAIT).timeout_ms == LONGEST_WAIT
    assert LlmClientConfig(request_timeout=LONGEST_WAIT).request_timeout == LONGEST_WAIT


def test_statement_family_needs_a_statement_to_draw_in_every_run(tmp_path, capsys):
    """Sampling draws among the target methods that have statements; a run
    with none to draw from is refused before any file is written."""
    program = tmp_path / "noop.ml"
    program.write_text("fn noop() { } fn one(x: int) -> int { return x; }")
    tests = tmp_path / "noop.tests"
    tests.write_text("test same: one(1) == 1")
    for seed in range(2, 7):
        out_dir = tmp_path / f"seed{seed}"
        assert run(
            "sample", str(program), str(tests), "--family", "statement", "--budget", "1000",
            "--methods", "noop,one", "--seed", str(seed), "--out-dir", str(out_dir),
        ) == 0
        assert len(read_records_csv(out_dir / "sample_log.csv")) == 1000
    capsys.readouterr()
    for command, methods in (("sample", "noop"), ("ls", "noop,one"), ("ls", "one,noop")):
        out_dir = tmp_path / "refused"
        assert run(
            command, str(program), str(tests), "--family", "statement", "--methods", methods,
            "--seed", "1", "--out-dir", str(out_dir),
        ) == 2
        assert "the statement family has no statement to draw in noop" in capsys.readouterr().err
        assert not out_dir.exists()


def documented_record_keys(command: str) -> set[str]:
    """The keys the two key tables of docs/logs.md give a `command` record:
    every key in a row's first column, unless the row's value starts with
    another command's "`name` only"."""
    text = (REPO_ROOT / "docs" / "logs.md").read_text(encoding="utf-8")
    keys = set()
    for heading in ("These keys determine the log:", "These keys identify the run:"):
        table = text.split(heading, 1)[1].split("\n\n")[1]
        for row in table.splitlines()[2:]:
            names, value = row.strip("|").split("|", 1)
            only = re.match(r"\s*`(\w+)` only", value)
            if only is None or only.group(1) == command:
                keys |= set(re.findall(r"`(\w+)`", names))
    return keys


@pytest.mark.parametrize("command", ["sample", "ls"])
def test_the_documented_record_keys_are_the_keys_a_record_holds(command):
    config = {f.name for f in fields(cli._CONFIGS[command])}
    assert config <= cli._RECORD_KEYS[command]
    assert documented_record_keys(command) == cli._RECORD_KEYS[command]


def test_exit_code_2_on_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--nonsense-flag"])
    assert excinfo.value.code == 2


def test_exit_code_3_on_transcript_miss(tmp_path, capsys):
    """A transcript that is missing, cannot be read (a --transcript-dir
    that is a regular file included) or holds no reply, and one that
    cannot be written, ends the run with exit code 3 and one
    `infrastructure error:` line naming the file, never a traceback and
    exit 1, which for replay means that the logs differ."""
    argv = ["sample", SORT, SORT_TESTS, "--family", "llm-medium", "--budget", "1", "--seed", "1"]
    recorded = tmp_path / "recorded"
    assert run(*argv, "--transcript-dir", str(recorded), "--out-dir", str(tmp_path / "r")) == 0
    (transcript,) = recorded.iterdir()  # the run's one request
    digest = transcript.stem

    def store(name: str, write) -> Path:
        """A store holding the recorded request's file, as `write` leaves it."""
        directory = tmp_path / name
        directory.mkdir()
        write(directory / transcript.name)
        return directory

    a_file = tmp_path / "a-file"
    a_file.write_text("")
    reads = {
        "missing": (store("missing", lambda path: None), "no transcript"),
        "store-is-a-file": (a_file, "Not a directory"),
        "directory": (store("directory", Path.mkdir), "Is a directory"),
        "not-utf8": (store("not-utf8", lambda p: p.write_bytes(b"\xff{}")), "not UTF-8"),
        "not-json": (store("not-json", lambda p: p.write_text("not json")), "not JSON"),
        "not-object": (store("not-object", lambda p: p.write_text("[]")), "not a JSON object"),
        "no-response": (
            store("no-response", lambda p: p.write_text('{"response": 5}')),
            "no string 'response'",
        ),
    }
    # The store writes through `<digest>.tmp.<pid>`; a directory there fails the write.
    tmp_taken = store("tmp-taken", lambda path: None)
    (tmp_taken / f"{digest}.tmp.{os.getpid()}").mkdir()
    writes = {"mkdir": (a_file, "File exists"), "write": (tmp_taken, "Is a directory")}
    capsys.readouterr()
    for case, (directory, problem) in {**reads, **writes}.items():
        mode = "replay" if case in reads else "mock"
        out_dir = tmp_path / "out" / case
        assert run(
            *argv, "--llm-mode", mode, "--transcript-dir", str(directory),
            "--out-dir", str(out_dir),
        ) == 3, case
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("infrastructure error: "), (case, err)
        named = digest if case == "missing" else str(directory / transcript.name)
        assert named in err[0] and problem in err[0], (case, err)


def test_exit_code_3_on_broken_external_toolchain(tmp_path, capsys):
    """A missing binary ends the run with exit code 3 and one
    `infrastructure error:` line."""
    config = tmp_path / "adapter.conf"
    config.write_text(
        "adapter = external\n"
        "compile_cmd = definitely-not-a-binary-xyz {PATCHED_FILE}\n"
        "test_cmd = true\n"
        "measure_cmd = true\n"
    )
    argv = ["sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "2", "--seed", "1"]
    code = run(*argv, "--config", str(config), "--out-dir", str(tmp_path / "out"))
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("infrastructure error: command not found:")
    assert "definitely-not-a-binary-xyz" in err[0]


@pytest.mark.parametrize("key, command, problem", [
    ("compile_cmd", 'python "unterminated {PATCHED_FILE}', "No closing quotation"),
    ("test_cmd", "true 'it''s", "No closing quotation"),
    ("measure_cmd", "echo 7 \\", "No escaped character"),
], ids=["unbalanced-double", "unbalanced-single", "trailing-backslash"])
def test_an_external_command_that_does_not_split_is_a_config_error(
    tmp_path, capsys, key, command, problem
):
    """Commands are split by shell quoting rules once, when the run's
    settings are built, so one that does not split exits 2 before any file
    is written, never with a traceback after the log was started."""
    commands = {"compile_cmd": "true", "test_cmd": "true", "measure_cmd": "echo 7", key: command}
    config = tmp_path / "adapter.conf"
    config.write_text("adapter = external\n" + "".join(f"{k} = {v}\n" for k, v in commands.items()))
    out_dir = tmp_path / "out"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "2",
        "--seed", "1", "--config", str(config), "--out-dir", str(out_dir),
    ) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: toolchain: ")
    assert f"{key} must split into words by shell quoting rules ({problem})" in err[0]
    assert not out_dir.exists()


@pytest.mark.parametrize("culprit, old, new, position", [
    ("program", "return y;", "return 2\u00b2;", "8:13"),
    ("tests", "max2(7, 3)", "max2(7, 3\u00b2)", "1:25"),
], ids=["program", "tests"])
def test_a_non_ascii_character_in_an_input_is_a_config_error(
    tmp_path, capsys, culprit, old, new, position
):
    """MiniLang source and test files are ASCII: a character that Python
    calls a digit but int() refuses exits 2 with one error line naming the
    file and the character's position, and writes nothing."""
    files = {"program": Path(MAX), "tests": Path(MAX_TESTS)}
    path = tmp_path / files[culprit].name
    path.write_text(files[culprit].read_text().replace(old, new, 1), encoding="utf-8")
    files[culprit] = path
    out_dir = tmp_path / "out"
    assert run(
        "sample", str(files["program"]), str(files["tests"]), "--family", "statement",
        "--seed", "1", "--out-dir", str(out_dir),
    ) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: {position}: unexpected character '\u00b2'"]
    assert not out_dir.exists()


@pytest.mark.parametrize("value, status, err", [
    ("clamp_low(" * 85 + "y" + ", y)" * 85, 0, None),  # y, as before
    ("1" * 5000, 2, "8:12: integer literal longer than 4300 digits"),
], ids=["calls-85", "literal-5000"])
def test_profile_reads_deep_calls_and_refuses_a_long_literal(tmp_path, capsys, value, status, err):
    """A program whose function returns 85 nested calls is profiled; one
    whose literal is past Python's int-string limit exits 2 with one
    error line at the literal, never a traceback."""
    program = tmp_path / "bench_max.ml"
    text = Path(MAX).read_text().replace("return y;", f"return {value};", 1)
    program.write_text(text)
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert run("profile", str(program), MAX_TESTS, "--out-dir", str(out_dir)) == status
    if err is not None:
        assert capsys.readouterr().err.splitlines() == [f"error: {program}: {err}"]
        assert not out_dir.exists()


def test_partial_results_survive_infrastructure_abort(tmp_path, capsys):
    flaky = tmp_path / "flaky_measure.py"
    marker = tmp_path / "calls"
    flaky.write_text(
        "import sys, pathlib\n"
        f"marker = pathlib.Path({str(marker)!r})\n"
        "n = int(marker.read_text()) if marker.exists() else 0\n"
        "marker.write_text(str(n + 1))\n"
        "if n >= 7:\n"
        "    sys.exit(99)\n"
        "print(400)\n"
    )
    import sys as _sys

    config = tmp_path / "adapter.conf"
    config.write_text(
        "adapter = external\n"
        "compile_cmd = true\n"
        "test_cmd = true\n"
        f"measure_cmd = {_sys.executable} {flaky}\n"
        "measure_repeats = 1\n"
    )
    code = run(
        "sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "20",
        "--seed", "1", "--config", str(config), "--out-dir", str(tmp_path / "out"),
    )
    capsys.readouterr()
    assert code == 3
    log_lines = (tmp_path / "out" / "sample_log.csv").read_text().splitlines()
    # header plus the rows finished before the toolchain broke
    assert len(log_lines) == 1 + 7


def test_replay_of_external_adapter_run(tmp_path, capsys):
    """The run record names the adapter and its commands, so replay drives
    the same toolchain, for `sample` and `ls`, even after the --config file
    is gone."""
    config = tmp_path / "adapter.conf"
    config.write_text(
        "adapter = external\n"
        "compile_cmd = true\n"
        "test_cmd = true\n"
        "measure_cmd = echo 7\n"
        "measure_repeats = 1\n"
    )
    run_dir = tmp_path / "run"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "6",
        "--seed", "1", "--config", str(config), "--out-dir", str(run_dir),
    ) == 0
    passed = [r for r in read_records_csv(run_dir / "sample_log.csv") if r.runtime is not None]
    assert passed and all(r.runtime == 7 for r in passed)
    assert run(
        "ls", MAX, MAX_TESTS, "--family", "statement", "--evals", "5", "--seed", "1",
        "--methods", "max2", "--config", str(config), "--out-dir", str(run_dir),
    ) == 0
    meta = json.loads((run_dir / "ls_log.csv.meta.json").read_text())
    assert meta.keys() == RECORD_KEYS | {"evals"}
    assert meta["adapter"] == "external" and meta["llm"] is None
    assert meta["toolchain"].keys() == TOOLCHAIN_KEYS
    config.unlink()
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 0
    out = capsys.readouterr().out
    assert "sample_log.csv: identical" in out and "ls_log.csv: identical" in out


def test_replay_refuses_a_changed_program(tmp_path, capsys):
    program = tmp_path / "bench_max.ml"
    program.write_text(Path(MAX).read_text())
    run_dir = tmp_path / "run"
    assert run(
        "sample", str(program), MAX_TESTS, "--family", "insert", "--budget", "3",
        "--seed", "4", "--methods", "max2", "--out-dir", str(run_dir),
    ) == 0
    program.write_text(Path(MAX).read_text() + "\nfn extra() -> int { return 0; }\n")
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 2
    assert "changed since the run was recorded" in capsys.readouterr().err


def test_replay_refuses_to_overwrite_the_recorded_run(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "insert", "--budget", "3",
        "--seed", "4", "--methods", "max2", "--out-dir", str(run_dir),
    ) == 0
    recorded = (run_dir / "sample_log.csv").read_bytes()
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(run_dir)) == 2
    assert "overwrite" in capsys.readouterr().err
    assert (run_dir / "sample_log.csv").read_bytes() == recorded


def _missing_log(run_dir):
    return ["report", "table2", str(run_dir / "absent.csv")], run_dir / "absent.csv"


def _directory_as_log(run_dir):
    (run_dir / "dir.csv").mkdir()
    return ["report", "table2", str(run_dir / "dir.csv")], run_dir / "dir.csv"


def _log_not_utf8(run_dir):
    log = run_dir / "sample_log.csv"
    log.write_bytes(log.read_bytes() + b"\xff\n")
    return ["report", "table1", str(log)], log


def _sidecar_not_json(run_dir):
    meta = run_dir / "sample_log.csv.meta.json"
    meta.write_text("notjson")
    return ["report", "table1", str(run_dir / "sample_log.csv")], meta


def _sidecar_not_an_object(run_dir):
    meta = run_dir / "sample_log.csv.meta.json"
    meta.write_text("[1,2]")
    return ["report", "table1", str(run_dir / "sample_log.csv")], meta


def _directory_as_sidecar(run_dir):
    (run_dir / "x.csv.meta.json").mkdir()
    return ["replay", str(run_dir), "--out-dir", str(run_dir.parent / "again")], (
        run_dir / "x.csv.meta.json"
    )


def _recorded_log_missing(run_dir):
    (run_dir / "sample_log.csv").unlink()
    return ["replay", str(run_dir), "--out-dir", str(run_dir.parent / "again")], (
        run_dir / "sample_log.csv"
    )


@pytest.mark.parametrize("breakage", [
    _missing_log, _directory_as_log, _log_not_utf8, _sidecar_not_json,
    _sidecar_not_an_object, _directory_as_sidecar, _recorded_log_missing,
])
def test_report_and_replay_refuse_a_file_they_cannot_read(tmp_path, capsys, breakage):
    """A log or sidecar that is missing, a directory, not UTF-8, not JSON or
    not a JSON object exits 2 with one error line naming it, never with a
    traceback and exit 1, which means that the logs differ."""
    run_dir = tmp_path / "run"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "insert", "--budget", "3",
        "--seed", "4", "--methods", "max2", "--out-dir", str(run_dir),
    ) == 0
    argv, culprit = breakage(run_dir)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(culprit) in err[0]



def _not_utf8(tmp_path, source: str) -> Path:
    """A copy of `source` behind a byte that is not UTF-8."""
    copy = tmp_path / f"latin1{Path(source).suffix}"
    copy.write_bytes(b"\xff" + Path(source).read_bytes())
    return copy


def _program_not_utf8(tmp_path, out_dir):
    program = _not_utf8(tmp_path, MAX)
    return ["sample", str(program), MAX_TESTS, "--family", "statement",
            "--seed", "1", "--out-dir", str(out_dir)], program


def _tests_not_utf8(tmp_path, out_dir):
    tests = _not_utf8(tmp_path, MAX_TESTS)
    return ["ls", MAX, str(tests), "--family", "statement", "--methods", "max2",
            "--seed", "1", "--out-dir", str(out_dir)], tests


def _config_not_utf8(tmp_path, out_dir):
    config = tmp_path / "latin1.conf"
    config.write_bytes("seed = 1\n# caf\u00e9\n".encode("latin-1"))
    return ["sample", MAX, MAX_TESTS, "--family", "statement", "--config", str(config),
            "--out-dir", str(out_dir)], config


def _profiled_program_not_utf8(tmp_path, out_dir):
    program = _not_utf8(tmp_path, MAX)
    return ["profile", str(program), MAX_TESTS, "--out-dir", str(out_dir)], program


def _replayed_program_not_utf8(tmp_path, out_dir):
    program = tmp_path / "bench_max.ml"
    program.write_text(Path(MAX).read_text())
    run_dir = tmp_path / "run"
    assert run(
        "sample", str(program), MAX_TESTS, "--family", "insert", "--budget", "3",
        "--seed", "4", "--methods", "max2", "--out-dir", str(run_dir),
    ) == 0
    program.write_bytes(b"\xff" + program.read_bytes())
    return ["replay", str(run_dir), "--out-dir", str(out_dir)], program


@pytest.mark.parametrize("breakage", [
    _program_not_utf8, _tests_not_utf8, _config_not_utf8, _profiled_program_not_utf8,
    _replayed_program_not_utf8,
])
def test_an_input_that_is_not_utf8_is_a_config_error(tmp_path, capsys, breakage):
    """A program, test or config file that is not UTF-8 exits 2 with one
    error line naming it and writes nothing, never a traceback and exit 1,
    which for replay means that the logs differ."""
    out_dir = tmp_path / "out"
    argv, culprit = breakage(tmp_path, out_dir)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(culprit) in err[0]
    assert not out_dir.exists()


def _file_as_out_dir(tmp_path, output: str):
    out_dir = tmp_path / "a-file"
    out_dir.write_text("")
    return out_dir, out_dir


def _out_dir_under_a_file(tmp_path, output: str):
    (tmp_path / "a-file").write_text("")
    out_dir = tmp_path / "a-file" / "out"
    return out_dir, out_dir


def _directory_as_output(tmp_path, output: str):
    out_dir = tmp_path / "out"
    (out_dir / output).mkdir(parents=True)
    return out_dir, out_dir / output


# Each command, and the file it writes into --out-dir.
OUT_DIR_COMMANDS = {
    "sample": ([MAX, MAX_TESTS, "--family", "insert", "--budget", "3", "--seed", "1"],
               "sample_log.csv"),
    "ls": ([MAX, MAX_TESTS, "--family", "insert", "--evals", "3", "--seed", "1",
            "--methods", "max2"], "ls_log.csv"),
    "profile": ([MAX, MAX_TESTS], "profile.csv"),
    "replay": ([], "sample_log.csv"),  # the test records the sample run to replay
}


@pytest.mark.parametrize("command", OUT_DIR_COMMANDS)
@pytest.mark.parametrize("breakage", [
    _file_as_out_dir, _out_dir_under_a_file, _directory_as_output,
])
def test_an_out_dir_that_cannot_be_written_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, breakage
):
    """An --out-dir that is a regular file, lies under one, or holds a
    directory where the output goes exits 2 with one error line naming the
    path, before any evaluation, and leaves no file behind, not even the
    run record; exit 1 would mean that replayed logs differ."""
    args, output = OUT_DIR_COMMANDS[command]
    if command == "replay":
        run_dir = tmp_path / "run"
        assert run("sample", *OUT_DIR_COMMANDS["sample"][0], "--out-dir", str(run_dir)) == 0
        args = [str(run_dir)]
    out_dir, culprit = breakage(tmp_path, output)

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated into an out-dir that cannot be written")

    monkeypatch.setattr(cli, "random_sampling", no_evaluation)
    monkeypatch.setattr(cli, "local_search", no_evaluation)
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    assert run(command, *args, "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(culprit) in err[0], err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_report_out_that_cannot_be_written_is_a_config_error(tmp_path, capsys, where):
    run_dir = tmp_path / "run"
    assert run(
        "ls", MAX, MAX_TESTS, "--family", "insert", "--evals", "5",
        "--seed", "1", "--methods", "max2", "--out-dir", str(run_dir),
    ) == 0
    out = tmp_path / "missing" / "t.csv" if where == "missing" else run_dir
    capsys.readouterr()
    assert run("report", "table2", str(run_dir / "ls_log.csv"), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]


def _drop_budget(record):
    del record["budget"]


def _command_as_list(record):
    record["command"] = ["sample"]


def _older_external_record(record):
    record["adapter"] = "external"
    record["toolchain"] = {
        "compile_cmd": "true", "test_cmd": "true", "measure_cmd": "echo 7",
        "patch_apply_cmd": None, "timeout_ms": 10000, "measure_repeats": 1,
    }


def _prose_llm_prompt(record):
    record["llm"] = {"client": {}, "prompt": "medium"}


def _external_adapter_without_toolchain(record):
    record["adapter"] = "external"


def _unknown_adapter(record):
    record["adapter"] = "quantum"


def _builtin_adapter_with_toolchain(record):
    record["toolchain"] = {
        "compile_cmd": "true", "test_cmd": "true", "measure_cmd": "echo 7",
        "timeout_ms": 10000, "measure_repeats": 1,
    }


def _llm_section(client=(), prompt=()):
    return {
        "client": {
            "endpoint_url": "http://localhost:9", "api_key_env_var": "KEY", "model": "m",
            "temperature": 0.7, "request_timeout": 1.0, "max_retries": 0,
            "transcript_dir": "transcripts", "mode": "mock", **dict(client),
        },
        "prompt": {
            "project_name": "bench_max", "language": "MiniLang", "code_label": "minilang",
            "variant_count": 5, **dict(prompt),
        },
    }


def _zero_prompt_variants(record):
    record["llm"] = _llm_section(prompt={"variant_count": 0})


def _fractional_prompt_variants(record):
    record["llm"] = _llm_section(prompt={"variant_count": 2.5})


def _prompt_variants_as_true(record):
    record["llm"] = _llm_section(prompt={"variant_count": True})


def _prompt_variants_in_quotes(record):
    record["llm"] = _llm_section(prompt={"variant_count": "5"})


def _project_name_as_number(record):
    record["llm"] = _llm_section(prompt={"project_name": 5})


def _replay_without_transcript_dir(record):
    record["llm"] = _llm_section(client={"transcript_dir": None})


def _negative_retries(record):
    record["llm"] = _llm_section(client={"max_retries": -1})


def _retries_as_true(record):
    record["llm"] = _llm_section(client={"max_retries": True})


def _zero_request_timeout(record):
    record["llm"] = _llm_section(client={"request_timeout": 0})


def _infinite_request_timeout(record):
    record["llm"] = _llm_section(client={"request_timeout": float("inf")})  # json writes Infinity


def _temperature_in_words(record):
    record["llm"] = _llm_section(client={"temperature": "hot"})


def _temperature_as_true(record):
    record["llm"] = _llm_section(client={"temperature": True})


def _negative_temperature(record):
    record["llm"] = _llm_section(client={"temperature": -0.5})


def _temperature_nan(record):
    record["llm"] = _llm_section(client={"temperature": float("nan")})  # json writes NaN


def _empty_model(record):
    record["llm"] = _llm_section(client={"model": ""})


def _model_as_number(record):
    record["llm"] = _llm_section(client={"model": 4})


def _budget_in_words(record):
    record["budget"] = "five"


def _seed_in_words(record):
    record["seed"] = "x"


def _seed_as_true(record):
    record["seed"] = True


def _families_as_one_string(record):
    record["families"] = "insert"


def _method_as_number(record):
    record["methods"] = [1]


def _method_named_twice(record):
    record["methods"] = ["max2", "max2"]


def _program_as_number(record):
    record["program"] = 5


def _log_outside_the_run(record):
    record["log"] = "../sample_log.csv"


def _zero_step_budget(record):
    record["step_budget"] = 0


def _negative_budget(record):
    record["budget"] = -1


def _method_not_in_program(record):
    record["methods"] = ["nothere"]


def _no_families(record):
    record["families"] = []


def _timeout_in_words(record):
    _builtin_adapter_with_toolchain(record)
    record["adapter"] = "external"
    record["toolchain"]["timeout_ms"] = "x"


@pytest.mark.parametrize("tamper, complaint", [
    (_drop_budget, "run record: missing key 'budget'"),
    (_command_as_list, "not the record of a sample or ls run"),
    (_zero_prompt_variants, "llm.prompt: variant_count must be an integer of at least 1, got 0"),
    (_fractional_prompt_variants,
     "llm.prompt: variant_count must be an integer of at least 1, got 2.5"),
    (_prompt_variants_as_true,
     "llm.prompt: variant_count must be an integer of at least 1, got True"),
    (_prompt_variants_in_quotes,
     "llm.prompt: variant_count must be an integer of at least 1, got '5'"),
    (_project_name_as_number, "llm.prompt: project_name must be a string, got 5"),
    (_replay_without_transcript_dir, "llm.client: replay mode needs a transcript directory"),
    (_negative_retries, "llm.client: max_retries must be an integer of at least 0, got -1"),
    (_retries_as_true, "llm.client: max_retries must be an integer of at least 0, got True"),
    (_zero_request_timeout,
     "llm.client: request_timeout must be a finite number above 0 seconds, got 0"),
    (_infinite_request_timeout,
     "llm.client: request_timeout must be a finite number above 0 seconds, got inf"),
    (_temperature_in_words,
     "llm.client: temperature must be a finite number of at least 0, got 'hot'"),
    (_temperature_as_true,
     "llm.client: temperature must be a finite number of at least 0, got True"),
    (_negative_temperature,
     "llm.client: temperature must be a finite number of at least 0, got -0.5"),
    (_temperature_nan, "llm.client: temperature must be a finite number of at least 0, got nan"),
    (_empty_model, "llm.client: model must be a non-empty string, got ''"),
    (_model_as_number, "llm.client: model must be a non-empty string, got 4"),
    (_budget_in_words, "sample: budget must be an integer of at least 1, got 'five'"),
    (_seed_in_words, "sample: seed must be an integer, got 'x'"),
    (_seed_as_true, "sample: seed must be an integer, got True"),
    (_families_as_one_string, "sample: families must be a list of strings, got 'insert'"),
    (_method_as_number, "sample: methods must be a list of strings, got [1]"),
    (_method_named_twice, "sample: methods names 'max2' more than once"),
    (_program_as_number, "program: expected string, got 5"),
    (_log_outside_the_run, "log: a sample run logs to sample_log.csv"),
    (_zero_step_budget, "sample: step_budget must be an integer of at least 1, got 0"),
    (_negative_budget, "sample: budget must be an integer of at least 1, got -1"),
    (_method_not_in_program, "methods: target methods not in program: nothere"),
    (_timeout_in_words, "toolchain: timeout_ms must be an integer of at least 1, got 'x'"),
    (_no_families, "sample: random sampling takes at least one family"),
    (_older_external_record, "toolchain: unknown key 'patch_apply_cmd'"),
    (_prose_llm_prompt, "llm.client: missing key"),
    (_external_adapter_without_toolchain, "adapter 'external' disagrees with toolchain"),
    (_unknown_adapter, "adapter 'quantum' disagrees with toolchain"),
    (_builtin_adapter_with_toolchain, "adapter 'builtin' disagrees with toolchain"),
])
def test_replay_of_a_malformed_record_is_a_config_error(tmp_path, capsys, tamper, complaint):
    """A sidecar edited by hand or written by an older version exits 2 with
    the sidecar named; exit 1 means that the logs differ."""
    run_dir = tmp_path / "run"
    assert run(
        "sample", MAX, MAX_TESTS, "--family", "insert", "--budget", "3",
        "--seed", "4", "--methods", "max2", "--out-dir", str(run_dir),
    ) == 0
    meta_path = run_dir / "sample_log.csv.meta.json"
    record = json.loads(meta_path.read_text())
    tamper(record)
    meta_path.write_text(json.dumps(record))
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 2
    err = capsys.readouterr().err
    assert str(meta_path) in err and complaint in err
    assert not (tmp_path / "again").exists()


def test_the_benchmark_tracer_sees_every_layer_and_restores_each_name(tmp_path, monkeypatch):
    """perfbench/tracer.py times each layer by rebinding the names the
    engine calls it through (`search.evaluate`, `search.apply_patch`, ...);
    a refactor that calls a layer by another name would hide it."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    names = [target for targets in module.SPANS.values() for target in targets]
    names += [(module.llm.LlmClientBase, "complete"), (module.llm.TranscriptStore, "put")]
    originals = [getattr(owner, name) for owner, name in names]
    tracer = module.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, name) is not f for (owner, name), f in zip(names, originals))
        assert run(
            "sample", MAX, MAX_TESTS, "--family", "statement,insert", "--budget", "4",
            "--seed", "3", "--out-dir", str(tmp_path),
        ) == 0
        assert run(
            "ls", str(BENCHMARKS / "bench_planted.ml"), str(BENCHMARKS / "bench_planted.tests"),
            "--family", "statement", "--methods", "poly_sum", "--evals", "20", "--seed", "1",
            "--out-dir", str(tmp_path),
        ) == 0
    finally:
        tracer.uninstall()
    for layer in ("search", "draw", "eval", "apply", "digest", "validate", "interp", "log"):
        assert tracer.layers[layer].calls > 0, layer
    assert tracer.counts["search.accepted"] > 0  # counted off `search.apply_patch`
    assert all(getattr(owner, name) is f for (owner, name), f in zip(names, originals))
