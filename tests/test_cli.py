from __future__ import annotations

import json
from pathlib import Path

import pytest

from minigi.cli import main
from minigi.reporting import read_records_csv

from conftest import BENCHMARKS

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


def test_replay_of_ls_run(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(
        "ls", MAX, MAX_TESTS, "--family", "statement", "--evals", "15",
        "--seed", "9", "--methods", "max2,clamp_low", "--out-dir", str(run_dir),
    ) == 0
    capsys.readouterr()
    assert run("replay", str(run_dir), "--out-dir", str(tmp_path / "again")) == 0
    assert "identical" in capsys.readouterr().out


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
         "request_timeout must be a number above 0 seconds, got 0.0"),
        ("sample", ["--step-budget", "0", "--methods", "max2"], "",
         "step_budget must be an integer of at least 1, got 0"),
        ("sample", ["--budget", "-1"], "", "budget must be an integer of at least 1, got -1"),
        ("ls", ["--evals", "0"], "", "evals must be an integer of at least 1, got 0"),
        ("sample", ["--methods", "max2,nothere"], "", "target methods not in program: nothere"),
        ("ls", ["--family", "statement,insert"], "", "local search takes exactly one family"),
        ("sample", [], toolchain + "timeout_ms = -5\n",
         "timeout_ms must be an integer of at least 1, got -5"),
        ("sample", [], toolchain + "measure_repeats = 0\n",
         "measure_repeats must be an integer of at least 1, got 0"),
        ("sample", [], "temperature = warm\n",
         "argument --temperature: invalid float value: 'warm'"),
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


def test_exit_code_2_on_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--nonsense-flag"])
    assert excinfo.value.code == 2


def test_exit_code_3_on_transcript_miss(tmp_path, capsys):
    empty = tmp_path / "transcripts"
    empty.mkdir()
    code = run(
        "sample", SORT, SORT_TESTS, "--family", "llm-medium", "--budget", "5",
        "--seed", "1", "--llm-mode", "replay", "--transcript-dir", str(empty),
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 3
    assert "infrastructure" in capsys.readouterr().err


def test_exit_code_3_on_broken_external_toolchain(tmp_path, capsys):
    config = tmp_path / "adapter.conf"
    config.write_text(
        "adapter = external\n"
        "compile_cmd = definitely-not-a-binary-xyz {PATCHED_FILE}\n"
        "test_cmd = true\n"
        "measure_cmd = true\n"
    )
    code = run(
        "sample", MAX, MAX_TESTS, "--family", "statement", "--budget", "2",
        "--seed", "1", "--config", str(config), "--out-dir", str(tmp_path / "out"),
    )
    assert code == 3
    capsys.readouterr()


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


def _drop_budget(record):
    del record["budget"]


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


def _negative_retries(record):
    record["llm"] = _llm_section(client={"max_retries": -1})


def _retries_as_true(record):
    record["llm"] = _llm_section(client={"max_retries": True})


def _zero_request_timeout(record):
    record["llm"] = _llm_section(client={"request_timeout": 0})


def _budget_in_words(record):
    record["budget"] = "five"


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
    (_zero_prompt_variants, "llm.prompt: variant_count must be an integer of at least 1, got 0"),
    (_fractional_prompt_variants,
     "llm.prompt: variant_count must be an integer of at least 1, got 2.5"),
    (_prompt_variants_as_true,
     "llm.prompt: variant_count must be an integer of at least 1, got True"),
    (_prompt_variants_in_quotes,
     "llm.prompt: variant_count must be an integer of at least 1, got '5'"),
    (_project_name_as_number, "llm.prompt: project_name must be a string, got 5"),
    (_negative_retries, "llm.client: max_retries must be an integer of at least 0, got -1"),
    (_retries_as_true, "llm.client: max_retries must be an integer of at least 0, got True"),
    (_zero_request_timeout,
     "llm.client: request_timeout must be a number above 0 seconds, got 0"),
    (_budget_in_words, 'budget: expected integer, got "five"'),
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
