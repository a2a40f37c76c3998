from __future__ import annotations

from pathlib import Path

import pytest

from minigi.lang import parse_source, parse_test_file

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"
DATA = REPO_ROOT / "tests" / "data"


def load_bench(name: str, directory: Path = BENCHMARKS):
    unit = parse_source((directory / f"{name}.ml").read_text(encoding="utf-8"), name)
    tests = parse_test_file((directory / f"{name}.tests").read_text(encoding="utf-8"))
    return unit, tests


def counting_builds(monkeypatch) -> list[int]:
    """The identity of each node the interpreter builds from now on, in
    build order: one entry per call of one of its node builders."""
    import minigi.lang.interpreter as interpreter

    built: list[int] = []
    for kind, build in list(interpreter._BUILDERS.items()):
        def counted(compiler, n, *context, build=build):
            built.append(id(n))
            return build(compiler, n, *context)

        monkeypatch.setitem(interpreter._BUILDERS, kind, counted)
    return built


@pytest.fixture(scope="session")
def bench_sort():
    return load_bench("bench_sort")


@pytest.fixture(scope="session")
def bench_planted():
    return load_bench("bench_planted")


@pytest.fixture(scope="session")
def bench_loop():
    return load_bench("bench_loop")


@pytest.fixture(scope="session")
def bench_max():
    return load_bench("bench_max")


@pytest.fixture(scope="session")
def call_chain():
    """Functions that call each other (tests/data/call_chain.ml); none of
    the benchmark programs has a call between functions."""
    return load_bench("call_chain", DATA)
