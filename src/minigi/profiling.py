"""Hot-method identification by profiling.

Costs are attributed to the function whose body is executing (self cost;
a callee's interior steps belong to the callee). Profiling runs the whole
suite once and ranks functions by self cost, ties broken by name; the
first K are the hot set. The paper unions the top-K sets of repeated
profiling runs, but the step-counting interpreter is deterministic, so
every run is the same and the union is one run's top-K.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from minigi.checks import check_count
from minigi.lang.ast import SourceUnit
from minigi.lang.interpreter import (
    DEFAULT_STEP_BUDGET,
    HARNESS_FRAME,
    Status,
    TestCase,
    run_suite,
)
from minigi.lang.semantics import validate

DEFAULT_TOP_K = 10


class ProfileOnFailingProgramError(Exception):
    pass


@dataclass
class HotMethodProfile:
    costs: dict[str, int]  # self cost in steps, by cost descending, then by name
    hot_set: list[str]  # the first top-K of `costs`


def profile(
    unit: SourceUnit,
    tests: list[TestCase],
    top_k: int = DEFAULT_TOP_K,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> HotMethodProfile:
    """Profile a passing program over its test suite; ValueError for a
    `top_k` below 1, which would slice the ranking from its end."""
    check_count("top_k", top_k)
    errors = validate(unit)
    if errors:
        raise ProfileOnFailingProgramError(f"cannot profile an invalid program ({errors[0]})")
    costs: dict[str, int] = {}
    outcomes = run_suite(unit, tests, step_budget, profile=costs)
    failing = [t.name for t, o in zip(tests, outcomes) if o.status is not Status.PASS]
    if failing:
        raise ProfileOnFailingProgramError(
            f"cannot profile a failing program (failing tests: {', '.join(failing)})"
        )
    costs.pop(HARNESS_FRAME, None)
    ranked = sorted(costs, key=lambda name: (-costs[name], name))
    return HotMethodProfile({name: costs[name] for name in ranked}, ranked[:top_k])


def write_profile_csv(prof: HotMethodProfile, path: Union[str, Path]) -> None:
    """Report rows: function, steps, hot (1 or 0), in the order of `costs`."""
    hot = set(prof.hot_set)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["function", "steps", "hot"])
        for name, steps in prof.costs.items():
            writer.writerow([name, steps, int(name in hot)])
