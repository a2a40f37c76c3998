"""The two experiment drivers: random sampling and local search.

Random sampling draws independent single-edit patches per operator family
under a fixed budget and evaluates each one. Local search hill-climbs per
target method: evaluation 1 times the unpatched program to establish the
baseline, then each of the remaining evaluations proposes a neighbor
(append one new edit, or drop one existing edit, 50/50), keeps it only on
a strict runtime improvement that passes all tests, and reverts
otherwise.

Every evaluation is appended to the run log as one record; the log plus
the seed and the LLM transcripts fully determine a rerun. An LLM request
returns the prompt's `variant_count` edits at once; local search queues
them and pops one per append. Queued edits were drawn against the program
of the move they were requested for, so an accepted move discards them
and the next append sends a new request: local search sends
ceil(draws/variant_count) requests only while no move is accepted, random
sampling always.

Each driver run (one `random_sampling` call, one local-search run per
method) builds one `BaseProgram` from its base program and tests and
passes it to every evaluation and to the patch application of an
accepted move. It holds the work the run's evaluations share: each
distinct LLM payload parsed once, and for each function of the base
program, keyed on the identity of the base's own `Function` object, its
canonical text, semantic errors and compiled closures, plus each test's
checked and compiled harness call. A patch leaves every function it does
not edit as the base's own object, so an evaluation prints, validates
and compiles only the functions its patch changed. The object lives no
longer than the run, and it changes no record.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from minigi.evaluation import EvaluationResult, ExternalToolchain, evaluate
from minigi.lang.ast import BaseProgram, SourceUnit
from minigi.lang.interpreter import DEFAULT_STEP_BUDGET, TestCase
from minigi.llm import LlmClientBase
from minigi.operators import (
    NoTargetStatementsError,
    sample_insert_edit,
    sample_statement_edit,
)
from minigi.patches import Patch, apply_patch, serialize_patch
from minigi.prompts import PromptCategory, PromptTemplate, make_llm_edits

FAMILIES = ("statement", "insert", "llm-simple", "llm-medium", "llm-detailed")


class SearchSetupError(Exception):
    """Configuration problem, e.g. the unpatched program fails its tests."""


def is_llm_family(family: str) -> bool:
    return family.startswith("llm-")


def family_category(family: str) -> PromptCategory:
    return PromptCategory(family.removeprefix("llm-"))


@dataclass(frozen=True)
class LlmSearchContext:
    """What LLM families need besides the search config: the client and the
    prompt settings. Each family supplies its own prompt category."""

    client: LlmClientBase
    prompt: PromptTemplate = PromptTemplate()


def check_families(families, llm: Optional[LlmSearchContext]) -> None:
    """SearchSetupError unless every family is known and an LLM family has
    its context; both drivers check their families here."""
    for family in families:
        if family not in FAMILIES:
            raise SearchSetupError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
        if is_llm_family(family) and llm is None:
            raise SearchSetupError(f"family {family!r} needs an LLM context")


def check_targets(unit: SourceUnit, methods) -> None:
    """SearchSetupError unless `methods` names at least one method and
    every one is a function of `unit`; both drivers check their targets
    here before the first draw."""
    if not methods:
        raise SearchSetupError("empty target-method list")
    missing = [name for name in methods if not unit.has_function(name)]
    if missing:
        raise SearchSetupError(f"target methods not in program: {', '.join(missing)}")


def _check_counts(**counts) -> None:
    for name, value in counts.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class RandomSamplingConfig:
    families: tuple[str, ...]
    per_family_budget: int = 1000
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if not self.families:
            raise ValueError("random sampling takes at least one family")
        _check_counts(budget=self.per_family_budget, step_budget=self.step_budget)


@dataclass(frozen=True)
class LocalSearchConfig:
    family: str
    runs: tuple[str, ...]  # target methods, one run each
    evals_per_run: int = 100
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        _check_counts(evals=self.evals_per_run, step_budget=self.step_budget)


@dataclass(frozen=True)
class EvalRecord:
    """One run-log row; the CSV schema is documented in docs/logs.md."""

    run_id: str
    eval_index: int
    patch_line: str
    classification: str
    runtime: Optional[int]


RecordSink = Callable[[EvalRecord], None]


def _record(
    run_id: str,
    index: int,
    patch: Patch,
    result: EvaluationResult,
    sink: Optional[RecordSink],
    records: list[EvalRecord],
) -> None:
    rec = EvalRecord(
        run_id=run_id,
        eval_index=index,
        patch_line=serialize_patch(patch, result.fingerprint),
        classification=result.classification.value,
        runtime=result.runtime,
    )
    records.append(rec)
    if sink is not None:
        sink(rec)


def _classic_sampler(family: str):
    return sample_statement_edit if family == "statement" else sample_insert_edit


# -- random sampling --


def random_sampling(
    unit: SourceUnit,
    tests: list[TestCase],
    hot: list[str],
    cfg: RandomSamplingConfig,
    toolchain: Optional[ExternalToolchain] = None,
    llm: Optional[LlmSearchContext] = None,
    sink: Optional[RecordSink] = None,
) -> list[EvalRecord]:
    """Draw and evaluate `per_family_budget` single-edit patches per family.

    Families are independent: each gets its own RNG stream derived from
    (seed, family), and classic draws additionally reseed per index so any
    logged patch can be re-drawn in isolation. A family's patches are all
    drawn first, then evaluated one at a time in draw order; each record
    reaches the sink as soon as its evaluation ends, so an aborted run
    leaves its finished rows behind. `toolchain` selects the external
    backend; without one, patches run on the built-in one.
    """
    check_targets(unit, hot)
    check_families(cfg.families, llm)
    records: list[EvalRecord] = []
    base = BaseProgram(unit, tests)
    for family in cfg.families:
        for index, patch in enumerate(_draw_family(unit, hot, cfg, llm, family)):
            result = evaluate(unit, patch, tests, toolchain, cfg.step_budget, base)
            _record(family, index, patch, result, sink, records)
    return records


def _draw_family(
    unit: SourceUnit,
    hot: list[str],
    cfg: RandomSamplingConfig,
    llm: Optional[LlmSearchContext],
    family: str,
) -> list[Patch]:
    if not is_llm_family(family):
        sampler = _classic_sampler(family)
        patches = []
        for i in range(cfg.per_family_budget):
            seed = f"{cfg.seed}:{family}:{i}"
            edit = sampler(unit, hot, random.Random(seed))
            patches.append(Patch(unit.name, (edit,), seed))
        return patches
    assert llm is not None
    category = family_category(family)
    patches = []
    request_index = 0
    while len(patches) < cfg.per_family_budget:
        rng = random.Random(f"{cfg.seed}:{family}:req{request_index}")
        edits = make_llm_edits(unit, hot, rng, llm.client, llm.prompt, category)
        request_index += 1
        for edit in edits:
            if len(patches) >= cfg.per_family_budget:
                break
            seed = f"{cfg.seed}:{family}:{len(patches)}"
            patches.append(Patch(unit.name, (edit,), seed))
    return patches


# -- local search --


@dataclass
class SearchState:
    current_patch: Patch
    current_runtime: int
    current_unit: SourceUnit  # current_patch applied to the base program
    llm_queue: deque = field(default_factory=deque)


def propose_neighbor(
    state: SearchState,
    family: str,
    rng: random.Random,
    target_method: str,
    llm: Optional[LlmSearchContext] = None,
) -> Patch:
    """Add-or-remove-one-edit neighborhood.

    An empty current patch always appends. Otherwise a fair coin picks
    between appending one freshly sampled edit (drawn against the current
    patched program, so its ids resolve there) and removing one uniformly
    chosen edit. If the target method has run out of statements to sample,
    the append falls back to a removal.
    """
    current = state.current_patch
    append = current.is_empty() or rng.random() < 0.5
    if append:
        try:
            edit = _draw_edit(state, family, rng, target_method, llm)
        except NoTargetStatementsError:
            if current.is_empty():
                raise
            edit = None
        if edit is not None:
            return current.with_edit(edit)
    index = rng.randrange(len(current.edits))
    return current.without_edit(index)


def _draw_edit(state, family, rng, target_method, llm):
    if not is_llm_family(family):
        return _classic_sampler(family)(state.current_unit, [target_method], rng)
    assert llm is not None
    if not state.llm_queue:
        state.llm_queue.extend(make_llm_edits(
            state.current_unit, [target_method], rng, llm.client, llm.prompt,
            family_category(family),
        ))
    return state.llm_queue.popleft()


def local_search(
    unit: SourceUnit,
    tests: list[TestCase],
    cfg: LocalSearchConfig,
    toolchain: Optional[ExternalToolchain] = None,
    llm: Optional[LlmSearchContext] = None,
    sink: Optional[RecordSink] = None,
) -> list[EvalRecord]:
    """One hill-climbing run per target method, exactly `evals_per_run`
    evaluations each, the first on the unpatched program."""
    check_targets(unit, cfg.runs)
    check_families((cfg.family,), llm)
    records: list[EvalRecord] = []
    for method in cfg.runs:
        _one_ls_run(unit, tests, cfg, toolchain, llm, method, records, sink)
    return records


def _one_ls_run(unit, tests, cfg, toolchain, llm, method, records, sink) -> None:
    run_id = f"{cfg.family}/{method}"
    run_seed = f"{cfg.seed}:ls:{cfg.family}:{method}"
    rng = random.Random(run_seed)
    empty = Patch(unit.name, (), run_seed)
    base = BaseProgram(unit, tests)
    baseline = evaluate(unit, empty, tests, toolchain, cfg.step_budget, base)
    if not baseline.passed:
        raise SearchSetupError(
            f"unpatched program fails its tests ({baseline.tests_failed} failing); "
            "local search needs a passing baseline"
        )
    _record(run_id, 0, empty, baseline, sink, records)
    assert baseline.runtime is not None
    state = SearchState(empty, baseline.runtime, unit)
    for index in range(1, cfg.evals_per_run):
        neighbor = propose_neighbor(state, cfg.family, rng, method, llm)
        result = evaluate(unit, neighbor, tests, toolchain, cfg.step_budget, base)
        _record(run_id, index, neighbor, result, sink, records)
        if result.runtime is not None and result.runtime < state.current_runtime:
            state.current_patch = neighbor
            state.current_runtime = result.runtime
            state.current_unit = apply_patch(unit, neighbor, base.payloads)
            state.llm_queue.clear()
