"""The two experiment drivers: random sampling and local search.

Random sampling draws independent single-edit patches per operator family
under a fixed budget and evaluates each one. Local search hill-climbs per
target method: evaluation 1 times the unpatched program to establish the
baseline, then each of the remaining evaluations proposes a neighbor
(append one new edit, or drop one existing edit, 50/50), keeps it only on
a strict runtime improvement that passes all tests, and reverts
otherwise.

Every evaluation is appended to the run log as one record; the log plus
the seed and the LLM transcripts fully determine a rerun. Every family
draws through `_Run.draw`: one draw is one edit for Statement and Insert,
and one LLM request, returning the prompt's `variant_count` edits, for an
LLM family. Random sampling turns each drawn edit into a patch of its
own. Local search queues a draw's edits and pops one per append. Queued
edits were drawn against the program of the move they were requested
for, so an accepted move discards them and the next append draws again:
local search sends ceil(draws/variant_count) requests only while no move
is accepted, random sampling always.

Both drivers take the command's `BaseProgram` of the base program and
tests, the one its profile and its record's digest used: every
evaluation applies its patch to that program, and an accepted move's
patch is applied to it too. It keeps the work the command's evaluations
share: each distinct LLM payload parsed once, the semantic errors of
each of the base's own `Function` objects, each test's checked and
compiled harness call, reach and stored outcome, and the printed lines
and compiled closures of every node of a base function or payload. So an
evaluation validates only the functions its patch changed, prints and
compiles only their spines and new leaves and, on the builtin backend,
runs only the tests that reach a changed function (see
`interpreter.run_suite`). What it holds depends only on the base
functions, the payloads, the tests and the step budget, so sharing it
between families and methods changes no record.

Each driver call (one `random_sampling` or `local_search` call) builds
one `_Run`, which checks the call's targets and families, draws,
evaluates and logs for every family and method of the call. It holds one
`ast.StatementSites`, so the call walks each function object it draws in
once: sampling draws against the base program, and local search against
its current program, whose functions stay the same objects until a move
that edits them is accepted. It also holds one `prompts.LlmRequests`,
which keeps each distinct LLM request's prompt, last reply and edits, so
a draw that repeats a request neither prints its block, renders its
prompt nor builds its edits again; the request itself is still sent, and
a block that an accepted move rebuilt is a new object and gets a new
entry. Nothing the `_Run` holds refers back to it, so reference counting
frees it when the call returns.

Each local-search method run also keeps, on the builtin backend, the
verdict of every edit list it has evaluated, starting with the empty
baseline, keyed by the list's log text (`Patch.text`, the edits field of
its patch line), which the patch builds once. A neighbor whose edit list
the run has seen before (a removal that returns to an earlier patch, a
rejected neighbor proposed again) is logged with that verdict and its
own patch instead of being evaluated again. The text names every field
of every edit, and an LLM payload by its SHA-256 as the log and replay
do, so equal texts are equal edit lists. A builtin verdict is a pure
function of the base program, the edit list, the tests and the step
budget, so this changes no record. The memo lives no longer than the
method's run. The external backend measures runtime by wall clock, so it
evaluates every neighbor; random sampling evaluates every patch.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from minigi.checks import check_count
from minigi.evaluation import EvaluationResult, ExternalToolchain, evaluate
from minigi.lang.ast import BaseProgram, SourceUnit, StatementSites, record
from minigi.lang.interpreter import DEFAULT_STEP_BUDGET
from minigi.llm import LlmClientBase
from minigi.operators import (
    NoTargetStatementsError,
    sample_insert_edit,
    sample_statement_edit,
    statement_targets,
)
from minigi.patches import Edit, Patch, apply_patch, serialize_patch
from minigi.prompts import LlmRequests, PromptCategory, PromptTemplate, make_llm_edits

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


@dataclass(frozen=True)
class SearchConfig:
    """The settings both drivers take, each named as the run record's key
    that holds it (docs/logs.md); each driver's config adds its count.
    Construction refuses `families` or `methods` that is not a list of
    strings, a method named twice, a `seed` that is not an integer and a
    count below 1, and stores both lists as tuples."""

    families: tuple[str, ...]
    methods: tuple[str, ...]  # target methods
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        for name in ("families", "methods"):
            value = getattr(self, name)
            if type(value) not in (list, tuple) or any(type(v) is not str for v in value):
                raise ValueError(f"{name} must be a list of strings, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for index, name in enumerate(self.methods):
            if name in self.methods[:index]:
                raise ValueError(f"methods names {name!r} more than once")
        if type(self.seed) is not int:  # a JSON true is no seed
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        check_count("step_budget", self.step_budget)


@dataclass(frozen=True)
class RandomSamplingConfig(SearchConfig):
    budget: int = 1000  # patches per family

    def __post_init__(self):
        super().__post_init__()
        if not self.families:
            raise ValueError("random sampling takes at least one family")
        check_count("budget", self.budget)


@dataclass(frozen=True)
class LocalSearchConfig(SearchConfig):
    evals: int = 100  # evaluations per method, the baseline included

    def __post_init__(self):
        super().__post_init__()
        if len(self.families) != 1:
            raise ValueError("local search takes exactly one family")
        check_count("evals", self.evals)


def check_families(cfg: SearchConfig, llm: Optional[LlmSearchContext]) -> None:
    """SearchSetupError unless every family is known and an LLM family has
    its context; both drivers check their families here."""
    for family in cfg.families:
        if family not in FAMILIES:
            raise SearchSetupError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
        if is_llm_family(family) and llm is None:
            raise SearchSetupError(f"family {family!r} needs an LLM context")


def check_targets(unit: SourceUnit, cfg: SearchConfig) -> None:
    """SearchSetupError unless `cfg.methods` names at least one method,
    every one a function of `unit`, and unless the Statement family, when
    in `cfg.families`, has a statement to draw in every run: in one of the
    methods when they share a run (sampling), in each method when each has
    its own (local search). Both drivers check their targets here before
    the first draw."""
    if not cfg.methods:
        raise SearchSetupError("empty target-method list")
    missing = [name for name in cfg.methods if not unit.has_function(name)]
    if missing:
        raise SearchSetupError(f"target methods not in program: {', '.join(missing)}")
    if "statement" in cfg.families:
        one_run_each = isinstance(cfg, LocalSearchConfig)
        for hot in [[name] for name in cfg.methods] if one_run_each else [cfg.methods]:
            if not statement_targets(unit, hot):
                raise SearchSetupError(
                    f"the statement family has no statement to draw in {', '.join(hot)}"
                )


@record
class EvalRecord:
    """One run-log row; the CSV schema is documented in docs/logs.md."""

    run_id: str
    eval_index: int
    patch_line: str
    classification: str
    runtime: Optional[int]


RecordSink = Callable[[EvalRecord], None]


class _Run:
    """One driver call: its checked settings, the command's `BaseProgram`,
    which the call holds and does not build, one `StatementSites`, one
    `LlmRequests` and the records logged so far (see the module
    docstring). Evaluation goes through the module's `evaluate`, so
    whoever rebinds that name sees every evaluation."""

    __slots__ = ("base", "cfg", "toolchain", "llm", "sink", "sites", "requests", "records")

    def __init__(
        self, base: BaseProgram, cfg: SearchConfig,
        toolchain: Optional[ExternalToolchain], llm: Optional[LlmSearchContext],
        sink: Optional[RecordSink],
    ):
        check_targets(base.unit, cfg)
        check_families(cfg, llm)
        self.base = base
        self.cfg = cfg
        self.toolchain = toolchain
        self.llm = llm
        self.sink = sink
        self.sites = StatementSites()
        self.requests: LlmRequests = {}
        self.records: list[EvalRecord] = []

    def draw(
        self, family: str, unit: SourceUnit, hot: Sequence[str], rng: random.Random
    ) -> list[Edit]:
        """One draw of `family` against `unit`: a one-edit list for a
        classic family, an LLM request's `variant_count` edits for an LLM
        family."""
        if family == "statement":
            return [sample_statement_edit(unit, hot, rng, self.sites)]
        if family == "insert":
            return [sample_insert_edit(unit, hot, rng, self.sites)]
        llm, category = self.llm, family_category(family)
        assert llm is not None
        return make_llm_edits(
            unit, hot, rng, llm.client, llm.prompt, category, self.sites, self.requests
        )

    def evaluate(self, patch: Patch) -> EvaluationResult:
        return evaluate(self.base, patch, self.toolchain, self.cfg.step_budget)

    def log(self, run_id: str, index: int, patch: Patch, result: EvaluationResult) -> None:
        rec = EvalRecord(
            run_id, index, serialize_patch(patch, result.fingerprint),
            result.classification.value, result.runtime,
        )
        self.records.append(rec)
        if self.sink is not None:
            self.sink(rec)


# -- random sampling --


def random_sampling(
    base: BaseProgram,
    cfg: RandomSamplingConfig,
    toolchain: Optional[ExternalToolchain] = None,
    llm: Optional[LlmSearchContext] = None,
    sink: Optional[RecordSink] = None,
) -> list[EvalRecord]:
    """Draw and evaluate `budget` single-edit patches per family of
    `base.unit`, each against the tests `base.tests`.

    Families are independent: draw k of a family seeds its own RNG from
    (seed, family, k), so any draw can be repeated in isolation. A classic
    draw is one patch, whose index is k; an LLM draw is one request, its
    seed marked "req", whose edits become consecutive patches. A family's
    patches are all drawn first, then evaluated one at a time in draw
    order; each record reaches the sink as soon as its evaluation ends, so
    an aborted run leaves its finished rows behind. `toolchain` selects
    the external backend; without one, patches run on the built-in one.
    """
    run = _Run(base, cfg, toolchain, llm, sink)
    for family in cfg.families:
        for index, patch in enumerate(_draw_family(run, family)):
            run.log(family, index, patch, run.evaluate(patch))
    return run.records


def _draw_family(run: _Run, family: str) -> list[Patch]:
    cfg, unit = run.cfg, run.base.unit
    label = "req" if is_llm_family(family) else ""
    patches: list[Patch] = []
    draw = 0
    while len(patches) < cfg.budget:
        rng = random.Random(f"{cfg.seed}:{family}:{label}{draw}")
        draw += 1
        for edit in run.draw(family, unit, cfg.methods, rng)[: cfg.budget - len(patches)]:
            seed = f"{cfg.seed}:{family}:{len(patches)}"
            patches.append(Patch(unit.name, (edit,), seed))
    return patches


# -- local search --


@dataclass
class SearchState:
    current_patch: Patch
    current_runtime: int
    current_unit: SourceUnit  # current_patch applied to the base program
    queue: deque = field(default_factory=deque)  # edits drawn, not yet appended


def propose_neighbor(
    run: _Run, state: SearchState, family: str, rng: random.Random, target_method: str
) -> Patch:
    """Add-or-remove-one-edit neighborhood.

    An empty current patch always appends. Otherwise a fair coin picks
    between appending one edit and removing one uniformly chosen edit. An
    append pops the next edit from the state's queue, drawing first when
    the queue is empty, against the current patched program so that the
    edit's ids resolve there. If the target method has run out of
    statements to sample, the append falls back to a removal.
    """
    current = state.current_patch
    if current.is_empty() or rng.random() < 0.5:
        try:
            if not state.queue:
                state.queue.extend(run.draw(family, state.current_unit, [target_method], rng))
            return current.with_edit(state.queue.popleft())
        except NoTargetStatementsError:
            if current.is_empty():
                raise
    index = rng.randrange(len(current.edits))
    return current.without_edit(index)


def local_search(
    base: BaseProgram,
    cfg: LocalSearchConfig,
    toolchain: Optional[ExternalToolchain] = None,
    llm: Optional[LlmSearchContext] = None,
    sink: Optional[RecordSink] = None,
) -> list[EvalRecord]:
    """One hill-climbing run of `base.unit` per target method, exactly
    `evals` evaluations each against `base.tests`, the first on the
    unpatched program."""
    run = _Run(base, cfg, toolchain, llm, sink)
    for method in cfg.methods:
        _one_ls_run(run, method)
    return run.records


def _one_ls_run(run: _Run, method: str) -> None:
    unit, cfg = run.base.unit, run.cfg
    (family,) = cfg.families
    run_id = f"{family}/{method}"
    run_seed = f"{cfg.seed}:ls:{family}:{method}"
    rng = random.Random(run_seed)
    empty = Patch(unit.name, (), run_seed)
    baseline = run.evaluate(empty)
    if not baseline.passed:
        raise SearchSetupError(
            f"unpatched program fails its tests ({baseline.reason}); "
            "local search needs a passing baseline"
        )
    run.log(run_id, 0, empty, baseline)
    assert baseline.runtime is not None
    state = SearchState(empty, baseline.runtime, unit)
    # Builtin verdicts by the edit list's log text (see the module
    # docstring); stays empty on the external backend.
    verdicts = {empty.text: baseline} if run.toolchain is None else {}
    for index in range(1, cfg.evals):
        neighbor = propose_neighbor(run, state, family, rng, method)
        result = verdicts.get(neighbor.text)
        if result is None:
            result = run.evaluate(neighbor)
            if run.toolchain is None:
                verdicts[neighbor.text] = result
        run.log(run_id, index, neighbor, result)
        if result.runtime is not None and result.runtime < state.current_runtime:
            state.current_patch = neighbor
            state.current_runtime = result.runtime
            state.current_unit = apply_patch(unit, neighbor, run.base)
            state.queue.clear()
