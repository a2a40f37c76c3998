"""Per-layer tracing from outside the engine.

`Tracer.install()` rebinds each layer's public function in every module
that imported it by name, so the engine's own code is unchanged and an
untraced run pays nothing. Each wrapper is a span: calls, inclusive time
and self time (inclusive minus the time of nested spans). Counters are
read off the wrapped calls' results at the same boundaries. Everything
stays in memory until the benchmark prints it.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import minigi.cli as cli
import minigi.evaluation as evaluation
import minigi.llm as llm
import minigi.profiling as profiling
import minigi.reporting as reporting
import minigi.search as search
from minigi.lang.interpreter import Status

# layer -> the modules' names it wraps, as (owner, attribute)
SPANS = {
    "parse": [(cli, "parse_source"), (cli, "parse_test_file")],
    "profile": [(cli, "profile")],
    "search": [(cli, "random_sampling"), (cli, "local_search")],
    "draw": [(search, "sample_statement_edit"), (search, "sample_insert_edit")],
    "llm": [(search, "make_llm_edits")],
    "eval": [(evaluation, "evaluate"), (search, "evaluate")],
    "apply": [(evaluation, "apply_patch"), (search, "apply_patch")],
    "digest": [(evaluation, "source_digest"), (cli, "source_digest")],
    "validate": [(evaluation, "validate")],
    "interp": [(evaluation, "run_suite"), (profiling, "run_suite")],
    "ext": [(evaluation, "_run_command")],
    "log": [(reporting.RecordWriter, "write")],
}
LAYERS = tuple(SPANS)


@dataclass
class LayerStats:
    calls: int = 0
    raised: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.layers = {name: LayerStats() for name in LAYERS}
        self.counts: Counter = Counter()
        self.timed_out: list[bool] = []  # per evaluate() call, in call order
        self._children: list[float] = []  # child time of each open span
        self._eval_timed_out = False
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --

    def _span(self, layer: str, fn, after=None):
        stats = self.layers[layer]
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                elapsed = perf_counter() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                if not done:
                    stats.raised += 1
            if after is not None:
                after(result, args)
            return result

        return traced

    def _counted(self, key: str, fn, before=None):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if before is None or before(args):
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters read off results --

    def _after_suite(self, outcomes, _args) -> None:
        self.counts["interp.steps"] += sum(o.steps_used for o in outcomes)
        timeouts = sum(1 for o in outcomes if o.status is Status.TIMEOUT)
        self.counts["interp.timeouts"] += timeouts
        self._eval_timed_out |= timeouts > 0

    def _after_evaluate(self, _result, _args) -> None:
        self.timed_out.append(self._eval_timed_out)
        self._eval_timed_out = False

    def _after_validate(self, errors, _args) -> None:
        self.counts["validate.rejects"] += bool(errors)

    def _after_accept(self, _unit, _args) -> None:
        self.counts["search.accepted"] += 1

    def _after_command(self, _proc, _args) -> None:
        self.counts["ext.subprocesses"] += 1

    @staticmethod
    def _new_transcript(args) -> bool:
        store, digest = args[0], args[1]
        return not store.path_for(digest).exists()

    # -- installation --

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        hooks = {
            (evaluation, "run_suite"): self._after_suite,
            (profiling, "run_suite"): self._after_suite,
            (evaluation, "evaluate"): self._after_evaluate,
            (search, "evaluate"): self._after_evaluate,
            (evaluation, "validate"): self._after_validate,
            (evaluation, "_run_command"): self._after_command,
            (search, "apply_patch"): self._after_accept,  # called only on acceptance
        }
        for layer, targets in SPANS.items():
            for owner, name in targets:
                wrapper = self._span(layer, getattr(owner, name), hooks.get((owner, name)))
                self._rebind(owner, name, wrapper)
        self._rebind(llm.LlmClientBase, "complete",
                     self._counted("llm.requests", llm.LlmClientBase.complete))
        self._rebind(llm.TranscriptStore, "put",
                     self._counted("llm.transcript_writes", llm.TranscriptStore.put,
                                   self._new_transcript))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def apply_errors(self) -> int:
        return self.layers["apply"].raised

    def exact_counts(self) -> dict[str, int]:
        """Counts that depend only on the inputs, never on timing."""
        out = {f"{name}.calls": stats.calls for name, stats in self.layers.items()}
        out.update(self.counts)
        out["apply.errors"] = self.apply_errors()
        return out

