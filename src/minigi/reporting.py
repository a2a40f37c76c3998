"""Run-log aggregation into the two report tables, plus log/meta file IO.

The random-sampling table reports, per edit family, how many patches were
drawn, how many were valid, compiled and passed, both over all drawn
patches and over unique patches only. Patches syntactically equivalent to
the original program are excluded from every column. Uniqueness is keyed
on the patched program's canonical digest; patches that never applied
have no digest and are keyed on their edit script instead.

The local-search table reports, per family, the non-empty patches
evaluated, how many compiled and passed, how many improved on their run's
baseline, and the best and median improvement among improving patches
(absent when nothing improved). Empty patches, the per-run baseline
evaluation included, are excluded.

Aggregation is a pure fold over log records: rerunning a report never
changes anything.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from minigi.evaluation import Classification
from minigi.patches import split_patch_line
from minigi.search import FAMILIES, EvalRecord

LOG_COLUMNS = ["runId", "evalIndex", "patch", "classification", "runtime"]
TABLE1_COLUMNS = [
    "EditCategory",
    "UniquePatches", "UniqueValid", "UniqueCompiled", "UniquePassed",
    "Patches", "Valid", "Compiled", "Passed",
]
TABLE2_COLUMNS = [
    "EditCategory", "Patches", "Compiled", "Passed",
    "ImprovFound", "BestImprov", "Median",
]

# Table row names, one per family of search.FAMILIES, in its order.
FAMILY_DISPLAY = dict(zip(FAMILIES, ("Statement", "Insert", "Simple", "Medium", "Detailed")))

CLASSIFICATIONS = tuple(c.value for c in Classification)
_INVALID = Classification.INVALID.value
_PASSED = Classification.PASSED.value
_COMPILED = (Classification.COMPILED_ONLY.value, _PASSED)


class ReportError(Exception):
    pass


@dataclass(frozen=True)
class LadderCounts:
    patches: int = 0
    valid: int = 0
    compiled: int = 0
    passed: int = 0

    def add(self, classification: str) -> "LadderCounts":
        return LadderCounts(
            self.patches + 1,
            self.valid + (classification != _INVALID),
            self.compiled + (classification in _COMPILED),
            self.passed + (classification == _PASSED),
        )


@dataclass(frozen=True)
class ImprovementStats:
    found: int
    best: Optional[Union[int, float]]
    median: Optional[Union[int, float]]


@dataclass(frozen=True)
class RunReport:
    family: str  # token, e.g. "llm-medium"
    all_counts: LadderCounts
    unique_counts: Optional[LadderCounts] = None  # random sampling only
    improvements: Optional[ImprovementStats] = None  # local search only

    @property
    def display_name(self) -> str:
        return FAMILY_DISPLAY.get(self.family, self.family)


def _family_of(record: EvalRecord) -> str:
    return record.run_id.split("/", 1)[0]


def _parse_record(record: EvalRecord, row: int) -> tuple[str, str, bool]:
    """(fingerprint-or-invalid, edits text, is_empty) with row-indexed errors."""
    try:
        _seed, edits, digest = split_patch_line(record.patch_line)
    except ValueError as exc:
        raise ReportError(f"row {row}: {exc}") from None
    if record.classification not in CLASSIFICATIONS:
        raise ReportError(f"row {row}: unknown classification {record.classification!r}")
    return digest, edits, not edits.strip()


def _ordered_families(seen: Sequence[str]) -> list[str]:
    known = [f for f in FAMILIES if f in seen]
    extra = sorted(set(seen) - set(FAMILIES))
    return known + extra


def aggregate_table1(records: Sequence[EvalRecord], original_digest: str) -> list[RunReport]:
    """Random-sampling report; excludes patches equivalent to the original."""
    all_counts: dict[str, LadderCounts] = {}
    unique_counts: dict[str, LadderCounts] = {}
    seen_keys: dict[str, set[str]] = {}
    for row, record in enumerate(records, start=1):
        digest, edits, _empty = _parse_record(record, row)
        if digest == original_digest:
            continue
        family = _family_of(record)
        key = digest if digest != "invalid" else f"invalid:{edits}"
        all_counts[family] = all_counts.get(family, LadderCounts()).add(record.classification)
        keys = seen_keys.setdefault(family, set())
        if key not in keys:
            keys.add(key)
            unique_counts[family] = unique_counts.get(family, LadderCounts()).add(
                record.classification
            )
    return [
        RunReport(f, all_counts[f], unique_counts.get(f, LadderCounts()))
        for f in _ordered_families(list(all_counts))
    ]


def aggregate_table2(records: Sequence[EvalRecord]) -> list[RunReport]:
    """Local-search report; improvement is relative to each run's baseline.
    `statistics` loads here, not with the module: only `ls` tables need it."""
    import statistics

    baselines: dict[str, int] = {}
    for row, record in enumerate(records, start=1):
        if record.eval_index == 0:
            _digest, _edits, empty = _parse_record(record, row)
            if not empty:
                raise ReportError(f"row {row}: evaluation 0 of {record.run_id} is not empty")
            if record.runtime is None:
                raise ReportError(f"row {row}: baseline of {record.run_id} has no runtime")
            baselines[record.run_id] = record.runtime

    all_counts: dict[str, LadderCounts] = {}
    deltas: dict[str, list[int]] = {}
    for row, record in enumerate(records, start=1):
        _digest, _edits, empty = _parse_record(record, row)
        if empty:
            continue
        if record.run_id not in baselines:
            raise ReportError(f"row {row}: run {record.run_id} has no baseline evaluation")
        family = _family_of(record)
        all_counts[family] = all_counts.get(family, LadderCounts()).add(record.classification)
        if record.classification == _PASSED and record.runtime is not None:
            delta = baselines[record.run_id] - record.runtime
            if delta > 0:
                deltas.setdefault(family, []).append(delta)

    reports = []
    for family in _ordered_families(list(all_counts)):
        family_deltas = deltas.get(family, [])
        stats = ImprovementStats(
            found=len(family_deltas),
            best=max(family_deltas) if family_deltas else None,
            median=statistics.median(family_deltas) if family_deltas else None,
        )
        reports.append(RunReport(family, all_counts[family], improvements=stats))
    return reports


# -- rendering --


def _fmt_number(value: Optional[Union[int, float]]) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def render_table1(reports: Sequence[RunReport]) -> str:
    lines = [",".join(TABLE1_COLUMNS)]
    for rep in reports:
        u, a = rep.unique_counts, rep.all_counts
        lines.append(
            ",".join(
                [rep.display_name]
                + [str(x) for x in (u.patches, u.valid, u.compiled, u.passed)]
                + [str(x) for x in (a.patches, a.valid, a.compiled, a.passed)]
            )
        )
    return "\n".join(lines) + "\n"


def render_table2(reports: Sequence[RunReport]) -> str:
    lines = [",".join(TABLE2_COLUMNS)]
    for rep in reports:
        a = rep.all_counts
        imp = rep.improvements or ImprovementStats(0, None, None)
        lines.append(
            ",".join(
                [rep.display_name, str(a.patches), str(a.compiled), str(a.passed)]
                + [str(imp.found), _fmt_number(imp.best), _fmt_number(imp.median)]
            )
        )
    return "\n".join(lines) + "\n"


# -- run-log files --


def _record_row(rec: EvalRecord) -> list[str]:
    return [
        rec.run_id,
        str(rec.eval_index),
        rec.patch_line,
        rec.classification,
        "" if rec.runtime is None else str(rec.runtime),
    ]


class RecordWriter:
    """Incremental log writer; rows hit the disk as they are produced."""

    def __init__(self, path: Union[str, Path]):
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(LOG_COLUMNS)
        self._fh.flush()

    def write(self, rec: EvalRecord) -> None:
        self._writer.writerow(_record_row(rec))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _unreadable(path: Union[str, Path], exc: Exception) -> ReportError:
    why = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
    return ReportError(f"cannot read {path}: {why}")


def read_records_csv(path: Union[str, Path]) -> list[EvalRecord]:
    """The records of a run log; ReportError for a file that cannot be
    read or is no run log."""
    records: list[EvalRecord] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != LOG_COLUMNS:
                raise ReportError(f"row 1: bad header {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(LOG_COLUMNS):
                    raise ReportError(
                        f"row {lineno}: expected {len(LOG_COLUMNS)} fields, got {len(row)}"
                    )
                run_id, eval_index, patch_line, classification, runtime = row
                try:
                    index = int(eval_index)
                    rt = int(runtime) if runtime else None
                except ValueError as exc:
                    raise ReportError(f"row {lineno}: {exc}") from None
                records.append(EvalRecord(run_id, index, patch_line, classification, rt))
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None
    return records


# -- sidecar metadata --


def meta_path_for(log_path: Union[str, Path]) -> Path:
    path = Path(log_path)
    return path.with_name(path.name + ".meta.json")


def write_run_meta(log_path: Union[str, Path], meta: dict) -> None:
    meta_path_for(log_path).write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_run_meta(log_path: Union[str, Path]) -> Optional[dict]:
    """The run record beside `log_path`, or None when there is none;
    ReportError naming the sidecar when it cannot be read or holds no
    JSON object."""
    path = meta_path_for(log_path)
    if not path.exists():
        return None
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None
    except ValueError as exc:
        raise ReportError(f"{path}: not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ReportError(f"{path}: not a JSON object")
    return meta
