from __future__ import annotations

from pathlib import Path

import pytest

from minigi.reporting import (
    LadderCounts,
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
from minigi.search import EvalRecord

DATA = Path(__file__).parent / "data"

ORIGINAL = "f" * 64


def rec(
    run_id: str,
    index: int,
    classification: str,
    fingerprint: str,
    edits: str = "delete(f:0)",
    runtime=None,
    seed: str = "s",
) -> EvalRecord:
    line = f"{seed} | {edits} | {fingerprint}"
    return EvalRecord(run_id, index, line, classification, runtime)


def baseline(run_id: str, runtime: int) -> EvalRecord:
    return EvalRecord(run_id, 0, f"s |  | {ORIGINAL}", "Passed", runtime)


def test_empty_log_aggregates_to_zeroed_report():
    assert aggregate_table1([], ORIGINAL) == []
    assert render_table1(aggregate_table1([], ORIGINAL)) == (
        "EditCategory,UniquePatches,UniqueValid,UniqueCompiled,UniquePassed,"
        "Patches,Valid,Compiled,Passed\n"
    )
    assert aggregate_table2([]) == []


def test_table1_headers_and_row_format():
    records = [rec("statement", 0, "Passed", "a" * 64, runtime=10)]
    text = render_table1(aggregate_table1(records, ORIGINAL))
    lines = text.splitlines()
    assert lines[0] == (
        "EditCategory,UniquePatches,UniqueValid,UniqueCompiled,UniquePassed,"
        "Patches,Valid,Compiled,Passed"
    )
    assert lines[1] == "Statement,1,1,1,1,1,1,1,1"


def test_table1_excludes_original_equivalents_everywhere():
    records = [
        rec("statement", 0, "Passed", ORIGINAL, edits="swap(f:0<->f:0)", runtime=10),
        rec("statement", 1, "Passed", "a" * 64, runtime=9),
    ]
    reports = aggregate_table1(records, ORIGINAL)
    assert reports[0].all_counts == LadderCounts(1, 1, 1, 1)
    assert reports[0].unique_counts == LadderCounts(1, 1, 1, 1)


def test_table1_duplicates_collapse_in_unique_only():
    dup = "b" * 64
    records = [
        rec("statement", 0, "CompiledOnly", dup, edits="delete(f:1)"),
        rec("statement", 1, "CompiledOnly", dup, edits="delete(f:1)"),
        rec("statement", 2, "ValidOnly", "c" * 64, edits="delete(f:2)"),
    ]
    reports = aggregate_table1(records, ORIGINAL)
    assert reports[0].all_counts == LadderCounts(3, 3, 2, 0)
    assert reports[0].unique_counts == LadderCounts(2, 2, 1, 0)


def test_table1_invalid_patches_dedupe_by_edit_script():
    records = [
        rec("llm-simple", 0, "Invalid", "invalid", edits="llm(f:root,simple,none)"),
        rec("llm-simple", 1, "Invalid", "invalid", edits="llm(f:root,simple,none)"),
        rec("llm-simple", 2, "Invalid", "invalid", edits="llm(f:root,simple,abc)"),
    ]
    reports = aggregate_table1(records, ORIGINAL)
    assert reports[0].all_counts == LadderCounts(3, 0, 0, 0)
    assert reports[0].unique_counts == LadderCounts(2, 0, 0, 0)


def test_table1_family_row_order_is_canonical():
    records = [
        rec("llm-medium", 0, "Passed", "a" * 64, runtime=5),
        rec("insert", 0, "ValidOnly", "b" * 64),
        rec("statement", 0, "Passed", "c" * 64, runtime=6),
    ]
    names = [r.display_name for r in aggregate_table1(records, ORIGINAL)]
    assert names == ["Statement", "Insert", "Medium"]


def test_table2_median_and_best_of_two_improvements():
    records = [
        baseline("statement/f", 100),
        rec("statement/f", 1, "Passed", "a" * 64, runtime=90),   # improvement 10
        rec("statement/f", 2, "Passed", "b" * 64, runtime=70),   # improvement 30
        rec("statement/f", 3, "CompiledOnly", "c" * 64),
    ]
    reports = aggregate_table2(records)
    imp = reports[0].improvements
    assert imp.found == 2
    assert imp.best == 30
    assert imp.median == 20
    text = render_table2(reports)
    assert text.splitlines()[0] == (
        "EditCategory,Patches,Compiled,Passed,ImprovFound,BestImprov,Median"
    )
    assert text.splitlines()[1] == "Statement,3,3,2,2,30,20"  # compiled includes passed


def test_table2_excludes_empty_patches_and_absent_improvements():
    records = [
        baseline("insert/f", 50),
        rec("insert/f", 1, "ValidOnly", "a" * 64, edits="insert_break(f:root+0)"),
        EvalRecord("insert/f", 2, f"s |  | {ORIGINAL}", "Passed", 50),  # empty neighbor
    ]
    reports = aggregate_table2(records)
    assert reports[0].all_counts == LadderCounts(1, 1, 0, 0)
    imp = reports[0].improvements
    assert imp.found == 0 and imp.best is None and imp.median is None
    assert render_table2(reports).splitlines()[1] == "Insert,1,0,0,0,,"


def test_table2_improvement_strictly_positive_only():
    records = [
        baseline("statement/f", 100),
        rec("statement/f", 1, "Passed", "a" * 64, runtime=100),  # equal: no improvement
        rec("statement/f", 2, "Passed", "b" * 64, runtime=101),  # slower: no improvement
    ]
    assert aggregate_table2(records)[0].improvements.found == 0


def test_table2_per_run_baselines():
    records = [
        baseline("statement/f", 100),
        baseline("statement/g", 200),
        rec("statement/f", 1, "Passed", "a" * 64, runtime=95),
        rec("statement/g", 1, "Passed", "b" * 64, runtime=95),
    ]
    imp = aggregate_table2(records)[0].improvements
    assert imp.found == 2
    assert imp.best == 105  # from g's baseline of 200


def test_table2_median_halves_format():
    records = [
        baseline("statement/f", 100),
        rec("statement/f", 1, "Passed", "a" * 64, runtime=90),
        rec("statement/f", 2, "Passed", "b" * 64, runtime=89),
    ]
    text = render_table2(aggregate_table2(records))
    assert text.splitlines()[1].endswith(",11,10.5")


def test_table2_missing_baseline_is_an_error():
    records = [rec("statement/f", 1, "Passed", "a" * 64, runtime=90)]
    with pytest.raises(ReportError) as excinfo:
        aggregate_table2(records)
    assert "row 1" in str(excinfo.value)


def test_malformed_patch_line_reports_row_number():
    records = [
        rec("statement", 0, "Passed", "a" * 64, runtime=5),
        EvalRecord("statement", 1, "no pipes here", "Passed", 5),
    ]
    with pytest.raises(ReportError) as excinfo:
        aggregate_table1(records, ORIGINAL)
    assert "row 2" in str(excinfo.value)


def test_unknown_classification_reports_row_number():
    records = [rec("statement", 0, "Sideways", "a" * 64)]
    with pytest.raises(ReportError) as excinfo:
        aggregate_table1(records, ORIGINAL)
    assert "row 1" in str(excinfo.value)


def test_records_csv_round_trip(tmp_path):
    records = [
        rec("statement", 0, "Passed", "a" * 64, runtime=12),
        rec("statement", 1, "Invalid", "invalid"),
    ]
    path = tmp_path / "log.csv"
    with RecordWriter(path) as writer:
        for record in records:
            writer.write(record)
    assert read_records_csv(path) == records
    raw = path.read_bytes()
    assert b"\r\n" not in raw  # LF endings
    assert raw.startswith(b"runId,evalIndex,patch,classification,runtime\n")


def test_records_csv_malformed_rows(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("runId,evalIndex,patch,classification,runtime\nstatement,notanint,x | y | z,Passed,\n")
    with pytest.raises(ReportError) as excinfo:
        read_records_csv(path)
    assert "row 2" in str(excinfo.value)
    path.write_text("wrong,header\n")
    with pytest.raises(ReportError) as excinfo:
        read_records_csv(path)
    assert "row 1" in str(excinfo.value)


def test_reporting_is_idempotent():
    records = [rec("statement", 0, "Passed", "a" * 64, runtime=5)]
    first = render_table1(aggregate_table1(records, ORIGINAL))
    second = render_table1(aggregate_table1(records, ORIGINAL))
    assert first == second


def test_run_meta_sidecar_round_trip(tmp_path):
    log = tmp_path / "run.csv"
    log.write_text("x")
    write_run_meta(log, {"command": "sample", "seed": 42})
    assert meta_path_for(log).name == "run.csv.meta.json"
    assert read_run_meta(log) == {"command": "sample", "seed": 42}
    assert read_run_meta(tmp_path / "other.csv") is None


def test_shipped_seed42_log_golden_aggregate():
    """Frozen aggregate of the committed seed-42 sampling log."""
    records = read_records_csv(DATA / "sample_seed42.csv")
    assert len(records) == 100  # 50 per family
    original = "4e0dec3d3cb51ba7f90e8963bc77248cf3259da61d4278196c34c3be55e4e5cb"
    text = render_table1(aggregate_table1(records, original))
    assert text.splitlines()[1:] == [
        "Statement,21,21,18,4,38,38,34,4",
        "Insert,25,25,10,4,50,50,20,8",
    ]
