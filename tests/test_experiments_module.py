"""Tests for the experiments module: the paper's section 6 rows that
EXPERIMENTS.md is generated from, each held to the shape or the exact
columns the paper reports."""

import pytest

from repro.analysis.experiments import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    soundness_timings,
    table1_nonnull,
    table2_untainted,
    typecheck_timings,
    uniqueness_experiment,
)


@pytest.fixture(scope="module")
def t1():
    return table1_nonnull()


@pytest.fixture(scope="module")
def t2():
    return table2_untainted()


def test_table1_row_is_complete(t1):
    for key in ("lines", "dereferences", "annotations", "casts", "errors"):
        assert key in t1
        assert key in t1["paper"]


def test_table1_shape(t1):
    assert t1["errors"] == 0
    derefs = t1["dereferences"]
    assert 0.05 * derefs <= t1["annotations"] <= 0.2 * derefs
    assert t1["casts"] < t1["annotations"]


def test_table1_scale_within_20_percent_of_paper(t1):
    for key in ("lines", "dereferences"):
        paper = PAPER_TABLE1[key]
        assert abs(t1[key] - paper) <= 0.2 * paper, key


def test_table2_exact_result_columns(t2):
    for program, row in t2.items():
        for key in ("annotations", "casts", "errors"):
            assert row[key] == PAPER_TABLE2[program][key], (program, key)


def test_table2_vulnerability_is_the_paper_one(t2):
    assert len(t2["bftpd"]["error_messages"]) == 1
    assert "d_name" in t2["bftpd"]["error_messages"][0]


def test_uniqueness_row():
    row = uniqueness_experiment()
    assert row["errors"] == 0
    paper_refs = row["paper"]["validated_references"]
    assert abs(row["validated_references"] - paper_refs) <= 0.3 * paper_refs


def test_typecheck_timings_under_paper_bound():
    rows = typecheck_timings()
    assert set(rows) == {
        "dfa (synthetic grep)",
        "bftpd (synthetic)",
        "mingetty (synthetic)",
        "identd (synthetic)",
    }
    for name, row in rows.items():
        assert row["seconds"] < row["paper_bound_seconds"], name


@pytest.mark.slow
def test_soundness_timings_table():
    rows = soundness_timings(time_limit=45)
    assert all(row["sound"] for row in rows.values())
    value_max = max(
        row["seconds"] for row in rows.values() if row["kind"] == "value"
    )
    ref_max = max(
        row["seconds"] for row in rows.values() if row["kind"] == "ref"
    )
    # Shape: values prove much faster than refs; refs within paper bound.
    assert value_max < ref_max
    assert ref_max < 30
