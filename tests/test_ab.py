"""The A/B runner's summary (`tools/ab.py`), on fixed numbers; nothing here
runs the benchmark."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def result(failed, frames_per_s, run_s):
    return {"failed": failed, "attempted": 12, "metrics": {"frames_per_s": frames_per_s, "run_s": run_s}}


PAIRS = [
    {"seed": 1, "parent": result(0, 100.0, 0.2), "change": result(0, 115.0, 0.1)},
    {"seed": 2, "parent": result(1, 110.0, 0.3), "change": result(0, 125.0, 0.35)},
    {"seed": 3, "parent": result(0, 120.0, 0.4), "change": result(2, 118.0, 0.3)},
]
BETTER = {"frames_per_s": "higher", "run_s": "lower"}


def test_a_metric_where_higher_is_better():
    row = ab.summarize(PAIRS, BETTER)["metrics"]["frames_per_s"]
    assert row["parent_quartiles"] == [105.0, 110.0, 115.0]
    assert row["change_quartiles"] == [116.5, 118.0, 121.5]
    assert row["change_pct"] == pytest.approx(100 * (118 / 110 - 1))
    assert row["wins"] == 2
    assert row["gap_over_iqr"] == pytest.approx(0.8)


def test_a_metric_where_lower_is_better():
    row = ab.summarize(PAIRS, BETTER)["metrics"]["run_s"]
    assert row["parent_quartiles"] == pytest.approx([0.25, 0.3, 0.35])
    assert row["change_quartiles"][1] == pytest.approx(0.3)
    assert row["wins"] == 2
    assert row["gap_over_iqr"] == pytest.approx(0.0)


def test_failed_operations_are_summed_per_side():
    assert ab.summarize(PAIRS, BETTER)["operations"] == {
        "parent": {"failed": 1, "attempted": 36},
        "change": {"failed": 2, "attempted": 36},
    }


def test_one_pair_has_no_spread_to_measure_a_gap_by():
    row = ab.summarize(PAIRS[:1], BETTER)["metrics"]["run_s"]
    assert row["parent_quartiles"] == [0.2, 0.2, 0.2]
    assert row["wins"] == 1
    assert row["gap_over_iqr"] is None
    assert "gap/IQR n/a" in ab.report("w", ab.summarize(PAIRS[:1], BETTER), 1)
