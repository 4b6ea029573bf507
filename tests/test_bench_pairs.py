"""The summary of `tools/bench_pairs.py`, on made-up runs: no benchmark is
started."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402


def test_summary_counts_pairs_by_each_metrics_direction():
    walls = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (0.9, 1.0), (1.0, 0.7)]
    pairs = [
        {
            "parent": {"wall_s": a, "rate": a, "peak_rss_mb": 40.0},
            "change": {"wall_s": b, "rate": b},
        }
        for a, b in walls
    ]
    better = {"wall_s": "lower", "rate": "higher", "peak_rss_mb": "lower", "absent": "lower"}
    out = bench_pairs.summarise(pairs, better)
    assert set(out) == {"wall_s", "rate"}  # a metric missing from a side is left out
    wall = out["wall_s"]
    assert (wall["pairs_better"], wall["pairs_worse"], wall["pairs"]) == (3, 1, 5)
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.9
    assert wall["median_change"] == pytest.approx(-0.1)
    assert wall["parent_iqr"] == pytest.approx(wall["parent"]["q3"] - wall["parent"]["q1"])
    assert wall["parent"]["q1"] <= 1.0 <= wall["parent"]["q3"]
    rate = out["rate"]
    assert (rate["pairs_better"], rate["pairs_worse"]) == (1, 3)


def test_quartiles_of_one_run_are_its_value():
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
