"""`tools/bench_pairs.py`: the summary on made-up runs, the untracked-file
check on porcelain text, probe runs on trivial commands, and the probes'
rounds and pair summaries on made-up runs.  No benchmark is started."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from stratlogic.cli import _build_parser
from stratlogic.jsonio import game_from_dict

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


def test_untracked_files_are_read_from_porcelain_text():
    porcelain = " M src/stratlogic/games.py\n?? src/stratlogic/new.py\nA  tests/t.py\n?? tools/x y.py\n"
    assert bench_pairs.untracked(porcelain) == ["src/stratlogic/new.py", "tools/x y.py"]
    assert bench_pairs.untracked("") == []


def test_a_probe_over_its_limit_is_recorded_as_skipped(tmp_path):
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    run = bench_pairs.run_probe(argv, tmp_path, dict(os.environ), 0.5, None)
    assert run == {"skipped": "over its 0.5 s limit"}


def test_a_probe_records_wall_time_peak_rss_exit_and_output_digest(tmp_path):
    out = tmp_path / "out.txt"
    argv = [sys.executable, "-c", f"open({str(out)!r}, 'w').write('x'); raise SystemExit(1)"]
    run = bench_pairs.run_probe(argv, tmp_path, dict(os.environ), 30, out)
    assert run["exit"] == 1 and 0 < run["wall_s"] < 30 and run["peak_rss_mb"] > 1
    assert run["output_sha256"] == hashlib.sha256(b"x").hexdigest()
    argv = [sys.executable, "-c", "import sys; sys.stderr.write('boom'); raise SystemExit(3)"]
    failed = bench_pairs.run_probe(argv, tmp_path, dict(os.environ), 30, out)
    assert (failed["exit"], failed["error"]) == (3, "boom") and "output_sha256" not in failed


def test_probe_games_are_valid_and_fixed_by_the_seed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        bench_pairs._write_game(path, random.Random(bench_pairs.PROBE_SEED), 3, 2, bench_pairs.VALUES)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    game = game_from_dict(json.loads(paths[0].read_text()))
    assert len(game.outcomes) == 8 and set(game.outcomes.values) <= {0, 1, 2, Fraction(1, 2)}


def test_every_probe_argv_is_accepted_by_the_cli(tmp_path, monkeypatch):
    # Empty inputs: only their names reach the arguments.
    monkeypatch.setattr(bench_pairs, "_write_game", lambda path, *rest: path.touch())
    for name, args, *_ in bench_pairs._probe_list(bench_pairs.make_inputs(tmp_path), 7):
        argv = [a.replace("{in}", "in").replace("{out}", "out") for a in args]
        if name != "cold_start_check":
            argv += ["--output", f"out/{name}.json"]
        assert _build_parser().parse_args(argv).command == args[0], name


def test_probe_pairs_are_summarised_like_workload_pairs():
    parent = [{"wall_s": w, "peak_rss_mb": 50.0} for w in (1.0, 1.2, 1.1, 0.9)]
    change = [{"wall_s": w, "peak_rss_mb": 49.0} for w in (0.8, 0.9)]
    change += [{"skipped": "over its 1 s limit"}, {"wall_s": 0.7, "peak_rss_mb": 51.0}]
    out = bench_pairs.probe_summary({"parent": parent, "change": change})
    pairs = [{"parent": a, "change": b} for a, b in zip(parent, change) if "wall_s" in b]
    assert out == bench_pairs.summarise(pairs, {"wall_s": "lower", "peak_rss_mb": "lower"})
    assert out["wall_s"]["pairs"] == 3 and out["wall_s"]["pairs_better"] == 3
    assert (out["peak_rss_mb"]["pairs_better"], out["peak_rss_mb"]["pairs_worse"]) == (2, 1)


def _fake_probes(monkeypatch, tmp_path):
    """`probe` with two made-up probes, the second reading the first's
    output; returns the list of (probe, folder) runs it asks for, and a
    `place` that keeps each side in a folder named after it."""
    calls = []

    def run_probe(argv, cwd, env, limit_s, output):
        name = Path(output).stem if output else "cold"
        calls.append((name, cwd.name))
        if len(calls) == 5:  # the change side of `first` in round two
            return {"skipped": "over its limit"}
        return {"wall_s": float(len(calls)), "peak_rss_mb": 1.0, "exit": 0, "output_sha256": "x"}

    monkeypatch.setattr(bench_pairs, "make_inputs", lambda folder: {})
    monkeypatch.setattr(bench_pairs, "_child_env", lambda checkout: {})
    monkeypatch.setattr(bench_pairs, "run_probe", run_probe)
    monkeypatch.setattr(bench_pairs, "_probe_list", lambda inputs, pairs: [
        ("first", ["nash"], 10, pairs, (), None),
        ("second", ["echeck"], 10, pairs + 1, (), "first"),
    ])
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    return calls, lambda k: checkouts


def test_probes_run_in_rounds_of_alternating_pairs(monkeypatch, tmp_path):
    calls, checkouts = _fake_probes(monkeypatch, tmp_path)
    report = bench_pairs.probe(checkouts, tmp_path, pairs=3, cap_s=1e9)
    assert calls[:4] == [("first", "parent"), ("first", "change"), ("second", "parent"), ("second", "change")]
    # Round two starts with the change; its skipped `first` run skips its `second`.
    assert calls[4:7] == [("first", "change"), ("first", "parent"), ("second", "parent")]
    assert calls[-2:] == [("second", "change"), ("second", "parent")]  # a fourth round for `second` only
    first, second = report["first"], report["second"]
    assert [len(first[s]["runs"]) for s in bench_pairs.SIDES] == [3, 3]
    assert [len(second[s]["runs"]) for s in bench_pairs.SIDES] == [4, 4]
    assert second["change"]["runs"][1] == {"skipped": "needs this round's run of first"}
    assert first["summary"]["wall_s"]["pairs"] == 2 and second["summary"]["wall_s"]["pairs"] == 3
    assert first["same_output"] is False and second["same_output"] is False


def test_probes_start_no_round_past_their_time_cap(monkeypatch, tmp_path):
    calls, checkouts = _fake_probes(monkeypatch, tmp_path)
    report = bench_pairs.probe(checkouts, tmp_path, pairs=7, cap_s=0)
    assert len(calls) == 4 and report["cap_s"] == 0
    assert report["first"]["summary"]["wall_s"]["pairs"] == 1


def _balanced_place(tmp_path):
    """A `place` over two made-up checkouts, named as the runner names them,
    each with a BENCHMARK.json that declares `wall_s` alone."""
    spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}], "per_layer": []}
    slots = {path: tmp_path / path for path in bench_pairs.PATHS}
    for slot in slots.values():
        slot.mkdir()
        (slot / "BENCHMARK.json").write_text(json.dumps(spec))
    return lambda k: {side: slots[path] for side, path in bench_pairs.layout(k).items()}


@pytest.mark.parametrize("pairs", [2, 4, 10])
def test_each_side_runs_from_each_path_equally_often(monkeypatch, tmp_path, pairs):
    wall = {"a": 1.0, "b": 2.0}  # the path alone sets the made-up time

    def run(checkout, workload, seed, seconds, trace):
        return {"metrics": {"wall_s": wall[checkout.name]}, "correct": True, "failed": 0}

    monkeypatch.setattr(bench_pairs, "_run", run)
    args = argparse.Namespace(runs=["voting:7,11"], pairs=pairs)
    report = bench_pairs.bench(_balanced_place(tmp_path), args)
    for entry in report["workloads"]["voting"].values():
        runs = entry["runs"]
        for before, pair in zip(runs, runs[1:]):
            assert pair["parent"]["path"] == before["change"]["path"] != pair["change"]["path"]
        for side in bench_pairs.SIDES:
            assert Counter(pair[side]["path"] for pair in runs) == {"a": pairs // 2, "b": pairs // 2}
        assert entry["per_path"] == {side: {"a": {"wall_s": 1.0}, "b": {"wall_s": 2.0}}
                                     for side in bench_pairs.SIDES}
        # A layout effect falls on both sides alike, so the sides read equal.
        wall_s = entry["summary"]["wall_s"]
        assert wall_s["median_change"] == 0 and wall_s["pairs_better"] == wall_s["pairs_worse"]
    assert report["traced"]["voting"]["paths"] == {"parent": "a", "change": "b"}


def test_probe_rounds_swap_the_sides_paths(monkeypatch, tmp_path):
    calls, _ = _fake_probes(monkeypatch, tmp_path)
    report = bench_pairs.probe(_balanced_place(tmp_path), tmp_path, pairs=4, cap_s=1e9)
    assert calls[:2] == [("first", "a"), ("first", "b")]
    for name, rounds in (("first", 4), ("second", 5)):
        entry = report[name]
        for side in bench_pairs.SIDES:
            # A run that was never started (it needed a skipped run) has no path.
            paths = [run.get("path") for run in entry[side]["runs"]]
            assert paths == [None if name == "second" and (side, k) == ("change", 1)
                             else bench_pairs.layout(k)[side] for k in range(rounds)]
        assert set(entry["per_path"]["parent"]) == {"a", "b"}
    assert report["first"]["per_path"]["parent"]["a"] == {"wall_s": 4.5, "peak_rss_mb": 1.0}


def test_path_medians_leave_out_a_run_without_the_metric():
    runs = {"parent": [("a", {"wall_s": 1.0}), ("a", {"wall_s": 3.0}), ("b", {"skipped": "x"})]}
    assert bench_pairs.path_medians(runs, ["wall_s"]) == {"parent": {"a": {"wall_s": 2.0}, "b": {}}}
