"""Benchmark two commits in alternating pairs and write one JSON summary.

    python3 tools/bench_pairs.py --out BENCH_<n>.json \
        [--parent HEAD] [--change REV] [--pairs 10] \
        [--runs formulas:7,11 equilibria:7 voting:7]

Run it from anywhere inside the repository.  It checks the two sides out
with `git worktree` at paths of equal length, `.bench_work/parent` and
`.bench_work/change`, so that no path in a traceback or a bytecode cache
differs in length, and removes both checkouts when it is done.  `--change`
defaults to the working tree as it stands: tracked files and staged new
files, taken with `git stash create`, which leaves the tree untouched.

For each workload and seed it runs each checkout's own, unchanged
`perfbench/run.py --trace 0` in N pairs, each run as long as BENCHMARK.json's
`run_seconds`, the parent first in even pairs and the change first in odd
ones, so that a slow phase of the host falls on both sides alike.  Then it makes one `--trace 1` run per side and workload,
on the first seed listed.  The summary gives, per end-to-end metric, each
side's median and quartiles over the pairs, and the number of pairs in
which the change read better (ties count for neither), with the direction
of "better" taken from BENCHMARK.json.  Every run's raw numbers and its
`correct`, `failed` and `attempted` fields are kept too.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 300


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as `statistics.quantiles`
    gives them; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric, each side's median and quartiles over `pairs` and the
    count of pairs in which the change read better.

    `pairs` holds one {"parent": metrics, "change": metrics} per pair, each
    metrics a {name: value} dict; `better` maps a metric's name to "lower"
    or "higher".  A metric missing from a run is left out of the summary."""
    out = {}
    for name, direction in better.items():
        rows = [(p["parent"].get(name), p["change"].get(name)) for p in pairs]
        rows = [(a, b) for a, b in rows if a is not None and b is not None]
        if not rows:
            continue
        sign = 1 if direction == "lower" else -1
        parent = quartiles([a for a, _ in rows])
        change = quartiles([b for _, b in rows])
        out[name] = {
            "parent": {"median": parent[1], "q1": parent[0], "q3": parent[2]},
            "change": {"median": change[1], "q1": change[0], "q3": change[2]},
            "parent_iqr": parent[2] - parent[0],
            "median_change": change[1] / parent[1] - 1 if parent[1] else None,
            "pairs_better": sum(1 for a, b in rows if sign * (a - b) > 0),
            "pairs_worse": sum(1 for a, b in rows if sign * (b - a) > 0),
            "pairs": len(rows),
        }
    return out


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in `checkout`: the last line of its output."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def _runs(spec: list[str]) -> list[tuple[str, list[int]]]:
    out = []
    for item in spec:
        workload, _, seeds = item.partition(":")
        out.append((workload, [int(s) for s in seeds.split(",")] if seeds else [7]))
    return out


def bench(checkouts: dict, args) -> dict:
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["better"] for m in spec["per_layer"]}
    report: dict = {"workloads": {}, "traced": {}}
    for workload, seeds in _runs(args.runs):
        for seed in seeds:
            pairs = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    pair[side] = _run(checkouts[side], workload, seed, seconds, 0)
                print(f"{workload} seed {seed} pair {k + 1}/{args.pairs}: "
                      + ", ".join(f"{s} wall_s {pair[s]['metrics'].get('wall_s')}" for s in SIDES),
                      file=sys.stderr)
                pairs.append(pair)
            report["workloads"].setdefault(workload, {})[str(seed)] = {
                "summary": summarise(
                    [{s: p[s]["metrics"] for s in SIDES} for p in pairs], better
                ),
                "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in SIDES),
                "runs": pairs,
            }
        traced = {side: _run(checkouts[side], workload, seeds[0], seconds, 1) for side in SIDES}
        report["traced"][workload] = {
            "seed": seeds[0],
            **{side: traced[side]["metrics"] for side in SIDES},
            "all_correct": all(t["correct"] and t["failed"] == 0 for t in traced.values()),
            "better": layers,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default=None, help="a revision; default: the working tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--runs", nargs="+", default=["formulas:7,11", "equilibria:7", "voting:7"],
                    help="workload:seed,seed,...")
    args = ap.parse_args(argv)

    root = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    revs = {
        "parent": _git("rev-parse", args.parent, cwd=root),
        "change": _git("rev-parse", args.change, cwd=root) if args.change
        else _git("stash", "create", cwd=root) or _git("rev-parse", "HEAD", cwd=root),
    }
    work = root / ".bench_work"
    checkouts = {side: work / side for side in SIDES}
    for path in checkouts.values():
        if path.exists():
            _git("worktree", "remove", "--force", str(path), cwd=root)
    try:
        for side, path in checkouts.items():
            _git("worktree", "add", "--detach", str(path), revs[side], cwd=root)
        report = bench(checkouts, args)
    finally:
        for path in checkouts.values():
            if path.exists():
                _git("worktree", "remove", "--force", str(path), cwd=root)
        _git("worktree", "prune", cwd=root)
        if not any(work.iterdir()):
            work.rmdir()
    report = {
        "parent": revs["parent"],
        "change": revs["change"],
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "settings": {"pairs": args.pairs, "runs": args.runs},
        **report,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
