"""Benchmark two commits in alternating pairs and write one JSON summary.

    python3 tools/bench_pairs.py --out BENCH_<n>.json \
        [--parent HEAD] [--change REV] [--pairs 10] \
        [--runs formulas:7,11 equilibria:7 voting:7]

Run it from anywhere inside the repository.  It makes two `git worktree`
checkouts at paths of equal length, `.bench_work/a` and `.bench_work/b`, and
removes both when it is done.  The sides swap paths every pair: the parent
runs from `a` and the change from `b` in even pairs, the other way round in
odd ones, each checkout switched to its side's revision before the pair.
So each side runs from each path equally often, and an effect of the path
alone (its spelling reaches tracebacks, `sys.path` and hashed strings) falls
on both sides alike.  Every run records the path it used, and the summary
adds each side's per-path medians, which show such an effect as one.
Because the side that goes first also alternates every pair, a side's first
runs are all at one path.  `--change`
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

Without `--change` it refuses to run while `src`, `tests` or `tools` hold
untracked files, which `git stash create` would leave out of the change.

Last come the scale probes: CLI commands on inputs far larger than the
benchmark's, each a subprocess in each checkout with a time limit, in the
environment the benchmark gives its workers.  Each probe runs in
PROBE_PAIRS alternating pairs (the cold start in more), in rounds: round k
runs pair k of every probe, so a slow phase of the host falls on every
probe alike.  A round starts only while the probes have run for less than
PROBE_CAP_S, so the probes end within about that time and one round.  Each
run records its wall time, its peak RSS (from `os.wait4`) and the sha256 of
its output; a run over its limit is recorded as skipped, with the reason.
Each probe's pairs are summarised like the workloads', per path too, and its
rounds swap the sides' paths as the pairs do.  The inputs are
generated from a fixed seed into `.bench_work/inputs`, and their sha256 is
recorded.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import product
from pathlib import Path

SIDES = ("parent", "change")
# The two checkouts' folder names under `.bench_work`, of equal length.
PATHS = ("a", "b")
RUN_TIMEOUT_S = 300
PROBE_SEED = 1
PROBE_PAIRS = 7
PROBE_CAP_S = 1800
COLD_START_PAIRS = 21
# Both probe metrics, read as the workloads' are.
PROBE_BETTER = {"wall_s": "lower", "peak_rss_mb": "lower"}
# A game's utilities are drawn from these four values, as in ROADMAP.md's
# probe table, except where a probe says otherwise.
VALUES = (0, 1, 2, "1/2")
ALTERNATIVES = "abcd"
BALLOTS = ("abcd", "bcda", "cdab", "dabc")


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


def layout(k: int) -> dict[str, str]:
    """{side: path} for pair (or probe round) k: the sides swap paths every
    pair."""
    return dict(zip(SIDES, PATHS if k % 2 == 0 else PATHS[::-1]))


def path_medians(runs: dict[str, list[tuple[str, dict]]], names) -> dict:
    """{side: {path: {metric: median}}} over the runs at each path; `runs`
    maps a side to its (path, metrics) pairs, and a metric missing from a
    run is left out of that run's median."""
    out: dict = {}
    for side, rows in runs.items():
        for path in sorted({p for p, _ in rows}):
            at_path = [m for p, m in rows if p == path]
            out.setdefault(side, {})[path] = {
                name: statistics.median(values)
                for name in names
                if (values := [m[name] for m in at_path if name in m])
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


def bench(place, args) -> dict:
    """The workload pairs and traced runs; `place(k)` puts each side at its
    path of pair k and returns {side: checkout}."""
    spec = json.loads((place(0)["parent"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["better"] for m in spec["per_layer"]}
    report: dict = {"workloads": {}, "traced": {}}
    for workload, seeds in _runs(args.runs):
        for seed in seeds:
            pairs = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                checkouts = place(k)
                pair = {}
                for side in order:
                    pair[side] = _run(checkouts[side], workload, seed, seconds, 0)
                    pair[side]["path"] = checkouts[side].name
                print(f"{workload} seed {seed} pair {k + 1}/{args.pairs}: "
                      + ", ".join(f"{s} at {pair[s]['path']} wall_s {pair[s]['metrics'].get('wall_s')}"
                                  for s in SIDES),
                      file=sys.stderr)
                pairs.append(pair)
            report["workloads"].setdefault(workload, {})[str(seed)] = {
                "summary": summarise(
                    [{s: p[s]["metrics"] for s in SIDES} for p in pairs], better
                ),
                "per_path": path_medians(
                    {s: [(p[s]["path"], p[s]["metrics"]) for p in pairs] for s in SIDES}, better
                ),
                "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in SIDES),
                "runs": pairs,
            }
        checkouts = place(0)
        traced = {side: _run(checkouts[side], workload, seeds[0], seconds, 1) for side in SIDES}
        report["traced"][workload] = {
            "seed": seeds[0],
            "paths": {side: checkouts[side].name for side in SIDES},
            **{side: traced[side]["metrics"] for side in SIDES},
            "all_correct": all(t["correct"] and t["failed"] == 0 for t in traced.values()),
            "better": layers,
        }
    return report


# --------------------------------------------------------------------------
# scale probes


def untracked(porcelain: str) -> list[str]:
    """The paths that `git status --porcelain` text lists as untracked."""
    return [line[3:] for line in porcelain.splitlines() if line.startswith("?? ")]


def _write_game(path: Path, rng: random.Random, players: int, strategies: int, values) -> None:
    """A game file of `strategies` ** `players` profiles, each utility drawn
    from `values`, written one outcome at a time."""
    names = [chr(ord("a") + i) for i in range(strategies)]
    with path.open("w") as out:
        out.write(json.dumps({"players": players, "strategies": [names] * players})[:-1])
        out.write(', "outcomes": {')
        for idx, profile in enumerate(product(names, repeat=players)):
            entry = {"label": f"o{idx}", "utils": [rng.choice(values) for _ in range(players)]}
            out.write(("," if idx else "") + f'\n"{",".join(profile)}": {json.dumps(entry)}')
        out.write("}}\n")


def make_inputs(folder: Path) -> dict[str, Path]:
    """The probes' input files, generated from PROBE_SEED."""
    folder.mkdir(parents=True, exist_ok=True)
    rng = random.Random(PROBE_SEED)
    paths = {}
    for name, players, strategies, values in (
        ("6x6", 6, 6, VALUES),
        ("6x7", 7, 6, VALUES),
        ("6x4_999", 4, 6, range(999)),
        ("4x5", 5, 4, VALUES),
        ("6x6_200", 6, 6, range(200)),
    ):
        paths[name] = folder / f"game_{name}.json"
        _write_game(paths[name], rng, players, strategies, values)
    for rule, voters in product(("dictator:1", "plurality"), (3, 4)):
        name = f"{rule.replace(':', '')}_{voters}"
        paths[name] = folder / f"spec_{name}.json"
        spec = {"alternatives": list(ALTERNATIVES), "ballots": list(BALLOTS[:voters]), "rule": rule}
        paths[name].write_text(json.dumps(spec))
    return paths


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as data:
        for block in iter(lambda: data.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_probe(argv: list[str], cwd: Path, env: dict, limit_s: float, output: Path | None) -> dict:
    """One probe run: wall time, peak RSS from `os.wait4`, exit code and the
    sha256 of `output`; or, if it ran past `limit_s` and was killed, a
    `skipped` reason instead."""
    with open(os.devnull, "wb") as null, tempfile.TemporaryFile() as errors:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=null, stderr=errors)
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        errors.seek(0)
        error = errors.read().decode(errors="replace")
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= limit_s and proc.returncode < 0:
        return {"skipped": f"over its {limit_s:g} s limit"}
    run = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode}
    if proc.returncode not in (0, 1):
        run["error"] = error[-2000:]
    elif output is not None:
        run["output_sha256"] = _sha256(output)
    return run


def _child_env(checkout: Path) -> dict:
    """The environment `perfbench/run.py` gives its workers: this process's,
    with the checkout's CHILD_ENV, and the checkout's `src` on the path."""
    tree = ast.parse((checkout / "perfbench" / "run.py").read_text())
    child = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CHILD_ENV" for t in node.targets)
    )
    return {**os.environ, **child, "PYTHONPATH": str(checkout / "src")}


def _probe_list(inputs: dict[str, Path], pairs: int) -> list[tuple]:
    """(name, CLI arguments, time limit in seconds, pairs, input names, the
    probe whose output it reads or None), in the order a round runs them.
    ``{in}`` in an argument stands for the inputs' folder, and ``{out}`` for
    the side's output folder."""
    inputs = {name: "{in}/" + path.name for name, path in inputs.items()}
    check = ["check", "--game", "tests/golden/inputs/pd.json", "--formula", "[(d,d)] u1=1"]
    probes = [("cold_start_check", check, 30, max(pairs, COLD_START_PAIRS), (), None)]
    # `nash` evaluates `nashHere`; at 200 utility values on 6x6 its plan has
    # about 7 200 entries, so the run's peak RSS shows how long the
    # evaluator keeps the sets of a long plan alive.
    for name in ("6x6", "6x7", "6x4_999", "6x6_200"):
        probes.append((f"nash_{name}", ["nash", "--game", inputs[name]], 120, pairs, (name,), None))
    probes += [
        ("lift_4x5", ["lift", "--game", inputs["4x5"]], 120, pairs, ("4x5",), None),
        ("echeck_4x5", ["echeck", "--model", "{out}/lift_4x5.json", "--formula", "[ag1] u1=1"],
         60, pairs, (), "lift_4x5"),
        ("axioms_4x5", ["axioms", "--game", inputs["4x5"]], 120, pairs, ("4x5",), None),
        # `parse` of 3 000 conjuncts.  Against a parent that writes the AST
        # nested rather than as a node table, `same_output` reads false,
        # because that format changed on purpose.
        ("parse_3000", ["parse", "--game", "tests/golden/inputs/pd.json", " & ".join(["u1=1"] * 3000)],
         60, pairs, (), None),
    ]
    for name in ("dictator1_3", "dictator1_4", "plurality_3", "plurality_4"):
        probes.append((f"audit_{name}", ["voting", "audit", "--spec", inputs[name]], 120, pairs, (name,), None))
    return probes


def probe_summary(runs: dict[str, list[dict]]) -> dict:
    """`summarise` over a probe's pairs: run k of each side is pair k, and a
    pair with a skipped run is left out."""
    pairs = [dict(zip(SIDES, pair)) for pair in zip(*(runs[side] for side in SIDES))]
    return summarise(pairs, PROBE_BETTER)


def probe(place, work: Path, pairs: int = PROBE_PAIRS, cap_s: float = PROBE_CAP_S) -> dict:
    """Run every probe on both sides, round by round, alternating the side
    that goes first and, through `place(k)` as in `bench`, the sides' paths
    from round to round; a round starts only while the probes have run for
    less than `cap_s`.  A probe other than the cold start writes its report
    to the side's output folder, and the sides' reports are compared by
    sha256."""
    inputs = make_inputs(work / "inputs")
    probes = _probe_list(inputs, pairs)
    report: dict = {"seed": PROBE_SEED, "cap_s": cap_s}
    for name, args, limit, _, used, _ in probes:
        report[name] = {"argv": args, "limit_s": limit, "inputs": {k: _sha256(inputs[k]) for k in used},
                        **{side: {"runs": []} for side in SIDES}}
    start = time.monotonic()
    for k in range(max(p[3] for p in probes)):
        if k and time.monotonic() - start >= cap_s:
            break
        checkouts = place(k)
        envs = {side: _child_env(checkouts[side]) for side in SIDES}
        for name, args, limit, runs, _, needs in probes:
            if k >= runs:
                continue
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                folder = work / f"out_{side}"
                folder.mkdir(exist_ok=True)
                output = None if name == "cold_start_check" else folder / f"{name}.json"
                argv = [sys.executable, "-m", "stratlogic.cli", *(
                    a.replace("{in}", str(work / "inputs")).replace("{out}", str(folder)) for a in args)]
                if needs is not None and "wall_s" not in report[needs][side]["runs"][-1]:
                    run = {"skipped": f"needs this round's run of {needs}"}
                else:
                    argv += [] if output is None else ["--output", str(output)]
                    run = run_probe(argv, checkouts[side], envs[side], limit, output)
                    run["path"] = checkouts[side].name
                report[name][side]["runs"].append(run)
        print(f"probe round {k + 1}: {time.monotonic() - start:.0f} s", file=sys.stderr)
    for name, *_ in probes:
        entry = report[name]
        entry["summary"] = probe_summary({side: entry[side]["runs"] for side in SIDES})
        entry["per_path"] = path_medians(
            {side: [(r["path"], r) for r in entry[side]["runs"] if "path" in r] for side in SIDES},
            PROBE_BETTER,
        )
        if name != "cold_start_check":
            digests = {r.get("output_sha256") for side in SIDES for r in entry[side]["runs"]}
            entry["same_output"] = len(digests) == 1 and None not in digests
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
    if args.change is None:
        status = _git("status", "--porcelain", "--untracked-files=all", "--", "src", "tests", "tools", cwd=root)
        if missing := untracked(status):
            ap.error("untracked files would be left out of the change: " + ", ".join(missing)
                     + " (git add them, or name a revision with --change)")
    revs = {
        "parent": _git("rev-parse", args.parent, cwd=root),
        "change": _git("rev-parse", args.change, cwd=root) if args.change
        else _git("stash", "create", cwd=root) or _git("rev-parse", "HEAD", cwd=root),
    }
    work = root / ".bench_work"
    slots = {path: work / path for path in PATHS}
    for path in slots.values():
        if path.exists():
            _git("worktree", "remove", "--force", str(path), cwd=root)

    def place(k: int) -> dict[str, Path]:
        checkouts = {}
        for side, path in layout(k).items():
            _git("checkout", "--quiet", "--force", "--detach", revs[side], cwd=slots[path])
            checkouts[side] = slots[path]
        return checkouts

    try:
        for side, path in layout(0).items():
            _git("worktree", "add", "--detach", str(slots[path]), revs[side], cwd=root)
        report = bench(place, args)
        report["probes"] = probe(place, work)
    finally:
        for path in slots.values():
            if path.exists():
                _git("worktree", "remove", "--force", str(path), cwd=root)
        _git("worktree", "prune", cwd=root)
        for folder in ("inputs", *(f"out_{side}" for side in SIDES)):
            shutil.rmtree(work / folder, ignore_errors=True)
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
        "settings": {"pairs": args.pairs, "runs": args.runs, "probe_pairs": PROBE_PAIRS, "paths": PATHS},
        **report,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
