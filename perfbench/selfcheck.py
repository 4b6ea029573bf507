"""Fast self-check of the benchmark itself (about half a minute).

    python3 perfbench/selfcheck.py

Runs every workload at toy size, untraced and traced, and checks that each
run is correct, emits exactly the metrics BENCHMARK.json declares for its
mode, and that every per-layer metric perfbench/layers.json assigns to a
workload is non-zero there.  Not collected by the test suite (testpaths
covers tests/ only).
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("equilibria", "formulas", "voting")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = [
        f"layers.json names undeclared metric {name}"
        for entry in layers
        for name in entry["metrics"]
        if name not in declared[1]
    ]
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the self-check's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "0", "--trace", str(trace), "--toy"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            metrics = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed jobs")
            if set(metrics) != declared[trace]:
                problems.append(f"{where}: emitted {sorted(set(metrics) ^ declared[trace])} unlike BENCHMARK.json")
            if trace:
                for entry in layers:
                    if workload in entry["workloads"]:
                        problems += [
                            f"{where}: {name} is zero"
                            for name in entry["metrics"]
                            if not metrics.get(name, {}).get("value")
                        ]
            print(f"{where}: {len(metrics)} metrics, {result['attempted']} jobs attempted")
    for problem in problems:
        print("PROBLEM", problem)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
