"""stratlogic end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's jobs from the
seed, then starts fresh interpreters (perfbench/worker.py) that each run one
pass over the jobs, back to back, for as many passes as fit in S seconds
(at least two).  Every report is checked against perfbench/oracle.py, which
shares no code with the package.  With --trace 0 the passes are untraced and
the end-to-end metrics are reported; with --trace 1 untraced and traced
passes alternate and the per-layer metrics are reported.  Times are scaled
to a reference speed of the host, which drifts by up to 2x on its own (see
SpeedProbe in worker.py and _setup_times here).  Every metric is printed as
"name value unit"; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"

# Each job's scaled time is its best over the run's passes.  Passes start
# only while they should end within --seconds, so a slow machine gets fewer,
# not longer runs; two is the least a best-of needs.
MIN_PASSES = 2
SETUP_PROBES = 7
# The reference for set-up: an interpreter start that imports these, and its
# time on the reference host at full speed.
REFERENCE_IMPORTS = "json, fractions, dataclasses, numpy"
REFERENCE_START_S = 0.14
HARD_LIMIT_S = 170.0
# Single-threaded numpy/BLAS, set on the worker processes only.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
LAYERS = ("jsonio", "models", "properties", "parser", "syntax", "axioms", "coalition", "voting")


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    env = dict(os.environ, **CHILD_ENV)
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _reference_start(deadline: float) -> float:
    """Seconds to start an interpreter that imports REFERENCE_IMPORTS."""
    start = time.monotonic()
    try:
        subprocess.run(
            [sys.executable, "-c", f"import {REFERENCE_IMPORTS}"],
            env=dict(os.environ, **CHILD_ENV), cwd=ROOT, check=True, capture_output=True,
            timeout=deadline - start,
        )
    except subprocess.SubprocessError as exc:
        raise BenchError(f"reference interpreter start failed: {exc}") from None
    return time.monotonic() - start


def _setup_times(deadline: float) -> list[float]:
    """Set-up times at the reference speed.  The probe inside the worker
    does not fit set-up, which is mostly process start, shared-library
    loading and unmarshalling, and slows down less than the probe does in
    the host's slow phases.  So each set-up is scaled by a start of a
    reference interpreter just before and just after it, which does the
    same kind of work."""
    _spawn(["--setup-only"], deadline)  # warm-up: writes bytecode caches
    before = _reference_start(deadline)
    times = []
    for _ in range(SETUP_PROBES):
        setup = _spawn(["--setup-only"], deadline)["setup_s"]
        after = _reference_start(deadline)
        times.append(setup * REFERENCE_START_S / ((before + after) / 2))
        before = after
    return times


def _scaled(result: dict) -> list[float]:
    """A pass's job times in seconds at the reference speed."""
    return [t * speed for t, speed in zip(result["job_s"], result["job_speed"])]


def _layer_metrics(trace: dict, speed: dict[str, float]) -> dict[str, float]:
    """Self time (span minus its child spans, scaled by its job's speed) and
    calls per span name, errors per layer, plus the pass's counters."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job, _err in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {f"{layer}.errors": 0 for layer in LAYERS}
    for k, (name, start, end, _parent, job, err) in enumerate(spans):
        own = (end - start - child_time[k]) * speed[job]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        layer = name.split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.errors"] += err
    out.update(trace["counts"])
    out["trace.spans"] = len(spans)
    return out


def run(workload: str, seed: int, seconds: float, traced: bool, toy: bool) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (ROOT / "src" / "stratlogic" / "__init__.py").is_file():
        raise BenchError(f"no stratlogic sources under {ROOT / 'src'}")
    jobs = gen.generate(workload, seed, toy)
    WORK.mkdir(exist_ok=True)
    stem = f"{workload}-{seed}{'-toy' if toy else ''}"
    jobs_file = WORK / f"{stem}.jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    wanted = [oracle.expect(job) for job in jobs]

    setups = _setup_times(deadline)
    passes, layer_runs = [], []
    attempted = failed = 0
    problems: list[str] = []
    measuring = last = time.monotonic()
    while True:
        done, now = len(passes) + len(layer_runs), time.monotonic()
        # Start another pass only if it should end within the measuring time.
        if done >= MIN_PASSES and now - measuring + (now - last) > seconds:
            break
        last = now
        with_trace = traced and done % 2 == 1
        trace_file = WORK / f"{stem}.spans.json"
        args = [str(jobs_file)] + (["--trace", str(trace_file)] if with_trace else [])
        result = _spawn(args, deadline)
        for job, want, report, found in zip(jobs, wanted, result["reports"], result["problems"]):
            if report is not None:
                found = found + oracle.check(job, want, report)
            attempted += 1
            if found:
                failed += 1
                problems.append(f"{job['id']}: {'; '.join(found)}")
        if with_trace:
            speed = {job["id"]: s for job, s in zip(jobs, result["job_speed"])}
            trace = json.loads(trace_file.read_text())
            layer_runs.append((result, _layer_metrics(trace, speed)))
        else:
            passes.append(result)

    # Each job's time is its fastest over the passes, after scaling to the
    # reference speed: what scaling leaves of the host's noise still only
    # adds time.
    job_s = [min(times) for times in zip(*(_scaled(r) for r in passes))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(job_s),
        "job_s.p50": statistics.median(job_s),
        "job_s.p90": statistics.quantiles(job_s, n=10)[-1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    if layer_runs:
        names = {name for _, layer in layer_runs for name in layer}
        for name in names:
            metrics[name] = statistics.median(layer.get(name, 0) for _, layer in layer_runs)
        metrics["trace.overhead_s"] = statistics.median(
            sum(_scaled(r)) for r, _ in layer_runs
        ) - statistics.median(sum(_scaled(r)) for r in passes)
    everything = passes + [r for r, _ in layer_runs]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": len(job_s),
        "pass_walls": [(sum(r["job_s"]), sum(_scaled(r))) for r in everything],
        "digest": gen.digest(jobs),
        "jobs": len(jobs),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-check")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    for problem in out["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"inputs {args.workload} seed {args.seed}: {out['jobs']} jobs, sha256 {out['digest']}")
    walls = " ".join(f"{raw:.3f}/{scaled:.3f}" for raw, scaled in out["pass_walls"])
    print(f"pass wall_s raw/scaled (untraced first): {walls}; job_s samples {out['samples']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"failed_share {out['failed'] / out['attempted']:.6g} ratio")
    result = {
        m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
