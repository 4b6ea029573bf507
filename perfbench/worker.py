"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py JOBS_FILE [--trace SPANS_FILE]
    python3 perfbench/worker.py --setup-only

Started by run.py with PERFBENCH_T0 set to the launcher's time.monotonic()
just before the spawn (CLOCK_MONOTONIC is system-wide on Linux, so the two
processes share the clock).  The worker imports stratlogic from the
checkout's src/, runs every job back to back (one client, closed loop) and
prints one JSON line: set-up time, per-job times, the host's relative speed
during each job (see SpeedProbe), peak RSS and each job's serialised report.
With --trace it also records a span around every call it makes into a
stratlogic module and writes the spans out once the pass is over.  Untraced and traced passes make the same calls.
"""
from __future__ import annotations

import bisect
import json
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import stratlogic
    from stratlogic import axioms, coalition, jsonio, models, parser, properties, syntax, voting

    if Path(stratlogic.__file__).resolve().parent != SRC / "stratlogic":
        raise ImportError(f"stratlogic was imported from {stratlogic.__file__}, not {SRC}")
    return axioms, coalition, jsonio, models, parser, properties, syntax, voting


# --------------------------------------------------------------------------
# tracing


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans and counters cost one method call each."""

    job = None
    _no_span = _NoSpan()

    def span(self, name: str):
        return self._no_span

    def count(self, name: str, amount: int) -> None:
        pass

    def count_nodes(self, name: str, node) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.spans[self.index] = (
            self.name, self.start, end, self.parent, tracer.job, int(exc_type is not None)
        )
        tracer.stack.pop()
        return False


class Tracer(NullTracer):
    """Spans as (name, start, end, parent index, job id, error) tuples,
    kept in memory; counters summed by name."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_nodes(self, name: str, node) -> None:
        self.count(name, _tree_size(node))


def _tree_size(node) -> int:
    """Nodes of a syntax tree (shared subtrees counted once per use)."""
    size, stack = 0, [node]
    while stack:
        item = stack.pop()
        size += 1
        for field in getattr(item, "__dataclass_fields__", ()):
            value = getattr(item, field)
            if isinstance(value, tuple):
                stack.extend(v for v in value if hasattr(v, "__dataclass_fields__"))
            elif hasattr(value, "__dataclass_fields__"):
                stack.append(value)
    return size


# --------------------------------------------------------------------------
# speed probe.  The host this benchmark was built on changes speed by up to
# 2x, in phases from tens of milliseconds to minutes, without reporting steal
# time.  So the worker times a fixed piece of work (the probe) between jobs
# and, from a timer signal, every PROBE_INTERVAL_S during them.  For each job
# it reports the mean of PROBE_REF_S / probe time over the probes that ended
# during it or within PROBE_WINDOW_S of it: the host's speed relative to the
# reference, 1 at full speed.  run.py multiplies job times by it, which turns
# them into seconds at the reference speed.  Time spent in probes is taken
# out of job times (not out of trace spans, where it is about 1%).

PROBE_REF_S = 0.0006  # the probe's time on the reference host at full speed
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.02


@dataclass(frozen=True)
class _ProbeNode:
    op: str
    kids: tuple


_PROBE_LEAVES = tuple(_ProbeNode("atom", (i,)) for i in range(60))
_PROBE_TABLE = {i * 2654435761 % (1 << 20): i for i in range(8192)}
_PROBE_KEYS = list(_PROBE_TABLE)[::3]
_PROBE_MATRIX = np.random.default_rng(12345).random((72, 72)) < 0.05


def _probe_work() -> int:
    """Build and hash a small syntax tree, as the package does with its
    formulas, look up keys spread over a large dict, then multiply two
    boolean matrices, as the model checker does for relations.  The mix
    follows, in the host's slow phases, both the interpreter-bound jobs and
    the ones that spend seconds in boolean matrix products (the
    interpreter part ~60% of the probe's time, the product ~40%)."""
    leaves = _PROBE_LEAVES
    tree = [_ProbeNode("and", (leaves[i % 60], leaves[i * 7 % 60])) for i in range(300)]
    table = _PROBE_TABLE
    looked_up = sum(table[key] for key in _PROBE_KEYS)
    product = _PROBE_MATRIX @ _PROBE_MATRIX
    return len(set(tree)) + looked_up + int(product.sum())


class SpeedProbe:
    def __init__(self):
        self.ends: list[float] = []  # perf_counter() at the end of each probe
        self.took: list[float] = []  # its duration
        self.stolen = 0.0  # time spent in probes started by the timer
        self._busy = False

    def take(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.took.append(t1 - t0)
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            t0 = time.perf_counter()
            self.take()
            self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed over the probes that ended from start -
        PROBE_WINDOW_S to end + PROBE_WINDOW_S."""
        lo = bisect.bisect_left(self.ends, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + PROBE_WINDOW_S)
        window = self.took[lo:hi]
        return sum(PROBE_REF_S / dt for dt in window) / len(window)


# --------------------------------------------------------------------------
# jobs: each returns (report text, post-check) where the post-check runs
# after the job's clock has stopped and returns a list of problems.


def _packed(mask) -> str:
    return np.packbits(mask).tobytes().hex()


class Jobs:
    def __init__(self, modules, tracer):
        (self.axioms, self.coalition, self.jsonio, self.models, self.parser,
         self.properties, self.syntax, self.voting) = modules
        self.tr = tracer

    def _load_game(self, text: str):
        tr, jsonio, models = self.tr, self.jsonio, self.models
        tr.count("jsonio.input_bytes", len(text))
        with tr.span("jsonio.loads"):
            data = jsonio.loads(text)
        with tr.span("jsonio.game_from_dict"):
            game = jsonio.game_from_dict(data)
        with tr.span("models.build"):
            model = models.MaslModel(game)
            sig = models.model_signature(model)
        tr.count("models.build.states", model.size)
        return game, model, sig

    def _property(self, sig, name: str, **params):
        with self.tr.span("properties.build"):
            formula = self.properties.build_property(name, sig, **params)
        self.tr.count_nodes("properties.nodes", formula)
        return formula

    def _modal(self, model, formula):
        with self.tr.span("models.modal"):
            return self.models.extension(model, formula)

    def _parse(self, text: str, sig, kind: str = "formula"):
        self.tr.count("parser.chars", len(text))
        with self.tr.span("parser.parse"):
            return self.parser.parse(text, sig, kind)

    def _report(self, report, to_dict=None) -> str:
        with self.tr.span("jsonio.report"):
            text = json.dumps(report if to_dict is None else to_dict(report))
        self.tr.count("jsonio.report_bytes", len(text))
        return text

    def _nash_keys(self, model, sig) -> list[str]:
        mask = self._modal(model, self._property(sig, "nashHere"))
        return [model.state_key(int(i)) for i in mask.nonzero()[0]]

    # -- equilibria: atoms, then star-free properties, then the star -------

    def equilibria(self, job: dict):
        tr, models, syntax = self.tr, self.models, self.syntax
        _, model, sig = self._load_game(job["game"])
        atoms = {}
        for player in sig.players:
            for value in sig.util_range:
                with tr.span("models.atoms"):
                    mask = models.extension(model, syntax.UtilEq(player, value))
                atoms[f"u{player}={value}"] = _packed(mask)
        nash = self._nash_keys(model, sig)
        dominant = []
        for player in sig.players:
            for name in sig.strategies(player):
                formula = self._property(sig, "weakDominance", player=player, strategy=name)
                dominant.append([player, name, bool(self._modal(model, formula).all())])
        star = None
        if job["star"] is not None:
            formula = self._parse(job["star"], sig)
            with tr.span("models.star"):
                mask = models.extension(model, formula)
            star = _packed(mask)
        report = {"atoms": atoms, "nash": nash, "dominant": dominant, "star": star}
        return self._report(report), None

    # -- formulas: schemas, lifts, round trips, coalition formulas ---------

    def formulas(self, job: dict):
        tr, axioms, models, syntax, coalition = (
            self.tr, self.axioms, self.models, self.syntax, self.coalition,
        )
        game, model, sig = self._load_game(job["game"])
        with tr.span("axioms.instantiate"):
            instances = axioms.instantiate_many(axioms.VECTOR_SCHEMAS, sig)
        with tr.span("axioms.validity"):
            results = axioms.validity_report([("g", model)], instances)
        with tr.span("models.lift"):
            lift = models.epistemic_lift(game)
        tr.count("models.lift.worlds", lift.size)
        with tr.span("axioms.instantiate"):
            lifted = axioms.instantiate_many(axioms.EPISTEMIC_SCHEMAS, sig)
        with tr.span("axioms.validity"):
            results += axioms.validity_report([("lift", lift)], lifted)
        instances += lifted
        tr.count("axioms.instances", len(instances))
        parsed = []
        for instance in instances:
            with tr.span("syntax.render"):
                text = syntax.render(instance.formula)
            parsed.append(self._parse(text, sig))
        cl = []
        for text in job["cl"]:
            formula = self._parse(text, sig, "cl")
            with tr.span("coalition.direct"):
                direct = coalition.cl_extension(model, formula)
            with tr.span("coalition.translate"):
                translated = coalition.translate(formula, game.form)
            cl.append([_packed(direct), _packed(self._modal(model, translated))])
        tr.count("coalition.formulas", len(job["cl"]))
        shape = self._parse(job["functionality"], sig)
        with tr.span("models.modal"):
            witness = models.counterexample(model, shape)
        report = {
            "instances": len(instances),
            "invalid": [r.instance.about for r in results if not r.valid],
            "cl": cl,
            "functionality": witness,
        }

        def round_trip():
            bad = sum(1 for inst, back in zip(instances, parsed) if back != inst.formula)
            return [f"{bad} instances differ after render/parse"] if bad else []

        return self._report(report), round_trip

    def wide(self, job: dict):
        _, model, sig = self._load_game(job["game"])
        return self._report({"nash": self._nash_keys(model, sig)}), None

    # -- voting ------------------------------------------------------------

    def _load_spec(self, text: str):
        tr, jsonio = self.tr, self.jsonio
        tr.count("jsonio.input_bytes", len(text))
        with tr.span("jsonio.loads"):
            data = jsonio.loads(text)
        with tr.span("jsonio.voting_spec"):
            return jsonio.voting_spec_from_dict(data)

    def audit(self, job: dict):
        rule, ballots = self._load_spec(job["spec"])
        with self.tr.span("voting.audit"):
            report = self.voting.audit_rule(rule, len(ballots))
        return self._report(report, self.jsonio.audit_report_to_dict), None

    def induced(self, job: dict):
        tr, models = self.tr, self.models
        rule, ballots = self._load_spec(job["spec"])
        with tr.span("voting.induced_game"):
            game = self.voting.induced_game(rule, ballots)
        with tr.span("models.build"):
            model = models.MaslModel(game)
            sig = models.model_signature(model)
        tr.count("models.build.states", model.size)
        return self._report({"nash": self._nash_keys(model, sig)}), None


def run_pass(modules, jobs: list[dict], tracer, speed: SpeedProbe) -> dict:
    """Run every job once.  A job that raises is recorded and the pass goes
    on.  Each job's time leaves out probes and its post-check; its speed
    is measured on the probes around it, one of them just before it and
    one just after it."""
    runner = Jobs(modules, tracer)
    job_s, spans, reports, problems = [], [], [], []
    speed.take()
    for job in jobs:
        tracer.job = job["id"]
        stolen = speed.stolen
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.job"):
                report, post = getattr(runner, job["kind"])(job)
        except Exception as exc:  # a failing job is a result, not a crash
            report, post, found = None, None, [f"{type(exc).__name__}: {exc}"]
        else:
            found = []
        t1 = time.perf_counter()
        job_s.append(t1 - t0 - (speed.stolen - stolen))
        spans.append((t0, t1))
        reports.append(report)
        problems.append(found + (post() if post is not None else []))
        speed.take()
    job_speed = [speed.speed(t0, t1) for t0, t1 in spans]
    return {"job_s": job_s, "job_speed": job_speed, "reports": reports, "problems": problems}


def main(argv: list[str]) -> int:
    t0 = float(os.environ["PERFBENCH_T0"])
    modules = _import_package()
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if argv == ["--setup-only"]:
        print(json.dumps(result))
        return 0
    speed = SpeedProbe()
    speed.start()
    jobs = json.loads(Path(argv[0]).read_text())
    trace_file = argv[2] if argv[1:2] == ["--trace"] else None
    tracer = Tracer() if trace_file else NullTracer()
    result.update(run_pass(modules, jobs, tracer, speed))
    speed.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace_file:
        Path(trace_file).write_text(
            json.dumps({"spans": tracer.spans, "counts": tracer.counts})
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
