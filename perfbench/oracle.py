"""Independent oracles for every verdict a job reports.

Nothing here imports stratlogic.  Games are read straight from the generated
JSON with exact `Fraction`s, ranked to integer codes, and solved with numpy
best responses; the star-reach formula is answered by grouping profiles on
the coordinates that never switch; voting audits are re-done by brute force
with every manipulation witness replayed.  `check` returns a list of
problems (empty when the report agrees).
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations, product

import numpy as np

_STAR = re.compile(r"<\((\([^)]*\))\+(\([^)]*\))\)\*> u(\d+)=(\S+)\Z")
_FUNCTIONALITY = re.compile(r"<\(([^)]*)\)> u2=(\S+) -> ")


def _packed(mask: np.ndarray) -> str:
    return np.packbits(mask.ravel()).tobytes().hex()


class _Game:
    """Utilities as an int array of shape (k_1, ..., k_n, n) holding each
    value's rank in the game's sorted utility range."""

    def __init__(self, text: str):
        data = json.loads(text)
        self.names = data["strategies"]
        self.sizes = [len(s) for s in self.names]
        self.n = len(self.sizes)
        self.keys = [",".join(p) for p in product(*self.names)]
        exact = [[Fraction(u) for u in data["outcomes"][k]["utils"]] for k in self.keys]
        self.values = sorted({u for row in exact for u in row})
        rank = {v: i for i, v in enumerate(self.values)}
        codes = [[rank[u] for u in row] for row in exact]
        self.U = np.array(codes, dtype=np.int64).reshape(self.sizes + [self.n])

    def code(self, text: str) -> int:
        return self.values.index(Fraction(text))

    def nash_keys(self) -> list[str]:
        return _nash_keys(self.U, self.keys)


def _nash_keys(U: np.ndarray, keys: list[str]) -> list[str]:
    ok = np.ones(U.shape[:-1], dtype=bool)
    for i in range(U.shape[-1]):
        Ui = U[..., i]
        ok &= Ui == Ui.max(axis=i, keepdims=True)
    return [keys[j] for j in np.flatnonzero(ok.ravel())]


def _diff(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# --------------------------------------------------------------------------
# equilibria, formulas, wide


def _equilibria(job: dict) -> dict:
    g = _Game(job["game"])
    atoms = {
        f"u{i + 1}={v}": _packed(g.U[..., i] == c)
        for i in range(g.n)
        for c, v in enumerate(g.values)
    }
    dominant = [
        [i + 1, name, bool((np.take(g.U[..., i], [a], axis=i) >= g.U[..., i]).all())]
        for i in range(g.n)
        for a, name in enumerate(g.names[i])
    ]
    star = None
    if job["star"] is not None:
        first, second, target, value = _STAR.match(job["star"]).groups()
        movers = tuple(
            vec.strip("()").split(",").index("??") for vec in (first, second)
        )
        hit = g.U[..., int(target) - 1] == g.code(value)
        reach = np.broadcast_to(hit.any(axis=movers, keepdims=True), hit.shape)
        star = _packed(reach)
    return {"atoms": atoms, "nash": g.nash_keys(), "dominant": dominant, "star": star}


def _check_fields(want: dict, got: dict) -> list[str]:
    return [p for key in want for p in _diff(key, got.get(key), want[key])]


def _formulas(job: dict) -> dict:
    """The Functionality instance for a vector with an adversary slot fails
    (at every state, so first at state 0) iff the formula holds at some but
    not all of the vector's targets."""
    g = _Game(job["game"])
    terms, value = _FUNCTIONALITY.match(job["functionality"]).groups()
    index = tuple(
        slice(None) if t == "??" else g.names[pos].index(t)
        for pos, t in enumerate(terms.split(","))
    )
    hits = g.U[index + (1,)] == g.code(value)
    witness = g.keys[0] if hits.any() and not hits.all() else None
    return {"functionality": witness}


def _check_formulas(want: dict, got: dict) -> list[str]:
    problems = _diff("functionality witness", got["functionality"], want["functionality"])
    if got["instances"] <= 0:
        problems.append("no axiom instances")
    if got["invalid"]:
        problems.append(f"{len(got['invalid'])} invalid instances, e.g. {got['invalid'][0]}")
    for k, (direct, translated) in enumerate(got["cl"]):
        if direct != translated:
            problems.append(f"coalition formula {k}: direct and translated disagree")
    return problems


def _wide(job: dict) -> dict:
    return {"nash": _Game(job["game"]).nash_keys()}


# --------------------------------------------------------------------------
# voting


class _Rule:
    def __init__(self, spec: dict):
        self.alts = spec["alternatives"]
        self.name = spec["rule"]
        self.tiebreak = spec.get("tiebreak")

    def winners(self, tops) -> frozenset:
        kind, _, arg = self.name.partition(":")
        if kind == "plurality":
            counts = {a: tops.count(a) for a in self.alts}
            most = max(counts.values())
            won = {a for a in self.alts if counts[a] == most}
        elif kind == "absolute_majority":
            won = {a for a in self.alts if 2 * tops.count(a) > len(tops)} or set(self.alts)
        elif kind == "dictator":
            won = {tops[int(arg) - 1]}
        else:
            won = {arg}
        if self.tiebreak:
            won = {min(won, key=self.tiebreak.index)}
        return frozenset(won)

    def scores(self, n: int) -> np.ndarray:
        """6 x the mean rank score of each state's winner set, per ballot:
        shape (ballots, states), states in profile order."""
        states = [self.winners(list(t)) for t in product(self.alts, repeat=n)]
        top = len(self.alts) - 1
        return np.array(
            [
                [6 * sum(top - b.index(x) for x in w) // len(w) for w in states]
                for b in self.ballots()
            ],
            dtype=np.int64,
        )

    def ballots(self) -> list[str]:
        return ["".join(p) for p in permutations(self.alts)]


def _set_better(xs, ys, ballot: str) -> bool:
    strict = False
    for x in xs:
        for y in ys:
            if x != y:
                if ballot.index(x) > ballot.index(y):
                    return False
                strict = True
    return strict


def _manipulable(rule: _Rule, n: int) -> bool:
    ballots = rule.ballots()
    for profile in product(ballots, repeat=n):
        tops = [b[0] for b in profile]
        before = rule.winners(tops)
        for voter, truth in enumerate(profile):
            for lie in {b[0] for b in ballots} - {truth[0]}:
                after = rule.winners(tops[:voter] + [lie] + tops[voter + 1 :])
                if _set_better(after, before, truth):
                    return True
    return False


def _dictators(rule: _Rule, n: int) -> list[int]:
    """Voter i satisfies the dictator formula in an induced game iff the
    highest utility any other voter gets anywhere (M) is at most the lowest,
    over states, of i's best own-switch utility (R); i is a dictator of the
    rule iff that holds for every ballot profile."""
    S = rule.scores(n)
    profiles = np.array(list(product(range(len(S)), repeat=n)))
    U = S[profiles]
    grid = (len(profiles),) + (len(rule.alts),) * n
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        M = U[:, others, :].max(axis=(1, 2))
        R = U[:, i, :].reshape(grid).max(axis=1 + i).reshape(len(profiles), -1).min(axis=1)
        if (M <= R).all():
            out.append(i + 1)
    return out


def _audit(job: dict) -> dict:
    spec = json.loads(job["spec"])
    rule, n = _Rule(spec), len(spec["ballots"])
    table = {w for w in (rule.winners(list(t)) for t in product(rule.alts, repeat=n))}
    resolute = all(len(w) == 1 for w in table)
    proof = not _manipulable(rule, n)
    dictators = _dictators(rule, n)
    return {
        "resolute": resolute,
        "strategyProof": proof,
        "nonImposed": len(table) >= 3,
        "distinctWinnerSets": len(table),
        "dictators": dictators,
        "gsConsistent": not (resolute and proof and len(table) >= 3) or bool(dictators),
        "rule": rule,
    }


def _check_audit(want: dict, got: dict) -> list[str]:
    problems = [
        p for key in want if key != "rule" for p in _diff(key, got.get(key), want[key])
    ]
    witness = got.get("manipulation")
    if (witness is None) != want["strategyProof"]:
        problems.append("manipulation witness present iff not strategy-proof: violated")
    if witness is not None:
        rule = want["rule"]
        profile = witness["profile"]
        tops = [b[0] for b in profile]
        before = rule.winners(tops)
        voter = witness["voter"]
        tops[voter - 1] = witness["deviation"][0]
        after = rule.winners(tops)
        if (
            sorted(before) != witness["before"]
            or sorted(after) != witness["after"]
            or witness["deviation"] == profile[voter - 1]
            or not _set_better(after, before, profile[voter - 1])
        ):
            problems.append(f"manipulation witness does not replay: {witness}")
    return problems


def _induced(job: dict) -> dict:
    spec = json.loads(job["spec"])
    rule = _Rule(spec)
    n = len(spec["ballots"])
    S = rule.scores(n)
    index = {b: k for k, b in enumerate(rule.ballots())}
    U = np.stack([S[index[b]] for b in spec["ballots"]], axis=-1)
    U = U.reshape((len(rule.alts),) * n + (n,))
    keys = [",".join(t) for t in product(rule.alts, repeat=n)]
    return {"nash": _nash_keys(U, keys)}


_EXPECT = {
    "equilibria": (_equilibria, _check_fields),
    "formulas": (_formulas, _check_formulas),
    "wide": (_wide, _check_fields),
    "audit": (_audit, _check_audit),
    "induced": (_induced, _check_fields),
}


def expect(job: dict):
    """What the oracle expects of a job, computed once per run."""
    return _EXPECT[job["kind"]][0](job)


def check(job: dict, want, report: str) -> list[str]:
    return _EXPECT[job["kind"]][1](want, json.loads(report))
