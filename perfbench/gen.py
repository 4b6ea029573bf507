"""Seeded input generation for the three workloads.

Everything the package sees is produced here as JSON text (games, election
specs) or concrete formula syntax.  The same (workload, seed, size) always
yields the same job list; `digest` fingerprints it so two results can show
they measured the same inputs.  Shapes and job counts are fixed per workload
so that seeds change the data, never the amount of work.
"""
from __future__ import annotations

import hashlib
import json
import random
from itertools import permutations, product

WORKLOADS = ("equilibria", "formulas", "voting")

# equilibria: (strategies per player, games) per rung, 9 .. 3 125 profiles.
# More games at the small rungs so job_s.p50 sits on 27-profile games and
# job_s.p90 on 243-profile games, inside a rung rather than on a border.
# The star formula runs on rungs <= 1 296: at 3 125 the dense closure alone
# takes ~46 s.
EQ_LADDER = (
    ((3, 3), 39),
    ((3, 3, 3), 30),
    ((3, 3, 3, 3), 16),
    ((3, 3, 3, 3, 3), 11),
    ((5, 5, 5, 5), 2),
    ((6, 6, 6, 6), 1),
    ((5, 5, 5, 5, 5), 1),
)
EQ_STAR_MAX = 1296
EQ_TOY_LADDER = (((3, 3), 3), ((3, 3, 3), 2), ((3, 3, 3, 3), 1))

# formulas: small games like the C3/C5 sweeps (<= 27 profiles), plus one
# wide-utility nashHere job (|U| = 55, ~40k formula nodes over 27 states).
# Ten 2x2x2 games so that job_s.p90 (ranks 10-11 from the top) falls inside
# that group rather than on the tail of the 3x3 games, whose times vary with
# the random coalition formulas.
FORMULA_SHAPES = (
    ((2, 2), 55),
    ((3, 2), 28),
    ((3, 3), 10),
    ((2, 2, 2), 10),
    ((3, 2, 2), 2),
    ((3, 3, 2), 1),
)
FORMULA_TOY_SHAPES = (((2, 2), 2), ((3, 2, 2), 1))
WIDE_SHAPE, WIDE_VALUES, WIDE_TOY_VALUES = (3, 3, 3), 55, 12
FORMULA_VALUES, CL_PER_GAME = 3, 3

# voting: five rules audited with 3 and 4 voters, and the induced game of
# every 3-voter ballot profile under plurality and plurality+tie-break.
VOTING_VOTERS, VOTING_TOY_VOTERS = (3, 4), (3,)
INDUCED_TOY_JOBS = 12

# Utility values games draw from.  Each game takes exactly one fraction and
# the rest integers: hashing and comparing a non-integer Fraction costs more,
# so a varying mix would make the work depend on the seed.
INTEGERS = (-2, -1, 0, 1, 2, 3, 5)
FRACTIONS = ("1/2", "3/2", "-1/3", "7/4")
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def generate(workload: str, seed: int, toy: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "equilibria":
        return _equilibria(rng, EQ_TOY_LADDER if toy else EQ_LADDER)
    if workload == "formulas":
        return _formulas(rng, toy)
    if workload == "voting":
        return _voting(rng, toy)
    raise ValueError(f"unknown workload {workload!r}")


def digest(jobs: list[dict]) -> str:
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# games


def _game(rng: random.Random, sizes, values) -> dict:
    """A game JSON object over `sizes` whose utilities cover every value in
    `values` at least once (so the utility range, and with it the size of
    range-dependent formulas, is fixed by the job, not by chance)."""
    names = [list(LETTERS[:k]) for k in sizes]
    cells = len(sizes)
    for k in sizes:
        cells *= k
    draws = [rng.choice(values) for _ in range(cells)]
    for value, at in zip(values, rng.sample(range(cells), len(values))):
        draws[at] = value
    outcomes = {}
    for idx, profile in enumerate(product(*names)):
        utils = draws[idx * len(sizes) : (idx + 1) * len(sizes)]
        outcomes[",".join(profile)] = {"label": f"o{idx}", "utils": utils}
    return {"players": len(sizes), "strategies": names, "outcomes": outcomes}


def _values(rng: random.Random, k: int) -> list:
    values = rng.sample(INTEGERS, k - 1) + [rng.choice(FRACTIONS)]
    rng.shuffle(values)
    return values


def _vector(terms) -> str:
    return "(" + ",".join(terms) + ")"


# --------------------------------------------------------------------------
# equilibria


def _equilibria(rng: random.Random, ladder) -> list[dict]:
    jobs = []
    for sizes, count in ladder:
        m = 1
        for k in sizes:
            m *= k
        for g in range(count):
            values = _values(rng, 4)
            game = _game(rng, sizes, values)
            star = None
            if m <= EQ_STAR_MAX:
                p, q = rng.sample(range(len(sizes)), 2)
                moves = [
                    _vector("??" if pos == mover else "!!" for pos in range(len(sizes)))
                    for mover in (p, q)
                ]
                target = rng.randint(1, len(sizes))
                star = f"<({moves[0]}+{moves[1]})*> u{target}={rng.choice(values)}"
            jobs.append(
                {
                    "id": f"eq-{m}-{g}",
                    "kind": "equilibria",
                    "game": json.dumps(game),
                    "star": star,
                }
            )
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------------------
# formulas


def _formulas(rng: random.Random, toy: bool) -> list[dict]:
    jobs = []
    for sizes, count in FORMULA_TOY_SHAPES if toy else FORMULA_SHAPES:
        for g in range(count):
            values = _values(rng, FORMULA_VALUES)
            game = _game(rng, sizes, values)
            jobs.append(
                {
                    "id": f"fx-{'x'.join(map(str, sizes))}-{g}",
                    "kind": "formulas",
                    "game": json.dumps(game),
                    "cl": [_cl_text(rng, game, values, 3) for _ in range(CL_PER_GAME)],
                    "functionality": _functionality_text(rng, game),
                }
            )
    rng.shuffle(jobs)
    wide = WIDE_TOY_VALUES if toy else WIDE_VALUES
    game = _game(rng, WIDE_SHAPE, list(range(wide)))
    jobs.append({"id": f"wide-{wide}", "kind": "wide", "game": json.dumps(game)})
    return jobs


def _functionality_text(rng: random.Random, game: dict) -> str:
    """Functionality for a vector with an adversary slot at player 2; it is
    falsified exactly when player 2's utility varies along that slot."""
    names = game["strategies"]
    fixed = [rng.choice(s) for s in names]
    terms = ["??" if pos == 1 else fixed[pos] for pos in range(len(names))]
    fixed[1] = rng.choice(names[1])
    value = game["outcomes"][",".join(fixed)]["utils"][1]
    vec = _vector(terms)
    return f"<{vec}> u2={value} -> [{vec}] u2={value}"


def _cl_text(rng: random.Random, game: dict, values, depth: int) -> str:
    n = game["players"]
    labels = [entry["label"] for entry in game["outcomes"].values()]

    def atom() -> str:
        roll = rng.random()
        if roll < 0.15:
            return "T"
        if roll < 0.55:
            return f"u{rng.randint(1, n)}={rng.choice(values)}"
        if roll < 0.75:
            return f"u{rng.randint(1, n)}>={rng.choice(values)}"
        return f"label({rng.choice(labels)})"

    # Boxes are not nested: translation multiplies the commitment vectors of
    # nested boxes, which would let a few seeds carry far more work.
    def build(d: int, box: bool) -> str:
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            return atom()
        if roll < 0.45:
            return "~" + build(d - 1, box)
        if roll < 0.6:
            return f"({build(d - 1, box)} & {build(d - 1, box)})"
        if roll < 0.7 or not box:
            return f"({build(d - 1, box)} | {build(d - 1, box)})"
        members = ",".join(str(p) for p in range(1, n + 1) if rng.random() < 0.5)
        return f"[C {{{members}}}] {build(d - 1, False)}"

    return build(depth, True)


# --------------------------------------------------------------------------
# voting


def _voting(rng: random.Random, toy: bool) -> list[dict]:
    """The seed picks the alternatives' names, the cast ballots and the job
    order.  Rules are fixed by position (dictator:1, constant on the first
    alternative, tie-break b > c > a in declared order): the audit's cost
    depends on where in the enumeration each rule's verdicts are settled."""
    alts = sorted(rng.sample(LETTERS, 3))
    tiebreak = alts[1] + alts[2] + alts[0]
    rules = [
        ("plurality", None),
        ("absolute_majority", None),
        ("plurality", tiebreak),
        ("dictator:1", None),
        (f"constant:{alts[0]}", None),
    ]
    ballots = ["".join(p) for p in permutations(alts)]
    jobs = []
    for n in VOTING_VOTERS if not toy else VOTING_TOY_VOTERS:
        for rule, tb in rules:
            spec = {
                "alternatives": alts,
                "ballots": [rng.choice(ballots) for _ in range(n)],
                "rule": rule,
            }
            if tb is not None:
                spec["tiebreak"] = tb
            jobs.append({"id": f"audit-{n}-{spec['rule']}", "kind": "audit", "spec": json.dumps(spec)})
    induced = []
    for tb in (None, tiebreak):
        for profile in product(ballots, repeat=3):
            spec = {"alternatives": alts, "ballots": list(profile), "rule": "plurality"}
            if tb is not None:
                spec["tiebreak"] = tb
            induced.append(
                {"id": f"induced-{tb or 'plain'}-{''.join(profile)}", "kind": "induced", "spec": json.dumps(spec)}
            )
    rng.shuffle(induced)
    return jobs + (induced[:INDUCED_TOY_JOBS] if toy else induced)
