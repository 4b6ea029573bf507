"""The CLI's output contract, pinned byte for byte.

Each case runs ``stratlogic.cli.main`` on the inputs under
``tests/golden/inputs`` and compares its exit code, stdout and stderr with
``tests/golden/<case>.txt``.  To rewrite the expectations after a deliberate
change of output, run ``python tests/test_cli_golden.py`` and review the diff.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stratlogic.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# Per game: a formula and the state to check it at, a formula to parse, and
# a coalition formula with the state to check it at.
_GAMES = {
    "pd": (
        ("[(d,d)] u1=1", "c,c"),
        "[(c,??)+(d,??)] u1>=2",
        ("[C {1,2}] u1=3", "c,c"),
    ),
    "vote3": (
        ("<(!!,??,!!)> (win(b) & ~win(a) & ~win(c))", "a,b,c"),
        "<(a,??,!!)*> win(c)",
        ("[C {1,2}] win(a)", "a,b,c"),
    ),
    "vote3tb": (
        ("u1>=1 -> [(??,!!,!!)] u1>=1", "a,b,c"),
        "label(a) <-> win(a)",
        ("[C {2,3}] u1=0", "a,a,a"),
    ),
    "frac": (
        ("u1=1/2 & <(!!,??)> u2=3/4", "x,l"),
        "[(??,l)] u2>1/4",
        ("[C {1}] u1>=1/2", "z,l"),
    ),
}


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name, ((formula, state), text, (cl, cl_state)) in _GAMES.items():
        game = ["--game", str(INPUTS / f"{name}.json")]
        cases[f"{name}-nash"] = ["nash", *game]
        cases[f"{name}-check"] = ["check", *game, "--formula", formula, "--state", state]
        cases[f"{name}-parse"] = ["parse", *game, text]
        cases[f"{name}-axioms"] = ["axioms", *game, "--epistemic"]
        cases[f"{name}-lift"] = ["lift", *game]
        cases[f"{name}-cl-check"] = ["cl", "check", *game, "--formula", cl, "--state", cl_state]
        cases[f"{name}-cl-translate"] = ["cl", "translate", *game, "--formula", cl]
    pd = ["--game", str(INPUTS / "pd.json")]
    cases["pd-check-false"] = ["check", *pd, "--formula", "u1=0", "--state", "c,c"]
    cases["pd-check-eval-error"] = ["check", *pd, "--formula", "u1=7"]
    # Three errors: the first in left-to-right post-order is reported.
    cases["pd-check-eval-error-first-of-three"] = [
        "check", *pd, "--formula", "u1=0 | [ag1] u2=9 & u1=7"
    ]
    cases["pd-parse-program"] = ["parse", *pd, "--kind", "program", "ag1;(c,??)*+?T"]
    cases["pd-parse-cl"] = ["parse", *pd, "--kind", "cl", "[C {1}] u2=3 | ~[C {}] T"]
    # Nested boxes with the empty and the grand coalition on three players.
    cases["vote3-cl-check-nested"] = [
        "cl", "check", "--game", str(INPUTS / "vote3.json"), "--formula",
        "win(a) & ~[C {}] u1=2 & [C {1}] ~[C {2,3}] ~win(a) | u2=2 & [C {1,2,3}] [C {}] T",
        "--state", "a,b,c",
    ]
    # Parse errors and their positions: a column counts from the last newline
    # outside a string literal.
    cases["pd-parse-error-unknown-strategy"] = ["parse", *pd, "u1=1 &\n  [(c,zz)] u1=1"]
    cases["pd-parse-error-long-vector"] = ["parse", *pd, "<(c,d,c)> T"]
    cases["pd-parse-error-unterminated"] = ["parse", *pd, 'T & label("open']
    cases["pd-parse-error-stray-after-string"] = ["parse", *pd, 'label("a\nb") & $']
    cases["pd-check-error-stray-tab-line"] = [
        "check", *pd, "--formula", "T\n\t&\r T #", "--state", "c,c"
    ]
    # Profiles out of order, one value in several spellings, winners on some
    # rows only.
    mixed = ["--game", str(INPUTS / "mixed.json")]
    cases["mixed-nash"] = ["nash", *mixed]
    cases["mixed-check"] = [
        "check", *mixed, "--formula", "(u2>=1/2 & ~win(q)) | label(top)", "--state", "a,x,k"
    ]
    for bad in ("bad-name", "missing-profile", "true-util", "float-players"):
        cases[f"{bad}-nash"] = ["nash", "--game", str(INPUTS / f"{bad}.json")]
    # A relation pair of JSON booleans is no pair of world numbers.
    cases["bool-pair-echeck"] = [
        "echeck", "--model", str(INPUTS / "bool-pair.model.json"), "--formula", "T"
    ]
    # Four alternatives: one strategy-proof rule, one with a manipulation.
    specs = ("plurality_tiebreak", "dictator1", "absolute_majority4", "plurality_tiebreak4")
    for spec in specs:
        path = str(INPUTS / f"{spec}.spec.json")
        cases[f"voting-game-{spec}"] = ["voting", "game", "--spec", path]
        cases[f"voting-audit-{spec}"] = ["voting", "audit", "--spec", path]
    # The Gibbard-Satterthwaite rung at four alternatives and four voters.
    d44 = str(INPUTS / "dictator1_4x4.spec.json")
    cases["voting-audit-dictator1_4x4"] = ["voting", "audit", "--spec", d44]
    # A ballot or a tie-break that is no string exits 2.
    for bad in ("bad-ballot", "bad-tiebreak"):
        path = str(INPUTS / f"{bad}.spec.json")
        cases[f"voting-game-{bad}"] = ["voting", "game", "--spec", path]
        cases[f"voting-audit-{bad}"] = ["voting", "audit", "--spec", path]
    for demo in ("pd", "vote3", "vote3tb", "confusion"):
        cases[f"demo-{demo}"] = ["demo", demo]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert _run(CASES[case]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(_run(argv))
    sys.exit(0)
