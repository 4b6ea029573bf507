"""End-to-end CLI behaviour: outputs, exit codes, and error mapping."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratlogic
from stratlogic import Signature, epistemic_lift
from stratlogic.cli import main
from stratlogic.jsonio import game_to_dict, intensional_from_dict, intensional_to_dict, loads
from stratlogic.catalog import commitment_confusion, prisoners_dilemma, vote3_game


@pytest.fixture()
def pd_file(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(game_to_dict(prisoners_dilemma())))
    return str(path)


@pytest.fixture()
def vote_file(tmp_path):
    path = tmp_path / "vote.json"
    path.write_text(json.dumps(game_to_dict(vote3_game())))
    return str(path)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "alternatives": ["a", "b", "c"],
                "ballots": ["abc", "bca", "cab"],
                "rule": "plurality",
                "tiebreak": "abc",
            }
        )
    )
    return str(path)


def _json_out(capsys):
    return loads(capsys.readouterr().out)


# --------------------------------------------------------------------------
# check / parse / nash


def test_check_true_formula(pd_file, capsys):
    assert main(["check", "--game", pd_file, "--formula", "[(d,d)] u1=1"]) == 0
    data = _json_out(capsys)
    assert data["formula"] == "[(d,d)] u1=1"
    assert data["extension"] == ["c,c", "c,d", "d,c", "d,d"]


def test_check_false_at_state_exits_1(pd_file, capsys):
    code = main(["check", "--game", pd_file, "--formula", "u1=0", "--state", "c,c"])
    assert code == 1
    assert _json_out(capsys)["holdsAt"] is False


def test_check_true_at_state(pd_file, capsys):
    code = main(["check", "--game", pd_file, "--formula", "u1=0", "--state", "c,d"])
    assert code == 0
    assert _json_out(capsys)["holdsAt"] is True


def test_check_eval_error_exits_2(pd_file, capsys):
    assert main(["check", "--game", pd_file, "--formula", "u1=7"]) == 2
    assert "range" in capsys.readouterr().err


def test_check_parse_error_exits_2(pd_file, capsys):
    assert main(["check", "--game", pd_file, "--formula", "(c,"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


_LONG = "0" * 5000 + "1"


@pytest.mark.parametrize(
    "command, formula, col",
    [
        ("check", f"u1={_LONG}", 4),
        ("check", f"[ag{_LONG}] T", 2),
        ("check", f"u1 >= {_LONG}", 7),
        ("cl check", f"[C {{{_LONG}}}] T", 5),
    ],
)
def test_a_numeral_longer_than_int_converts_exits_2(pd_file, capsys, command, formula, col):
    argv = [*command.split(), "--game", pd_file, "--formula", formula]
    assert main(argv) == 2
    error = f"error: numeral of 5001 digits is too long (line 1, column {col})\n"
    assert capsys.readouterr() == ("", error)


def test_parse_canonical_and_ast(pd_file, capsys):
    assert main(["parse", "--game", pd_file, "[(c,??)+(d,??)]win(a)"]) == 2
    capsys.readouterr()  # win() undefined for PD: usage error
    assert main(["parse", "--game", pd_file, "[(c,??)+(d,??)]u1=0"]) == 0
    data = _json_out(capsys)
    assert data["canonical"] == "[(c,??)+(d,??)] u1=0"
    ast = data["ast"]
    assert ast["nodes"][ast["root"]]["node"] == "Box"


def test_parse_program_kind(pd_file, capsys):
    assert main(["parse", "--game", pd_file, "--kind", "program", "ag1;ag2^"]) == 0
    assert _json_out(capsys)["canonical"] == "ag1;ag2^"


def test_parse_writes_output_file(pd_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["parse", "--game", pd_file, "-o", str(out), "T"]) == 0
    assert loads(out.read_text())["canonical"] == "T"


def test_nash(pd_file, capsys):
    assert main(["nash", "--game", pd_file]) == 0
    data = _json_out(capsys)
    assert data["equilibria"] == ["d,d"]
    assert data["formulaAgrees"] is True


# --------------------------------------------------------------------------
# voting


def test_voting_audit(spec_file, capsys):
    assert main(["voting", "audit", "--spec", spec_file]) == 0
    data = _json_out(capsys)
    assert data["rule"] == "plurality+tiebreak:abc"
    assert data["strategyProof"] is False
    assert data["gsConsistent"] is True


def test_voting_game_emits_loadable_game(spec_file, capsys):
    assert main(["voting", "game", "--spec", spec_file]) == 0
    from stratlogic.jsonio import game_from_dict

    game = game_from_dict(_json_out(capsys))
    assert game.form.profile_count() == 27
    assert Signature.from_game(game).alternatives is not None


def test_voting_bad_rule_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"alternatives": ["a", "b"], "ballots": ["ab", "ba"], "rule": "borda"}
        )
    )
    assert main(["voting", "audit", "--spec", str(path)]) == 2


# --------------------------------------------------------------------------
# cl


def test_cl_translate(pd_file, capsys):
    code = main(["cl", "translate", "--game", pd_file, "--formula", "[C {2}] u1=0"])
    assert code == 0
    data = _json_out(capsys)
    assert data["translation"] == "[(??,c)] u1=0 | [(??,d)] u1=0"


def test_cl_check_agreement(pd_file, capsys):
    code = main(["cl", "check", "--game", pd_file, "--formula", "[C {1,2}] u1=3"])
    assert code == 0
    data = _json_out(capsys)
    assert data["agreesWithTranslation"] is True
    assert data["extension"] == ["c,c", "c,d", "d,c", "d,d"]


def test_cl_check_false_state_exits_1(pd_file, capsys):
    code = main(
        ["cl", "check", "--game", pd_file, "--formula", "[C {}] u1=3", "--state", "c,c"]
    )
    assert code == 1


# --------------------------------------------------------------------------
# lift / echeck


def test_lift_and_echeck(pd_file, tmp_path, capsys):
    lifted = tmp_path / "lift.json"
    assert main(["lift", "--game", pd_file, "-o", str(lifted)]) == 0
    model = intensional_from_dict(loads(lifted.read_text()))
    assert model.size == 4

    code = main(
        [
            "echeck",
            "--model",
            str(lifted),
            "--formula",
            "[(ag1+ag2)*] (u1=1 | ~u1=1)",
        ]
    )
    assert code == 0
    capsys.readouterr()

    code = main(
        [
            "echeck",
            "--model",
            str(lifted),
            "--formula",
            "[ag2] u1=1",
            "--world",
            "G:d,d",
        ]
    )
    assert code == 1  # player 2 cannot rule out c,d where u1=0
    data = _json_out(capsys)
    assert data["holdsAt"] is False


# --------------------------------------------------------------------------
# axioms


def test_axioms_all_valid(pd_file, capsys):
    assert main(["axioms", "--game", pd_file]) == 0
    data = _json_out(capsys)
    assert data["invalid"] == []
    assert data["schemas"]["Functionality"]["instances"] == 128
    assert data["schemas"]["Functionality"]["invalid"] == 0


def test_axioms_epistemic_sweep(pd_file, capsys):
    assert main(["axioms", "--game", pd_file, "--epistemic"]) == 0
    data = _json_out(capsys)
    assert "OwnActionKnowledge" in data["schemas"]


# --------------------------------------------------------------------------
# demos


@pytest.mark.parametrize("which", ["pd", "vote3", "vote3tb", "confusion"])
def test_demos_run_clean(which, capsys):
    assert main(["demo", which]) == 0
    out = capsys.readouterr().out
    assert out  # each demo narrates its facts


# --------------------------------------------------------------------------
# error mapping


def test_missing_file_exits_2(capsys):
    assert main(["check", "--game", "/nonexistent.json", "--formula", "T"]) == 2


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    assert main(["check", "--game", str(path), "--formula", "T"]) == 2


def test_over_deep_json_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    src = str(Path(stratlogic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stratlogic.cli", "check", "--game", str(path),
         "--formula", "T"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: not valid JSON: nesting too deep\n"


def _cli_subprocess(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(stratlogic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "stratlogic.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "spelling, shown", [("NaN", "nan"), ("-Infinity", "-inf"), ("1e400", "inf")]
)
def test_non_finite_utilities_exit_2(tmp_path, spelling, shown):
    # `json` reads NaN, Infinity and overflowing literals as floats.
    game = tmp_path / "game.json"
    text = json.dumps(game_to_dict(prisoners_dilemma())).replace("[0, 3]", f"[0, {spelling}]")
    game.write_text(text)
    model = tmp_path / "model.json"
    data = json.dumps(intensional_to_dict(commitment_confusion()[0]))
    model.write_text(data.replace("[0, 3]", f"[0, {spelling}]"))
    error = f"error: outcome 'c,d': not a finite utility value: {shown}\n"
    for argv in (
        ("nash", "--game", str(game)),
        ("check", "--game", str(game), "--formula", "T"),
        ("echeck", "--model", str(model), "--formula", "T"),
    ):
        proc = _cli_subprocess(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


def test_bool_and_float_integers_in_json_exit_2(tmp_path):
    # Python equates true with 1 and 2.0 with 2; the formats do not.
    lift = intensional_to_dict(epistemic_lift(prisoners_dilemma()))
    lift["relations"]["1"][0] = [True, False]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(lift))
    game = tmp_path / "game.json"
    game.write_text(json.dumps({**game_to_dict(prisoners_dilemma()), "players": 2.0}))
    for argv, error in (
        (("echeck", "--model", str(model), "--formula", "T"),
         "error: model: bad relation pair [true, false]\n"),
        (("nash", "--game", str(game)),
         "error: game: 'players' must be an integer, not 2.0\n"),
    ):
        proc = _cli_subprocess(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


@pytest.mark.parametrize("key", [" 0_1 ", "+1", "01", "1.0"])
def test_relation_key_must_be_a_canonical_player_number(tmp_path, capsys, key):
    lift = intensional_to_dict(epistemic_lift(prisoners_dilemma()))
    lift["relations"][key] = lift["relations"].pop("1")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(lift))
    assert main(["echeck", "--model", str(model), "--formula", "<ag1> label(cd)"]) == 2
    assert capsys.readouterr() == ("", f"error: model: bad agent key {key!r}\n")


@pytest.mark.parametrize("voter", [" 0_1 ", "+1", "01", "1.0", "\u0661"])
def test_a_dictator_voter_must_be_a_canonical_number(tmp_path, capsys, voter):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"alternatives": ["a", "b"], "ballots": ["ab", "ba"], "rule": f"dictator:{voter}"})
    )
    assert main(["voting", "audit", "--spec", str(spec)]) == 2
    assert capsys.readouterr() == ("", f"error: voting spec: bad voter number {voter!r}\n")


def test_an_unexpected_exception_exits_2_with_one_error_line(pd_file, capsys, monkeypatch):
    """A fault of the program is no verdict: not exit 1, and no traceback."""
    import stratlogic.cli

    def broken(name, sig, **params):
        raise NameError("name 'levels' is not defined")

    monkeypatch.setattr(stratlogic.cli, "build_property", broken)
    assert main(["nash", "--game", pd_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal error (NameError): name 'levels' is not defined\n"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_too_deep_formula_is_an_input_error_not_a_false_verdict(pd_file):
    # 1 000 conjuncts nest deeper than the interpreter's recursion limit
    formula = " & ".join(["u1=1"] * 1000)
    src = str(Path(stratlogic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stratlogic.cli", "check", "--game", pd_file,
         "--formula", formula],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode != 1
    assert "Traceback" not in proc.stderr
    if proc.returncode != 0:
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


def _check_subprocess(pd_file, formula: str, state: str, command=("check",)):
    return _cli_subprocess(
        *command, "--game", pd_file, "--formula", formula, "--state", state
    )


def test_thousand_conjunct_check_gets_a_verdict(pd_file):
    # Every fact holds at c,c; "u1=0" holds nowhere.
    facts = ["u1=2", "~u2=3", 'label("cc")', "(??,c)", "[(c,!!)] ~u2=3"]
    verdicts = {}
    for n in (10, 1000):
        holds = [facts[i % len(facts)] for i in range(n)]
        fails = holds[: n // 2] + ["u1=0"] + holds[n // 2 + 1 :]
        for name, conjuncts in (("holds", holds), ("fails", fails)):
            proc = _check_subprocess(pd_file, " & ".join(conjuncts), "c,c")
            assert proc.stderr == "", (n, name, proc.stderr)
            data = loads(proc.stdout)
            del data["formula"]
            verdicts[n, name] = (proc.returncode, data)
    assert verdicts[10, "holds"][0] == 0
    assert verdicts[10, "fails"][0] == 1
    assert verdicts[10, "holds"][1]["extension"] == ["c,c"]
    assert verdicts[1000, "holds"] == verdicts[10, "holds"]
    assert verdicts[1000, "fails"] == verdicts[10, "fails"]


def test_thousand_conjunct_cl_check_gets_a_verdict(pd_file):
    # Every fact holds at c,c; "u1=0" does not.
    facts = ["u1=2", "~u2=3", 'label("cc")', "[C {1,2}] u1=2", "[C {1}] ~u1=3"]
    verdicts = {}
    for n in (10, 1000):
        holds = [facts[i % len(facts)] for i in range(n)]
        fails = holds[: n // 2] + ["u1=0"] + holds[n // 2 + 1 :]
        for name, conjuncts in (("holds", holds), ("fails", fails)):
            proc = _check_subprocess(pd_file, " & ".join(conjuncts), "c,c", ("cl", "check"))
            assert proc.stderr == "", (n, name, proc.stderr)
            data = loads(proc.stdout)
            del data["formula"]
            verdicts[n, name] = (proc.returncode, data)
    assert verdicts[10, "holds"] == (
        0,
        {"extension": ["c,c"], "agreesWithTranslation": True, "state": "c,c", "holdsAt": True},
    )
    assert verdicts[10, "fails"][0] == 1
    assert verdicts[10, "fails"][1]["holdsAt"] is False
    assert verdicts[1000, "holds"] == verdicts[10, "holds"]
    assert verdicts[1000, "fails"] == verdicts[10, "fails"]


def test_long_programs_and_deep_groups_get_a_verdict(pd_file):
    # 10 000 sequenced vectors, 10 000 alternatives and 1 000 nested
    # parentheses, each checked at c,c in a fresh interpreter.
    formulas = {
        "seq": "<" + ";".join(["(c,??)"] * 10_000) + "> u1=0",
        "choice": "<" + "+".join(["(d,c)", "(c,??)"] * 5_000) + "> u1=3",
        "parens": "(" * 1_000 + "u1=2" + ")" * 1_000,
    }
    for name, formula in formulas.items():
        proc = _check_subprocess(pd_file, formula, "c,c")
        assert proc.stderr == "", (name, proc.stderr[-500:])
        assert proc.returncode == 0, name
        assert loads(proc.stdout)["holdsAt"] is True


def test_parse_of_deep_formulas_writes_a_table_linear_in_the_input(pd_file):
    # 1 000 and 10 000 conjuncts or negations nest the AST as deep, at the
    # default recursion limit; the table holds one entry per distinct subtree.
    for make, node, fewer, leaf in (
        (lambda n: " & ".join(["u1=1"] * n), "And", 1, "UtilEq"),
        (lambda n: "~" * n + "T", "Not", 0, "Top"),
    ):
        sizes = {}
        for n in (1_000, 10_000):
            formula = make(n)
            proc = _cli_subprocess("parse", "--game", pd_file, formula)
            assert proc.returncode == 0, proc.stderr[-500:]
            assert proc.stderr == ""
            data = json.loads(proc.stdout)
            assert data["canonical"] == formula
            kinds = [entry["node"] for entry in data["ast"]["nodes"]]
            assert sorted(kinds) == [node] * (n - fewer) + [leaf]
            assert data["ast"]["root"] == len(kinds) - 1
            sizes[n] = len(proc.stdout.encode())
        assert sizes[10_000] <= 11 * sizes[1_000]


def test_five_voter_audit_reports_the_same_keys(tmp_path):
    src = str(Path(stratlogic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    keys = {}
    for n in (3, 5):
        path = tmp_path / f"spec{n}.json"
        spec = {"alternatives": ["a", "b", "c"], "ballots": ["abc"] * n, "rule": "dictator:1"}
        path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, "-m", "stratlogic.cli", "voting", "audit", "--spec", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        data = loads(proc.stdout)
        assert data["dictators"] == [1]
        keys[n] = list(data)
    assert keys[5] == keys[3]
