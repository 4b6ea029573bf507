"""Command-line front end.

Exit codes: 0 on success (and true verdicts), 1 when a checked property is
false, 2 on usage or input errors and when an input exhausts the recursion
limit or memory.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import catalog
from .axioms import (
    EPISTEMIC_SCHEMAS,
    VECTOR_SCHEMAS,
    instantiate_many,
    validity_report,
)
from .coalition import cl_extension, render_cl, translate
from .games import GameError, best_response
from .jsonio import (
    FormatError,
    ast_to_dict,
    audit_report_to_dict,
    game_to_dict,
    intensional_to_dict,
    load_game,
    load_intensional,
    load_voting_spec,
)
from .models import (
    EvalError,
    MaslModel,
    epistemic_lift,
    extension,
    model_signature,
    satisfies,
    valid_in_model,
)
from .parser import ParseError, parse
from .properties import build_property, dictator, knowing_dictator, tit_for_tat
from .syntax import Concrete, Diamond, Signature, Vector, VectorAtom, render
from .voting import VotingError, audit_rule, induced_game


class DemoFailure(ValueError):
    """A demo's built-in expectation did not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DemoFailure(message)


def _dumps(data) -> str:
    """``json.dumps(data, indent=2)``, written from an explicit stack, so
    deeply nested data (the AST of a long formula) never reaches the
    recursion limit."""
    out: list[str] = []
    stack: list = [(data, "")]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, indent = item
        if isinstance(value, dict):
            # Keys are strings in JSON; `json` spells other scalar keys first.
            entries = [
                (json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": ", v)
                for k, v in value.items()
            ]
            brackets = "{}"
        elif isinstance(value, (list, tuple)):
            entries = [("", v) for v in value]
            brackets = "[]"
        else:
            out.append(json.dumps(value))
            continue
        if not entries:
            out.append(brackets)
            continue
        inner = indent + "  "
        out.append(brackets[0])
        stack.append("\n" + indent + brackets[1])
        for k in range(len(entries) - 1, -1, -1):
            prefix, child = entries[k]
            stack.append((child, inner))
            stack.append(("," if k else "") + "\n" + inner + prefix)
    return "".join(out)


def _emit(data: dict, output: str | None) -> None:
    text = _dumps(data)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _extension_keys(model, mask) -> list[str]:
    return [model.state_key(int(i)) for i in np.flatnonzero(mask)]


def _nash_mask(game) -> np.ndarray:
    """The pure Nash equilibria over the profiles, from best responses
    alone: an independent check on the `nashHere` formula."""
    grids = [best_response(game, player) for player in game.form.players]
    return np.logical_and.reduce(grids).reshape(-1)


# --------------------------------------------------------------------------
# subcommands


def _check(model, args, where: str) -> int:
    """Evaluate ``args.formula`` on the model; `where` names the optional
    argument with the state to report on."""
    formula = parse(args.formula, model_signature(model), "formula")
    mask = extension(model, formula)
    data = {"formula": render(formula), "extension": _extension_keys(model, mask)}
    code = 0
    at = getattr(args, where)
    if at is not None:
        holds = satisfies(model, at, formula)
        data[where] = at
        data["holdsAt"] = holds
        code = 0 if holds else 1
    _emit(data, args.output)
    return code


def _cmd_check(args) -> int:
    return _check(MaslModel(load_game(args.game)), args, "state")


def _cmd_parse(args) -> int:
    sig = model_signature(MaslModel(load_game(args.game)))
    node = parse(args.text, sig, args.kind)
    canonical = render_cl(node) if args.kind == "cl" else render(node)
    _emit({"input": args.text, "canonical": canonical, "ast": ast_to_dict(node)}, args.output)
    return 0


def _cmd_nash(args) -> int:
    game = load_game(args.game)
    model = MaslModel(game)
    sig = model_signature(model)
    mask = extension(model, build_property("nashHere", sig))
    nash = _nash_mask(game)
    agree = bool(np.array_equal(mask, nash))
    data = {"equilibria": _extension_keys(model, nash), "formulaAgrees": agree}
    _emit(data, args.output)
    return 0 if agree else 1


def _cmd_voting_audit(args) -> int:
    rule, ballots = load_voting_spec(args.spec)
    report = audit_rule(rule, len(ballots))
    _emit(audit_report_to_dict(report), args.output)
    return 0 if report.gs_consistent else 1


def _cmd_voting_game(args) -> int:
    rule, ballots = load_voting_spec(args.spec)
    _emit(game_to_dict(induced_game(rule, ballots)), args.output)
    return 0


def _cmd_coalition_translate(args) -> int:
    game = load_game(args.game)
    sig = model_signature(MaslModel(game))
    clf = parse(args.formula, sig, "cl")
    translated = translate(clf, game.form)
    _emit(
        {"input": render_cl(clf), "translation": render(translated)},
        args.output,
    )
    return 0


def _cmd_coalition_check(args) -> int:
    game = load_game(args.game)
    model = MaslModel(game)
    clf = parse(args.formula, model_signature(model), "cl")
    direct = cl_extension(model, clf)
    translated = extension(model, translate(clf, game.form))
    agree = bool(np.array_equal(direct, translated))
    data = {
        "formula": render_cl(clf),
        "extension": _extension_keys(model, direct),
        "agreesWithTranslation": agree,
    }
    code = 0 if agree else 1
    if args.state is not None:
        holds = bool(direct[model.index(args.state)])
        data["state"] = args.state
        data["holdsAt"] = holds
        if not holds:
            code = 1
    _emit(data, args.output)
    return code


def _cmd_lift(args) -> int:
    _emit(intensional_to_dict(epistemic_lift(load_game(args.game))), args.output)
    return 0


def _cmd_echeck(args) -> int:
    return _check(load_intensional(args.model), args, "world")


def _cmd_axioms(args) -> int:
    game = load_game(args.game)
    model = MaslModel(game)
    sig = model_signature(model)
    instances = instantiate_many(VECTOR_SCHEMAS, sig)
    results = validity_report([("game", model)], instances)
    if args.epistemic:
        lift = epistemic_lift(game)
        ep = instantiate_many(EPISTEMIC_SCHEMAS, sig)
        results += validity_report([("lift", lift)], ep)
    summary: dict[str, dict[str, int]] = {}
    invalid = []
    for res in results:
        bucket = summary.setdefault(
            res.instance.schema, {"instances": 0, "invalid": 0}
        )
        bucket["instances"] += 1
        if not res.valid:
            bucket["invalid"] += 1
            invalid.append(
                {
                    "schema": res.instance.schema,
                    "about": res.instance.about,
                    "counterexamples": [list(c) for c in res.counterexamples],
                }
            )
    _emit({"schemas": summary, "invalid": invalid}, args.output)
    return 0 if not invalid else 1


# --------------------------------------------------------------------------
# demos


def _demo_pd() -> int:
    game = catalog.prisoners_dilemma()
    model = MaslModel(game)
    sig = model_signature(model)
    nash = _nash_mask(game)
    equilibria = _extension_keys(model, nash)
    print("prisoner's dilemma states:", [model.state_key(i) for i in range(model.size)])
    print("nash equilibria:", equilibria)
    _require(equilibria == ["d,d"], "expected d,d to be the unique equilibrium")
    mask = extension(model, build_property("nashHere", sig))
    _require(
        np.array_equal(mask, nash),
        "nashHere formula disagrees with the best-response check",
    )
    for player in (1, 2):
        formula_ok = valid_in_model(
            model, build_property("weakDominance", sig, player=player, strategy="d")
        )
        defect = game.form.strategy_index(player, "d")
        check_ok = best_response(game, player).take(defect, axis=player - 1).all()
        print(f"defection weakly dominant for player {player}:", formula_ok)
        _require(formula_ok and check_ok, "defection should be weakly dominant")
    tft = tit_for_tat(sig, 2)
    reach = set()
    for s in model.states:
        target = VectorAtom(Vector(Concrete(name) for name in game.form.names(s)))
        if satisfies(model, "c,c", Diamond(tft, target)):
            reach.add(game.form.profile_key(s))
    print("tit-for-tat(player 2) reaches from c,c:", sorted(reach))
    _require(reach == {"c,c", "c,d", "d,c", "d,d"}, "unexpected tit-for-tat closure")
    print("demo pd: ok")
    return 0


def _demo_vote3() -> int:
    game = catalog.vote3_game()
    model = MaslModel(game)
    sig = model_signature(model)
    truthful = game.form.profile_from_key("a,b,c")
    print("truthful vote a,b,c gives payoffs", tuple(map(str, game.outcome(truthful).utils)))
    _require(
        game.outcome(truthful).utils == (1, 1, 1),
        "the three-way tie should pay 1 to everyone",
    )
    nash = _nash_mask(game)
    print("equilibrium count:", int(nash.sum()))
    _require(nash[game.profile_index(truthful)], "the truthful profile should be an equilibrium")
    mask = extension(model, build_property("nashHere", sig))
    _require(
        np.array_equal(mask, nash),
        "nashHere formula disagrees with the best-response check",
    )
    _require(
        valid_in_model(model, build_property("pluralityRule", sig)),
        "the plurality-rule formula should hold everywhere",
    )
    _require(
        valid_in_model(model, build_property("gameIsNash", sig)),
        "gameIsNash should hold",
    )
    resolute_mask = extension(model, build_property("resolute", sig))
    _require(not resolute_mask.any(), "plurality with ties is not resolute")
    print("plurality rule holds everywhere; resolute fails everywhere (ties)")
    print("demo vote3: ok")
    return 0


def _demo_vote3tb() -> int:
    game = catalog.vote3_tiebreak_game()
    model = MaslModel(game)
    sig = model_signature(model)
    truthful = game.form.profile_from_key("a,b,c")
    print("truthful vote a,b,c gives payoffs", tuple(map(str, game.outcome(truthful).utils)))
    _require(
        game.outcome(truthful).utils == (2, 0, 1),
        "tie-breaking towards a should pay (2, 0, 1)",
    )
    _require(
        not satisfies(model, "a,b,c", build_property("nashHere", sig)),
        "the truthful profile should no longer be an equilibrium",
    )
    _require(
        satisfies(model, "a,c,c", build_property("nashHere", sig)),
        "a,c,c should be an equilibrium",
    )
    _require(
        valid_in_model(model, build_property("resolute", sig)),
        "tie-breaking should make the rule resolute",
    )
    report = audit_rule(catalog.tiebreak3(), 3)
    print(_dumps(audit_report_to_dict(report)))
    _require(report.resolute, "audit should find the rule resolute")
    _require(not report.strategy_proof, "audit should find a manipulation")
    _require(report.manipulation is not None, "audit should exhibit a witness")
    _require(report.non_imposed, "audit should find three winners possible")
    _require(not report.dictators, "nobody dictates the tie-broken rule")
    _require(report.gs_consistent, "the impossibility bookkeeping must hold")
    print("demo vote3tb: ok")
    return 0


def _demo_confusion() -> int:
    model, actual = catalog.commitment_confusion()
    game = catalog.prisoners_dilemma()
    sig = Signature.from_game(game)
    print("worlds:", [model.state_key(i) for i in range(model.size)])
    dict2 = dictator(sig, 2)
    know2 = knowing_dictator(sig, 2)
    dict_worlds = _extension_keys(model, extension(model, dict2))
    print("dictator(2) holds at:", dict_worlds)
    _require(
        satisfies(model, actual, dict2),
        "player 2 should be a dictator in the committed form",
    )
    _require(
        not satisfies(model, "G:c,d", dict2),
        "player 2 is no dictator in the free form",
    )
    _require(
        not satisfies(model, actual, know2),
        "player 2 cannot know about the dictatorship",
    )
    print("knowingDictator(2) holds nowhere:", not extension(model, know2).any())
    print("demo confusion: ok")
    return 0


_DEMOS = {
    "pd": _demo_pd,
    "vote3": _demo_vote3,
    "vote3tb": _demo_vote3tb,
    "confusion": _demo_confusion,
}


def _cmd_demo(args) -> int:
    return _DEMOS[args.which]()


# --------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stratlogic",
        description="Model checking and game analysis for a strategy logic.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def with_output(p):
        p.add_argument("--output", "-o", help="write JSON here instead of stdout")
        return p

    p = with_output(sub.add_parser("check", help="evaluate a formula on a game"))
    p.add_argument("--game", required=True, help="game JSON file")
    p.add_argument("--formula", required=True, help="formula text")
    p.add_argument("--state", help="profile key such as 'c,d'")
    p.set_defaults(fn=_cmd_check)

    p = with_output(sub.add_parser("parse", help="echo canonical syntax and AST"))
    p.add_argument("--game", required=True, help="game JSON file (for vocabulary)")
    p.add_argument("--kind", choices=("formula", "program", "cl"), default="formula")
    p.add_argument("text", help="expression to parse")
    p.set_defaults(fn=_cmd_parse)

    p = with_output(sub.add_parser("nash", help="equilibria, formula vs. best responses"))
    p.add_argument("--game", required=True)
    p.set_defaults(fn=_cmd_nash)

    voting = sub.add_parser("voting", help="voting-rule tools").add_subparsers(
        dest="voting_command", required=True
    )
    p = with_output(voting.add_parser("audit", help="brute-force rule audit"))
    p.add_argument("--spec", required=True, help="voting spec JSON file")
    p.set_defaults(fn=_cmd_voting_audit)
    p = with_output(voting.add_parser("game", help="emit the induced game"))
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=_cmd_voting_game)

    cl = sub.add_parser("cl", help="coalition logic").add_subparsers(
        dest="cl_command", required=True
    )
    p = with_output(cl.add_parser("translate", help="compile into the strategy logic"))
    p.add_argument("--game", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=_cmd_coalition_translate)
    p = with_output(cl.add_parser("check", help="direct semantics, cross-checked"))
    p.add_argument("--game", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--state")
    p.set_defaults(fn=_cmd_coalition_check)

    p = with_output(sub.add_parser("lift", help="emit the epistemic lift of a game"))
    p.add_argument("--game", required=True)
    p.set_defaults(fn=_cmd_lift)

    p = with_output(sub.add_parser("echeck", help="evaluate on an intensional model"))
    p.add_argument("--model", required=True, help="intensional model JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--world", help="world key such as 'G:c,d'")
    p.set_defaults(fn=_cmd_echeck)

    p = with_output(sub.add_parser("axioms", help="axiom sweep on one game"))
    p.add_argument("--game", required=True)
    p.add_argument(
        "--epistemic",
        action="store_true",
        help="also check the knowledge schemas on the game's lift",
    )
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("demo", help="built-in worked examples")
    p.add_argument("which", choices=tuple(_DEMOS))
    p.set_defaults(fn=_cmd_demo)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DemoFailure as exc:
        print(f"demo expectation failed: {exc}", file=sys.stderr)
        return 1
    except (
        ParseError,
        FormatError,
        GameError,
        VotingError,
        EvalError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        kind = type(exc).__name__
        print(f"error: input too large to process ({kind})", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
