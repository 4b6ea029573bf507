"""Worked examples used by the demos and the test suite."""
from __future__ import annotations

from .games import GameForm, OutcomeRecord, Outcomes, StrategicGame
from .models import IntensionalModel, confusion_model, restrict
from .voting import Ballot, BallotProfile, Plurality, ResoluteWrap, induced_game

ALTERNATIVES = ("a", "b", "c")


def prisoners_dilemma() -> StrategicGame:
    """Two players, cooperate/defect, with the usual temptation ordering."""
    form = GameForm([("c", "d"), ("c", "d")])
    records = [
        OutcomeRecord("cc", (2, 2)),
        OutcomeRecord("cd", (0, 3)),
        OutcomeRecord("dc", (3, 0)),
        OutcomeRecord("dd", (1, 1)),
    ]
    return StrategicGame(form, Outcomes.from_records(records, form.n))


def three_voter_ballots() -> BallotProfile:
    """True preferences abc / bca / cab: a perfectly symmetric standoff."""
    return tuple(Ballot.parse(b, ALTERNATIVES) for b in ("abc", "bca", "cab"))


def plurality3() -> Plurality:
    return Plurality(ALTERNATIVES)


def tiebreak3() -> ResoluteWrap:
    return ResoluteWrap(plurality3(), Ballot.parse("abc", ALTERNATIVES))


def vote3_game() -> StrategicGame:
    """The 3x3x3 plurality voting game for the standoff ballots."""
    return induced_game(plurality3(), three_voter_ballots())


def vote3_tiebreak_game() -> StrategicGame:
    """Same election, but ties break towards a, then b."""
    return induced_game(tiebreak3(), three_voter_ballots())


def commitment_confusion() -> tuple[IntensionalModel, str]:
    """Player 1 is committed to cooperating, but player 2 cannot tell the
    committed game from the free one.  Returns the model and the world where
    play actually happens (committed form, player 2 defects)."""
    game = prisoners_dilemma()
    restricted = restrict(game.form, {1: ["c"]})
    model = confusion_model(game, restricted, confused={2})
    return model, "Gr:c,d"
