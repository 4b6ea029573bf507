"""The axiom-schema grounding that `stratlogic.axioms` used to run, kept as
a test oracle.

It builds fresh nodes at every use, so equal subformulas of its instances
are distinct objects.  `stratlogic.axioms.instantiate_many` must give equal
instances, `about` strings and rendered text in the same order, with each
distinct subformula of one call as one object.
"""
from __future__ import annotations

from itertools import product
from typing import Sequence

from stratlogic.axioms import AxiomInstance
from stratlogic.syntax import (
    ADV,
    CUR,
    Agent,
    AgentConv,
    Adversary,
    Box,
    Concrete,
    Current,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Signature,
    Top,
    UtilEq,
    Vec,
    Vector,
    VectorAtom,
    Winner,
    conj,
    render,
)

from property_oracle import vec_switch


def enumerate_vectors(sig: Signature) -> list[Vector]:
    """All-Concrete vectors, then one-position wildcard variants, then
    one-position Current variants."""
    out: list[Vector] = []
    for names in product(*sig.strategy_sets):
        out.append(Vector(Concrete(name) for name in names))
    for special in (ADV, CUR):
        for pos in range(sig.n):
            rest = [sig.strategy_sets[p] for p in range(sig.n) if p != pos]
            for names in product(*rest):
                names = list(names)
                terms = [
                    special if p == pos else Concrete(names.pop(0))
                    for p in range(sig.n)
                ]
                out.append(Vector(terms))
    return out


def default_pool(sig: Signature) -> list[Formula]:
    """Every atomic payoff/winner fact, plus its negation."""
    atoms: list[Formula] = []
    if sig.util_range is not None:
        for player in sig.players:
            for value in sig.util_range:
                atoms.append(UtilEq(player, value))
    if sig.alternatives is not None:
        for name in sig.alternatives:
            atoms.append(Winner(name))
    return atoms + [Not(a) for a in atoms]


def _with_concrete(vector: Vector, pos: int, name: str) -> Vector:
    terms = list(vector.terms)
    terms[pos] = Concrete(name)
    return Vector(terms)


def instantiate(
    schema: str,
    sig: Signature,
    pool: Sequence[Formula] | None = None,
    vectors: Sequence[Vector] | None = None,
) -> list[AxiomInstance]:
    """All ground instances of one schema.  Vectors that a schema cannot use
    (e.g. undetermined vectors for Functionality) are skipped."""
    if vectors is None:
        vectors = enumerate_vectors(sig)
    if pool is None:
        pool = default_pool(sig)
    out: list[AxiomInstance] = []

    def add(formula: Formula, about: str) -> None:
        out.append(AxiomInstance(schema, formula, about))

    if schema == "Effectivity":
        for c in vectors:
            add(Box(Vec(c), VectorAtom(c)), f"c={render(c)}")
    elif schema == "Seriality":
        for c in vectors:
            add(Diamond(Vec(c), Top()), f"c={render(c)}")
    elif schema == "Functionality":
        for c in vectors:
            if not c.determined():
                continue
            for phi in pool:
                add(
                    Implies(Diamond(Vec(c), phi), Box(Vec(c), phi)),
                    f"c={render(c)}, phi={render(phi)}",
                )
    elif schema == "AdversaryPower":
        for c in vectors:
            for pos, term in enumerate(c.terms):
                if not isinstance(term, Adversary):
                    continue
                player = pos + 1
                for phi in pool:
                    cases = conj(
                        Box(Vec(_with_concrete(c, pos, a)), phi)
                        for a in sig.strategies(player)
                    )
                    add(
                        Iff(Box(Vec(c), phi), cases),
                        f"c={render(c)}, i={player}, phi={render(phi)}",
                    )
    elif schema == "DeterminateCurrentChoice":
        for c in vectors:
            for pos, term in enumerate(c.terms):
                if not isinstance(term, Current):
                    continue
                player = pos + 1
                for a in sig.strategies(player):
                    picked = VectorAtom(vec_switch(sig, player, a))
                    add(
                        Implies(
                            picked,
                            Iff(VectorAtom(c), VectorAtom(_with_concrete(c, pos, a))),
                        ),
                        f"c={render(c)}, i={player}, a={a}",
                    )
    elif schema == "ConverseA":
        for player in sig.players:
            for phi in pool:
                add(
                    Implies(phi, Box(Agent(player), Diamond(AgentConv(player), phi))),
                    f"i={player}, phi={render(phi)}",
                )
    elif schema == "ConverseB":
        for player in sig.players:
            for phi in pool:
                add(
                    Implies(phi, Box(AgentConv(player), Diamond(Agent(player), phi))),
                    f"i={player}, phi={render(phi)}",
                )
    elif schema == "OwnActionKnowledge":
        for player in sig.players:
            for a in sig.strategies(player):
                switch = vec_switch(sig, player, a)
                add(
                    Box(Vec(switch), Box(Agent(player), VectorAtom(switch))),
                    f"i={player}, a={a}",
                )
    elif schema == "OtherActionIgnorance":
        # One instance per observer: after any other player fixes a choice,
        # the observer does not know it.  Falsifiable when that player has
        # only one strategy (nothing to be uncertain about).
        for player in sig.players:
            parts = []
            for other in sig.players:
                if other == player:
                    continue
                for a in sig.strategies(other):
                    switch = vec_switch(sig, other, a)
                    parts.append(
                        Box(Vec(switch), Not(Box(Agent(player), VectorAtom(switch))))
                    )
            add(conj(parts), f"i={player}")
    return out
