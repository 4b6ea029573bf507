"""Axiom schemas for vector modalities and agent knowledge.

`instantiate` grounds a schema over a signature with a bounded vector
enumeration (all-Concrete vectors plus the one-wildcard and one-Current
families) and a formula pool defaulting to all atoms and their negations.
`validity_report` then checks every instance on a batch of models.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .games import GameError
from .models import IntensionalModel, counterexample, valid_in_model
from .properties import vec_switch
from .syntax import (
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

VECTOR_SCHEMAS = (
    "Effectivity",
    "Seriality",
    "Functionality",
    "AdversaryPower",
    "DeterminateCurrentChoice",
)

EPISTEMIC_SCHEMAS = (
    "ConverseA",
    "ConverseB",
    "OwnActionKnowledge",
    "OtherActionIgnorance",
)

ALL_SCHEMAS = VECTOR_SCHEMAS + EPISTEMIC_SCHEMAS


@dataclass(frozen=True)
class AxiomInstance:
    schema: str
    formula: Formula
    about: str


@dataclass(frozen=True)
class InstanceResult:
    instance: AxiomInstance
    valid: bool
    counterexamples: tuple[tuple[str, str], ...]
    """(model label, first falsifying state) per failing model."""


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
    if schema not in ALL_SCHEMAS:
        raise GameError(f"unknown axiom schema {schema!r}")
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


def instantiate_many(
    schemas: Iterable[str],
    sig: Signature,
    pool: Sequence[Formula] | None = None,
    vectors: Sequence[Vector] | None = None,
) -> list[AxiomInstance]:
    out = []
    for schema in schemas:
        out.extend(instantiate(schema, sig, pool, vectors))
    return out


def validity_report(
    models: Sequence[tuple[str, IntensionalModel]], instances: Sequence[AxiomInstance]
) -> list[InstanceResult]:
    """Check every instance against every labelled model."""
    results = []
    for instance in instances:
        failures = []
        for label, model in models:
            if not valid_in_model(model, instance.formula):
                failures.append((label, counterexample(model, instance.formula)))
        results.append(
            InstanceResult(instance, valid=not failures, counterexamples=tuple(failures))
        )
    return results
