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
from .models import EvalError, IntensionalModel, compile_plan, extension, run_plan
from .properties import _terms
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
    return _enumerate_vectors(sig, _terms(sig))


def _enumerate_vectors(sig: Signature, terms: dict[str, Concrete]) -> list[Vector]:
    sets = [[terms[name] for name in names] for names in sig.strategy_sets]
    out = [Vector(c) for c in product(*sets)]
    for special in (ADV, CUR):
        for pos in range(sig.n):
            for rest in product(*sets[:pos], *sets[pos + 1 :]):
                out.append(Vector(rest[:pos] + (special,) + rest[pos:]))
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


class _Shared:
    """The nodes that recur across the instances of one `instantiate_many`
    call, each built once: one `Concrete` term per strategy name, one vector
    per term tuple (the enumerated vectors first), and per vector one
    program, one atom and one row of boxes over the pool; also the rendered
    text of each pool formula, for the `about` strings.  Equal subformulas
    of the instances are then one object, so a model's caches find each
    repeat by identity instead of comparing equal trees node by node."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.terms = _terms(sig)
        self.pool = default_pool(sig)
        self.texts = [render(phi) for phi in self.pool]
        self.vectors = _enumerate_vectors(sig, self.terms)
        self.top = Top()
        self.agents = {p: (Agent(p), AgentConv(p)) for p in sig.players}
        self._by_terms: dict[tuple, Vector] = {c.terms: c for c in self.vectors}
        self._programs: dict[Vector, Vec] = {}
        self._atoms: dict[Vector, VectorAtom] = {}
        self._boxes: dict[Vector, list[Box]] = {}

    def vector(self, terms: tuple) -> Vector:
        c = self._by_terms.get(terms)
        if c is None:
            c = self._by_terms[terms] = Vector(terms)
        return c

    def with_concrete(self, c: Vector, pos: int, name: str) -> Vector:
        return self.vector(c.terms[:pos] + (self.terms[name],) + c.terms[pos + 1 :])

    def switch(self, player: int, name: str) -> Vector:
        """The vector fixing `player` to `name` while everyone else stays put."""
        term = self.terms[name]
        return self.vector(tuple(term if p == player else CUR for p in self.sig.players))

    def program(self, c: Vector) -> Vec:
        program = self._programs.get(c)
        if program is None:
            program = self._programs[c] = Vec(c)
        return program

    def atom(self, c: Vector) -> VectorAtom:
        atom = self._atoms.get(c)
        if atom is None:
            atom = self._atoms[c] = VectorAtom(c)
        return atom

    def boxes(self, c: Vector) -> list[Box]:
        """``[c] phi`` for each formula phi of the pool, in pool order."""
        row = self._boxes.get(c)
        if row is None:
            program = self.program(c)
            row = self._boxes[c] = [Box(program, phi) for phi in self.pool]
        return row


def instantiate(schema: str, sig: Signature) -> list[AxiomInstance]:
    """All ground instances of one schema.  Vectors that a schema cannot use
    (e.g. undetermined vectors for Functionality) are skipped."""
    return instantiate_many([schema], sig)


def instantiate_many(schemas: Iterable[str], sig: Signature) -> list[AxiomInstance]:
    """The instances of each schema in turn, over one enumeration of the
    vectors and the default pool, with each distinct subformula one object."""
    shared = _Shared(sig)
    out: list[AxiomInstance] = []
    for schema in schemas:
        if schema not in ALL_SCHEMAS:
            raise GameError(f"unknown axiom schema {schema!r}")
        _instances(schema, shared, out)
    return out


def _instances(schema: str, shared: _Shared, out: list[AxiomInstance]) -> None:
    """Append the instances of one schema to `out`."""
    sig, pool = shared.sig, shared.pool

    def add(formula: Formula, about: str) -> None:
        out.append(AxiomInstance(schema, formula, about))

    if schema == "Effectivity":
        for c in shared.vectors:
            add(Box(shared.program(c), shared.atom(c)), f"c={render(c)}")
    elif schema == "Seriality":
        for c in shared.vectors:
            add(Diamond(shared.program(c), shared.top), f"c={render(c)}")
    elif schema == "Functionality":
        for c in shared.vectors:
            if not c.determined():
                continue
            program, about = shared.program(c), render(c)
            for phi, text, box in zip(pool, shared.texts, shared.boxes(c)):
                add(Implies(Diamond(program, phi), box), f"c={about}, phi={text}")
    elif schema == "AdversaryPower":
        for c in shared.vectors:
            for pos, term in enumerate(c.terms):
                if not isinstance(term, Adversary):
                    continue
                player = pos + 1
                # One row of boxes per strategy filled in at `pos`.
                rows = [
                    shared.boxes(shared.with_concrete(c, pos, a))
                    for a in sig.strategies(player)
                ]
                about = f"c={render(c)}, i={player}"
                for k, (text, box) in enumerate(zip(shared.texts, shared.boxes(c))):
                    cases = conj(row[k] for row in rows)
                    add(Iff(box, cases), f"{about}, phi={text}")
    elif schema == "DeterminateCurrentChoice":
        for c in shared.vectors:
            for pos, term in enumerate(c.terms):
                if not isinstance(term, Current):
                    continue
                player = pos + 1
                atom, about = shared.atom(c), f"c={render(c)}, i={player}"
                for a in sig.strategies(player):
                    picked = shared.atom(shared.switch(player, a))
                    fixed = shared.atom(shared.with_concrete(c, pos, a))
                    add(Implies(picked, Iff(atom, fixed)), f"{about}, a={a}")
    elif schema == "ConverseA":
        for player in sig.players:
            agent, converse = shared.agents[player]
            for phi, text in zip(pool, shared.texts):
                add(
                    Implies(phi, Box(agent, Diamond(converse, phi))),
                    f"i={player}, phi={text}",
                )
    elif schema == "ConverseB":
        for player in sig.players:
            agent, converse = shared.agents[player]
            for phi, text in zip(pool, shared.texts):
                add(
                    Implies(phi, Box(converse, Diamond(agent, phi))),
                    f"i={player}, phi={text}",
                )
    elif schema == "OwnActionKnowledge":
        for player in sig.players:
            agent = shared.agents[player][0]
            for a in sig.strategies(player):
                switch = shared.switch(player, a)
                add(
                    Box(shared.program(switch), Box(agent, shared.atom(switch))),
                    f"i={player}, a={a}",
                )
    elif schema == "OtherActionIgnorance":
        # One instance per observer: after any other player fixes a choice,
        # the observer does not know it.  Falsifiable when that player has
        # only one strategy (nothing to be uncertain about).
        for player in sig.players:
            agent = shared.agents[player][0]
            parts = []
            for other in sig.players:
                if other == player:
                    continue
                for a in sig.strategies(other):
                    switch = shared.switch(other, a)
                    parts.append(
                        Box(
                            shared.program(switch),
                            Not(Box(agent, shared.atom(switch))),
                        )
                    )
            add(conj(parts), f"i={player}")


def validity_report(
    models: Sequence[tuple[str, IntensionalModel]], instances: Sequence[AxiomInstance]
) -> list[InstanceResult]:
    """Check every instance against every labelled model.

    All instances are compiled into one plan, run once per model.  If an
    instance cannot be evaluated, the error raised is the one that checking
    instance by instance, model by model, meets first.
    """
    plan = compile_plan(instance.formula for instance in instances)
    failures: list[list[tuple[str, str]]] = [[] for _ in instances]
    try:
        for label, model in models:
            masks = run_plan(model, plan)
            for found, slot in zip(failures, plan.roots):
                mask = masks[slot]
                if not mask.all():
                    found.append((label, model.state_key(int(mask.argmin()))))
    except EvalError as exc:
        error = exc
    else:
        return [
            InstanceResult(instance, valid=not found, counterexamples=tuple(found))
            for instance, found in zip(instances, failures)
        ]
    for instance in instances:
        for _, model in models:
            extension(model, instance.formula)
    raise error
