"""Model checking for the strategy logic.

A flat model is a strategic game whose states are the strategy profiles; an
intensional model is a set of (form, profile) worlds with per-agent
accessibility relations on top.  No relation is ever materialised: formula
extensions are boolean masks over the states, computed bottom-up with
per-model caching, and every modality is a predecessor computation on masks
(`pre`).  A vector acts axis by axis on the profile grid, agent relations
are stored as (source, target) edge arrays, and iteration is a least
fixpoint grown from its frontier.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .games import (
    GameError,
    GameForm,
    OutcomeRecord,
    Profile,
    StrategicGame,
    all_profiles,
)
from .syntax import (
    Adversary,
    Agent,
    AgentConv,
    And,
    Box,
    Choice,
    Concrete,
    Diamond,
    Formula,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    Program,
    Seq,
    Signature,
    Star,
    Test,
    Top,
    UtilEq,
    Vec,
    Vector,
    VectorAtom,
    Winner,
)


class EvalError(ValueError):
    """Raised when a formula cannot be evaluated on the given model."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _ModelBase:
    """Shared state-indexing, valuation, and cache plumbing."""

    # Subclasses set: _records (one OutcomeRecord per state), n, the ambient
    # form, _cells (each state's flat index in the ambient profile grid) and
    # _blocks: None when the states are exactly that grid in enumeration
    # order, else one (state indices, grid cells) pair per form.

    def __init__(self) -> None:
        self._ext_cache: dict[Formula, np.ndarray] = {}
        self._plans: dict[Vector, tuple | None] = {}

    @property
    def size(self) -> int:
        return len(self._records)

    @property
    def util_range(self) -> tuple:
        return self._util_range

    def _finish_init(
        self,
        records: Sequence[OutcomeRecord],
        util_range: tuple,
        has_winner_data: bool,
    ) -> None:
        self._records = tuple(records)
        self._util_range = util_range
        self._util_values = frozenset(util_range)
        self._has_winner_data = has_winner_data
        self._shape = tuple(len(names) for names in self._ambient.strategy_sets)

    def _atom_mask(self, f: Formula) -> np.ndarray:
        if isinstance(f, Winner):
            if not self._has_winner_data:
                raise EvalError("model has no winner labelling for win(...) atoms")
            return np.array(
                [r.winners is not None and f.name in r.winners for r in self._records],
                dtype=bool,
            )
        if isinstance(f, UtilEq):
            if not 1 <= f.player <= self.n:
                raise EvalError(f"no player {f.player} in this model")
            if f.value not in self._util_values:
                raise EvalError(
                    f"utility value {f.value} is not in the model's range"
                )
            return np.array(
                [r.utils[f.player - 1] == f.value for r in self._records], dtype=bool
            )
        if isinstance(f, Label):
            return np.array([r.label == f.text for r in self._records], dtype=bool)
        raise EvalError(f"not an atomic formula: {f!r}")

    def _vector_atom_mask(self, vector: Vector) -> np.ndarray:
        """States matching every Concrete position of the vector."""
        grid = np.zeros(self._shape, dtype=bool)
        plan = self._vector_plan(vector)
        if plan is not None:
            grid[plan[0]] = True
        return grid.reshape(-1)[self._cells]

    def _vector_plan(self, vector: Vector) -> tuple | None:
        """How a vector acts on the ambient grid, compiled once per model:
        an index tuple cutting each Concrete axis to its strategy, and the
        `??` axes; None when a Concrete name is foreign to the ambient form."""
        try:
            return self._plans[vector]
        except KeyError:
            pass
        if vector.n != self.n:
            raise EvalError(
                f"vector {vector!r} has {vector.n} positions for {self.n} players"
            )
        index: list[slice] = []
        adversary: list[int] = []
        plan: tuple | None = None
        for pos, term in enumerate(vector.terms):
            if isinstance(term, Concrete):
                names = self._ambient.strategy_sets[pos]
                if term.name not in names:
                    break
                at = names.index(term.name)
                index.append(slice(at, at + 1))
            else:
                index.append(slice(None))
                if isinstance(term, Adversary):
                    adversary.append(pos)
        else:
            plan = (tuple(index), tuple(adversary))
        self._plans[vector] = plan
        return plan

    def _pre_vector(self, vector: Vector, target: np.ndarray) -> np.ndarray:
        plan = self._vector_plan(vector)
        if plan is None:
            return np.zeros(self.size, dtype=bool)
        if self._blocks is None:
            return _grid_pre(target.reshape(self._shape), *plan).reshape(-1)
        # Each form's worlds are scattered into their own copy of the grid,
        # so vector moves never cross forms and never reach absent profiles.
        out = np.zeros(self.size, dtype=bool)
        grid = np.empty(self._shape, dtype=bool)
        for states, cells in self._blocks:
            grid.fill(False)
            grid.reshape(-1)[cells] = target[states]
            out[states] = _grid_pre(grid, *plan).reshape(-1)[cells]
        return out


def _grid_pre(grid: np.ndarray, index: tuple, adversary: tuple) -> np.ndarray:
    """Predecessors of a grid mask under one vector: Concrete axes read the
    named slice, `??` axes take `any`, `!!` axes stay; then broadcast back."""
    sub = grid[index]
    if adversary:
        sub = sub.any(axis=adversary, keepdims=True)
    out = np.empty(grid.shape, dtype=bool)
    out[...] = sub
    return out


class MaslModel(_ModelBase):
    """A strategic game read as a Kripke model over its profiles."""

    def __init__(self, game: StrategicGame):
        super().__init__()
        self.game = game
        self._ambient = game.form
        self.n = game.form.n
        self.states: list[Profile] = all_profiles(game.form)
        self._cells = np.arange(len(self.states))
        self._blocks = None
        self._finish_init(game.records, game.utility_range, game.has_winner_data)

    def index(self, where: Union[Profile, str, int]) -> int:
        if isinstance(where, str):
            where = self._ambient.profile_from_key(where)
        if isinstance(where, tuple):
            return self.game.profile_index(where)
        if isinstance(where, int) and 0 <= where < self.size:
            return where
        raise EvalError(f"no state {where!r} in this model")

    def state_key(self, idx: int) -> str:
        return self._ambient.profile_key(self.states[idx])

    def agent_edges(self, player: int) -> tuple[np.ndarray, np.ndarray]:
        raise EvalError("agent programs need an intensional model, not a flat one")


class IntensionalModel(_ModelBase):
    """Worlds are (form, profile) pairs; agents get accessibility relations.

    Profiles are stored with ambient strategy indices, so vector machinery
    is shared with flat models; vector moves additionally never cross
    between forms.  Each agent's relation is kept as (source, target)
    arrays of world indices.
    """

    def __init__(
        self,
        ambient: GameForm,
        forms: Sequence[tuple[str, GameForm]],
        worlds: Sequence[tuple[int, Profile]],
        records: Sequence[OutcomeRecord],
        agent_edges: Mapping[int, Iterable[tuple[int, int]]] | None = None,
    ):
        super().__init__()
        self._ambient = ambient
        self.n = ambient.n
        self.forms = tuple(forms)
        if not self.forms:
            raise GameError("an intensional model needs at least one form")
        ids = [fid for fid, _ in self.forms]
        if len(set(ids)) != len(ids):
            raise GameError("form ids must be distinct")
        for fid, form in self.forms:
            if form.n != ambient.n:
                raise GameError(f"form {fid!r} has a different player count")
            for pos in range(ambient.n):
                ambient_names = ambient.strategy_sets[pos]
                kept = [n for n in ambient_names if n in form.strategy_sets[pos]]
                if tuple(kept) != form.strategy_sets[pos]:
                    raise GameError(
                        f"form {fid!r} is not an order-preserving restriction "
                        f"of the ambient form at player {pos + 1}"
                    )
        self.worlds: list[tuple[int, Profile]] = []
        seen: set[tuple[int, Profile]] = set()
        for form_idx, profile in worlds:
            if not 0 <= form_idx < len(self.forms):
                raise GameError(f"world references unknown form index {form_idx}")
            ambient.validate_profile(profile)
            _, form = self.forms[form_idx]
            for pos, name in enumerate(ambient.names(profile)):
                if name not in form.strategy_sets[pos]:
                    raise GameError(
                        f"world profile {ambient.profile_key(profile)!r} is not "
                        f"available in form {self.forms[form_idx][0]!r}"
                    )
            key = (form_idx, tuple(profile))
            if key in seen:
                raise GameError(f"duplicate world {key!r}")
            seen.add(key)
            self.worlds.append(key)
        if not self.worlds:
            raise GameError("an intensional model needs at least one world")
        if len(records) != len(self.worlds):
            raise GameError("need exactly one outcome record per world")
        for rec in records:
            if len(rec.utils) != self.n:
                raise GameError(
                    f"outcome {rec.label!r} has wrong utility count for {self.n} players"
                )
        self._world_index = {w: i for i, w in enumerate(self.worlds)}
        self._finish_init(
            records,
            tuple(sorted({u for r in records for u in r.utils})),
            any(r.winners is not None for r in records),
        )
        m = len(self.worlds)
        coords = np.array([s for _, s in self.worlds], dtype=np.int64)
        self._cells = np.ravel_multi_index(tuple(coords.T), self._shape)
        self._blocks = None
        if len(self.forms) > 1 or not np.array_equal(
            self._cells, np.arange(np.prod(self._shape))
        ):
            form_col = np.array([fi for fi, _ in self.worlds])
            self._blocks = []
            for form_idx in range(len(self.forms)):
                states = np.flatnonzero(form_col == form_idx)
                self._blocks.append((states, self._cells[states]))
        self._edges: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for player, edges in (agent_edges or {}).items():
            if not 1 <= player <= self.n:
                raise GameError(f"accessibility given for unknown player {player}")
            if not isinstance(edges, np.ndarray):
                edges = list(edges)
            try:
                pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            except (OverflowError, TypeError, ValueError):
                raise GameError(
                    f"accessibility for player {player} must be integer pairs"
                ) from None
            outside = (pairs < 0) | (pairs >= m)
            if outside.any():
                i, j = pairs[outside.any(axis=1)][0]
                raise GameError(f"accessibility edge ({i}, {j}) out of range")
            self._edges[player] = (_frozen(pairs[:, 0]), _frozen(pairs[:, 1]))

    @property
    def ambient(self) -> GameForm:
        return self._ambient

    def form_id(self, form_idx: int) -> str:
        return self.forms[form_idx][0]

    def world_key(self, idx: int) -> str:
        form_idx, profile = self.worlds[idx]
        return f"{self.form_id(form_idx)}:{self._ambient.profile_key(profile)}"

    def index(self, where: Union[str, int, tuple[int, Profile]]) -> int:
        if isinstance(where, int):
            if 0 <= where < self.size:
                return where
            raise EvalError(f"world index {where} out of range")
        if isinstance(where, str):
            form_id, _, key = where.partition(":")
            if not key:
                raise EvalError(f"world key {where!r} is not of the form 'id:profile'")
            for form_idx, (fid, _) in enumerate(self.forms):
                if fid == form_id:
                    profile = self._ambient.profile_from_key(key)
                    where = (form_idx, profile)
                    break
            else:
                raise EvalError(f"no form named {form_id!r} in this model")
        if isinstance(where, tuple) and where in self._world_index:
            return self._world_index[where]
        raise EvalError(f"no world {where!r} in this model")

    def agent_edges(self, player: int) -> tuple[np.ndarray, np.ndarray]:
        """The player's accessibility relation as (source, target) arrays,
        in the order the edges were given."""
        if not 1 <= player <= self.n:
            raise EvalError(f"no player {player} in this model")
        if player not in self._edges:
            empty = _frozen(np.zeros(0, dtype=np.int64))
            return empty, empty
        return self._edges[player]


Model = Union[MaslModel, IntensionalModel]


def model_signature(model: Model) -> Signature:
    """The parsing/building vocabulary a model supports."""
    if isinstance(model, MaslModel):
        return Signature.from_game(model.game)
    alternatives = None
    if model._has_winner_data:
        seen = {w for r in model._records if r.winners for w in r.winners}
        alternatives = tuple(sorted(seen))
    return Signature(model.ambient.strategy_sets, model.util_range, alternatives)


def pre(model: Model, program: Program, target: np.ndarray) -> np.ndarray:
    """The states with at least one `program` successor in `target`.

    `target` is a boolean mask over the model's states; the result is a new
    mask.
    """
    if isinstance(program, Vec):
        return model._pre_vector(program.vector, target)
    if isinstance(program, Test):
        return extension(model, program.body) & target
    if isinstance(program, Seq):
        return pre(model, program.left, pre(model, program.right, target))
    if isinstance(program, Choice):
        return pre(model, program.left, target) | pre(model, program.right, target)
    if isinstance(program, Star):
        return _pre_star(model, program.body, target)
    if isinstance(program, Agent):
        src, dst = model.agent_edges(program.player)
        return _sources(src, dst, target)
    if isinstance(program, AgentConv):
        src, dst = model.agent_edges(program.player)
        return _sources(dst, src, target)
    raise EvalError(f"not a program: {program!r}")


def _sources(src: np.ndarray, dst: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The sources of the edges that end in `target`."""
    out = np.zeros(len(target), dtype=bool)
    out[src[target[dst]]] = True
    return out


def _pre_star(model: Model, body: Program, target: np.ndarray) -> np.ndarray:
    """Least fixpoint of Y = target | pre(body, Y).  `pre` distributes over
    union, so each round applies the body only to the states first reached
    in the round before.  The body is applied at least once, so its
    evaluation errors surface even for an empty target."""
    reached = np.array(target, dtype=bool)
    frontier = reached
    while True:
        fresh = pre(model, body, frontier) & ~reached
        if not fresh.any():
            return reached
        reached |= fresh
        frontier = fresh


def extension(model: Model, formula: Formula) -> np.ndarray:
    """The set of states where the formula holds, as a boolean mask.

    The result is cached on the model and read-only; copy before mutating.
    Subformulas are evaluated in post-order from an explicit stack, left
    before right, so formula depth is not bounded by the recursion limit.
    """
    cache = model._ext_cache
    mask = cache.get(formula)
    if mask is not None:
        return mask
    stack = [formula]
    while stack:
        f = stack[-1]
        if f in cache:  # a subformula that occurs more than once
            stack.pop()
            continue
        children = _subformulas(f)
        masks = [cache.get(c) for c in children]
        missing = [c for c, m in zip(children, masks) if m is None]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        cache[f] = _frozen(np.asarray(_connective(model, f, *masks), dtype=bool))
    return cache[formula]


def _subformulas(f: Formula) -> tuple:
    if isinstance(f, (And, Or, Implies, Iff)):
        return f.left, f.right
    if isinstance(f, (Not, Box, Diamond)):
        return (f.body,)
    return ()


def _connective(model: Model, f: Formula, *sub: np.ndarray) -> np.ndarray:
    """The mask of one node, given the masks of its `_subformulas`."""
    if isinstance(f, Top):
        return np.ones(model.size, dtype=bool)
    if isinstance(f, VectorAtom):
        return model._vector_atom_mask(f.vector)
    if isinstance(f, (Winner, UtilEq, Label)):
        return model._atom_mask(f)
    if isinstance(f, Not):
        return ~sub[0]
    if isinstance(f, And):
        return sub[0] & sub[1]
    if isinstance(f, Or):
        return sub[0] | sub[1]
    if isinstance(f, Implies):
        return ~sub[0] | sub[1]
    if isinstance(f, Iff):
        return sub[0] == sub[1]
    if isinstance(f, Diamond):
        return pre(model, f.program, sub[0])
    if isinstance(f, Box):
        return ~pre(model, f.program, ~sub[0])
    raise EvalError(f"not a formula: {f!r}")


def satisfies(model: Model, where, formula: Formula) -> bool:
    """Truth at one state (flat: a profile or profile key; intensional: a
    world index or ``form:profile`` key)."""
    return bool(extension(model, formula)[model.index(where)])


def valid_in_model(model: Model, formula: Formula) -> bool:
    return bool(extension(model, formula).all())


def counterexample(model: Model, formula: Formula) -> str | None:
    """The first state (in enumeration order) falsifying the formula."""
    mask = extension(model, formula)
    bad = np.flatnonzero(~mask)
    if len(bad) == 0:
        return None
    idx = int(bad[0])
    if isinstance(model, IntensionalModel):
        return model.world_key(idx)
    return model.state_key(idx)


# --------------------------------------------------------------------------
# epistemic constructions


def _same_class_edges(classes: np.ndarray) -> np.ndarray:
    """Every (i, j) pair of worlds with equal (non-negative) class labels,
    as an (E, 2) array sorted by i, then j; never a pass over all pairs."""
    order = np.argsort(classes, kind="stable")
    counts = np.bincount(classes)
    per_world = counts[classes]
    src = np.repeat(np.arange(classes.size), per_world)
    # The k-th partner of world i is the k-th member of i's class.
    rank = np.arange(src.size) - np.repeat(np.cumsum(per_world) - per_world, per_world)
    first = (np.cumsum(counts) - counts)[classes]
    return np.column_stack((src, order[np.repeat(first, per_world) + rank]))


def epistemic_lift(game: StrategicGame) -> IntensionalModel:
    """All profiles as worlds; each player can tell worlds apart exactly by
    their own coordinate."""
    states = all_profiles(game.form)
    coords = np.array(states, dtype=np.int64)
    return IntensionalModel(
        ambient=game.form,
        forms=(("G", game.form),),
        worlds=[(0, s) for s in states],
        records=game.records,
        agent_edges={
            player: _same_class_edges(coords[:, player - 1])
            for player in game.form.players
        },
    )


def restrict(form: GameForm, subsets: Mapping[int, Iterable[str]]) -> GameForm:
    """Shrink some players' strategy sets, preserving the ambient order.

    Players absent from `subsets` keep their full strategy set.
    """
    new_sets: list[tuple[str, ...]] = []
    for player in form.players:
        names = form.strategy_sets[player - 1]
        if player not in subsets:
            new_sets.append(names)
            continue
        keep = set(subsets[player])
        unknown = keep - set(names)
        if unknown:
            raise GameError(
                f"player {player} cannot be restricted to unknown "
                f"strategies {sorted(unknown)}"
            )
        if not keep:
            raise GameError(f"player {player} would have no strategies left")
        new_sets.append(tuple(n for n in names if n in keep))
    extra = set(subsets) - set(form.players)
    if extra:
        raise GameError(f"restriction mentions unknown players {sorted(extra)}")
    return GameForm(new_sets)


def confusion_model(
    game: StrategicGame, restricted: GameForm, confused: Iterable[int]
) -> IntensionalModel:
    """Join a restricted copy of the game onto the full one.

    Worlds are all profiles of the restricted form (named ``Gr``) followed by
    all profiles of the full form (named ``G``); every world keeps the
    outcome the full game assigns to its profile.  A confused player cannot
    tell the two forms apart and identifies worlds by their own coordinate
    alone; everyone else additionally distinguishes the forms.
    """
    ambient = game.form
    confused_set = frozenset(confused)
    for player in confused_set:
        ambient._check_player(player)
    restricted_worlds = [
        (0, ambient.profile_from_names(restricted.names(s)))
        for s in all_profiles(restricted)
    ]
    full_worlds = [(1, s) for s in all_profiles(ambient)]
    worlds = restricted_worlds + full_worlds
    records = [game.outcome(profile) for _, profile in worlds]
    form_col = np.array([fi for fi, _ in worlds], dtype=np.int64)
    coords = np.array([s for _, s in worlds], dtype=np.int64)
    edges = {}
    for player in ambient.players:
        own = coords[:, player - 1]
        if player not in confused_set:
            own = form_col * len(ambient.strategy_sets[player - 1]) + own
        edges[player] = _same_class_edges(own)
    return IntensionalModel(
        ambient=ambient,
        forms=(("Gr", restricted), ("G", ambient)),
        worlds=worlds,
        records=records,
        agent_edges=edges,
    )
