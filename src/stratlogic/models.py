"""Model checking for the strategy logic.

A model is a set of (form, profile) worlds with optional per-agent
accessibility relations on top; a strategic game's model is the case of one
form, all of its profiles and no agents.  No relation is ever materialised:
formula extensions are bit sets (Python ints whose bit k is the world in
grid slot k), computed bottom-up with only the atoms' sets kept per model,
and every modality is a predecessor computation on them (`pre`).  A vector
acts by shifts along the axes of the profile grid, an agent relation is a
list of (sources, targets) bit-set blocks, and iteration is a least
fixpoint grown from its frontier.  The public functions take and return
bool masks over the worlds, in enumeration order.
"""
from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .games import (
    GameError,
    GameForm,
    Outcomes,
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


# `worlds` for the dense models this package builds: every form's full grid
# in order, given without rows; each form must offer every ambient strategy.
_GRID = object()

# A model packs its utility atoms this many at a time (see `_util_set`), so
# a block's gathered codes take this many bytes per world with one-byte codes.
_ATOM_BLOCK = 16

# What `_vector_steps` reads for a vector not yet compiled on the model.
_UNCOMPILED = object()


class IntensionalModel:
    """Worlds are (form, profile) pairs; agents get accessibility relations.

    This is the one model class.  A strategic game's model (`MaslModel`) is
    the special case with one unnamed form, every profile as a world and no
    agent mapping.  Profiles are stored with ambient strategy indices, and
    vector moves never cross between forms.  A set of worlds is an int
    whose bit k is slot k, form index * grid size + grid cell; `full` is
    the set of every world, and `mask` turns a set into a bool array.  A
    dense model (full copies of the ambient grid, form by form in order)
    holds no per-world rows: world k is slot k, and keys and profiles come
    from slot arithmetic when asked.  Other models keep each world's slot.
    An agent's relation is a list of (sources, targets) blocks of such sets,
    each relating all its sources to all its targets; no two share a source.

    `worlds` lists (form index, profile) pairs, or is an integer array of
    (form index, *profile) rows; `outcomes` has one row per world.  A form
    id of None leaves a form unnamed: its worlds' keys are bare profile keys
    such as ``c,d``, not ``G:c,d``.
    Without an `agent_edges` mapping agent programs raise `EvalError`; with
    one, a player the mapping leaves out has the empty relation.  A player's
    entry lists (source, target) world indices, as pairs or as one flat
    sequence of ints, source then target.
    """

    def __init__(
        self,
        ambient: GameForm,
        forms: Sequence[tuple[str | None, GameForm]],
        worlds: Sequence[tuple[int, Profile]] | np.ndarray,
        outcomes: Outcomes,
        agent_edges: Mapping[int, Iterable[tuple[int, int]] | Iterable[int]] | None = None,
    ):
        self.ambient = ambient
        self.n = n = ambient.n
        self.forms = tuple(forms)
        self._shape = shape = tuple(len(names) for names in ambient.strategy_sets)
        self._total = total = math.prod(shape)
        if not self.forms:
            raise GameError("an intensional model needs at least one form")
        ids = [fid for fid, _ in self.forms]
        if len(set(ids)) != len(ids):
            raise GameError("form ids must be distinct")
        # The slot of each world; None when the worlds are dense.
        self._slots = table = None
        m = len(self.forms) * total
        if worlds is not _GRID:
            try:
                if not isinstance(worlds, np.ndarray):
                    worlds = [(form_idx, *profile) for form_idx, profile in worlds]
                table = np.asarray(worlds, dtype=np.int64).reshape(len(worlds), n + 1)
            except (OverflowError, TypeError, ValueError):
                raise GameError(f"worlds must be (form index, {n}-player profile) pairs") from None
            m = len(table)
            if not m:
                raise GameError("an intensional model needs at least one world")
            # Every check runs on whole columns; a failure names its first world.
            outside = (table < 0) | (table >= (len(self.forms), *shape))
            if outside.any():
                row = outside.any(axis=1).argmax()
                if outside[row, 0]:
                    raise GameError(f"world references unknown form index {table[row, 0]}")
                raise GameError(
                    f"profile {tuple(table[row, 1:].tolist())!r} is out of range "
                    f"at player {outside[row, 1:].argmax() + 1}"
                )
        for form_idx, (fid, form) in enumerate(self.forms):
            if form.strategy_sets == ambient.strategy_sets:
                continue
            if form.n != n:
                raise GameError(f"form {fid!r} has a different player count")
            for pos, names in enumerate(ambient.strategy_sets):
                offered = [name in form.strategy_sets[pos] for name in names]
                if tuple(compress(names, offered)) != form.strategy_sets[pos]:
                    raise GameError(
                        f"form {fid!r} is not an order-preserving restriction "
                        f"of the ambient form at player {pos + 1}"
                    )
                if all(offered):
                    continue
                rows = np.flatnonzero(table[:, 0] == form_idx)
                absent = rows[~np.take(offered, table[rows, pos + 1])]
                if absent.size:
                    key = ambient.profile_key(tuple(table[absent[0], 1:].tolist()))
                    raise GameError(f"world profile {key!r} is not available in form {fid!r}")
        if table is not None:
            slots = table @ np.array([total] + [math.prod(shape[pos + 1 :]) for pos in range(n)])
            # Rows that hold every form's full grid in order are dense: drop them.
            if m % total or not np.array_equal(slots, np.arange(m)):
                self._slots = slots
                row = int((self._lookup[slots] != np.arange(m)).argmax())
                if self._lookup[slots[row]] != row:
                    world = (int(table[row, 0]), tuple(table[row, 1:].tolist()))
                    raise GameError(f"duplicate world {world!r}")
        self.size = m
        self.outcomes = outcomes
        if len(outcomes) != m:
            raise GameError("need exactly one outcome record per world")
        if outcomes.codes.shape[1] != n:
            label = outcomes.labels[outcomes.label_codes[0]]
            raise GameError(f"outcome {label!r} has wrong utility count for {n} players")
        self._grid = (len(self.forms), ambient.strategy_sets)
        dense = self._slots is None
        self._width = m if dense else int(self._slots.max()) + 1  # no set has a higher bit
        self.full = (1 << m) - 1 if dense else self._pack(np.ones(m, dtype=bool))
        self._blocks = None if agent_edges is None else {}
        for player, edges in (agent_edges or {}).items():
            if not 1 <= player <= n:
                raise GameError(f"accessibility given for unknown player {player}")
            try:
                pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
            except (OverflowError, TypeError, ValueError):
                raise GameError(
                    f"accessibility for player {player} must be integer pairs"
                ) from None
            outside = (pairs < 0) | (pairs >= m)
            if outside.any():
                i, j = pairs[outside.any(axis=1)][0]
                raise GameError(f"accessibility edge ({i}, {j}) out of range")
            # Group by source; sources with equal target sets share a block.
            src, dst = pairs[np.argsort(pairs[:, 0], kind="stable")].T
            starts = np.flatnonzero(np.diff(src, prepend=-1))
            owners = src[starts] if dense else self._slots[src[starts]]
            hit, merged = np.zeros(m, dtype=bool), {}
            for source, targets in zip(owners.tolist(), np.split(dst, starts[1:])):
                hit[targets] = True
                bits = self._pack(hit)
                hit[targets] = False
                merged[bits] = merged.get(bits, 0) | 1 << source
            self._blocks[player] = [(sources, bits) for bits, sources in merged.items()]
        # Leaf bit sets by leaf, utility atom sets by atom number (a list
        # made on first use, None where not yet packed), compiled vectors,
        # and the masks handed out.
        self._ext_cache: dict = {}
        self._utils: list[int | None] | None = None
        self._steps: dict[Vector, _Steps | None] = {}
        self._arrays: dict[int, np.ndarray] = {}

    @cached_property
    def _signature(self) -> Signature:
        table = self.outcomes
        return Signature(self.ambient.strategy_sets, table.values, table.alternatives)

    @cached_property
    def _value_codes(self) -> dict:
        return {value: code for code, value in enumerate(self.outcomes.values)}

    @cached_property
    def _label_codes(self) -> dict:
        return {label: code for code, label in enumerate(self.outcomes.labels)}

    @cached_property
    def _lookup(self) -> np.ndarray:
        """World index by slot, -1 at slots without a world."""
        lookup = np.full(len(self.forms) * self._total, -1, dtype=np.int64)
        lookup[self._slots] = np.arange(len(self._slots))
        return lookup

    def _slot(self, idx: int) -> int:
        return int(idx if self._slots is None else self._slots[idx])

    @cached_property
    def worlds(self) -> list[tuple[int, Profile]]:
        """Each world as a (form index, profile) pair."""
        slots = np.arange(self.size) if self._slots is None else self._slots
        form, *profile = np.unravel_index(slots, (len(self.forms), *self._shape))
        return list(zip(form.tolist(), zip(*(axis.tolist() for axis in profile))))

    @cached_property
    def states(self) -> list[Profile]:
        """Each world's profile, in ambient strategy indices."""
        return [profile for _, profile in self.worlds]

    def state_key(self, idx: int) -> str:
        """``c,d`` for a world of an unnamed form, ``G:c,d`` for one of form G."""
        form_idx, cell = divmod(self._slot(idx), self._total)
        names = []
        for strategies in reversed(self.ambient.strategy_sets):
            cell, strategy = divmod(cell, len(strategies))
            names.append(strategies[strategy])
        key = ",".join(reversed(names))
        form_id = self.forms[form_idx][0]
        return key if form_id is None else f"{form_id}:{key}"

    def index(self, where: int | str | tuple) -> int:
        """A world's index, from the index itself, its `state_key`, or its
        profile (one unnamed form) or (form index, profile) pair (named forms)."""
        if isinstance(where, int):
            if 0 <= where < self.size:
                return where
            raise EvalError(f"world index {where} out of range")
        if isinstance(where, str):
            prefix, colon, key = where.rpartition(":")
            form_id = prefix if colon else None
            ids = [fid for fid, _ in self.forms]
            if form_id not in ids:
                raise EvalError(f"state key {where!r} names no form of this model")
            where = (ids.index(form_id), self.ambient.profile_from_key(key))
        elif self.forms[0][0] is None:
            where = (0, where)
        form_idx, profile = where
        self.ambient.validate_profile(profile)
        if 0 <= form_idx < len(self.forms):
            slot = form_idx * self._total + int(np.ravel_multi_index(profile, self._shape))
            state = slot if self._slots is None else int(self._lookup[slot])
            if state >= 0:
                return state
        raise EvalError(f"no world {where!r} in this model")

    def _relation(self, player: int) -> list[tuple[int, int]]:
        """The player's (sources, targets) blocks."""
        if self._blocks is None:
            raise EvalError("agent programs need a model with agent relations")
        if not 1 <= player <= self.n:
            raise EvalError(f"no player {player} in this model")
        return self._blocks.get(player, [])

    def agent_edges(self, player: int) -> tuple[np.ndarray, np.ndarray]:
        """The player's relation as read-only (source, target) arrays of world
        indices, sorted by source, then target; sources lie in one block each."""
        blocks = self._relation(player)
        owner = np.full(self.size, -1)  # the block of each source
        for k, (sources, _) in enumerate(blocks):
            owner[self._unpack(sources)] = k
        targets = [np.flatnonzero(self._unpack(bits)) for _, bits in blocks]
        sources = np.flatnonzero(owner >= 0)
        rows = [targets[k] for k in owner[sources].tolist()]
        src = np.repeat(sources, [row.size for row in rows])
        return _frozen(src), _frozen(np.concatenate([sources[:0], *rows]))

    def _pack(self, mask: np.ndarray) -> int:
        """The bit set of a bool mask over the worlds: bit k is slot k."""
        if self._slots is not None:
            grid = np.zeros(self._width, dtype=bool)
            grid[self._slots] = mask
            mask = grid
        return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")

    def _unpack(self, bits: int) -> np.ndarray:
        """A new bool mask over the worlds from a bit set."""
        raw = np.frombuffer(bits.to_bytes(-(-self._width // 8), "little"), dtype=np.uint8)
        grid = np.unpackbits(raw, count=self._width, bitorder="little").view(bool)
        return grid if self._slots is None else grid[self._slots]

    def mask(self, bits: int) -> np.ndarray:
        """The read-only bool mask over the worlds of a bit set, made once
        per distinct set and kept on the model."""
        array = self._arrays.get(bits)
        if array is None:
            array = self._arrays[bits] = _frozen(self._unpack(bits))
        return array

    def first_outside(self, bits: int) -> str | None:
        """The key of the first world, in enumeration order, whose bit is
        clear; None when every world's bit is set."""
        if bits == self.full:
            return None
        return self.state_key(int(self._unpack(bits).argmin()))

    def _util_set(self, player: int, code: int) -> int:
        """The bit set of `u_player = values[code]`.  The model's utility
        atoms are numbered (player - 1) * |values| + code and packed
        `_ATOM_BLOCK` at a time, a block on the first request of one of its
        atoms: one gather of the atoms' code columns, compared in place when
        codes are one byte, one `packbits`, then one `int.from_bytes` per
        atom."""
        codes = self.outcomes.codes
        count = len(self.outcomes.values)
        atom = (player - 1) * count + code
        utils = self._utils
        if utils is None:
            utils = self._utils = [None] * (self.n * count)
        bits = utils[atom]
        if bits is not None:
            return bits
        first = atom - atom % _ATOM_BLOCK
        block = slice(first, first + _ATOM_BLOCK)
        columns, wanted = _atom_index(self.n, count, codes.dtype)
        gathered = codes.T[columns[block]]
        rows = gathered.view(bool) if gathered.itemsize == 1 else np.empty(gathered.shape, bool)
        np.equal(gathered, wanted[block], out=rows)
        if self._slots is not None:
            grid = np.zeros((len(rows), self._width), dtype=bool)
            grid[:, self._slots] = rows
            rows = grid
        for k, line in enumerate(np.packbits(rows, axis=1, bitorder="little"), first):
            utils[k] = int.from_bytes(line.tobytes(), "little")
        return utils[atom]

    def _leaf(self, f: Formula, keep_column: bool = False) -> int:
        """The bit set of an atomic formula, packed once from the outcome
        store's columns.  With `keep_column`, a column read from the store
        also becomes the set's mask, so `mask` need not unpack it; without,
        a utility atom's set is read from its block (`_util_set`)."""
        table = self.outcomes
        if isinstance(f, Top):
            return self.full
        if isinstance(f, VectorAtom):
            # The states matching every Concrete position of the vector.
            steps = self._vector_steps(f.vector)
            return 0 if steps is None else steps.concrete << steps.offset & self.full
        if isinstance(f, Winner):
            if table.alternatives is None:
                raise EvalError("model has no winner labelling for win(...) atoms")
            if f.name not in table.alternatives:
                return 0
            column = table.winners[:, table.alternatives.index(f.name)]
        elif isinstance(f, UtilEq):
            if not 1 <= f.player <= self.n:
                raise EvalError(f"no player {f.player} in this model")
            code = self._value_codes.get(f.value)
            if code is None:
                raise EvalError(
                    f"utility value {f.value} is not in the model's range"
                )
            if not keep_column:
                return self._util_set(f.player, code)
            column = table.codes[:, f.player - 1] == code
        elif isinstance(f, Label):
            code = self._label_codes.get(f.text)
            if code is None:
                return 0
            column = table.label_codes == code
        else:
            raise EvalError(f"not a formula: {f!r}")
        bits = self._pack(column)
        if keep_column and bits not in self._arrays:
            self._arrays[bits] = _frozen(column)
        return bits

    def _vector_steps(self, vector: Vector) -> _Steps | None:
        steps = self._steps.get(vector, _UNCOMPILED)
        if steps is not _UNCOMPILED:
            return steps
        if vector.n != self.n:
            raise EvalError(
                f"vector {vector!r} has {vector.n} positions for {self.n} players"
            )
        steps = self._steps[vector] = _compile_vector(self._grid, vector)
        return steps

    def _pre_vector(self, vector: Vector, bits: int) -> int:
        """Predecessors of a bit set under one vector: read each Concrete
        axis at its strategy, OR each `??` axis onto coordinate 0, keep the
        slots where every moved axis is at 0 and spread them back along the
        moved axes.  The form axis never moves, so moves never cross forms."""
        steps = self._vector_steps(vector)
        if steps is None:
            return 0
        bits >>= steps.offset
        for shift in steps.gather:
            bits |= bits >> shift
        bits &= steps.zero
        for shift in steps.spread:
            bits |= bits << shift
        # Spreading stays inside the grid, so only gaps can need clearing.
        return bits if self._slots is None else bits & self.full


@lru_cache(maxsize=64)
def _atom_index(n: int, count: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """By utility atom number, for n players and `count` values: the atom's
    player column, and its value code as a one-element row."""
    columns = np.repeat(np.arange(n), count)
    return _frozen(columns), _frozen(np.tile(np.arange(count, dtype=dtype), n)[:, None])


class _Steps(NamedTuple):
    """A vector compiled for one grid of slots (see `_pre_vector`)."""

    offset: int  # the right shift that reads every Concrete axis
    gather: tuple[int, ...]  # right shifts ORing each `??` axis onto 0
    zero: int  # the slots where every moved axis is at 0
    spread: tuple[int, ...]  # left shifts spreading them along those axes
    concrete: int  # the slots where every Concrete axis is at 0


@lru_cache(maxsize=1024)
def _compile_vector(grid: tuple, vector: Vector) -> _Steps | None:
    """A vector's steps on `forms` stacked grids of the ambient strategy
    `sets`; None when a Concrete name is foreign to the ambient form."""
    forms, sets = grid
    shape = (forms, *map(len, sets))
    offset, gather, spread, moved, concrete = 0, [], [], [], []
    for pos, (term, names) in enumerate(zip(vector.terms, sets), 1):
        stride = math.prod(shape[pos + 1 :])
        if isinstance(term, Concrete):
            if term.name not in names:
                return None
            offset += names.index(term.name) * stride
            concrete.append(pos)
        elif isinstance(term, Adversary):
            gather += _doubling(len(names), stride)
        else:
            continue
        spread += _doubling(len(names), stride)
        moved.append(pos)
    zero, at = _zeros(shape, tuple(moved)), _zeros(shape, tuple(concrete))
    return _Steps(offset, tuple(gather), zero, tuple(spread), at)


def _doubling(size: int, stride: int) -> list[int]:
    """Shifts by 1, 2, 4, ... strides, then by the rest: ORed in turn, they
    cover coordinates 0 .. size-1 of an axis from coordinate 0 (to the left)
    or onto it (to the right), never carrying into the next axis."""
    shifts, width = [], 1
    while 2 * width <= size:
        shifts.append(width * stride)
        width *= 2
    if width < size:
        shifts.append((size - width) * stride)
    return shifts


@lru_cache(maxsize=256)
def _zeros(shape: tuple[int, ...], axes: tuple[int, ...]) -> int:
    """The slots of a C-order grid of this shape where each of the axes is
    at coordinate 0, built by doubling: O(log) big-int operations per axis."""
    width = math.prod(shape)
    bits = (1 << width) - 1
    for axis in axes:
        stride = math.prod(shape[axis + 1 :])
        period = stride * shape[axis]
        block, count = (1 << stride) - 1, 1
        while count * period < width:
            block |= block << (count * period)
            count *= 2
        bits &= block
    return bits


def MaslModel(game: StrategicGame) -> IntensionalModel:
    """A strategic game read as a Kripke model over its profiles: one unnamed
    form, every profile a world in `all_profiles` order, and no agents."""
    return IntensionalModel(game.form, ((None, game.form),), _GRID, game.outcomes)


def model_signature(model: IntensionalModel) -> Signature:
    """The parsing/building vocabulary a model supports."""
    return model._signature


def pre(model: IntensionalModel, program: Program, target: np.ndarray) -> np.ndarray:
    """The states with at least one `program` successor in `target`.

    `target` is a boolean mask over the model's states; the result is a
    read-only mask kept on the model.
    """
    target = np.asarray(target, dtype=bool)
    if target.shape != (model.size,):
        raise EvalError(f"target mask has shape {target.shape}, not ({model.size},)")
    return model.mask(_pre(model, program, model._pack(target)))


def _pre(model: IntensionalModel, program: Program, target: int) -> int:
    """`pre` on bit sets.  The program is run from an explicit stack of
    steps, each taking its input set from the top of a set stack and leaving
    its output there, so long sequences and choices never reach the
    recursion limit.  A test's set is computed once per call, and kept by
    the `id` of its `Test` node, which the program keeps alive, so a `*`
    does not recompute it every round."""
    if isinstance(program, Vec):
        return model._pre_vector(program.vector, target)
    masks = [target]
    steps: list = [program]
    tests: dict[int, int] = {}
    while steps:
        step = steps.pop()
        if isinstance(step, Vec):
            masks.append(model._pre_vector(step.vector, masks.pop()))
        elif isinstance(step, Test):
            bits = tests.get(id(step))
            if bits is None:
                bits = tests[id(step)] = _bits(model, step.body)
            masks.append(bits & masks.pop())
        elif isinstance(step, Seq):
            steps += (step.left, step.right)
        elif isinstance(step, Choice):
            # pre(left, X) | pre(right, X), run as: copy X, left, swap, right, or.
            steps += (_OR_STEP, step.right, _SWAP, step.left, _COPY)
        elif step is _COPY:
            masks.append(masks[-1])
        elif step is _SWAP:
            masks[-2], masks[-1] = masks[-1], masks[-2]
        elif step is _OR_STEP:
            right = masks.pop()
            masks.append(masks.pop() | right)
        elif isinstance(step, Star):
            # The body is applied at least once, so its evaluation errors
            # surface even for an empty target.
            steps += (_StarRound(step.body, masks[-1]), step.body)
        elif isinstance(step, _StarRound):
            fresh = masks.pop() & ~step.reached
            if fresh:
                step.reached |= fresh
                masks.append(fresh)
                steps += (step, step.body)
            else:
                masks.append(step.reached)
        elif isinstance(step, (Agent, AgentConv)):
            # The sources of the blocks whose targets meet the set; `^` swaps sides.
            side, bits, reach = isinstance(step, AgentConv), masks.pop(), 0
            for block in model._relation(step.player):
                if block[1 - side] & bits:
                    reach |= block[side]
            masks.append(reach)
        else:
            raise EvalError(f"not a program: {step!r}")
    return masks[0]


# Set-stack steps of `_pre` that are not programs.
_COPY, _SWAP, _OR_STEP = object(), object(), object()


class _StarRound:
    """One round of the least fixpoint Y = target | pre(body, Y): `pre`
    distributes over union, so each round applies the body only to the
    states first reached in the round before (the frontier)."""

    __slots__ = ("body", "reached")

    def __init__(self, body: Program, reached: int):
        self.body, self.reached = body, reached


def extension(model: IntensionalModel, formula: Formula) -> np.ndarray:
    """The set of states where the formula holds, as a boolean mask.

    The result is kept on the model and read-only; copy before mutating.
    """
    return model.mask(_bits(model, formula, keep_column=True))


def _bits(model: IntensionalModel, formula: Formula, keep_column: bool = False) -> int:
    """The formula's bit set on the model.  A lone atom's is the leaf set the
    model keeps, and with `keep_column` its column serves as its mask.  Any
    other formula is compiled into a `Plan` on first use, kept on the
    formula, so evaluating it on further models does not walk it again.
    Neither step recurses, so depth is not bounded by the recursion limit."""
    if _OPS.get(type(formula)) == _LEAF:
        bits = model._ext_cache.get(formula)
        if bits is None:
            bits = model._ext_cache[formula] = model._leaf(formula, keep_column)
        return bits
    try:
        plan = formula._plan
    except AttributeError:
        plan = compile_plan((formula,))
        if isinstance(formula, Formula):
            object.__setattr__(formula, "_plan", plan)
    return run_plan(model, plan)[plan.roots[0]]


class Plan(NamedTuple):
    """The distinct nodes of some formulas in post-order, children left to
    right, one entry per slot: its operation, what `run_plan` reads of its
    node (a leaf, a modality's program, or None) and the slots of its first
    and second child (-1 where there is none), stored as columns; `roots`
    holds each formula's slot.  No entry is a formula that keeps the plan,
    so a kept plan makes no reference cycle."""

    ops: bytearray
    nodes: list
    left: list[int]
    right: list[int]
    roots: list[int]


# Plan entry operations: a leaf, the unary ones, then the binary ones.
_LEAF, _NOT, _DIAMOND, _BOX, _AND, _OR, _IMPLIES, _IFF = range(8)
_OPS = {
    **dict.fromkeys((Top, VectorAtom, Winner, UtilEq, Label), _LEAF),
    **dict(zip((Not, Diamond, Box, And, Or, Implies, Iff), range(_NOT, _IFF + 1))),
}


def compile_plan(roots: Iterable[Formula]) -> Plan:
    """One evaluation plan for all the roots, from an explicit stack.

    Nodes are told apart by identity alone, so compiling never calls
    `Node.__hash__` or `__eq__`; an equal but distinct subtree gets entries
    of its own and is computed on its own.  The property builders and the
    axiom schemas build each shared subformula once, so sharing is by
    identity.
    """
    plan = Plan(bytearray(), [], [], [], [])
    slots: dict[int, int] = {}
    roots = list(roots)  # alive while their nodes' `id`s are slot keys
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            key = id(node)
            if key in slots:  # a subtree that occurs more than once
                continue
            op = _OPS.get(type(node))
            if op is None:  # a subclass, or not a formula at all
                op = next((o for t, o in _OPS.items() if isinstance(node, t)), _LEAF)
            # A node is emitted once its children have slots; until then it
            # goes back under them, the left one on top.
            if op == _LEAF:
                a, b, entry = -1, -1, node
            elif op >= _AND:
                a, b = slots.get(id(node.left)), slots.get(id(node.right))
                if a is None or b is None:
                    stack.append(node)
                    if b is None:
                        stack.append(node.right)
                    if a is None:
                        stack.append(node.left)
                    continue
                entry = None
            else:
                a, b = slots.get(id(node.body)), -1
                if a is None:
                    stack += (node, node.body)
                    continue
                entry = node.program if op in (_DIAMOND, _BOX) else None
            slots[key] = len(plan.nodes)
            plan.ops.append(op)
            plan.nodes.append(entry)
            plan.left.append(a)
            plan.right.append(b)
        plan.roots.append(slots[id(root)])
    return plan


def run_plan(model: IntensionalModel, plan: Plan) -> list[int]:
    """Every entry's bit set on the model, slot by slot.

    A connective or modality is computed from its children's sets once per
    run, and only leaf sets are kept on the model, under the leaf, so what
    a model keeps grows with its atoms, not with the plans run on it.  A
    complement is an XOR with `model.full`, so it never sets a slot
    without a world.
    """
    cache, full = model._ext_cache, model.full
    out: list[int] = []
    push = out.append
    for op, node, a, b in zip(plan.ops, plan.nodes, plan.left, plan.right):
        if op == _AND:
            push(out[a] & out[b])
        elif op == _OR:
            push(out[a] | out[b])
        elif op == _NOT:
            push(out[a] ^ full)
        elif op == _LEAF:
            bits = cache.get(node)
            if bits is None:
                bits = cache[node] = model._leaf(node)
            push(bits)
        elif op == _IMPLIES:
            push(out[a] ^ full | out[b])
        elif op == _IFF:
            push(out[a] ^ out[b] ^ full)
        elif op == _DIAMOND:
            push(_pre(model, node, out[a]))
        else:
            push(_pre(model, node, out[a] ^ full) ^ full)
    return out


def satisfies(model: IntensionalModel, where, formula: Formula) -> bool:
    """Truth at one state, given as anything `IntensionalModel.index` takes."""
    return bool(_bits(model, formula) >> model._slot(model.index(where)) & 1)


def valid_in_model(model: IntensionalModel, formula: Formula) -> bool:
    return _bits(model, formula) == model.full


def counterexample(model: IntensionalModel, formula: Formula) -> str | None:
    """The first state (in enumeration order) falsifying the formula."""
    return model.first_outside(_bits(model, formula))


# --------------------------------------------------------------------------
# epistemic constructions


def epistemic_lift(game: StrategicGame) -> IntensionalModel:
    """All profiles as worlds; each player can tell worlds apart exactly by
    their own coordinate."""
    model = IntensionalModel(game.form, (("G", game.form),), _GRID, game.outcomes, {})
    shape = model._shape
    for player, size in enumerate(shape, 1):
        # Player i's class c: the slots whose coordinate i is c.
        stride, zero = math.prod(shape[player:]), _zeros(shape, (player - 1,))
        model._blocks[player] = [(zero << c * stride,) * 2 for c in range(size)]
    return model


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
    inner = [ambient.profile_from_names(restricted.names(s)) for s in all_profiles(restricted)]
    worlds = np.array([(0, *s) for s in inner] + [(1, *s) for s in all_profiles(ambient)])
    # A player's class is their own strategy, and also the form unless confused.
    weights = [len(s) * (p not in confused_set) for p, s in enumerate(ambient.strategy_sets, 1)]
    classes = worlds[:, 1:] + np.outer(worlds[:, 0], weights)
    # The rows of every profile are included, so the game's value, label and
    # alternative tables stay exact for the joined model.
    table = game.outcomes
    rows = np.concatenate([[game.profile_index(s) for s in inner], np.arange(len(table))])
    outcomes = replace(
        table,
        codes=table.codes[rows],
        label_codes=table.label_codes[rows],
        winners=None if table.winners is None else table.winners[rows],
    )
    model = IntensionalModel(ambient, (("Gr", restricted), ("G", ambient)), worlds, outcomes, {})
    # Player i's relation is "same class": a (class, class) block per non-empty class.
    for player, labels in enumerate(classes.T, 1):
        blocks = (model._pack(labels == c) for c in range(int(labels.max()) + 1))
        model._blocks[player] = [(bits, bits) for bits in blocks if bits]
    return model
