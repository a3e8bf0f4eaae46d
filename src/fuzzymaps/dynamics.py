"""Threshold dynamics over partitioned connection matrices.

The engine iterates the special product (multiply on the flattened grid,
re-partition the result), thresholds each raw sum vector to binary, forces
the seed's coordinates back on whenever a state is produced on the seed's
side, and stops when a seed-side state recurs.  The recurrence is either a
fixed point or a limit cycle: the hidden pattern.

Two layouts are supported: two-sided models alternate forward (rows to
columns) and backward (columns to rows) products; one-sided models square
the same state repeatedly against a square matrix.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteCutoff,
    StateSpaceTooLarge,
    StepLimitExceeded,
)
from .supermatrix import Orientation, Partition, SuperMatrix, SuperVector

__all__ = [
    "Side",
    "Direction",
    "Comparator",
    "ThresholdRule",
    "FirstStepMode",
    "ThresholdPolicy",
    "StateVector",
    "StepRecord",
    "PatternKind",
    "HiddenPattern",
    "Attractor",
    "AttractorCensus",
    "Attractors",
    "special_product",
    "apply_threshold",
    "apply_update",
    "step",
    "run_hidden_pattern",
    "sweep_unit_seeds",
    "enumerate_attractors",
    "GT_ZERO",
]

DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_STATES = 1 << 20


class Side(str, Enum):
    DOMAIN = "domain"
    RANGE = "range"

    @property
    def opposite(self) -> "Side":
        return Side.RANGE if self is Side.DOMAIN else Side.DOMAIN


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class Comparator(str, Enum):
    GE = "ge"
    GT = "gt"


@dataclass(frozen=True)
class ThresholdRule:
    """Map each raw sum to 1 iff it compares true against the cutoff."""

    comparator: Comparator
    cutoff: float

    def __post_init__(self):
        object.__setattr__(self, "comparator", Comparator(self.comparator))
        object.__setattr__(self, "cutoff", float(self.cutoff))

    def describe(self) -> str:
        sym = ">=" if self.comparator is Comparator.GE else ">"
        return f"{sym} {_num(self.cutoff)}"

    def as_dict(self) -> dict:
        return {"cmp": self.comparator.value, "cutoff": self.cutoff}


GT_ZERO = ThresholdRule(Comparator.GT, 0.0)


class FirstStepMode(str, Enum):
    AUTO = "auto"
    ALWAYS = "always"
    NEVER = "never"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-side threshold rules plus the first-product convention.

    ``first_step_mode`` decides when ``first_step_rule`` replaces the
    producing side's rule on the very first product of a run:

    * ``auto`` (default): only when the seed has exactly one on-coordinate.
      A unit seed's first raw sums are a single matrix row or column, so
      large cutoffs would extinguish it; "positive means on" is what the
      worked trajectories apply there.
    * ``always``: every run's first product.
    * ``never``: side rules from the first product onward.
    """

    domain_rule: ThresholdRule
    range_rule: ThresholdRule
    first_step_rule: ThresholdRule = GT_ZERO
    first_step_mode: FirstStepMode = FirstStepMode.AUTO

    def __post_init__(self):
        object.__setattr__(
            self, "first_step_mode", FirstStepMode(self.first_step_mode)
        )
        # a NaN cutoff compares false everywhere and an infinite one settles
        # every comparison: such a policy would run to a meaningless pattern
        for where, rule in (
            ("domain", self.domain_rule),
            ("range", self.range_rule),
            ("first_step", self.first_step_rule),
        ):
            if not math.isfinite(rule.cutoff):
                raise NonFiniteCutoff(
                    f"cutoff at policy.{where}: cutoff {rule.cutoff} is not finite"
                )

    def rule_for(self, side: Side) -> ThresholdRule:
        return self.domain_rule if side is Side.DOMAIN else self.range_rule

    def as_dict(self) -> dict:
        """The policy as in reports and ``validate --json``; cutoffs are floats."""
        return {
            "domain": self.domain_rule.as_dict(),
            "range": self.range_rule.as_dict(),
            "first_step": {
                "mode": self.first_step_mode.value,
                **self.first_step_rule.as_dict(),
            },
        }

    def first_step_applies(self, seed: "StateVector", step_index: int) -> bool:
        if step_index != 1 or self.first_step_mode is FirstStepMode.NEVER:
            return False
        if self.first_step_mode is FirstStepMode.ALWAYS:
            return True
        return seed.count_on == 1


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a state's bits as their digits


def _filled(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, with
    no checks: one update of its ``__dict__`` costs about half of
    ``__init__``, which sets each field through ``object.__setattr__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _plain(x: float) -> "int | float":
    """``x`` as an ``int`` when integral, else as a ``float``."""
    f = float(x)
    return int(f) if f.is_integer() else f


def _num(x: float) -> str:
    """Number text: an integral value prints as an int, any other as ``repr``."""
    return str(_plain(x))


@dataclass(frozen=True)
class StateVector:
    """Binary on/off assignment over one side's nodes."""

    bits: tuple[int, ...]
    side: Side
    partition: Partition

    def __post_init__(self):
        given = tuple(self.bits)
        bits = tuple(map(int, given))
        if bits != given or not set(bits) <= {0, 1}:
            raise ValueError("state bits must be 0 or 1")
        if self.partition.total != len(bits):
            raise DimensionMismatch(
                f"partition covers {self.partition.total} nodes, "
                f"state has {len(bits)}"
            )
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "side", Side(self.side))

    @classmethod
    def _trusted(
        cls, bits: tuple[int, ...], side: Side, partition: Partition
    ) -> "StateVector":
        """Build without checks from 0/1 ints, one per partition node."""
        return _filled(cls, bits=bits, side=side, partition=partition)

    @classmethod
    def zeros(cls, side: Side, partition: Partition) -> "StateVector":
        return cls((0,) * partition.total, side, partition)

    @classmethod
    def from_on_indices(
        cls, on: Iterable[int], side: Side, partition: Partition
    ) -> "StateVector":
        n = partition.total
        bits = [0] * n
        for i in on:
            if not 0 <= i < n:
                raise IndexOutOfRange(f"index {i} out of range for {n} nodes")
            bits[i] = 1
        return cls._trusted(tuple(bits), Side(side), partition)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def on_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    @property
    def count_on(self) -> int:
        return sum(self.bits)

    @property
    def bitmask(self) -> int:
        mask = 0
        for i, b in enumerate(self.bits):
            if b:
                mask |= 1 << i
        return mask

    def array(self) -> np.ndarray:
        return np.array(self.bits, dtype=float)

    def blocked_str(self) -> str:
        """Render like ``110|010`` with bars at partition cuts."""
        digits = bytes(self.bits).translate(_DIGITS).decode()
        off = self.partition.offsets
        return "|".join([digits[a:b] for a, b in zip(off, off[1:])])


@dataclass(frozen=True)
class StepRecord:
    """One product of the iteration, before and after thresholding."""

    step_index: int
    produced_side: Side
    raw: tuple[float, ...]
    thresholded: tuple[int, ...]
    after_update: tuple[int, ...]
    rule_applied: ThresholdRule


class PatternKind(str, Enum):
    FIXED_POINT = "fixed_point"
    LIMIT_CYCLE = "limit_cycle"

    @classmethod
    def of_period(cls, period: int) -> "PatternKind":
        return cls.FIXED_POINT if period == 1 else cls.LIMIT_CYCLE


@dataclass(frozen=True)
class HiddenPattern:
    """Eventual behaviour of a run: a fixed pair or a limit cycle.

    ``pair_sequence`` holds one (domain state, range state) pair per cycle
    position.  Limit cycles are one-sided only, and one-sided runs store the
    same state in both slots; a two-sided run ends at one fixed pair, each
    member the product of the other (with seed forcing on the seed's side).
    ``steps_to_enter`` counts full rounds before the cycle's first state
    appears.  ``trace``, when the run recorded one, holds a
    :class:`StepRecord` per product in a read-only sequence that builds each
    record as it is read; it equals, and hashes as, the tuple of its
    records.
    """

    kind: PatternKind
    period: int
    pair_sequence: tuple[tuple[StateVector, StateVector], ...]
    steps_to_enter: int
    trace: Optional[Sequence[StepRecord]] = None

    @property
    def fixed_pair(self) -> tuple[StateVector, StateVector]:
        if self.kind is not PatternKind.FIXED_POINT:
            raise ValueError("not a fixed point")
        return self.pair_sequence[0]


def special_product(
    x, matrix: SuperMatrix, direction: Direction
) -> SuperVector:
    """Multiply on the flattened grid and re-partition the raw sums.

    Forward maps a row-length vector to column-partitioned sums
    ``y_j = sum_i x_i M[i, j]``; backward multiplies by the transpose and
    carries the row partition.
    """
    direction = Direction(direction)
    if isinstance(x, StateVector):
        vec = x.array()
    elif isinstance(x, SuperVector):
        vec = x.entries
    else:
        vec = np.asarray(x, dtype=float)
    if vec.ndim != 1:
        raise DimensionMismatch("state must be one-dimensional")
    if direction is Direction.FORWARD:
        if vec.shape[0] != matrix.n_rows:
            raise DimensionMismatch(
                f"forward product needs length {matrix.n_rows}, got {vec.shape[0]}"
            )
        raw = vec @ matrix.entries
        part = matrix.col_partition
    else:
        if vec.shape[0] != matrix.n_cols:
            raise DimensionMismatch(
                f"backward product needs length {matrix.n_cols}, got {vec.shape[0]}"
            )
        raw = matrix.entries @ vec
        part = matrix.row_partition
    return SuperVector(raw, part, Orientation.ROW)


def apply_threshold(raw, rule: ThresholdRule) -> np.ndarray:
    compare = np.greater_equal if rule.comparator is Comparator.GE else np.greater
    return compare(np.asarray(raw, dtype=float), rule.cutoff).astype(np.uint8)


def apply_update(bits, forced_on: Iterable[int]) -> np.ndarray:
    """Force the given coordinates to 1, leaving all others unchanged."""
    out = np.array(bits, dtype=np.uint8).copy()
    for i in forced_on:
        if not 0 <= i < out.shape[0]:
            raise IndexOutOfRange(
                f"forced index {i} out of range for {out.shape[0]} nodes"
            )
        out[i] = 1
    return out


def _side_partition(matrix: SuperMatrix, side: Side) -> Partition:
    return matrix.row_partition if side is Side.DOMAIN else matrix.col_partition


def step(
    matrix: SuperMatrix,
    state: StateVector,
    policy: ThresholdPolicy,
    seed: StateVector,
    step_index: int,
    one_sided: bool = False,
) -> StepRecord:
    """One product: multiply, threshold, then force seed coordinates.

    Domain states multiply forward, range states backward; a one-sided run
    keeps every product on the domain side.  The producing side's rule
    applies unless this is the run's first product and the policy's
    first-step rule takes over.  Seed coordinates are forced only on states
    produced on the seed's side.  Sums are float64's: on non-integer maps
    they can differ from the engine's exact ones at a near-tie cutoff.
    """
    if one_sided:
        direction = Direction.FORWARD
        produced_side = state.side
    else:
        direction = (
            Direction.FORWARD if state.side is Side.DOMAIN else Direction.BACKWARD
        )
        produced_side = state.side.opposite
    raw = special_product(state, matrix, direction)
    if policy.first_step_applies(seed, step_index):
        rule = policy.first_step_rule
    else:
        rule = policy.rule_for(produced_side)
    thresholded = apply_threshold(raw.entries, rule)
    if produced_side is seed.side:
        updated = apply_update(thresholded, seed.on_indices)
    else:
        updated = thresholded
    return StepRecord(
        step_index=step_index,
        produced_side=produced_side,
        raw=raw.as_tuple(),
        thresholded=tuple(int(b) for b in thresholded),
        after_update=tuple(int(b) for b in updated),
        rule_applied=rule,
    )


def _check_run(
    matrix: SuperMatrix,
    seed: StateVector,
    max_steps: int,
    one_sided: bool,
) -> None:
    if not hasattr(type(max_steps), "__index__"):  # what islice takes as a stop
        raise TypeError(f"max_steps must be an integer, got {max_steps!r}")
    if max_steps < 2:
        raise ValueError("max_steps must be at least 2")
    if one_sided and matrix.n_rows != matrix.n_cols:
        raise DimensionMismatch("one-sided runs need a square matrix")
    # the partition fixes the seed's length too
    if seed.partition != _side_partition(matrix, seed.side):
        raise DimensionMismatch("seed partition does not match the matrix")


def run_hidden_pattern(
    matrix: SuperMatrix,
    seed: StateVector,
    policy: ThresholdPolicy,
    max_steps: int = DEFAULT_MAX_STEPS,
    one_sided: bool = False,
    record_trace: bool = True,
) -> HiddenPattern:
    """Iterate from ``seed`` until a seed-side state recurs.

    Seed-side states are recorded from the first completed round onward: the
    first product may take the first-step rule, so only later states surely
    lie on the stationary map.  Recurrence at the immediately preceding
    visit is a fixed point, any longer gap a limit cycle, which only a
    one-sided run reaches.  Products are exact: entries and cutoffs are read
    as their shortest decimals, scaled to integers.  So a two-sided run, its
    seed forced on its own side only and its first-step rule on product 1
    only, ends at a fixed pair: as in Kosko's bidirectional associative
    memory, ``E(x, y) = -x M y^T + c_D sum(x) + c_R sum(y)``, with the side
    cutoffs ``c_D`` and ``c_R``, never rises from the second product on, and
    where it stays level a node moves only off (``gt``) or only on (``ge``).
    With ``record_trace``, the pattern's trace keeps each product's arrays
    and builds its :class:`StepRecord`, whose raw sums are divided back by
    the scale, only when read.
    """
    _check_run(matrix, seed, max_steps, one_sided)
    (pattern,) = _run(
        matrix,
        np.array([seed.bits], dtype=bool),
        seed.side,
        policy,
        policy.first_step_applies(seed, 1),
        max_steps,
        one_sided,
        record_trace,
    )
    if pattern is None:
        raise StepLimitExceeded(
            f"no seed-side state recurred within {max_steps} products; "
            "raise max_steps (--max-steps) to run longer"
        )
    return pattern


def _run(
    matrix: SuperMatrix,
    seeds: np.ndarray,
    side: Side,
    policy: ThresholdPolicy,
    first: bool,
    max_steps: int,
    one_sided: bool,
    record_trace: bool = False,
) -> list[Optional[HiddenPattern]]:
    """The engine core: run a (B x n) boolean block of seeds in lockstep.

    Every row is a seed on ``side``; ``first`` says whether the policy's
    first-step rule thresholds the block's first product.  A product is one
    :func:`_move` of the live rows: one gemm of the whole block on the
    scaled grid, one compare and, on the seed's side, ``| seeds`` of the
    live rows.  A row keeps a dict of its packed seed-side states in round
    order, a two-sided row only its last (it settles at a fixed pair, see
    :func:`run_hidden_pattern`); the first key a row sees twice closes its
    cycle and drops it from the block.  Only a block of one row may record a
    trace.  The patterns are built once, after the loop: one per row,
    ``None`` where no seed-side state recurred within ``max_steps`` products.
    """
    forward = one_sided or side is Side.DOMAIN  # ``x @ M`` from the seed's side
    produced = side if one_sided else side.opposite
    moves = [_move(matrix, forward, produced, policy.rule_for(produced), one_sided)]
    if not one_sided:
        moves.append(_move(matrix, not forward, side, policy.rule_for(side), True))
    opening = moves[0]
    if first:
        opening = _move(matrix, forward, produced, policy.first_step_rule, one_sided)
    schedule = itertools.chain([opening], itertools.cycle(moves[1:] + moves[:1]))

    # per seed row, the rounds before its cycle and its cycle's packed states
    cycles: list[Optional[tuple[int, list[bytes]]]] = [None] * seeds.shape[0]
    width = -(-seeds.shape[1] // 8)  # bytes in a packed seed-side row
    rows = list(range(seeds.shape[0]))  # each live row's index in ``seeds``
    seen: list[dict[bytes, None]] = [{} for _ in rows]
    trace: list = []  # per product, (produced, rule, raw, bits, state)
    state = seeds
    # no run reaches sys.maxsize products, the most islice takes as a stop
    for t, (grid, produced, rule, cutoff, forced) in enumerate(
        itertools.islice(schedule, min(max_steps, sys.maxsize))
    ):
        raw = state @ grid
        bits = raw > cutoff
        state = bits | seeds if forced else bits
        if record_trace:
            trace.append((produced, rule, raw, bits, state))
        if not forced:
            continue
        packed = np.packbits(state, axis=-1).tobytes()
        closed = False
        for p, visited in enumerate(seen):
            k = packed[p * width : (p + 1) * width]
            if k in visited:
                keys = list(visited)  # the rounds before round t // len(moves)
                j = keys.index(k)
                cycles[rows[p]] = (t // len(moves) - len(keys) + j, keys[j:])
                closed = True
            else:
                if not one_sided:  # it settles: its last state is enough
                    visited.clear()
                visited[k] = None
        if not closed:
            continue
        keep = [p for p, row in enumerate(rows) if cycles[row] is None]
        if not keep:
            break
        state, seeds = state[keep], seeds[keep]
        rows = [rows[p] for p in keep]
        seen = [seen[p] for p in keep]
    return _patterns(matrix, side, cycles, None if one_sided else moves[0], trace)


def _threshold(rule: ThresholdRule, grid: np.ndarray, scale: int) -> np.floating:
    """The cutoff with ``raw > cutoff`` equal to ``rule`` on ``raw / scale``,
    for ``raw`` the integer sums of a 0/1 block on ``grid``.  With ``c`` the
    cutoff's shortest decimal times ``scale`` (at scale 1 the float has the
    same floor and ceiling), ``r > c`` iff ``r > floor(c)`` and ``r >= c``
    iff ``r > ceil(c) - 1``: an integer, clamped to where the grid's dtype
    holds every integer, so NumPy compares it unrounded."""
    c = rule.cutoff
    if scale > 1:
        from fractions import Fraction  # as in SuperMatrix._exact

        c = Fraction(repr(c)) * scale
    t = math.floor(c) if rule.comparator is Comparator.GT else math.ceil(c) - 1
    bound = 2 ** (np.finfo(grid.dtype).nmant + 1)  # 2**24 or 2**53
    return grid.dtype.type(min(max(t, -bound), bound))


def _move(
    matrix: SuperMatrix, forward: bool, side: Side, rule: ThresholdRule, forced: bool
) -> tuple:
    """One product of a run onto ``side``, ``(grid, side, rule, cutoff,
    forced)``: ``state @ grid > cutoff`` thresholds a (B x n) boolean block
    by ``rule``, on the scaled grid of :attr:`SuperMatrix._exact`, ``M``
    (``forward``) or ``M.T``, whose integer sums are exact in any order.
    """
    grid, scale = matrix._exact
    grid = grid if forward else grid.T
    return (grid, side, rule, _threshold(rule, grid, scale), forced)


def _patterns(
    matrix: SuperMatrix,
    side: Side,
    cycles: list[Optional[tuple[int, list[bytes]]]],
    across: Optional[tuple],
    trace: list,
) -> list[Optional[HiddenPattern]]:
    """Each row's pattern from ``(j, keys)``, the packed seed-side states
    ``s_t`` of its cycle, entered after ``j`` rounds (``None`` stays so).
    One-sided (``across`` is ``None``), pairs are ``(s_t, s_t)``.  A
    two-sided row holds one fixed state ``s``, whose one pair is ``(s, o)``
    from the domain side and ``(o, s)`` from the range side, where ``o`` is
    ``across`` of ``s``: the run's :func:`_move` from the seed's side with
    the side rule, as it opens a round after the first.  The states move
    across as one (S x n) block, so the bits are the engine's own.
    """
    part = _side_partition(matrix, side)
    keys = [k for cycle in cycles if cycle for k in cycle[1]]
    width = -(-part.total // 8)  # bytes in a packed row
    packed = np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), width)
    states = np.unpackbits(packed, axis=-1, count=part.total)
    mine = others = _vectors(states, side, part)
    if across is not None:
        grid, produced, _, cutoff = across[:4]
        bits = states.view(bool) @ grid > cutoff
        others = _vectors(bits, produced, _side_partition(matrix, produced))
    pairs = list(zip(mine, others) if side is Side.DOMAIN else zip(others, mine))
    patterns: list[Optional[HiddenPattern]] = []
    at = 0
    for cycle in cycles:
        if cycle is None:
            patterns.append(None)
            continue
        j, period = cycle[0], len(cycle[1])
        at += period
        patterns.append(
            _filled(
                HiddenPattern,
                kind=PatternKind.of_period(period),
                period=period,
                pair_sequence=tuple(pairs[at - period : at]),
                steps_to_enter=j,
                trace=_Trace(trace, matrix._exact[1]) if trace else None,
            )
        )
    return patterns


def _vectors(states: np.ndarray, side: Side, part: Partition) -> list[StateVector]:
    """One state on ``side`` per row of an (S x n) 0/1 block."""
    return [StateVector._trusted(tuple(r.tobytes()), side, part) for r in states]


def _record(k: int, scale: int, produced, rule, raw, bits, state) -> StepRecord:
    """The record of product ``k`` of a block of one row, from its (1 x n)
    arrays; each raw sum is divided by ``scale`` and rounded once."""
    return _filled(
        StepRecord,
        step_index=k,
        produced_side=produced,
        raw=tuple(np.divide(raw[0], scale, dtype=float).tolist()),
        thresholded=tuple(bits.tobytes()),
        after_update=tuple(state.tobytes()),
        rule_applied=rule,
    )


class _Trace(Sequence):
    """Read-only sequence view of a traced run's records.

    Holds, per product, the ``(produced, rule, raw, bits, state)`` that the
    engine kept for its block of one row, and the map's scale; reading an
    index or iterating builds the records, numbered from 1.  Equality and hash are those of
    the tuple of records, so a view equals another view or a tuple of
    equal records.
    """

    __slots__ = ("_products", "_scale")

    def __init__(self, products: list, scale: int):
        self._products, self._scale = products, scale

    def __len__(self) -> int:
        return len(self._products)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = range(len(self))[k]  # negative indices, IndexError past the end
        return _record(k + 1, self._scale, *self._products[k])

    def __iter__(self):
        for k, product in enumerate(self._products, 1):
            yield _record(k, self._scale, *product)

    def __eq__(self, other):
        if not isinstance(other, (_Trace, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"_Trace(<{len(self)} products>)"


def sweep_unit_seeds(
    matrix: SuperMatrix,
    side: Side,
    policy: ThresholdPolicy,
    max_steps: int = DEFAULT_MAX_STEPS,
    one_sided: bool = False,
) -> tuple[tuple[int, HiddenPattern], ...]:
    """Run every unit vector on ``side``, in index order, as one block."""
    side = Side(side)
    part = _side_partition(matrix, side)
    unit = StateVector.from_on_indices([0], side, part)
    _check_run(matrix, unit, max_steps, one_sided)  # all share one shape
    patterns = _run(
        matrix,
        np.eye(part.total, dtype=bool),
        side,
        policy,
        policy.first_step_applies(unit, 1),  # every row has one on-coordinate
        max_steps,
        one_sided,
    )
    missing = [i for i, pattern in enumerate(patterns) if pattern is None]
    if missing:
        raise StepLimitExceeded(
            f"no seed-side state recurred within {max_steps} products for "
            f"{len(missing)} of {part.total} unit seeds (lowest index "
            f"{missing[0]}); raise max_steps (--max-steps) to run longer"
        )
    return tuple(enumerate(patterns))


# --- exhaustive enumeration ------------------------------------------------

_LOW_BITS = 16  # seed bits tabulated per block; 2**16 masks per table chunk
_CHUNK = 1 << 16  # seeds per step of _brent's in-place compaction


@dataclass(frozen=True)
class Attractor:
    """One attractor: a canonicalized cycle of seed-side states."""

    kind: PatternKind
    period: int
    states: tuple[int, ...]  # bitmasks, cycle order, minimum state first
    basin_size: int


@dataclass(frozen=True, eq=False)
class AttractorCensus:
    """Every seed's outcome, grouped by attractor, stored as columns.

    Attractor ``k`` has period ``periods[k]`` and basin size ``basins[k]``;
    its cycle is ``states[offsets[k] : offsets[k + 1]]`` in cycle order,
    minimum state first.  Attractors are numbered in the order of their
    smallest seed, and ``assignment`` maps every seed bitmask to its
    attractor's number.  All five columns are read-only int64 arrays;
    :attr:`attractors` builds :class:`Attractor` objects only on access.
    Equality and hash go by value over the side, partition and columns.
    """

    side: Side
    partition: Partition
    periods: np.ndarray
    basins: np.ndarray
    states: np.ndarray
    offsets: np.ndarray
    assignment: np.ndarray

    @property
    def n_seeds(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def attractors(self) -> "Attractors":
        return Attractors(self)

    def attractor_of(self, seed: "StateVector | int") -> Attractor:
        if isinstance(seed, StateVector):
            if seed.side is not self.side or seed.partition != self.partition:
                raise DimensionMismatch(
                    f"seed on the {seed.side.value} side with {len(seed)} nodes; "
                    f"the census covers the {self.side.value} side with "
                    f"{self.partition.total}"
                )
            mask = seed.bitmask
        else:
            mask = int(seed)
            if not 0 <= mask < self.n_seeds:
                raise IndexOutOfRange(
                    f"seed mask {mask} out of range for {self.n_seeds} seeds"
                )
        return self.attractors[int(self.assignment[mask])]

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.periods, self.basins, self.states, self.offsets, self.assignment

    def __eq__(self, other):
        if not isinstance(other, AttractorCensus):
            return NotImplemented
        return (
            self.side is other.side
            and self.partition == other.partition
            and all(map(np.array_equal, self._columns(), other._columns()))
        )

    def __hash__(self) -> int:
        columns = tuple(col.tobytes() for col in self._columns())
        return hash((self.side, self.partition) + columns)


class Attractors(Sequence):
    """Immutable sequence view of a census's attractors.

    Reading an index or iterating builds :class:`Attractor` objects from the
    census columns; the length, equality and hash read the columns alone.
    """

    __slots__ = ("_census",)

    def __init__(self, census: AttractorCensus):
        self._census = census

    def __len__(self) -> int:
        return int(self._census.periods.shape[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        c = self._census
        k = range(len(self))[k]  # negative indices, IndexError past the end
        lo, hi = c.offsets[k : k + 2].tolist()
        period = int(c.periods[k])
        return Attractor(
            PatternKind.of_period(period),
            period,
            tuple(c.states[lo:hi].tolist()),
            int(c.basins[k]),
        )

    def __iter__(self):
        c = self._census
        states = c.states.tolist()
        bounds = c.offsets.tolist()
        for k, (period, basin) in enumerate(
            zip(c.periods.tolist(), c.basins.tolist())
        ):
            yield Attractor(
                PatternKind.of_period(period),
                period,
                tuple(states[bounds[k] : bounds[k + 1]]),
                basin,
            )

    def _columns(self) -> tuple[np.ndarray, ...]:
        c = self._census
        return c.periods, c.basins, c.states

    def __eq__(self, other):
        if not isinstance(other, Attractors):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))

    def __hash__(self) -> int:
        return hash(tuple(col.tobytes() for col in self._columns()))

    def __repr__(self) -> str:
        return f"Attractors(<{len(self)} attractors>)"


def _brent(table: np.ndarray, walk: np.ndarray) -> tuple[np.ndarray, dict]:
    """Brent's cycle detection on ``s -> table[s] | seed`` for every seed.

    ``walk`` has one column per seed: the seed, its first state and a row
    for the hare.  Every seed advances in lockstep, so the power-of-two
    schedule is shared and a seed's period is the step count at which its
    hare meets its tortoise.  Until the first compaction column ``i`` holds
    seed ``i``, so the first check, whose seeds are fixed points, writes
    every meeting state as one whole-array copy, which the seeds still
    walking later overwrite.  Resolved seeds are dropped as they finish and
    the live columns are compacted to the front of ``walk`` in place, so the
    work is proportional to the seeds' own path lengths and no second block
    is allocated.  Returns each seed's meeting state, which is on its cycle,
    and the seeds on limit cycles, as lists of seed arrays by period.
    """
    seeds, tortoise, hare = walk
    meet = np.empty_like(seeds)
    resolved = np.empty(seeds.shape[0], dtype=bool)
    _step(table, tortoise, seeds, hare)
    np.equal(tortoise, hare, out=resolved)
    np.copyto(meet, hare)
    live = _settle(walk, resolved)
    power = lam = 1
    cycles: dict[int, list[np.ndarray]] = {}  # period: seed arrays
    while live:
        seeds, tortoise, hare = walk[:, :live]
        if power == lam:
            tortoise[:] = hare
            power *= 2
            lam = 0
        _step(table, hare, seeds, hare)
        lam += 1
        done = np.equal(tortoise, hare, out=resolved[:live])
        if done.any():
            live = _settle(walk, done, (lam, cycles, meet))
    return meet, cycles


def _step(
    table: np.ndarray, states: np.ndarray, seeds: np.ndarray, out: np.ndarray
) -> None:
    """``out = table[states] | seeds``, a chunk at a time: ``np.take``
    first copies 32-bit indices to 64 bits, which over the whole walk would
    be 8 more bytes per seed."""
    for a in range(0, states.shape[0], _CHUNK):
        b = a + _CHUNK
        np.take(table, states[a:b], out=out[a:b], mode="clip")
        out[a:b] |= seeds[a:b]


def _settle(walk: np.ndarray, done: np.ndarray, found: tuple = ()) -> int:
    """Move the columns among the first ``len(done)`` of ``walk`` that are
    not ``done``, in order, to its front; returns their count.  ``found``,
    when given, is ``(lam, cycles, meet)``: resolved seeds first write their
    hare to ``meet`` and, if their period ``lam`` is above 1, join ``cycles[lam]``.

    Done a chunk of columns at a time, so the index arrays and copies are
    chunk-sized; each chunk's columns land at or before where they were
    read, and a chunk with none done stays where it is until a column
    before it is dropped.  Index arrays and ``take``, not boolean masks or
    ``walk[:, i]``: on scattered seeds they are several times faster.
    """
    kept = 0
    for a in range(0, done.shape[0], _CHUNK):
        part = done[a : a + _CHUNK]
        if kept == a and not part.any():
            kept += part.shape[0]
            continue
        if found:
            lam, cycles, meet = found
            at = np.flatnonzero(part) + a
            finished = walk[0, at]
            meet[finished] = walk[2, at]
            if lam > 1:
                cycles.setdefault(lam, []).append(finished)
        stay = np.flatnonzero(~part) + a
        walk[:, kept : kept + stay.shape[0]] = walk.take(stay, axis=1)
        kept += stay.shape[0]
    return kept


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Column ``s`` of the result sums ``rows[i]`` over the set bits ``i`` of
    ``s``, adding them in increasing ``i`` in the rows' dtype."""
    out = np.zeros((rows.shape[1], 1 << rows.shape[0]), rows.dtype)
    for i, row in enumerate(rows):
        np.add(out[:, : 1 << i], row[:, None], out=out[:, 1 << i : 2 << i])
    return out


def _pack(columns: Iterable[tuple], out: np.ndarray) -> None:
    """Set bit ``j`` of ``out[s]`` iff ``column[s] > cutoff`` for the
    ``j``-th pair ``(column, cutoff)`` of ``columns``."""
    out[...] = 0
    hit = np.empty_like(out)
    for j, (column, cutoff) in enumerate(columns):
        np.greater(column, cutoff, out=hit)
        np.left_shift(hit, j, out=hit)
        out |= hit


class _RoundMap:
    """One unforced round of the map, tabulated over seed-side bitmasks.

    A round's first product is linear in the seed bits, so its raw sums for
    mask ``s`` are ``low[s & (2**k - 1)] + high[s >> k]``: the sums over the
    low ``k`` bits and over the rest, each tabulated once on the scaled
    grid, one row per product column.  The sums are exact integers, and
    ``low + high > t`` iff ``low > t - high``: a chunk of ``2 ** k``
    consecutive masks costs, per column, one threshold of the low sums
    against the chunk's shifted cutoff, one shift and one OR into the
    chunk's bitmasks.  A two-sided round thresholds into a 0/1 block, one
    row per mask, and multiplies it back to the seed side as one product.
    Both products read the engine's scaled grid and threshold as
    :func:`_threshold` says.
    """

    def __init__(
        self,
        matrix: SuperMatrix,
        side: Side,
        policy: ThresholdPolicy,
        one_sided: bool,
    ):
        # one-sided runs multiply forward whichever side the seed is on
        forward = one_sided or side is Side.DOMAIN
        grid, self.scale = matrix._exact
        self.grid = grid if forward else grid.T
        self.k = min(self.grid.shape[0], _LOW_BITS)
        self.low = _subset_sums(self.grid[: self.k])
        self.high = _subset_sums(self.grid[self.k :])
        self.rule, self.back = policy.rule_for(side), None
        if not one_sided:  # the seed side's rule thresholds the back product
            self.back = (self.grid.T, _threshold(self.rule, self.grid, self.scale))
            self.rule = policy.rule_for(side.opposite)

    def _next(
        self,
        sums: Iterable[np.ndarray],
        first_rule: Optional[ThresholdRule],
        out: np.ndarray,
        shifts: Optional[np.ndarray] = None,
    ) -> None:
        """Write each mask's next state to ``out``, from the raw sums of the
        round's first product, which ``sums`` yields one column at a time;
        column ``j`` lacks ``shifts[j]``, taken off its cutoff, when given."""
        cutoff = _threshold(first_rule or self.rule, self.grid, self.scale)
        # t - shift is an exact integer up to the grid's bound in size; the
        # grid's dtype may round it past that, where it stays past every sum
        cutoffs = itertools.repeat(cutoff) if shifts is None else cutoff - shifts
        if self.back is not None:
            bits = np.empty((out.shape[0], self.grid.shape[1]), dtype=bool)
            for j, (column, c) in enumerate(zip(sums, cutoffs)):
                np.greater(column, c, out=bits[:, j])
            grid_t, cutoff = self.back
            sums = (bits.view(np.uint8) @ grid_t).T
            cutoffs = itertools.repeat(cutoff)
        _pack(zip(sums, cutoffs), out)

    def fill(self, first_rule: Optional[ThresholdRule], out: np.ndarray) -> None:
        """Write the next state of every mask to ``out``; ``first_rule``
        replaces the round's first threshold when given."""
        for h, chunk in enumerate(np.split(out, self.high.shape[1])):
            self._next(self.low, first_rule, chunk, self.high[:, h])

    def units(self, first_rule: Optional[ThresholdRule], dtype) -> np.ndarray:
        """Next state of each unit mask ``1 << i``, as :meth:`fill`: its first
        raw sums are row ``i`` of the grid."""
        out = np.empty(self.grid.shape[0], dtype=dtype)
        self._next(self.grid.T, first_rule, out)
        return out


def enumerate_attractors(
    matrix: SuperMatrix,
    side: Side,
    policy: ThresholdPolicy,
    state_limit: int = DEFAULT_MAX_STATES,
    one_sided: bool = False,
) -> AttractorCensus:
    """Run every possible seed on ``side`` and group outcomes by attractor.

    One round of the map is tabulated for every seed-side bitmask, one
    product column at a time; a seed then moves ``s -> table[s] | seed``.
    All ``2 ** n`` seeds walk at once: Brent's method finds a state on each
    seed's cycle and lists the seeds on limit cycles by period.  Nothing is
    sorted over all seeds: a fixed point is keyed by its state, and the few
    seeds on limit cycles walk their cycle once for its minimum state and
    the AND of its states, which identify it (two cycles may share a
    minimum); each equal pair is a group, keyed past the last state, whose
    cycle is walked once from its minimum.  Attractors are numbered in the
    order of their smallest seed: a scatter-minimum per key marks those
    seeds, and their keys, read in seed order, list the attractors; a fixed
    point's state is its key, written in place, and each group's cycle
    overwrites its slots.  The table comes from sums over the low 16 seed
    bits, 256 KiB per product column on a float32 grid, compared against
    each chunk's cutoff less its high-bit sums.  States are 32-bit below 31 nodes,
    and the walk compacts in place: about 21 bytes per seed while Brent's
    method runs; seeds on limit cycles add their lists and running minimum
    and AND while they are grouped.  The census it returns is columnar: no
    Python object is built per seed or per attractor until
    :attr:`AttractorCensus.attractors` is read.

    Both read the same exact sums, so trajectories agree bit for bit with
    :func:`run_hidden_pattern`.  They are implemented independently (vector arithmetic there, tabulated bitmask transitions
    here) so each checks the other.  Basin sizes sum to ``2 ** n``.
    """
    side = Side(side)
    part = _side_partition(matrix, side)
    if one_sided and matrix.n_rows != matrix.n_cols:
        raise DimensionMismatch("one-sided enumeration needs a square matrix")
    n = part.total
    n_seeds = 1 << n
    if n_seeds > state_limit:
        raise StateSpaceTooLarge(
            f"2^{n} = {n_seeds} seeds exceed the limit of {state_limit}"
        )
    dtype = np.int32 if n < 31 else np.int64
    rounds = _RoundMap(matrix, side, policy, one_sided)
    table = np.empty(n_seeds, dtype=dtype)
    rounds.fill(None, table)
    walk = np.empty((3, n_seeds), dtype=dtype)
    seeds, start = walk[0], walk[1]
    mode = policy.first_step_mode
    if mode is FirstStepMode.ALWAYS:
        rounds.fill(policy.first_step_rule, start)
    else:
        start[:] = table
    if mode is FirstStepMode.AUTO:
        units = np.left_shift(1, np.arange(n, dtype=dtype))
        start[units] = rounds.units(policy.first_step_rule, dtype)
    del rounds  # before the seed row's 2^n temporary
    seeds[:] = np.arange(n_seeds, dtype=dtype)
    start |= seeds
    del seeds, start
    meet, members = _brent(table, walk)
    del walk

    # A fixed point's key is its state.  Every state of a limit cycle holds
    # its seeds, so the cycle is the orbit of its minimum under ``table[s] |
    # AND``, the AND of its states: equal (minimum, AND) pairs form a group.
    cycles = []  # (period, first key, one cycle per group, minimum first)
    key = n_seeds
    for p, parts in members.items():
        seeds = np.concatenate(parts)
        state = meet[seeds]
        low, mask = state.copy(), state.copy()
        for _ in range(1, p):
            _step(table, state, seeds, state)
            np.minimum(low, state, out=low)
            mask &= state
        order = np.lexsort((mask, low))
        low, mask = low[order], mask[order]
        new = np.ones(order.shape[0], dtype=bool)
        new[1:] = (low[1:] != low[:-1]) | (mask[1:] != mask[:-1])
        meet[seeds[order]] = key + np.cumsum(new, dtype=dtype) - 1
        rows = np.empty((p, np.count_nonzero(new)), dtype=dtype)
        rows[0], mask = low[new], mask[new]
        for t in range(1, p):
            _step(table, rows[t - 1], mask, rows[t])
        cycles.append((p, key, rows.T))
        key += rows.shape[1]
    del table, members

    # mark each key's smallest seed: the marked seeds' keys, in seed order,
    # are the attractors' keys in the order they are numbered
    first = np.full(key, n_seeds, dtype=dtype)
    np.minimum.at(first, meet, np.arange(n_seeds, dtype=dtype))
    # a key no seed reaches keeps n_seeds, which marks the one spare slot;
    # one intp scatter of every key costs less than selecting through a
    # mask and scattering 32-bit indices
    mark = np.zeros(n_seeds + 1, dtype=bool)
    mark[first.astype(np.intp)] = True
    del first
    keys = meet[mark[:n_seeds]]
    del mark
    count = keys.shape[0]
    # NumPy casts 32-bit indices as a scatter goes, at twice its cost, and
    # a whole take's at once, into 8 bytes per seed: intp keys, chunked takes
    number = np.empty(key, dtype=np.int64)
    number[keys.astype(np.intp)] = np.arange(count)
    assignment = np.empty(n_seeds, dtype=np.int64)
    for a in range(0, n_seeds, _CHUNK):
        b = a + _CHUNK
        np.take(number, meet[a:b], out=assignment[a:b], mode="clip")
    del meet

    # lay the cycles out flat in attractor order; the attractors numbered
    # before the first cycle take one slot each, so their offsets are their
    # numbers
    periods = np.ones(count, dtype=np.int64)
    slots = [(p, number[k : k + len(rows)], rows) for p, k, rows in cycles]
    for p, slot, _ in slots:
        periods[slot] = p
    lead = int(number[n_seeds:].min(initial=count))
    offsets = np.arange(count + 1, dtype=np.int64)
    np.cumsum(periods[lead:], out=offsets[lead + 1 :])
    offsets[lead + 1 :] += lead
    # a fixed point's state is its key; each group's rows then overwrite
    # the slots of its cycles
    states = np.empty(offsets[-1], dtype=np.int64)
    states[:lead] = keys[:lead]
    states[offsets[lead:-1]] = keys[lead:]
    for p, slot, rows in slots:
        states[offsets[slot, None] + np.arange(p)] = rows
    basins = np.bincount(assignment, minlength=count)
    for column in (periods, basins, states, offsets, assignment):
        column.flags.writeable = False
    return AttractorCensus(
        side=side,
        partition=part,
        periods=periods,
        basins=basins,
        states=states,
        offsets=offsets,
        assignment=assignment,
    )
