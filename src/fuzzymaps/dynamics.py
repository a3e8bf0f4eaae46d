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

    @property
    def compare(self) -> np.ufunc:
        """The elementwise test, called as ``compare(raw, cutoff)``."""
        return np.greater_equal if self.comparator is Comparator.GE else np.greater

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

    def named_rules(self) -> tuple[tuple[str, ThresholdRule], ...]:
        """The three rules under their names in a model document."""
        return (
            ("domain", self.domain_rule),
            ("range", self.range_rule),
            ("first_step", self.first_step_rule),
        )

    def require_finite(self) -> None:
        """Raise :class:`NonFiniteCutoff` naming the first non-finite cutoff.

        A NaN cutoff compares false everywhere and an infinite one settles
        every comparison, so such a policy would run without error and
        return a pattern that means nothing.
        """
        for where, rule in self.named_rules():
            if not math.isfinite(rule.cutoff):
                raise NonFiniteCutoff(
                    f"policy.{where}.cutoff: must be finite, got {rule.cutoff!r}"
                )

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
    position; one forward product from a pair's domain member yields its
    range member, and one backward product (with seed forcing) yields the
    next pair's domain member.  One-sided runs store the same state in both
    slots.  ``steps_to_enter`` counts full rounds before the cycle's first
    state appears.
    """

    kind: PatternKind
    period: int
    pair_sequence: tuple[tuple[StateVector, StateVector], ...]
    steps_to_enter: int
    trace: Optional[tuple[StepRecord, ...]] = None

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
    return rule.compare(np.asarray(raw, dtype=float), rule.cutoff).astype(np.uint8)


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
    produced on the seed's side.
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
    policy: ThresholdPolicy,
    max_steps: int,
    one_sided: bool,
) -> None:
    policy.require_finite()
    if max_steps < 2:
        raise ValueError("max_steps must be at least 2")
    if one_sided and matrix.n_rows != matrix.n_cols:
        raise DimensionMismatch("one-sided runs need a square matrix")
    expect = matrix.n_rows if seed.side is Side.DOMAIN else matrix.n_cols
    if len(seed) != expect:
        raise DimensionMismatch(
            f"seed on {seed.side.value} side needs length {expect}, got {len(seed)}"
        )
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

    Seed-side states are recorded from the first completed round onward;
    the initial seed itself is excluded because the first product may be
    thresholded by a different rule, so only later states are guaranteed
    to lie on the stationary map.  Recurrence at the immediately preceding
    visit is a fixed point, any longer gap a limit cycle.  Every product is
    the one :func:`step` computes; the trace holds its records.
    """
    _check_run(matrix, seed, policy, max_steps, one_sided)
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
    :func:`_move` of the live rows: a matrix product, one compare and, on
    the seed's side, ``| seeds`` of the live rows.  Each move's product is
    chosen once per run: one float32 gemm of the whole block where the map's
    sums are exact in float32, else one float64 gemv per row, so fuzzy sums
    keep :func:`special_product`'s order.  Each row keeps a dict of its own
    packed seed-side states, in round order; the first key a row sees twice
    closes its cycle and drops the row from the block.  Only a block of one
    row may record a trace.  The patterns are built once, after the loop:
    one per row, ``None`` where no seed-side state recurred within
    ``max_steps`` products.
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
    for product, produced, rule, compare, cutoff, forced in itertools.islice(
        schedule, max_steps
    ):
        raw = product(state)
        bits = compare(raw, cutoff)
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
                keys = list(visited)
                j = keys.index(k)
                cycles[rows[p]] = (j, keys[j:])
                closed = True
            else:
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


def _threshold(rule: ThresholdRule, exact: bool) -> tuple:
    """``(compare, cutoff)`` with ``compare(raw, cutoff)`` equal to ``rule``.
    When ``exact``, raw sums are float32 integers below ``2**24`` in size, so
    ``r > c`` iff ``r > floor(c)`` and ``r >= c`` iff ``r > ceil(c) - 1``:
    NumPy may round the float cutoff itself to float32."""
    if not exact:
        return rule.compare, rule.cutoff
    c = rule.cutoff
    t = math.floor(c) if rule.comparator is Comparator.GT else math.ceil(c) - 1
    return np.greater, np.float32(min(max(t, -(1 << 24)), 1 << 24))


def _move(
    matrix: SuperMatrix, forward: bool, side: Side, rule: ThresholdRule, forced: bool
) -> tuple:
    """One product of a run onto ``side``, ``(product, side, rule, compare,
    cutoff, forced)``: ``compare(product(state), cutoff)`` thresholds a (B x
    n) boolean block by ``rule`` after multiplying it by ``M`` (``forward``)
    or ``M.T``.  With the float32 copy (:attr:`SuperMatrix._exact32`) the block
    is one gemm, whose integer sums equal float64's in any order; otherwise
    each row is its own float64 gemv, as in :func:`special_product`, so its
    fuzzy sums do not depend on the rows beside it.
    """
    exact = matrix._exact32
    grid = matrix.entries if exact is None else exact
    grid = grid if forward else grid.T

    def product(state: np.ndarray) -> np.ndarray:
        if exact is None:
            return np.matmul(state[:, None], grid)[:, 0]
        return np.matmul(state, grid)

    return (product, side, rule, *_threshold(rule, exact is not None), forced)


def _patterns(
    matrix: SuperMatrix,
    side: Side,
    cycles: list[Optional[tuple[int, list[bytes]]]],
    across: Optional[tuple],
    trace: list,
) -> list[Optional[HiddenPattern]]:
    """Each row's pattern from ``(j, keys)``, the packed seed-side states
    ``s_t`` of its cycle, entered after ``j`` rounds (``None`` stays so).
    Pairs are ``(s_t, s_t)`` one-sided (``across`` is ``None``), ``(s_t,
    o_t)`` from the domain side and ``(o_t, s_{t+1})`` from the range side,
    where ``o_t`` is ``across`` of ``s_t``: the run's :func:`_move` from the
    seed's side with the side rule, as it opens a round after the first.
    The cycles move across as one (S x n) block, so the bits are the
    engine's own.
    """
    part = _side_partition(matrix, side)
    keys = [k for cycle in cycles if cycle for k in cycle[1]]
    width = -(-part.total // 8)  # bytes in a packed row
    packed = np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), width)
    states = np.unpackbits(packed, axis=-1, count=part.total)
    mine = others = _vectors(states, side, part)
    if across is not None:
        product, produced, _, compare, cutoff = across[:5]
        bits = compare(product(states.view(bool)), cutoff)
        others = _vectors(bits, produced, _side_partition(matrix, produced))
    patterns: list[Optional[HiddenPattern]] = []
    at = 0
    for cycle in cycles:
        if cycle is None:
            patterns.append(None)
            continue
        j, period = cycle[0], len(cycle[1])
        d, r = mine[at : at + period], others[at : at + period]
        at += period
        if across is not None and side is Side.RANGE:
            d, r = r, d[1:] + d[:1]  # (o_t, s_{t+1})
        patterns.append(
            _filled(
                HiddenPattern,
                kind=PatternKind.of_period(period),
                period=period,
                pair_sequence=tuple(zip(d, r)),
                steps_to_enter=j,
                trace=_records(trace) if trace else None,
            )
        )
    return patterns


def _vectors(states: np.ndarray, side: Side, part: Partition) -> list[StateVector]:
    """One state on ``side`` per row of an (S x n) 0/1 block."""
    return [StateVector._trusted(tuple(r.tobytes()), side, part) for r in states]


def _records(trace: list) -> tuple[StepRecord, ...]:
    """The record of every product so far of a block of one row."""
    return tuple(
        _filled(
            StepRecord,
            step_index=k,
            produced_side=produced,
            raw=tuple(raw[0].tolist()),
            thresholded=tuple(bits[0].tobytes()),
            after_update=tuple(state[0].tobytes()),
            rule_applied=rule,
        )
        for k, (produced, rule, raw, bits, state) in enumerate(trace, 1)
    )


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
    _check_run(matrix, unit, policy, max_steps, one_sided)  # all share one shape
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

    def basin_sizes(self) -> tuple[int, ...]:
        return tuple(self.basins.tolist())

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


def _brent(table: np.ndarray, walk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brent's cycle detection on ``s -> table[s] | seed`` for every seed.

    ``walk`` has one column per seed: the seed, its first state and a row
    for the hare.  Every seed advances in lockstep, so the power-of-two
    schedule is shared and a seed's period is the step count at which its
    hare meets its tortoise.  Resolved seeds are dropped as they finish and
    the live columns are compacted to the front of ``walk`` in place, so
    the work is proportional to the seeds' own path lengths and no second
    block is allocated.  Returns each seed's period and a state on its
    cycle.
    """
    seeds, tortoise, hare = walk
    period = np.empty_like(seeds)
    meet = np.empty_like(seeds)
    resolved = np.empty(seeds.shape[0], dtype=bool)
    _step(table, tortoise, seeds, hare)
    power = lam = 1
    live = walk.shape[1]
    while live:
        done = np.equal(tortoise, hare, out=resolved[:live])
        if done.any():
            live = _settle(walk, done, lam, period, meet)
            seeds, tortoise, hare = walk[:, :live]
        if power == lam:
            tortoise[:] = hare
            power *= 2
            lam = 0
        _step(table, hare, seeds, hare)
        lam += 1
    return period, meet


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


def _settle(
    walk: np.ndarray,
    done: np.ndarray,
    lam: int,
    period: np.ndarray,
    meet: np.ndarray,
) -> int:
    """Record period ``lam`` and the hare of each resolved seed among the
    first ``len(done)`` columns of ``walk``, and move the unresolved ones, in
    order, to its front; returns their count.

    Done a chunk of columns at a time, so the index arrays and copies are
    chunk-sized; each chunk's columns land at or before where they were
    read.  Index arrays and ``take``, not boolean masks or ``walk[:, i]``:
    on scattered seeds they are several times faster.
    """
    kept = 0
    for a in range(0, done.shape[0], _CHUNK):
        part = done[a : a + _CHUNK]
        at = np.flatnonzero(part) + a
        finished = walk[0, at]
        period[finished] = lam
        meet[finished] = walk[2, at]
        stay = np.flatnonzero(~part) + a
        walk[:, kept : kept + stay.shape[0]] = walk.take(stay, axis=1)
        kept += stay.shape[0]
    return kept


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Column ``s`` of the result sums ``rows[i]`` over the set bits ``i`` of
    ``s``, adding them in increasing ``i``."""
    out = np.zeros((rows.shape[1], 1 << rows.shape[0]))
    for i, row in enumerate(rows):
        np.add(out[:, : 1 << i], row[:, None], out=out[:, 1 << i : 2 << i])
    return out


def _pack(
    columns: Iterable[np.ndarray], compare: np.ufunc, cutoff, out: np.ndarray
) -> None:
    """Set bit ``j`` of ``out[s]`` iff ``compare(columns[j][s], cutoff)``."""
    out[...] = 0
    hit = np.empty_like(out)
    for j, column in enumerate(columns):
        compare(column, cutoff, out=hit)
        np.left_shift(hit, j, out=hit)
        out |= hit


class _RoundMap:
    """One unforced round of the map, tabulated over seed-side bitmasks.

    A round's first product is linear in the seed bits, so its raw sums for
    mask ``s`` are ``low[s & (2**k - 1)] + high[s >> k]``: the sums over the
    low ``k`` bits and over the rest, each tabulated once, one row per
    product column.  A chunk of ``2 ** k`` consecutive masks then costs, per
    column, one add, one threshold, one shift and one OR into the chunk's
    bitmasks, with no float block of the whole chunk.  A two-sided round
    thresholds into a 0/1 block, one row per mask, and multiplies it back to
    the seed side as one product, in float32 where the map has a float32
    copy (:attr:`SuperMatrix._exact32`), thresholded as :func:`_threshold`
    says, else in float64.  Sums of integer entries are exact in any order; on fuzzy
    entries the order is part of the result, so each low-bit sum adds its
    rows in increasing order and each raw sum adds the low part to the high
    part once.
    """

    def __init__(
        self,
        matrix: SuperMatrix,
        side: Side,
        policy: ThresholdPolicy,
        one_sided: bool,
    ):
        # one-sided runs multiply forward whichever side the seed is on
        grid = (
            matrix.entries
            if one_sided or side is Side.DOMAIN
            else matrix.entries.T
        )
        n, self.width = grid.shape
        self.k = min(n, _LOW_BITS)
        self.low = _subset_sums(grid[: self.k])
        self.high = _subset_sums(grid[self.k :])
        self.rule, self.back = policy.rule_for(side), None
        if not one_sided:  # the seed side's rule thresholds the back product
            exact = matrix._exact32
            back = matrix.entries if exact is None else exact
            back = back.T if side is Side.DOMAIN else back
            self.back = (back, *_threshold(self.rule, exact is not None))
            self.rule = policy.rule_for(side.opposite)

    def _next(
        self,
        sums: Iterable[np.ndarray],
        first_rule: Optional[ThresholdRule],
        out: np.ndarray,
    ) -> None:
        """Write each mask's next state to ``out``, from the raw sums of the
        round's first product, which ``sums`` yields one column at a time."""
        rule = first_rule or self.rule
        compare, cutoff = rule.compare, rule.cutoff
        if self.back is not None:
            bits = np.empty((out.shape[0], self.width), dtype=bool)
            for j, column in enumerate(sums):
                compare(column, cutoff, out=bits[:, j])
            grid_t, compare, cutoff = self.back
            sums = (bits.view(np.uint8) @ grid_t).T
        _pack(sums, compare, cutoff, out)

    def fill(self, first_rule: Optional[ThresholdRule], out: np.ndarray) -> None:
        """Write the next state of every mask to ``out``; ``first_rule``
        replaces the round's first threshold when given."""
        size = 1 << self.k
        raw = np.empty(size)
        for h, chunk in enumerate(np.split(out, self.high.shape[1])):
            sums = (
                np.add(low, high, out=raw)
                for low, high in zip(self.low, self.high[:, h])
            )
            self._next(sums, first_rule, chunk)

    def of(
        self, masks: np.ndarray, first_rule: Optional[ThresholdRule]
    ) -> np.ndarray:
        """Next state of each mask in ``masks``, as :meth:`fill`."""
        low, high = masks & ((1 << self.k) - 1), masks >> self.k
        out = np.empty_like(masks)
        sums = (a[low] + b[high] for a, b in zip(self.low, self.high))
        self._next(sums, first_rule, out)
        return out


def enumerate_attractors(
    matrix: SuperMatrix,
    side: Side,
    policy: ThresholdPolicy,
    state_limit: int = 1 << 20,
    one_sided: bool = False,
) -> AttractorCensus:
    """Run every possible seed on ``side`` and group outcomes by attractor.

    One round of the map is tabulated for every seed-side bitmask, one
    product column at a time; a seed then moves ``s -> table[s] | seed``.
    All ``2 ** n`` seeds walk at once: Brent's method finds each seed's
    period and a state on its cycle.  Nothing is sorted over all seeds: a
    fixed point is keyed by its state, and the few seeds on longer cycles
    walk their cycle once, rotate it to its minimum state and are grouped by
    the whole rotation (two cycles may share a minimum), each group keyed
    past the last state.  Attractors are numbered in the order of their
    smallest seed, found per key by a scatter-minimum and counted off in
    seed order.  States are 32-bit below 31 nodes, and the walk compacts in
    place: about 25 bytes per seed while Brent's method runs, beside the
    float sums over the low 16 seed bits (512 KiB per product column); seeds
    on limit cycles add their cycles while they are grouped.  The census it
    returns is columnar: no Python object is built per seed or per attractor
    until :attr:`AttractorCensus.attractors` is read.

    Trajectories agree bit for bit with :func:`run_hidden_pattern`; the two
    paths are implemented independently (vector arithmetic there, tabulated
    bitmask transitions here) so each checks the other.  Basin sizes sum to
    ``2 ** n``.
    """
    policy.require_finite()
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
        start[units] = rounds.of(units, policy.first_step_rule)
    del rounds  # before the seed row's 2^n temporary
    seeds[:] = np.arange(n_seeds, dtype=dtype)
    start |= seeds
    del seeds, start
    period, meet = _brent(table, walk)
    del walk

    # A fixed point's key is its state.  Seeds on longer cycles walk their
    # cycle, rotated to its minimum state; equal rotations of one period
    # form a group, whose key follows the states and earlier groups.
    on_cycle = np.flatnonzero(period != 1)
    lengths = period[on_cycle]
    del period
    cycles = []  # (period, one rotated cycle per group), in key order
    key = n_seeds
    for p in np.flatnonzero(np.bincount(lengths)).tolist():
        members = on_cycle[lengths == p].astype(dtype)
        cycle = np.empty((p, members.shape[0]), dtype=dtype)
        cycle[0] = meet[members]
        for t in range(1, p):
            np.take(table, cycle[t - 1], out=cycle[t], mode="clip")
            cycle[t] |= members
        shift = cycle.argmin(axis=0) + np.arange(p)[:, None]
        rows = np.take_along_axis(cycle, shift % p, axis=0).T
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        new = np.ones(rows.shape[0], dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        meet[members[order]] = key + np.cumsum(new, dtype=dtype) - 1
        cycles.append((p, rows[new]))
        key += cycles[-1][1].shape[0]
    del table, on_cycle, lengths

    # number the keys in the order of their smallest seed, then map seeds
    first = np.full(key, n_seeds, dtype=np.int64)
    np.minimum.at(first, meet, np.arange(n_seeds, dtype=np.int64))
    used = np.flatnonzero(first < n_seeds)  # fixed states, then every group
    firsts = first[used]
    mark = np.zeros(n_seeds, dtype=bool)
    mark[firsts] = True
    number = np.cumsum(mark, dtype=dtype)[firsts] - 1
    first[used] = number
    assignment = first[meet]
    del first, mark, meet

    # lay the cycles out flat in attractor order
    n_fixed = int(np.searchsorted(used, n_seeds))
    periods = np.ones(used.shape[0], dtype=np.int64)
    periods[number[n_fixed:]] = np.repeat(
        [p for p, _ in cycles], [rows.shape[0] for _, rows in cycles]
    )
    offsets = np.zeros(used.shape[0] + 1, dtype=np.int64)
    np.cumsum(periods, out=offsets[1:])
    states = np.empty(offsets[-1], dtype=np.int64)
    states[offsets[number[:n_fixed]]] = used[:n_fixed]
    at = n_fixed
    for p, rows in cycles:
        starts = offsets[number[at : at + rows.shape[0]]]
        states[starts[:, None] + np.arange(p)] = rows
        at += rows.shape[0]
    basins = np.bincount(assignment, minlength=used.shape[0])
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
