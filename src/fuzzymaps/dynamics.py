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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
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

    def apply(self, raw) -> np.ndarray:
        return self.compare(np.asarray(raw, dtype=float), self.cutoff).astype(np.uint8)

    def describe(self) -> str:
        sym = ">=" if self.comparator is Comparator.GE else ">"
        return f"{sym} {_fmt_number(self.cutoff)}"


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

    def first_step_applies(self, seed: "StateVector", step_index: int) -> bool:
        if step_index != 1 or self.first_step_mode is FirstStepMode.NEVER:
            return False
        if self.first_step_mode is FirstStepMode.ALWAYS:
            return True
        return seed.count_on == 1


def _fmt_number(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass(frozen=True)
class StateVector:
    """Binary on/off assignment over one side's nodes."""

    bits: tuple[int, ...]
    side: Side
    partition: Partition

    def __post_init__(self):
        bits = tuple(map(int, self.bits))
        if not set(bits) <= {0, 1}:
            raise ValueError("state bits must be 0 or 1")
        if self.partition.total != len(bits):
            raise DimensionMismatch(
                f"partition covers {self.partition.total} nodes, "
                f"state has {len(bits)}"
            )
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "side", Side(self.side))

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
        return cls(tuple(bits), side, partition)

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
        off = self.partition.offsets
        parts = [
            "".join(str(b) for b in self.bits[off[i] : off[i + 1]])
            for i in range(self.partition.n_blocks)
        ]
        return "|".join(parts)


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

    def seed_side_states(self, side: Side) -> tuple[StateVector, ...]:
        idx = 0 if side is Side.DOMAIN else 1
        return tuple(pair[idx] for pair in self.pair_sequence)


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
    return rule.apply(raw)


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
    matrix: SuperMatrix, seed: StateVector, max_steps: int, one_sided: bool
) -> None:
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
    _check_run(matrix, seed, max_steps, one_sided)
    return _run(matrix, seed, policy, max_steps, one_sided, record_trace)


def _run(
    matrix: SuperMatrix,
    seed: StateVector,
    policy: ThresholdPolicy,
    max_steps: int,
    one_sided: bool,
    record_trace: bool,
) -> HiddenPattern:
    """The engine core: iterate on uint8 arrays, build objects on return.

    A product is one matmul on the frozen entries (``x @ M`` from a domain
    state, ``M @ x`` from a range state, as :func:`special_product`), one
    compare against the cutoff and, on the seed's side, ``| seed``.  Each
    seed-side state is keyed by its packed bits; the first key seen twice
    closes the pattern.
    """
    entries = matrix.entries
    seed_side = seed.side
    seed_bits = np.array(seed.bits, dtype=np.uint8)

    def move(forward: bool, produced: Side, rule: ThresholdRule):
        return forward, produced, rule, rule.compare, rule.cutoff, produced is seed_side

    if one_sided:
        moves = [move(True, seed_side, policy.rule_for(seed_side))]
    else:
        opp_side = seed_side.opposite
        moves = [
            move(seed_side is Side.DOMAIN, opp_side, policy.rule_for(opp_side)),
            move(opp_side is Side.DOMAIN, seed_side, policy.rule_for(seed_side)),
        ]
    first = moves[0]
    if policy.first_step_applies(seed, 1):
        first = move(*first[:2], policy.first_step_rule)
    schedule = itertools.chain([first], itertools.cycle(moves[1:] + moves[:1]))

    trace: list = []
    # per completed round: (seed-side bits, opposite-side bits of the round)
    rounds: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
    visited: dict[bytes, int] = {}  # packed seed-side bits -> 1-based round
    state, opp = seed_bits, None
    for forward, produced, rule, compare, cutoff, forced in itertools.islice(
        schedule, max_steps
    ):
        raw = state @ entries if forward else entries @ state
        bits = compare(raw, cutoff).view(np.uint8)
        state = bits | seed_bits if forced else bits
        if record_trace:
            trace.append((produced, raw, bits, state, rule))
        if not forced:
            opp = state
            continue
        rounds.append((state, opp))
        key = np.packbits(state).tobytes()
        j = visited.get(key)
        if j is None:
            visited[key] = len(rounds)
            continue
        period = len(rounds) - j
        return HiddenPattern(
            kind=PatternKind.of_period(period),
            period=period,
            pair_sequence=_pairs(matrix, rounds, j, period, seed_side, one_sided),
            steps_to_enter=j - 1,
            trace=_records(trace) if record_trace else None,
        )
    raise StepLimitExceeded(
        f"no seed-side state recurred within {max_steps} products; "
        "raise max_steps (--max-steps) to run longer"
    )


def _records(trace: list) -> tuple[StepRecord, ...]:
    return tuple(
        StepRecord(
            step_index=k,
            produced_side=produced,
            raw=tuple(raw.tolist()),
            thresholded=tuple(bits.tolist()),
            after_update=tuple(state.tolist()),
            rule_applied=rule,
        )
        for k, (produced, raw, bits, state, rule) in enumerate(trace, 1)
    )


def _pairs(
    matrix: SuperMatrix,
    rounds: Sequence[tuple[np.ndarray, Optional[np.ndarray]]],
    j: int,
    period: int,
    seed_side: Side,
    one_sided: bool,
) -> tuple[tuple[StateVector, StateVector], ...]:
    """Assemble (domain, range) pairs for the cycle rounds j .. j+period-1.

    ``rounds`` holds the completed rounds 1 .. j+period, the last one the
    round whose seed-side state closed the cycle.
    """
    def state(bits: np.ndarray, side: Side) -> StateVector:
        return StateVector(tuple(bits.tolist()), side, _side_partition(matrix, side))

    pairs: list[tuple[StateVector, StateVector]] = []
    for t in range(period):
        v_bits, _ = rounds[j - 1 + t]  # round j+t
        v_next, opp_next = rounds[j + t]  # round j+t+1
        if one_sided:
            v = state(v_bits, seed_side)
            pairs.append((v, v))
        elif seed_side is Side.DOMAIN:
            # a round maps v (domain) forward to the next round's opposite
            # state, so v_{j+t} pairs with the range state of round j+t+1
            pairs.append((state(v_bits, Side.DOMAIN), state(opp_next, Side.RANGE)))
        else:
            # a round runs backward into d then forward into v, so both
            # members of a pair come from the same round j+t+1
            pairs.append((state(opp_next, Side.DOMAIN), state(v_next, Side.RANGE)))
    return tuple(pairs)


def unit_seed(
    index: int, side: Side, partition: Partition
) -> StateVector:
    return StateVector.from_on_indices([index], side, partition)


def sweep_unit_seeds(
    matrix: SuperMatrix,
    side: Side,
    policy: ThresholdPolicy,
    max_steps: int = DEFAULT_MAX_STEPS,
    one_sided: bool = False,
    record_trace: bool = False,
) -> tuple[tuple[int, HiddenPattern], ...]:
    """Run every unit vector on ``side``, in index order."""
    side = Side(side)
    part = _side_partition(matrix, side)
    seeds = [unit_seed(i, side, part) for i in range(part.total)]
    _check_run(matrix, seeds[0], max_steps, one_sided)  # all share one shape
    return tuple(
        (i, _run(matrix, seed, policy, max_steps, one_sided, record_trace))
        for i, seed in enumerate(seeds)
    )


# --- exhaustive enumeration ------------------------------------------------

_LOW_BITS = 16  # seed bits tabulated per block; 2**16 masks per table chunk


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


def _brent(
    table: np.ndarray, start: np.ndarray, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brent's cycle detection on ``s -> table[s] | seed`` for every seed.

    Every seed advances in lockstep, so the power-of-two schedule is shared
    and a seed's period is the step count at which its hare meets its
    tortoise.  Resolved seeds are dropped as they finish, so the work is
    proportional to the seeds' own path lengths.  Returns each seed's period
    and a state on its cycle.
    """
    period = np.empty_like(seeds)
    meet = np.empty_like(seeds)
    live = seeds
    tortoise = start
    hare = np.take(table, start, mode="clip")
    hare |= live
    power = lam = 1
    while live.shape[0]:
        done = tortoise == hare
        if done.any():
            finished = live[done]
            period[finished] = lam
            meet[finished] = hare[done]
            keep = ~done
            live, tortoise, hare = live[keep], tortoise[keep], hare[keep]
        if power == lam:
            tortoise = hare.copy()
            power *= 2
            lam = 0
        np.take(table, hare, out=hare, mode="clip")
        hare |= live
        lam += 1
    return period, meet


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Row ``s`` of the result sums ``rows[i]`` over the set bits ``i`` of ``s``."""
    out = np.zeros((1 << rows.shape[0], rows.shape[1]))
    for i, row in enumerate(rows):
        np.add(out[: 1 << i], row, out=out[1 << i : 2 << i])
    return out


def _pack(bits: np.ndarray) -> np.ndarray:
    """The bitmask of each 0/1 row: column ``i`` becomes bit ``i``."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((bits.shape[0], 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<i8")[:, 0]


class _RoundMap:
    """One unforced round of the map, tabulated over seed-side bitmasks.

    A round's first product is linear in the seed bits, so its raw sums for
    mask ``s`` are ``low[s & (2**k - 1)] + high[s >> k]``: the sums over the
    low ``k`` bits and over the rest, each tabulated once.  A chunk of
    ``2 ** k`` consecutive masks then costs one add, one threshold and a
    bit pack; a two-sided round adds the product back to the seed side.
    Sums of integer entries are exact in any order.
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
        self.n = grid.shape[0]
        self.k = min(self.n, _LOW_BITS)
        self.low = _subset_sums(grid[: self.k])
        self.high = _subset_sums(grid[self.k :])
        if one_sided:
            self.rule, self.back = policy.rule_for(side), None
        else:
            self.rule = policy.rule_for(side.opposite)
            self.back = (grid.T, policy.rule_for(side))

    def _next(self, raw: np.ndarray, first_rule: Optional[ThresholdRule]):
        bits = (first_rule or self.rule).apply(raw)
        if self.back is not None:
            grid_t, rule = self.back
            bits = rule.apply(bits @ grid_t)
        return _pack(bits)

    def table(self, first_rule: Optional[ThresholdRule], dtype) -> np.ndarray:
        """Next state of every mask; ``first_rule`` replaces the round's
        first threshold when given."""
        out = np.empty(1 << self.n, dtype=dtype)
        size = 1 << self.k
        for h, high in enumerate(self.high):
            out[h * size : (h + 1) * size] = self._next(self.low + high, first_rule)
        return out

    def of(
        self, masks: np.ndarray, first_rule: Optional[ThresholdRule]
    ) -> np.ndarray:
        """Next state of each mask in ``masks``, as :meth:`table`."""
        raw = self.low[masks & ((1 << self.k) - 1)] + self.high[masks >> self.k]
        return self._next(raw, first_rule)


def enumerate_attractors(
    matrix: SuperMatrix,
    side: Side,
    policy: ThresholdPolicy,
    state_limit: int = 1 << 20,
    one_sided: bool = False,
) -> AttractorCensus:
    """Run every possible seed on ``side`` and group outcomes by attractor.

    One round of the map is tabulated for every seed-side bitmask; a seed
    then moves ``s -> table[s] | seed``.  All ``2 ** n`` seeds walk at once:
    Brent's method finds each seed's period and a state on its cycle, one
    more walk of that period lists the cycle, and seeds are grouped by the
    full cycle rotated to its minimum state (two cycles may share a
    minimum).  Attractors are numbered in the order of their smallest seed.
    The walk holds a few ``2 ** n`` integer arrays (32-bit below 31 nodes),
    and the census it returns is columnar: no Python object is built per
    seed or per attractor until :attr:`AttractorCensus.attractors` is read.

    Trajectories agree bit for bit with :func:`run_hidden_pattern`; the two
    paths are implemented independently (vector arithmetic there, tabulated
    bitmask transitions here) so each checks the other.  Basin sizes sum to
    ``2 ** n``.
    """
    side = Side(side)
    part = _side_partition(matrix, side)
    if one_sided and matrix.n_rows != matrix.n_cols:
        raise DimensionMismatch("one-sided enumeration needs a square matrix")
    n = part.total
    if (1 << n) > state_limit:
        raise StateSpaceTooLarge(
            f"2^{n} = {1 << n} seeds exceed the limit of {state_limit}"
        )
    dtype = np.int32 if n < 31 else np.int64
    rounds = _RoundMap(matrix, side, policy, one_sided)
    table = rounds.table(None, dtype)
    mode = policy.first_step_mode
    if mode is FirstStepMode.ALWAYS:
        start = rounds.table(policy.first_step_rule, dtype)
    else:
        start = table.copy()
    seeds = np.arange(1 << n, dtype=dtype)
    start |= seeds
    if mode is FirstStepMode.AUTO:
        units = np.left_shift(1, np.arange(n, dtype=dtype))
        start[units] = rounds.of(units, policy.first_step_rule) | units
    del rounds
    period, meet = _brent(table, start, seeds)
    del start, seeds

    # group seeds of one period by their cycle, rotated to its minimum state
    groups = []
    for p in np.unique(period).tolist():
        members = np.flatnonzero(period == p).astype(dtype)
        cycle = np.empty((p, members.shape[0]), dtype=dtype)
        cycle[0] = meet[members]
        for t in range(1, p):
            np.take(table, cycle[t - 1], out=cycle[t], mode="clip")
            cycle[t] |= members
        if p == 1:
            # a 1-D unique is several times faster than one over rows
            cycles, first, inverse = np.unique(
                cycle[0], return_index=True, return_inverse=True
            )
            cycles = cycles[:, None]
        else:
            shift = cycle.argmin(axis=0) + np.arange(p)[:, None]
            rows = np.take_along_axis(cycle, shift % p, axis=0).T
            cycles, first, inverse = np.unique(
                rows, axis=0, return_index=True, return_inverse=True
            )
        groups.append((cycles, members[first], members, inverse.reshape(-1)))
    del table, period, meet

    # number attractors in the order of their smallest seed
    order = np.argsort(np.concatenate([g[1] for g in groups]))
    number = np.empty_like(order)
    number[order] = np.arange(order.shape[0])
    assignment = np.empty(1 << n, dtype=np.int64)
    offset = 0
    for cycles, _, members, inverse in groups:
        k = cycles.shape[0]
        assignment[members] = number[offset : offset + k][inverse]
        offset += k

    # lay the cycles out flat in attractor order
    unordered = np.concatenate(
        [np.full(c.shape[0], c.shape[1], dtype=np.int64) for c, *_ in groups]
    )
    periods = unordered[order]
    offsets = np.zeros(order.shape[0] + 1, dtype=np.int64)
    np.cumsum(periods, out=offsets[1:])
    starts = (np.cumsum(unordered) - unordered)[order]
    flat = np.concatenate([c.ravel() for c, *_ in groups]).astype(np.int64)
    states = flat[np.repeat(starts - offsets[:-1], periods) + np.arange(offsets[-1])]
    basins = np.bincount(assignment, minlength=order.shape[0])
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
