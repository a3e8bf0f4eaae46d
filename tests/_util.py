"""Small helpers shared by the test modules."""

from fractions import Fraction

import numpy as np

from fuzzymaps import (
    Comparator,
    HiddenPattern,
    Partition,
    PatternKind,
    Side,
    StateVector,
    StepRecord,
    SuperMatrix,
    step,
)


def bits(s: str) -> tuple[int, ...]:
    """Parse '110|01 0' into a bit tuple, ignoring bars and spaces."""
    return tuple(int(c) for c in s.replace("|", "").replace(" ", ""))


def seed_state(mask: int, side: Side, partition: Partition) -> StateVector:
    n = partition.total
    return StateVector(tuple((mask >> i) & 1 for i in range(n)), side, partition)


def pattern_cycle_masks(pattern, side: Side) -> tuple[int, ...]:
    """Seed-side cycle states of a hidden pattern as bitmasks."""
    masks = []
    for d, r in pattern.pair_sequence:
        state = d if side is Side.DOMAIN else r
        masks.append(state.bitmask)
    return tuple(masks)


def canonical(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a cycle of bitmasks so its smallest state comes first."""
    lo = masks.index(min(masks))
    return masks[lo:] + masks[:lo]


def reassemble(matrix: SuperMatrix) -> np.ndarray:
    """Concatenate blocks in partition order; must equal the flat grid."""
    rows = []
    for i in range(matrix.row_partition.n_blocks):
        rows.append(
            np.hstack(
                [
                    matrix.block(i, j)
                    for j in range(matrix.col_partition.n_blocks)
                ]
            )
        )
    return np.vstack(rows)


def stepped_pattern(matrix, seed, policy, one_sided=False, record_trace=True):
    """The hidden pattern of ``seed``, from calls of the public ``step``.

    The reference for the engine core on integer maps, whose float64 sums
    are exact: one product per call, and a dict of the seed-side states
    seen so far; the first one seen twice closes the pattern.  ``None`` when
    nothing recurs within 10,000 products.
    """
    return _walk(step, matrix, seed, policy, one_sided, record_trace)


def exact(x) -> Fraction:
    """A float as the shortest decimal that reads back as it."""
    return Fraction(repr(float(x)))


def exact_pattern(matrix, seed, policy, one_sided=False, record_trace=True):
    """The hidden pattern of ``seed`` in exact arithmetic: as
    :func:`stepped_pattern`, but each product adds the entries as
    :func:`exact` fractions and compares the sums with the cutoff's, and a
    record's raw sums are those fractions rounded once to float."""
    rows = [[exact(x) for x in row] for row in matrix.entries.tolist()]
    columns = [list(c) for c in zip(*rows)]

    def exact_step(matrix, state, policy, seed, k, one_sided=False):
        forward = one_sided or state.side is Side.DOMAIN
        produced = state.side if one_sided else state.side.opposite
        grid = rows if forward else columns
        on = state.on_indices
        raw = [sum((grid[i][j] for i in on), Fraction(0)) for j in range(len(grid[0]))]
        if policy.first_step_applies(seed, k):
            rule = policy.first_step_rule
        else:
            rule = policy.rule_for(produced)
        c = exact(rule.cutoff)
        ge = rule.comparator is Comparator.GE
        bits = tuple(int(r >= c if ge else r > c) for r in raw)
        after = bits
        if produced is seed.side:
            after = tuple(b | s for b, s in zip(bits, seed.bits))
        return StepRecord(k, produced, tuple(map(float, raw)), bits, after, rule)

    return _walk(exact_step, matrix, seed, policy, one_sided, record_trace)


def _walk(step, matrix, seed, policy, one_sided, record_trace):
    """The pattern that products from ``step``, called as the public
    ``step`` is, lead to from ``seed``."""
    records, state, opp = [], seed, None
    rounds = []  # per round: (seed-side state, the round's opposite state)
    seen = {}  # seed-side bits -> 1-based round
    for k in range(1, 10_001):
        rec = step(matrix, state, policy, seed, k, one_sided=one_sided)
        records.append(rec)
        part = (
            matrix.row_partition
            if rec.produced_side is Side.DOMAIN
            else matrix.col_partition
        )
        state = StateVector(rec.after_update, rec.produced_side, part)
        if rec.produced_side is not seed.side:
            opp = state
            continue
        rounds.append((state, opp))
        j = seen.setdefault(state.bits, len(rounds))
        if j == len(rounds):
            continue
        period = len(rounds) - j
        cycle = range(j - 1, j - 1 + period)  # rounds j .. j+period-1
        if one_sided:
            pairs = [(rounds[t][0], rounds[t][0]) for t in cycle]
        elif seed.side is Side.DOMAIN:
            # v_{j+t} maps forward to the opposite state of round j+t+1
            pairs = [(rounds[t][0], rounds[t + 1][1]) for t in cycle]
        else:
            # round j+t+1 runs backward into d, then forward into v
            pairs = [(rounds[t + 1][1], rounds[t + 1][0]) for t in cycle]
        return HiddenPattern(
            kind=PatternKind.of_period(period),
            period=period,
            pair_sequence=tuple(pairs),
            steps_to_enter=j - 1,
            trace=tuple(records) if record_trace else None,
        )
    return None
