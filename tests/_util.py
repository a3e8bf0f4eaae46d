"""Small helpers shared by the test modules."""

import numpy as np

from fuzzymaps import Partition, Side, StateVector, SuperMatrix


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
