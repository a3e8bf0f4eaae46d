"""Dense matrices and vectors carrying independent row/column partitions.

A "supermatrix" here is an ordinary dense matrix plus two partitions that
cut it into a grid of blocks.  Entries are stored flat; blocks are derived
views, which keeps the arithmetic on the flattened grid trivially correct.
All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    BlockIndexOutOfRange,
    CutOutOfRange,
    DimensionMismatch,
    DuplicateCut,
    EmptyPartition,
    NonPositiveBlock,
    PartitionError,
)

__all__ = [
    "Partition",
    "Orientation",
    "SuperVector",
    "SuperMatrix",
    "Kind",
    "MatrixKind",
    "EntryDomain",
    "partition_from_cuts",
    "partition_matrix",
    "classify",
    "check_entry_domain",
]


@dataclass(frozen=True)
class Partition:
    """Ordered block widths of one axis.

    ``sizes`` must be non-empty positive integers.  A partition with a
    single block is *trivial*; one whose blocks differ in size is *mixed*.
    """

    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        given = tuple(sizes)
        sizes = tuple(int(s) for s in given)
        if not sizes:
            raise EmptyPartition("a partition needs at least one block")
        if sizes != given:
            raise PartitionError(f"block sizes {given!r} are not all integers")
        for s in sizes:
            if s < 1:
                raise NonPositiveBlock(f"block size {s} is not positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Prefix sums: start offset of each block plus the total."""
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    @property
    def cuts(self) -> tuple[int, ...]:
        """Interior cut positions (strictly between 0 and total)."""
        return self.offsets[1:-1]

    @property
    def trivial(self) -> bool:
        return len(self.sizes) == 1

    @property
    def mixed(self) -> bool:
        return len(set(self.sizes)) > 1

    def block_slice(self, i: int) -> slice:
        if not 0 <= i < self.n_blocks:
            raise BlockIndexOutOfRange(
                f"block index {i} out of range for {self.n_blocks} blocks"
            )
        off = self.offsets
        return slice(off[i], off[i + 1])

    def __iter__(self):
        return iter(self.sizes)


def partition_from_cuts(total: int, cuts: Iterable[int]) -> Partition:
    """Turn sorted interior cut positions into block widths.

    Cuts must be strictly inside ``[1, total - 1]`` and strictly increasing.
    No cuts yields the trivial partition.
    """
    cut_list = [int(c) for c in cuts]
    seen: set[int] = set()
    for c in cut_list:
        if not 1 <= c <= total - 1:
            raise CutOutOfRange(f"cut {c} outside [1, {total - 1}]")
        if c in seen:
            raise DuplicateCut(f"cut {c} appears twice")
        seen.add(c)
    bounds = [0] + sorted(cut_list) + [total]
    return Partition(b - a for a, b in zip(bounds, bounds[1:]))


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


class Orientation(str, Enum):
    ROW = "row"
    COLUMN = "column"


@dataclass(frozen=True, eq=False)
class SuperVector:
    """A partitioned row or column vector of reals."""

    entries: np.ndarray
    partition: Partition
    orientation: Orientation = Orientation.ROW

    def __post_init__(self):
        entries = _freeze(self.entries)
        if entries.ndim != 1:
            raise DimensionMismatch("vector entries must be one-dimensional")
        if self.partition.total != entries.shape[0]:
            raise DimensionMismatch(
                f"partition covers {self.partition.total} entries, "
                f"vector has {entries.shape[0]}"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "orientation", Orientation(self.orientation))

    def __len__(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperVector):
            return NotImplemented
        return (
            self.orientation == other.orientation
            and self.partition == other.partition
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.orientation, self.partition, self.entries.tobytes()))

    def transpose(self) -> "SuperVector":
        flipped = (
            Orientation.COLUMN
            if self.orientation is Orientation.ROW
            else Orientation.ROW
        )
        return SuperVector(self.entries, self.partition, flipped)

    def flatten(self) -> np.ndarray:
        return self.entries.copy()

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.entries)


@dataclass(frozen=True, eq=False)
class SuperMatrix:
    """A dense real matrix with independent row and column partitions."""

    entries: np.ndarray
    row_partition: Partition
    col_partition: Partition

    def __post_init__(self):
        entries = _freeze(self.entries)
        if entries.ndim != 2:
            raise DimensionMismatch("matrix entries must be two-dimensional")
        if self.row_partition.total != entries.shape[0]:
            raise DimensionMismatch(
                f"row partition covers {self.row_partition.total} rows, "
                f"matrix has {entries.shape[0]}"
            )
        if self.col_partition.total != entries.shape[1]:
            raise DimensionMismatch(
                f"column partition covers {self.col_partition.total} columns, "
                f"matrix has {entries.shape[1]}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def simple(cls, entries) -> "SuperMatrix":
        """Wrap a plain grid with trivial partitions."""
        return partition_matrix(entries)

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @cached_property
    def _exact32(self) -> "np.ndarray | None":
        """The entries as read-only float32 if they are integers whose
        magnitudes sum below ``2**24``, else ``None``: that bounds every
        partial sum of a 0/1 product, so float32 adds them exactly in any
        order."""
        e = self.entries
        with np.errstate(over="ignore"):  # a total past float64 is inf: refused
            if not ((np.trunc(e) == e).all() and np.abs(e).sum() < 2**24):
                return None
        return _freeze(e, np.float32)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            self.row_partition == other.row_partition
            and self.col_partition == other.col_partition
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash(
            (self.row_partition, self.col_partition, self.entries.tobytes())
        )

    def block(self, i: int, j: int) -> np.ndarray:
        """Copy of block (i, j); its shape is fixed by the two partitions."""
        return self.entries[
            self.row_partition.block_slice(i), self.col_partition.block_slice(j)
        ].copy()

    def transpose(self) -> "SuperMatrix":
        return SuperMatrix(self.entries.T, self.col_partition, self.row_partition)

    def flatten(self) -> np.ndarray:
        """Plain grid with the partitions dropped."""
        return self.entries.copy()


def partition_matrix(
    entries, row_cuts: Iterable[int] = (), col_cuts: Iterable[int] = ()
) -> SuperMatrix:
    """Partition a plain grid by interior cut positions.

    A cut at ``k`` separates row (or column) ``k`` from ``k + 1``,
    counting from 1.  No cuts on an axis leaves that axis trivial.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch("matrix entries must be two-dimensional")
    rp = partition_from_cuts(a.shape[0], row_cuts)
    cp = partition_from_cuts(a.shape[1], col_cuts)
    return SuperMatrix(a, rp, cp)


class Kind(str, Enum):
    SIMPLE = "simple"
    SUPER_ROW = "super_row"
    SUPER_COLUMN = "super_column"
    GENERAL_SUPER = "general_super"


@dataclass(frozen=True)
class MatrixKind:
    kind: Kind
    mixed_rows: bool
    mixed_cols: bool
    square: bool
    perfect_square: bool


def classify(matrix: SuperMatrix) -> MatrixKind:
    """Classify by partition structure alone.

    A horizontal row of blocks (trivial rows, cut columns) is a super row
    matrix; a vertical stack of blocks (cut rows, trivial columns) is a
    super column matrix.  ``perfect_square`` means both partitions coincide
    and every block is square of the same order; a square matrix with two
    trivial partitions satisfies this degenerately.
    """
    rp, cp = matrix.row_partition, matrix.col_partition
    if rp.trivial and cp.trivial:
        kind = Kind.SIMPLE
    elif rp.trivial:
        kind = Kind.SUPER_ROW
    elif cp.trivial:
        kind = Kind.SUPER_COLUMN
    else:
        kind = Kind.GENERAL_SUPER
    square = matrix.n_rows == matrix.n_cols
    perfect = square and rp == cp and not rp.mixed
    return MatrixKind(
        kind=kind,
        mixed_rows=rp.mixed,
        mixed_cols=cp.mixed,
        square=square,
        perfect_square=perfect,
    )


class EntryDomain(str, Enum):
    """Admissible numeric ranges for connection-matrix entries.

    Every domain is a set of finite reals: NaN and infinities lie outside
    all of them, ``unrestricted`` included.
    """

    FUZZY_UNIT = "fuzzy_unit"
    SIGNED_TERNARY = "signed_ternary"
    SIGNED_UNIT = "signed_unit"
    UNRESTRICTED = "unrestricted"

    def contains(self, values) -> np.ndarray:
        """Elementwise membership of ``values`` (a number or an array)."""
        v = np.asarray(values, dtype=float)
        if self is EntryDomain.UNRESTRICTED:
            return np.isfinite(v)
        if self is EntryDomain.FUZZY_UNIT:
            return (0.0 <= v) & (v <= 1.0)
        if self is EntryDomain.SIGNED_TERNARY:
            return (v == -1.0) | (v == 0.0) | (v == 1.0)
        return (-1.0 <= v) & (v <= 1.0)


def check_entry_domain(
    matrix: SuperMatrix, domain: EntryDomain
) -> list[tuple[int, int, float]]:
    """Cells violating ``domain`` as (row, col, value) in row-major order;
    empty means ok."""
    rows, cols = np.nonzero(~EntryDomain(domain).contains(matrix.entries))
    values = matrix.entries[rows, cols]
    return list(zip(rows.tolist(), cols.tolist(), values.tolist()))
