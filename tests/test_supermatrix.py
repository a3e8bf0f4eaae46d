import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzymaps import (
    EntryDomain,
    Kind,
    Partition,
    SuperMatrix,
    SuperVector,
    check_entry_domain,
    classify,
    make_partition,
    partition_matrix,
    transpose_matrix,
    transpose_vector,
)
from fuzzymaps.errors import (
    BlockIndexOutOfRange,
    CutOutOfRange,
    DimensionMismatch,
    DuplicateCut,
    EmptyPartition,
    NonPositiveBlock,
)
from fuzzymaps.supermatrix import Orientation, reassemble

# 9x6 demonstration supermatrix, row blocks [3,4,2], column blocks [2,4]
GRID_9X6 = [
    [1, 2, 3, 4, 5, 6],
    [7, 8, 9, 1, 0, 1],
    [-2, 3, 6, 0, 9, -1],
    [1, 2, 3, 4, 5, 0],
    [7, 6, 5, 4, 3, 2],
    [1, 0, 2, 1, 3, 0],
    [4, 5, 0, 6, 7, 0],
    [8, 9, 1, 2, 3, 1],
    [9, 0, 1, 0, 3, 0],
]

# 9x9 with uniform 3x3 blocks
GRID_9X9 = [
    [-2, 1, 0, 3, 4, 5, 7, 8, 9],
    [1, 2, 3, 9, 8, 7, 6, 7, 8],
    [0, 1, 2, 0, -3, 0, 4, 0, 5],
    [1, -7, 1, -9, 1, 5, 1, 3, 2],
    [2, 4, 2, 6, 2, -8, 2, 0, 1],
    [-3, 1, 0, 2, 3, 1, 3, -1, 0],
    [7, -5, 3, 2, -9, 4, 9, 8, 1],
    [3, 1, 2, 0, 5, 0, 1, 1, 0],
    [8, 0, 1, -1, 0, 8, 0, -1, 2],
]

GRID_4X6 = [
    [3, 4, 5, 7, 8, 9],
    [1, 2, 3, 0, 1, 2],
    [0, 6, 1, 4, 0, -3],
    [-1, 1, 2, 5, 1, 4],
]

# 8x5 matrix with entries in [0, 1], row blocks [3,2,3], column blocks [3,2]
GRID_FUZZY = [
    [0.1, 1, 0.8, 0.6, 0.5],
    [1, 0.7, 1, 0, 0.7],
    [0.9, 0.3, 0.4, 0.5, 1],
    [0.7, 1, 0.3, 1, 0.8],
    [0.8, 0.1, 0, 1, 0.1],
    [0.4, 0.6, 1, 0.7, 0.5],
    [0, 0.5, 0.2, 1, 0.3],
    [1, 0, 1, 0.4, 1],
]

GRID_12X5 = [
    [3, 1, 0, 1, 5],
    [0, 1, 7, 0, -2],
    [1, 4, 1, 2, 1],
    [9, 5, 8, 3, 0],
    [0, 1, 2, 3, 4],
    [5, 6, 7, 8, 9],
    [1, 0, 2, 3, 7],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 0],
    [1, 1, 1, 1, 1],
    [8, 0, -1, 0, 1],
    [1, 1, 0, 2, 0],
]


def m9x6():
    return SuperMatrix(np.array(GRID_9X6, float), Partition([3, 4, 2]), Partition([2, 4]))


class TestPartition:
    def test_sizes_and_offsets(self):
        p = make_partition([4, 6, 5, 3])
        assert p.total == 18
        assert p.offsets == (0, 4, 10, 15, 18)
        assert p.cuts == (4, 10, 15)
        assert p.mixed

    def test_trivial(self):
        p = make_partition([1])
        assert p.trivial and p.total == 1 and not p.mixed

    def test_uniform_not_mixed(self):
        p = make_partition([3, 3, 3])
        assert p.total == 9 and not p.mixed and not p.trivial

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            make_partition([])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveBlock):
            make_partition([2, 0, 1])


class TestPartitionMatrix:
    def test_row_cuts(self):
        m = partition_matrix(GRID_4X6, row_cuts=[2, 3])
        assert m.row_partition.sizes == (2, 1, 1)
        assert m.col_partition.trivial
        # a vertical stack of row bands is a super column matrix
        assert classify(m).kind is Kind.SUPER_COLUMN

    def test_col_cuts(self):
        m = partition_matrix(GRID_4X6, col_cuts=[3, 5])
        assert m.col_partition.sizes == (3, 2, 1)
        assert classify(m).kind is Kind.SUPER_ROW

    def test_no_cuts_simple(self):
        m = partition_matrix(GRID_4X6)
        assert classify(m).kind is Kind.SIMPLE
        assert np.array_equal(m.entries, np.array(GRID_4X6, float))

    def test_cut_out_of_range(self):
        with pytest.raises(CutOutOfRange):
            partition_matrix(GRID_4X6, row_cuts=[4])
        with pytest.raises(CutOutOfRange):
            partition_matrix(GRID_4X6, col_cuts=[0])

    def test_duplicate_cut(self):
        with pytest.raises(DuplicateCut):
            partition_matrix(GRID_4X6, col_cuts=[2, 2])


class TestBlocks:
    def test_first_block(self):
        assert np.array_equal(
            m9x6().block(0, 0), np.array([[1, 2], [7, 8], [-2, 3]], float)
        )

    def test_block_shapes_follow_partitions(self):
        m = m9x6()
        for i, h in enumerate(m.row_partition.sizes):
            for j, w in enumerate(m.col_partition.sizes):
                assert m.block(i, j).shape == (h, w)

    def test_whole_grid_single_block(self):
        m = SuperMatrix.simple(GRID_4X6)
        assert np.array_equal(m.block(0, 0), np.array(GRID_4X6, float))

    def test_out_of_range(self):
        with pytest.raises(BlockIndexOutOfRange):
            m9x6().block(3, 0)
        with pytest.raises(BlockIndexOutOfRange):
            m9x6().block(0, 2)


class TestTranspose:
    def test_partition_swap_on_tall_matrix(self):
        m = SuperMatrix(
            np.array(GRID_12X5, float), Partition([2, 4, 1, 3, 2]), Partition([5])
        )
        t = transpose_matrix(m)
        assert t.shape == (5, 12)
        assert t.col_partition.sizes == (2, 4, 1, 3, 2)
        assert t.row_partition.trivial
        assert classify(t).kind is Kind.SUPER_ROW
        assert np.array_equal(t.entries, np.array(GRID_12X5, float).T)

    def test_involution(self):
        m = m9x6()
        assert transpose_matrix(transpose_matrix(m)) == m

    def test_blockwise_against_double_loop(self):
        rng = np.random.default_rng(7)
        entries = rng.integers(-5, 6, size=(7, 4)).astype(float)
        m = SuperMatrix(entries, Partition([3, 4]), Partition([2, 2]))
        t = m.transpose()
        # independent oracle: transpose each cell with explicit loops
        manual = np.empty((4, 7))
        for i in range(7):
            for j in range(4):
                manual[j, i] = entries[i, j]
        assert np.array_equal(t.entries, manual)
        for i in range(t.row_partition.n_blocks):
            for j in range(t.col_partition.n_blocks):
                assert np.array_equal(t.block(i, j), m.block(j, i).T)

    def test_vector_transpose(self):
        x = SuperVector(
            np.array([3, 1, 4, 5, 0, -3, 2, 1, -4, 7, 7, 0, 3, 1, 2, 0, 3, -5], float),
            Partition([4, 6, 5, 3]),
            Orientation.ROW,
        )
        t = transpose_vector(x)
        assert t.orientation is Orientation.COLUMN
        assert t.partition == x.partition
        assert np.array_equal(t.entries, x.entries)
        assert transpose_vector(t) == x

    def test_single_entry_vector(self):
        v = SuperVector(np.array([2.0]), Partition([1]), Orientation.COLUMN)
        assert transpose_vector(v).orientation is Orientation.ROW


class TestFlatten:
    def test_matrix_round_trip(self):
        m = m9x6()
        flat = m.flatten()
        assert np.array_equal(flat, np.array(GRID_9X6, float))
        again = partition_matrix(flat, row_cuts=m.row_cuts(), col_cuts=m.col_cuts())
        assert again == m

    def test_vector_flatten(self):
        v = SuperVector(np.array([1, 2, 3.0]), Partition([1, 2]))
        assert np.array_equal(v.flatten(), np.array([1, 2, 3.0]))

    def test_reassembly(self):
        m = m9x6()
        assert np.array_equal(reassemble(m), m.flatten())


class TestClassify:
    def test_perfect_square(self):
        m = SuperMatrix(np.array(GRID_9X9, float), Partition([3, 3, 3]), Partition([3, 3, 3]))
        k = classify(m)
        assert k.kind is Kind.GENERAL_SUPER
        assert k.perfect_square and k.square
        assert not k.mixed_rows and not k.mixed_cols

    def test_rectangular_not_perfect(self):
        m = SuperMatrix(np.array(GRID_4X6, float), Partition([2, 2]), Partition([2, 2, 2]))
        k = classify(m)
        assert k.kind is Kind.GENERAL_SUPER
        assert not k.square and not k.perfect_square

    def test_trivial_simple(self):
        m = SuperMatrix.simple(GRID_4X6)
        assert classify(m).kind is Kind.SIMPLE

    def test_pure_function_of_partitions(self):
        rng = np.random.default_rng(3)
        rp, cp = Partition([2, 3]), Partition([1, 4])
        a = SuperMatrix(rng.integers(-9, 9, (5, 5)).astype(float), rp, cp)
        b = SuperMatrix(rng.integers(-9, 9, (5, 5)).astype(float), rp, cp)
        assert classify(a) == classify(b)


class TestEntryDomain:
    def test_fuzzy_matrix_ok(self):
        m = SuperMatrix(np.array(GRID_FUZZY, float), Partition([3, 2, 3]), Partition([3, 2]))
        assert check_entry_domain(m, EntryDomain.FUZZY_UNIT) == []

    def test_signed_matrix_fails_fuzzy_unit(self):
        from fuzzymaps import load_fixture

        m = load_fixture("sec_2_2").matrix  # carries -1 entries
        violations = check_entry_domain(m, EntryDomain.FUZZY_UNIT)
        assert violations and all(v == -1.0 for _, _, v in violations)
        assert len(violations) == 41
        assert check_entry_domain(m, EntryDomain.SIGNED_TERNARY) == []

    def test_signed_unit_violation_located(self):
        m = SuperMatrix.simple([[0.5, 1.5]])
        assert check_entry_domain(m, EntryDomain.SIGNED_UNIT) == [(0, 1, 1.5)]

    def test_unrestricted(self):
        m = SuperMatrix.simple([[1e9, -42.5]])
        assert check_entry_domain(m, EntryDomain.UNRESTRICTED) == []

    @pytest.mark.parametrize("domain", list(EntryDomain))
    def test_non_finite_cells_in_row_major_order(self, domain):
        nan, inf = float("nan"), float("inf")
        m = SuperMatrix.simple([[0.0, inf], [-inf, 1.0], [0.0, nan]])
        got = check_entry_domain(m, domain)
        assert [(i, j) for i, j, _ in got] == [(0, 1), (1, 0), (2, 1)]
        assert got[0][2] == inf and got[1][2] == -inf and np.isnan(got[2][2])
        assert all(type(i) is int and type(j) is int for i, j, _ in got)


class TestValidation:
    def test_partition_must_cover_entries(self):
        with pytest.raises(DimensionMismatch):
            SuperMatrix(np.zeros((3, 3)), Partition([2]), Partition([3]))
        with pytest.raises(DimensionMismatch):
            SuperVector(np.zeros(3), Partition([2]))

    def test_entries_immutable(self):
        m = m9x6()
        with pytest.raises(ValueError):
            m.entries[0, 0] = 99.0


# --- randomized invariants ---------------------------------------------------

partitions = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(Partition)


@st.composite
def supermatrices(draw):
    rp = draw(partitions)
    cp = draw(partitions)
    rows = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=cp.total, max_size=cp.total),
            min_size=rp.total,
            max_size=rp.total,
        )
    )
    return SuperMatrix(np.array(rows, float), rp, cp)


@given(supermatrices())
def test_transpose_involution_and_swap(m):
    t = m.transpose()
    assert t.row_partition == m.col_partition
    assert t.col_partition == m.row_partition
    assert t.transpose() == m


@given(supermatrices())
def test_block_consistency_under_transpose(m):
    t = m.transpose()
    for i in range(t.row_partition.n_blocks):
        for j in range(t.col_partition.n_blocks):
            assert np.array_equal(t.block(i, j), m.block(j, i).T)


@given(supermatrices())
def test_reassembly_matches_flatten(m):
    assert np.array_equal(reassemble(m), m.flatten())


@given(supermatrices())
def test_cut_round_trip(m):
    again = partition_matrix(m.flatten(), m.row_cuts(), m.col_cuts())
    assert again == m
