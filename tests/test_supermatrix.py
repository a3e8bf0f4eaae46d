import tracemalloc

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
    load_fixture,
    partition_from_cuts,
    partition_matrix,
)
from fuzzymaps.errors import (
    BlockIndexOutOfRange,
    CutOutOfRange,
    DimensionMismatch,
    DuplicateCut,
    EmptyPartition,
    ModelValidationError,
    NonPositiveBlock,
    PartitionError,
)
from fuzzymaps.supermatrix import Orientation

from _util import reassemble

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
        p = Partition([4, 6, 5, 3])
        assert p.total == 18
        assert p.offsets == (0, 4, 10, 15, 18)
        assert p.cuts == (4, 10, 15)
        assert p.mixed

    def test_trivial(self):
        p = Partition([1])
        assert p.trivial and p.total == 1 and not p.mixed

    def test_uniform_not_mixed(self):
        p = Partition([3, 3, 3])
        assert p.total == 9 and not p.mixed and not p.trivial

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            Partition([])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveBlock):
            Partition([2, 0, 1])

    # int() raises ValueError, TypeError or OverflowError on the last four
    @pytest.mark.parametrize(
        "sizes", [[2.7], [3, 0.5], ["2"], ["a"], [2, None], [float("inf")], [float("nan")]]
    )
    def test_non_integral_sizes_rejected(self, sizes):
        with pytest.raises(PartitionError, match="not all integers"):
            Partition(sizes)

    def test_integral_sizes_of_any_number_type(self):
        p = Partition([2.0, np.int64(3)])
        assert p.sizes == (2, 3) and all(type(s) is int for s in p.sizes)


class TestPartitionFromCuts:
    """A cut is accepted only if it equals its int(), as a block size is."""

    @pytest.mark.parametrize("cut", [2.5, "2", "a", None, float("inf")])
    def test_cut_that_is_not_an_integer(self, cut):
        with pytest.raises(PartitionError) as err:
            partition_from_cuts(5, [1, cut])
        assert str(err.value) == f"cuts {(1, cut)!r} are not all integers"
        with pytest.raises(PartitionError):
            partition_matrix(GRID_4X6, col_cuts=[cut])

    def test_integral_cuts_of_any_number_type(self):
        assert partition_from_cuts(5, [2.0, np.int64(4)]).sizes == (2, 2, 1)
        assert partition_from_cuts(5, iter([3])).sizes == (3, 2)


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

    @pytest.mark.parametrize("entries", [[1.0, 2.0], 3.0])
    def test_refuses_a_grid_that_is_not_2d(self, entries):
        with pytest.raises(DimensionMismatch) as err:
            partition_matrix(entries)
        assert str(err.value) == "matrix entries must be two-dimensional"

    def test_ragged_grid_refused(self):
        with pytest.raises(ValueError):
            partition_matrix([[1, 2], [3]])

    @pytest.mark.parametrize("value", [0.5, 1])
    def test_a_list_grid_is_copied_once(self, value):
        grid = [[value] * 400 for _ in range(400)]
        partition_matrix(grid)  # numpy's own first-call state
        tracemalloc.start()
        try:
            m = partition_matrix(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.entries.dtype == float
        assert peak <= 1.25 * m.entries.nbytes


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
        m = partition_matrix(GRID_4X6)
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
        t = m.transpose()
        assert t.shape == (5, 12)
        assert t.col_partition.sizes == (2, 4, 1, 3, 2)
        assert t.row_partition.trivial
        assert classify(t).kind is Kind.SUPER_ROW
        assert np.array_equal(t.entries, np.array(GRID_12X5, float).T)

    def test_involution(self):
        m = m9x6()
        assert m.transpose().transpose() == m

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
        t = x.transpose()
        assert t.orientation is Orientation.COLUMN
        assert t.partition == x.partition
        assert np.array_equal(t.entries, x.entries)
        assert t.transpose() == x

    def test_single_entry_vector(self):
        v = SuperVector(np.array([2.0]), Partition([1]), Orientation.COLUMN)
        assert v.transpose().orientation is Orientation.ROW


class TestFlatten:
    def test_matrix_round_trip(self):
        m = m9x6()
        flat = m.flatten()
        assert np.array_equal(flat, np.array(GRID_9X6, float))
        again = partition_matrix(
            flat, row_cuts=m.row_partition.cuts, col_cuts=m.col_partition.cuts
        )
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
        m = partition_matrix([[0.5, 1.5]])
        assert check_entry_domain(m, EntryDomain.SIGNED_UNIT) == [(0, 1, 1.5)]

    def test_unrestricted(self):
        m = partition_matrix([[1e9, -42.5]])
        assert check_entry_domain(m, EntryDomain.UNRESTRICTED) == []

    @pytest.mark.parametrize("domain", list(EntryDomain))
    def test_non_finite_cells_in_row_major_order(self, domain):
        nan, inf = float("nan"), float("inf")
        m = partition_matrix([[0.0, inf], [-inf, 1.0], [0.0, nan]])
        got = check_entry_domain(m, domain)
        assert [(i, j) for i, j, _ in got] == [(0, 1), (1, 0), (2, 1)]
        assert got[0][2] == inf and got[1][2] == -inf and np.isnan(got[2][2])
        assert all(type(i) is int and type(j) is int for i, j, _ in got)


class TestEquality:
    def test_equal_values_are_equal_and_hash_equal(self):
        p = Partition([2, 1])
        assert list(p) == [2, 1]
        v, w = SuperVector([1, 0, 2], p), SuperVector(np.array([1.0, 0, 2]), p)
        assert len(v) == 3
        assert v == w and hash(v) == hash(w)
        assert v != SuperVector([1, 0, 2], Partition([3]))
        assert v != v.entries.tolist() and v != v.transpose()
        m, n = m9x6(), partition_matrix(GRID_9X6, row_cuts=[3, 7], col_cuts=[2])
        assert m == n and hash(m) == hash(n)
        assert m != GRID_9X6 and m != partition_matrix(GRID_9X6)
        # a parsed model's hash goes through its matrix's
        a, b = load_fixture("sec_2_4"), load_fixture("sec_2_4")
        assert a.matrix is not b.matrix and a == b and hash(a) == hash(b)


class TestValidation:
    def test_partition_must_cover_entries(self):
        with pytest.raises(DimensionMismatch):
            SuperMatrix(np.zeros((3, 3)), Partition([2]), Partition([3]))
        with pytest.raises(DimensionMismatch):
            SuperVector(np.zeros(3), Partition([2]))
        with pytest.raises(
            DimensionMismatch, match="column partition covers 2 columns, matrix has 3"
        ):
            SuperMatrix(np.zeros((3, 3)), Partition([3]), Partition([2]))

    def test_entries_must_have_their_dimension(self):
        with pytest.raises(DimensionMismatch, match="vector entries must be one-dim"):
            SuperVector(np.zeros((1, 3)), Partition([3]))
        with pytest.raises(DimensionMismatch, match="matrix entries must be two-dim"):
            SuperMatrix(np.zeros(3), Partition([3]), Partition([3]))

    def test_entries_immutable(self):
        m = m9x6()
        with pytest.raises(ValueError):
            m.entries[0, 0] = 99.0

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (18, 18), (200, 200)])
    def test_exact_copy_is_64_byte_aligned_and_read_only(self, shape):
        # the copy's offset would otherwise move with unrelated allocations
        entries = np.arange(shape[0] * shape[1], dtype=float).reshape(shape) % 7 - 3
        m = partition_matrix(entries)
        exact, scale = m._exact
        assert exact.ctypes.data % 64 == 0 and scale == 1
        assert exact.dtype == np.float32 and exact.flags.c_contiguous
        assert np.array_equal(exact, entries)
        with pytest.raises(ValueError):
            exact[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (18, 18), (200, 200)])
    @pytest.mark.parametrize(
        "fill, scale, dtype",
        [(0.5, 2, np.float32), (0.25, 4, np.float32), (2**24, 1, np.float64),
         (2**23 + 0.5, 2, np.float64)],
    )
    def test_both_grids_are_64_byte_aligned_and_read_only(
        self, shape, fill, scale, dtype
    ):
        entries = np.zeros(shape)
        entries[0, 0] = fill
        entries[-1, -1] += 1  # another entry, or the same one again
        m = partition_matrix(entries)
        grid, got = m._exact
        assert grid.ctypes.data % 64 == 0 and grid.flags.c_contiguous
        assert (grid.dtype, got) == (dtype, scale)
        assert np.array_equal(grid, entries * scale)
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0

    def test_scale_is_the_lcm_of_the_decimal_denominators(self):
        # 0.5 and 0.2 need 10, not their larger denominator 5
        m = partition_matrix([[0.5, 0.2], [-0.25, 0.04]])
        grid, scale = m._exact
        assert scale == 100
        assert grid.tolist() == [[50, 20], [-25, 4]]

    def test_a_scaled_entry_is_its_decimal_exactly(self):
        # the float times 100, rounded, is one more than the decimal's
        x = 36853795956692.77
        assert np.rint(x * 100) == 3685379595669278
        grid, scale = partition_matrix([[x, 0], [0, 1]])._exact
        assert scale == 100 and grid.dtype == np.float64
        assert grid[0, 0] == 3685379595669277 and grid[1, 1] == 100

    def test_each_distinct_value_is_weighed_by_its_count(self):
        # -0.0 and 0.0 are one value; the tenths and the 2**52 / 10 entry
        # repeat, and each copy adds to the total
        big = 450359962737049.6
        entries = [[-0.0, 0.1, 0.0, 0.1], [0.1, -0.3, 0.0, -0.0], [-0.3, 0.1, 0.7, -0.0]]
        grid, scale = partition_matrix(entries)._exact
        assert (scale, grid.dtype) == (10, np.float32)
        assert grid.tolist() == [[0, 1, 0, 1], [1, -3, 0, 0], [-3, 1, 7, 0]]
        entries[0][0] = big  # a total of 2**52 + 17
        grid, scale = partition_matrix(entries)._exact
        assert (scale, grid.dtype, grid[0, 0]) == (10, np.float64, 2**52)
        assert grid[1:].tolist() == [[1, -3, 0, 0], [-3, 1, 7, 0]]
        entries[2][3] = big
        with pytest.raises(ModelValidationError, match="below 2\\^53") as err:
            partition_matrix(entries)._exact
        assert "scale 10 sum to 9007199254741009 " in str(err.value)  # 2**53 + 17

    @pytest.mark.parametrize(
        "entries, dtype",
        [
            ([[0.5, 2**23 - 1.0], [0, 0]], np.float32),  # 1 + 2**24 - 2
            ([[0.5, 2**23 - 0.5], [0, 0]], np.float64),  # 1 + 2**24 - 1
            ([[2**23 - 1, -(2**23)], [0, 0]], np.float32),  # scale 1
            ([[2**23, -(2**23)], [0, 0]], np.float64),
        ],
    )
    def test_float64_from_a_scaled_total_of_2_24(self, entries, dtype):
        assert partition_matrix(entries)._exact[0].dtype == dtype

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[0.3333333333333333] * 3] * 3, "scale 10000000000000000 sum to "
             "29999999999999997"),
            ([[2.0**52, -(2.0**52)], [0, 0]], "scale 1 sum to 9007199254740992"),
            ([[5e-324, 1]], "scale 2" + "0" * 323),  # a scale past 2**53
            ([[np.inf, 0.5]], "scale 1 sum to inf"),
            ([[np.nan, 0.5]], "scale 1 sum to nan"),
        ],
    )
    def test_maps_past_exact_sums_are_refused(self, entries, message):
        m = partition_matrix(entries)
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ModelValidationError, match="below 2\\^53") as err:
                m._exact
            assert message in str(err.value)


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
    again = partition_matrix(m.flatten(), m.row_partition.cuts, m.col_partition.cuts)
    assert again == m
