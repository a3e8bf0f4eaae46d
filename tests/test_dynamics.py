import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymaps import (
    Attractor,
    Comparator,
    Direction,
    FirstStepMode,
    Partition,
    PatternKind,
    Side,
    StateVector,
    SuperMatrix,
    ThresholdPolicy,
    ThresholdRule,
    apply_threshold,
    apply_update,
    enumerate_attractors,
    run_hidden_pattern,
    special_product,
    step,
    sweep_unit_seeds,
)
from fuzzymaps import dynamics
from fuzzymaps.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    StateSpaceTooLarge,
    StepLimitExceeded,
)

from _util import bits, canonical, pattern_cycle_masks, seed_state

GT0 = ThresholdRule(Comparator.GT, 0)
GE2 = ThresholdRule(Comparator.GE, 2)

# 12x5 worked product example, row blocks [3,4,2,3]
PROD_12X5 = SuperMatrix(
    np.array(
        [
            [0, 1, 0, 1, 0],
            [1, 1, 0, 0, 1],
            [0, 1, 0, 1, 1],
            [-1, 1, 1, 1, 0],
            [0, -1, 0, 1, 1],
            [1, 0, 1, 1, 1],
            [1, 0, 1, 1, 1],
            [-1, 0, 1, 1, 1],
            [0, 1, 1, 1, 0],
            [0, 1, 0, 1, 1],
            [1, 1, 1, 1, 1],
            [0, 1, 1, 0, 1],
        ],
        float,
    ),
    Partition([3, 4, 2, 3]),
    Partition([5]),
)

# 5x12 demonstration map: attributes by expert groups [3,4,5]
GROUPS_5X12 = SuperMatrix(
    np.array(
        [
            [1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0],
            [1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0],
            [1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0],
            [0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1],
        ],
        float,
    ),
    Partition([5]),
    Partition([3, 4, 5]),
)

# 12x6 demonstration map: expert groups [5,3,4] by attributes
EXPERTS_12X6 = SuperMatrix(
    np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
        ],
        float,
    ),
    Partition([5, 3, 4]),
    Partition([6]),
)

GT0_POLICY = ThresholdPolicy(GT0, GT0)


class TestSpecialProduct:
    def test_forward_golden(self):
        x = bits("100 0001 01 010")
        raw = special_product(x, PROD_12X5, Direction.FORWARD)
        assert raw.as_tuple() == (2, 3, 3, 4, 2)
        assert raw.partition == PROD_12X5.col_partition

    def test_backward_golden(self):
        raw = special_product([1] * 5, PROD_12X5, Direction.BACKWARD)
        assert raw.as_tuple() == (2, 3, 3, 2, 1, 4, 4, 2, 3, 3, 5, 3)
        assert raw.partition == PROD_12X5.row_partition

    def test_zero_vector(self):
        raw = special_product([0] * 12, PROD_12X5, Direction.FORWARD)
        assert raw.as_tuple() == (0, 0, 0, 0, 0)

    def test_unit_seed_reads_row(self):
        e1 = [1, 0, 0, 0, 0]
        raw = special_product(e1, GROUPS_5X12, Direction.FORWARD)
        assert raw.as_tuple() == tuple(GROUPS_5X12.entries[0])

    def test_unit_seed_reads_column(self):
        e3 = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        raw = special_product(e3, GROUPS_5X12, Direction.BACKWARD)
        assert raw.as_tuple() == tuple(GROUPS_5X12.entries[:, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            special_product([1, 0], PROD_12X5, Direction.FORWARD)
        with pytest.raises(DimensionMismatch):
            special_product([1, 0], PROD_12X5, Direction.BACKWARD)


class TestThreshold:
    def test_ge2_golden(self):
        raw = (3, 3, 3, 1, 3, 1, 3, 3, 3, 3, 3, 3, 2, 4)
        assert tuple(apply_threshold(raw, GE2)) == bits("11101011111111")

    def test_binary_fixed_by_gt0(self):
        raw = (1, 0, 1, 1, 0)
        assert tuple(apply_threshold(raw, GT0)) == raw

    def test_negative_raws(self):
        assert tuple(apply_threshold((-4, 0, 1), ThresholdRule(Comparator.GE, 1))) == (0, 0, 1)

    def test_boundary_ge_vs_gt(self):
        raw = (2, 2.5)
        assert tuple(apply_threshold(raw, GE2)) == (1, 1)
        assert tuple(apply_threshold(raw, ThresholdRule(Comparator.GT, 2))) == (0, 1)


class TestUpdate:
    def test_forces_seed_coordinate(self):
        assert tuple(apply_update(bits("010010"), [0])) == bits("110010")

    def test_empty_forced_set(self):
        assert tuple(apply_update(bits("0101"), [])) == bits("0101")

    def test_already_on(self):
        assert tuple(apply_update(bits("100"), [0])) == bits("100")

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            apply_update(bits("10"), [5])


class TestStep:
    def seed(self):
        return StateVector(
            bits("00010 010 0001"), Side.DOMAIN, EXPERTS_12X6.row_partition
        )

    def test_first_forward(self):
        rec = step(EXPERTS_12X6, self.seed(), GT0_POLICY, self.seed(), 1)
        assert rec.produced_side is Side.RANGE
        assert rec.raw == (1, 1, 0, 1, 2, 0)
        assert rec.after_update == bits("110110")

    def test_second_backward(self):
        state = StateVector(bits("110110"), Side.RANGE, EXPERTS_12X6.col_partition)
        rec = step(EXPERTS_12X6, state, GT0_POLICY, self.seed(), 2)
        assert rec.produced_side is Side.DOMAIN
        assert rec.raw == (1, 1, 0, 2, 0, 2, 2, 0, 0, 1, 0, 1)
        assert rec.after_update == bits("11010 110 0101")

    def test_zero_state_stays_zero(self):
        zero = StateVector.zeros(Side.DOMAIN, EXPERTS_12X6.row_partition)
        rec = step(EXPERTS_12X6, zero, GT0_POLICY, zero, 1)
        assert rec.after_update == (0,) * 6

    def test_update_dominates_threshold(self):
        rec = step(EXPERTS_12X6, self.seed(), GT0_POLICY, self.seed(), 1)
        assert all(a >= t for a, t in zip(rec.after_update, rec.thresholded))


class TestHiddenPattern:
    def test_all_ones_fixed_pair(self):
        seed = seed_state(1, Side.DOMAIN, GROUPS_5X12.row_partition)
        hp = run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY)
        assert hp.kind is PatternKind.FIXED_POINT
        d, r = hp.fixed_pair
        assert d.bits == (1,) * 5
        assert r.bits == (1,) * 12

    def test_expert_seed_fixed_pair(self):
        seed = StateVector(
            bits("00010 010 0001"), Side.DOMAIN, EXPERTS_12X6.row_partition
        )
        hp = run_hidden_pattern(EXPERTS_12X6, seed, GT0_POLICY)
        d, r = hp.fixed_pair
        assert d.bits == bits("11010 110 0101")
        assert r.bits == bits("110110")

    def test_fixed_point_replays(self):
        seed = StateVector(
            bits("00010 010 0001"), Side.DOMAIN, EXPERTS_12X6.row_partition
        )
        hp = run_hidden_pattern(EXPERTS_12X6, seed, GT0_POLICY)
        d, r = hp.fixed_pair
        fwd = step(EXPERTS_12X6, d, GT0_POLICY, seed, 99)
        assert fwd.after_update == r.bits
        bwd = step(EXPERTS_12X6, r, GT0_POLICY, seed, 99)
        assert bwd.after_update == d.bits

    def test_limit_cycle_ping_pong(self):
        # mutual inhibition flips the pair state each product
        m = SuperMatrix.simple([[-1, 1], [1, -1]])
        seed = seed_state(1, Side.DOMAIN, m.row_partition)
        hp = run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)
        assert hp.kind is PatternKind.LIMIT_CYCLE
        assert hp.period == 2
        states = {pair[0].bits for pair in hp.pair_sequence}
        assert states == {bits("11"), bits("10")}

    def test_cycle_replays_in_order(self):
        m = SuperMatrix.simple([[-1, 1], [1, -1]])
        seed = seed_state(1, Side.DOMAIN, m.row_partition)
        hp = run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)
        for k, (d, _) in enumerate(hp.pair_sequence):
            nxt = hp.pair_sequence[(k + 1) % hp.period][0]
            rec = step(m, d, GT0_POLICY, seed, 99, one_sided=True)
            assert rec.after_update == nxt.bits

    def test_step_limit(self):
        seed = seed_state(1, Side.DOMAIN, GROUPS_5X12.row_partition)
        with pytest.raises(StepLimitExceeded):
            run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY, max_steps=2)

    def test_max_steps_validation(self):
        seed = seed_state(1, Side.DOMAIN, GROUPS_5X12.row_partition)
        with pytest.raises(ValueError):
            run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY, max_steps=1)

    def test_antisymmetric_two_node_matches_enumeration(self):
        m = SuperMatrix.simple([[0, 1], [-1, 0]])
        census = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        assert sum(census.basin_sizes()) == 4
        for mask in range(4):
            seed = seed_state(mask, Side.DOMAIN, m.row_partition)
            hp = run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)
            got = canonical(pattern_cycle_masks(hp, Side.DOMAIN))
            assert got == census.attractor_of(mask).states


class TestSweep:
    def test_matches_individual_runs(self):
        results = sweep_unit_seeds(EXPERTS_12X6, Side.RANGE, GT0_POLICY)
        assert len(results) == 6
        for i, hp in results:
            seed = seed_state(1 << i, Side.RANGE, EXPERTS_12X6.col_partition)
            again = run_hidden_pattern(
                EXPERTS_12X6, seed, GT0_POLICY, record_trace=False
            )
            assert again.pair_sequence == hp.pair_sequence

    def test_one_by_one_zero_model(self):
        m = SuperMatrix.simple([[0.0]])
        results = sweep_unit_seeds(m, Side.DOMAIN, GT0_POLICY)
        ((_, hp),) = results
        d, r = hp.fixed_pair
        assert d.bits == (1,)  # the seed stays forced on
        assert r.bits == (0,)  # nothing propagates


def _random_rule(rng) -> ThresholdRule:
    cmp = Comparator(str(rng.choice(["ge", "gt"])))
    return ThresholdRule(cmp, int(rng.integers(0, 3)))


def _side_width(m: SuperMatrix, side: Side) -> int:
    return m.n_rows if side is Side.DOMAIN else m.n_cols


def _assert_census_matches_engine(m, side, policy, one_sided, masks, label):
    """The census contract, and the engine's cycle for each seed in masks."""
    census = enumerate_attractors(m, side, policy, one_sided=one_sided)
    part = m.row_partition if side is Side.DOMAIN else m.col_partition
    counts = np.bincount(census.assignment)
    assert census.basin_sizes() == tuple(counts.tolist())
    assert sum(census.basin_sizes()) == 1 << part.total
    # attractor k is first reached by a smaller seed than k + 1
    _, first = np.unique(census.assignment, return_index=True)
    assert len(first) == len(census.attractors)
    assert (np.diff(first) > 0).all()
    for mask in masks:
        hp = run_hidden_pattern(
            m,
            seed_state(mask, side, part),
            policy,
            one_sided=one_sided,
            record_trace=False,
        )
        got = canonical(pattern_cycle_masks(hp, side))
        assert got == census.attractor_of(mask).states, (
            f"{label}, {side.value} seed {mask}"
        )


class TestEnumeration:
    def test_basins_sum_expert_model(self):
        census = enumerate_attractors(EXPERTS_12X6, Side.RANGE, GT0_POLICY)
        assert census.n_seeds == 64
        assert sum(census.basin_sizes()) == 64

    def test_zero_matrix(self):
        m = SuperMatrix.simple(np.zeros((3, 4)))
        census = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY)
        assert sum(census.basin_sizes()) == 8
        for mask in range(8):
            a = census.attractor_of(mask)
            assert a.period == 1
            assert a.states == (mask,)  # forced seed bits, zero opposite side

    def test_agrees_with_engine(self):
        census = enumerate_attractors(GROUPS_5X12, Side.DOMAIN, GT0_POLICY)
        assert census.n_seeds == 32
        for mask in range(32):
            seed = seed_state(mask, Side.DOMAIN, GROUPS_5X12.row_partition)
            hp = run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY)
            got = canonical(pattern_cycle_masks(hp, Side.DOMAIN))
            assert got == census.attractor_of(mask).states

    def test_cycles_sharing_a_minimum_stay_apart(self):
        # two period-2 cycles pass through state 11; grouping seeds by the
        # cycle minimum alone would merge them into one attractor
        m = SuperMatrix.simple(
            [[0, -1, 0, 1], [0, -1, 0, -1], [1, 1, -1, 0], [1, 1, 1, 0]]
        )
        census = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        cycles = [a.states for a in census.attractors if a.period == 2]
        assert (11, 13) in cycles and (11, 15) in cycles
        for mask in range(16):
            seed = seed_state(mask, Side.DOMAIN, m.row_partition)
            hp = run_hidden_pattern(
                m, seed, GT0_POLICY, one_sided=True, record_trace=False
            )
            got = canonical(pattern_cycle_masks(hp, Side.DOMAIN))
            assert got == census.attractor_of(mask).states, f"seed {mask}"

    @pytest.mark.parametrize("mode", list(FirstStepMode))
    def test_agrees_with_engine_in_every_first_step_mode(self, mode):
        rng = np.random.default_rng(20260)
        for trial in range(16):
            one_sided = trial % 2 == 0
            rows = int(rng.integers(2, 7))
            cols = rows if one_sided else int(rng.integers(2, 7))
            m = SuperMatrix.simple(
                rng.integers(-1, 2, size=(rows, cols)).astype(float)
            )
            policy = ThresholdPolicy(
                _random_rule(rng), _random_rule(rng), _random_rule(rng), mode
            )
            sides = [Side.DOMAIN] if one_sided else [Side.DOMAIN, Side.RANGE]
            for side in sides:
                n = _side_width(m, side)
                _assert_census_matches_engine(
                    m, side, policy, one_sided, range(1 << n), f"trial {trial}"
                )

    @pytest.mark.parametrize("mode", list(FirstStepMode))
    def test_agrees_with_engine_across_the_chunk_boundary(self, mode):
        # the round table is built in chunks of 2**16 masks from separate
        # sums over the low 16 seed bits and the bits above them, so these
        # seeds all have a bit above 15 set
        rng = np.random.default_rng(1718)
        for one_sided, shape in ((True, (18, 18)), (False, (17, 18))):
            m = SuperMatrix.simple(rng.integers(-1, 2, size=shape).astype(float))
            # a larger first-step cutoff extinguishes every unit seed's row
            policy = ThresholdPolicy(_random_rule(rng), _random_rule(rng), GT0, mode)
            sides = [Side.DOMAIN] if one_sided else [Side.DOMAIN, Side.RANGE]
            for side in sides:
                n = _side_width(m, side)
                high = [1 << i for i in range(16, n)] + [(1 << n) - 1]
                sampled = rng.integers(1 << 16, 1 << n, size=200).tolist()
                _assert_census_matches_engine(
                    m, side, policy, one_sided, high + sampled, f"{shape}"
                )

    def test_attractor_of_rejects_foreign_seeds(self):
        census = enumerate_attractors(GROUPS_5X12, Side.DOMAIN, GT0_POLICY)
        for mask in (-1, 32, 1 << 40):
            with pytest.raises(IndexOutOfRange):
                census.attractor_of(mask)
        # the range side, with its own 12 nodes or the domain's 5, and the
        # 5 domain nodes under other blocks
        for seed in (
            seed_state(1, Side.RANGE, GROUPS_5X12.col_partition),
            seed_state(1, Side.RANGE, GROUPS_5X12.row_partition),
            seed_state(1, Side.DOMAIN, Partition([2, 3])),
        ):
            with pytest.raises(DimensionMismatch):
                census.attractor_of(seed)
        seed = seed_state(31, Side.DOMAIN, GROUPS_5X12.row_partition)
        assert census.attractor_of(seed) == census.attractor_of(31)

    def test_columns_and_view(self, monkeypatch):
        built = []

        class Counted(Attractor):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(dynamics, "Attractor", Counted)
        m = SuperMatrix.simple(
            [[0, -1, 0, 1], [0, -1, 0, -1], [1, 1, -1, 0], [1, 1, 1, 0]]
        )
        census = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        view = census.attractors
        assert built == []  # the census and its view build no Attractor
        assert len(view) == len(census.periods) == len(census.offsets) - 1
        assert hash(view) == hash(census.attractors)
        assert built == []
        listed = list(view)
        assert len(built) == len(view)
        for k, a in enumerate(listed):
            lo, hi = census.offsets[k], census.offsets[k + 1]
            assert a == view[k] == view[k - len(view)]
            assert a.states == tuple(census.states[lo:hi].tolist())
            assert all(type(s) is int for s in a.states)
            assert (a.period, a.basin_size) == (census.periods[k], census.basins[k])
            assert a.kind is PatternKind.of_period(a.period)
        assert view[1:3] == tuple(listed[1:3])
        with pytest.raises(IndexError):
            view[len(view)]
        for column in (census.states, census.assignment):
            with pytest.raises(ValueError):
                column[0] = 1  # the columns are read-only
        again = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        assert again.attractors == view and hash(again.attractors) == hash(view)
        other = enumerate_attractors(m, Side.DOMAIN, ThresholdPolicy(GE2, GE2),
                                     one_sided=True)
        assert other.attractors != view

    def test_state_space_guard(self):
        census_limit = 1 << 3
        with pytest.raises(StateSpaceTooLarge):
            enumerate_attractors(
                EXPERTS_12X6, Side.DOMAIN, GT0_POLICY, state_limit=census_limit
            )


# --- randomized invariants ---------------------------------------------------


@st.composite
def matrices_with_vectors(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    row_cut_space = list(range(1, n_rows)) if n_rows > 1 else []
    col_cut_space = list(range(1, n_cols)) if n_cols > 1 else []
    row_cuts = draw(st.lists(st.sampled_from(row_cut_space), unique=True)) if row_cut_space else []
    col_cuts = draw(st.lists(st.sampled_from(col_cut_space), unique=True)) if col_cut_space else []
    from fuzzymaps import partition_matrix

    m = partition_matrix(np.array(rows, float), sorted(row_cuts), sorted(col_cuts))
    x = draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows))
    y = draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows))
    return m, np.array(x, float), np.array(y, float)


@given(matrices_with_vectors())
def test_product_equals_flat_multiply(case):
    m, x, _ = case
    got = special_product(x, m, Direction.FORWARD)
    assert np.array_equal(got.entries, x @ m.flatten())
    assert got.partition == m.col_partition


@given(matrices_with_vectors())
def test_product_linearity(case):
    m, x, y = case
    lhs = special_product(x + y, m, Direction.FORWARD).entries
    rhs = (
        special_product(x, m, Direction.FORWARD).entries
        + special_product(y, m, Direction.FORWARD).entries
    )
    assert np.array_equal(lhs, rhs)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_threshold_idempotent_on_binary(raw):
    for rule in (GT0, ThresholdRule(Comparator.GE, 1)):
        once = apply_threshold(raw, rule)
        assert tuple(once) == tuple(raw)
        assert tuple(apply_threshold(once, rule)) == tuple(raw)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
    st.data(),
)
def test_update_dominance(bits_in, data):
    forced = data.draw(
        st.lists(st.integers(0, len(bits_in) - 1), unique=True)
    )
    out = apply_update(bits_in, forced)
    for i, (a, b) in enumerate(zip(out, bits_in)):
        assert a >= b
        if i not in forced:
            assert a == b


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_pair_soundness_replays_on_random_models(rng_seed):
    """Every reported pair must replay: one forward product from the domain
    member yields the range member, and one backward product from the range
    member yields the next pair's domain member (seed forcing included)."""
    rng = np.random.default_rng(rng_seed)
    rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    m = SuperMatrix.simple(rng.integers(-2, 3, size=(rows, cols)).astype(float))
    policy = ThresholdPolicy(
        ThresholdRule(Comparator.GT, int(rng.integers(0, 2))),
        ThresholdRule(Comparator.GT, int(rng.integers(0, 2))),
    )
    for side, part in ((Side.DOMAIN, m.row_partition), (Side.RANGE, m.col_partition)):
        mask = int(rng.integers(0, 1 << part.total))
        seed = seed_state(mask, side, part)
        hp = run_hidden_pattern(m, seed, policy, record_trace=False)
        for k, (d, r) in enumerate(hp.pair_sequence):
            fwd = step(m, d, policy, seed, 99)
            assert fwd.after_update == r.bits
            bwd = step(m, r, policy, seed, 99)
            next_d = hp.pair_sequence[(k + 1) % hp.period][0]
            assert bwd.after_update == next_d.bits


@given(st.integers(0, (1 << 8) - 1), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_termination_and_determinism_random_8_node(seed_mask, rng_seed):
    rng = np.random.default_rng(rng_seed)
    m = SuperMatrix.simple(rng.integers(-1, 2, size=(8, 8)).astype(float))
    policy = ThresholdPolicy(
        ThresholdRule(Comparator.GT, int(rng.integers(0, 3))),
        ThresholdRule(Comparator.GT, int(rng.integers(0, 3))),
    )
    seed = seed_state(seed_mask, Side.DOMAIN, m.row_partition)
    hp1 = run_hidden_pattern(m, seed, policy, one_sided=True)
    hp2 = run_hidden_pattern(m, seed, policy, one_sided=True)
    assert hp1 == hp2
    seed_side_visits = sum(
        1 for rec in hp1.trace if rec.produced_side is Side.DOMAIN
    )
    assert seed_side_visits <= 2**8 + 1
