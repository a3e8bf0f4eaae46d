import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzymaps import (
    FIXTURE_NAMES,
    Attractor,
    Comparator,
    Direction,
    EntryDomain,
    FirstStepMode,
    ModelKind,
    ModelSpec,
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
    load_fixture,
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

from _util import bits, canonical, pattern_cycle_masks, seed_state, stepped_pattern

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


class TestStateVector:
    def test_rejects_bits_other_than_zero_and_one(self):
        with pytest.raises(ValueError):
            StateVector((0, 2), Side.DOMAIN, Partition([2]))

    @pytest.mark.parametrize("given", [(0.5, 1.9), (0, 1.5), ("0", "1")])
    def test_rejects_bits_that_int_would_change(self, given):
        with pytest.raises(ValueError, match="state bits must be 0 or 1"):
            StateVector(given, Side.DOMAIN, Partition([2]))

    def test_accepts_integral_bits_of_any_number_type(self):
        state = StateVector((1.0, np.uint8(0), True), Side.DOMAIN, Partition([3]))
        assert state.bits == (1, 0, 1)
        assert all(type(b) is int for b in state.bits)

    def test_rejects_a_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StateVector((0, 1, 1), Side.DOMAIN, Partition([2]))

    def test_engine_built_states_equal_checked_ones(self):
        # from_on_indices and the engine's pairs skip the bit checks
        part = Partition([2, 3])
        built = StateVector.from_on_indices([4, 0], "range", part)
        checked = StateVector((1, 0, 0, 0, 1), Side.RANGE, part)
        assert built == checked and hash(built) == hash(checked)
        assert built.side is Side.RANGE
        assert all(type(b) is int for b in built.bits)
        with pytest.raises(IndexOutOfRange):
            StateVector.from_on_indices([5], Side.RANGE, part)
        seed = seed_state(0b10110, Side.RANGE, EXPERTS_12X6.col_partition)
        hp = run_hidden_pattern(EXPERTS_12X6, seed, GT0_POLICY)
        for pair in hp.pair_sequence:
            for state in pair:
                assert all(type(b) is int for b in state.bits)
                assert state == StateVector(state.bits, state.side, state.partition)


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


def _stepped(matrix, seed, policy, one_sided, products):
    """The records of ``products`` calls of the public :func:`step`."""
    records, state = [], seed
    for k in range(1, products + 1):
        rec = step(matrix, state, policy, seed, k, one_sided=one_sided)
        records.append(rec)
        part = (
            matrix.row_partition
            if rec.produced_side is Side.DOMAIN
            else matrix.col_partition
        )
        state = StateVector(rec.after_update, rec.produced_side, part)
    return tuple(records)


def _assert_trace_is_stepped(matrix, seed, policy, one_sided):
    hp = run_hidden_pattern(matrix, seed, policy, one_sided=one_sided)
    assert hp.trace == _stepped(matrix, seed, policy, one_sided, len(hp.trace))
    # the run stops at the first seed-side state seen twice
    seen = [r.after_update for r in hp.trace if r.produced_side is seed.side]
    assert len(set(seen)) == len(seen) - 1
    first = seen.index(seen[-1])
    assert (hp.steps_to_enter, hp.period) == (first, len(seen) - 1 - first)
    return hp


def _fuzzy_spec() -> ModelSpec:
    rng = np.random.default_rng(4242)
    entries = np.round(rng.random((9, 7)) * (rng.random((9, 7)) < 0.4), 1)
    spec = ModelSpec(
        name="fuzzy",
        kind=ModelKind.SUPER_FRM,
        domain_labels=(tuple("abcd"), tuple("efghi")),
        range_labels=(tuple("pqr"), tuple("stuv")),
        matrix=SuperMatrix(entries, Partition([4, 5]), Partition([3, 4])),
        entry_domain=EntryDomain.FUZZY_UNIT,
        policy=ThresholdPolicy(
            ThresholdRule(Comparator.GE, 0.3), ThresholdRule(Comparator.GT, 0.6)
        ),
    )
    assert spec.diagnostics == ()
    return spec


class TestEngineCore:
    """The array core against the public per-product seam functions."""

    @pytest.mark.parametrize("mode", list(FirstStepMode))
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_trace_equals_stepped_records(self, name, mode):
        spec = load_fixture(name)
        policy = replace(spec.policy, first_step_mode=mode)
        rng = np.random.default_rng(len(name))
        sides = [Side.DOMAIN] if spec.one_sided else [Side.DOMAIN, Side.RANGE]
        for side in sides:
            part = spec.side_partition(side)
            n = part.total
            seeds = [[i] for i in range(n)] + [
                sorted(rng.choice(n, size=k, replace=False).tolist()) for k in (2, 3)
            ]
            for on in seeds:
                seed = StateVector.from_on_indices(on, side, part)
                _assert_trace_is_stepped(spec.matrix, seed, policy, spec.one_sided)

    def test_trace_equals_stepped_records_on_fuzzy_entries(self):
        spec = _fuzzy_spec()
        for side in (Side.DOMAIN, Side.RANGE):
            part = spec.side_partition(side)
            for mask in range(1, 1 << min(part.total, 7)):
                seed = seed_state(mask, side, part)
                _assert_trace_is_stepped(spec.matrix, seed, spec.policy, False)

    @pytest.mark.parametrize(
        "name, side, one_sided",
        [
            ("sec_2_5_fcm", Side.DOMAIN, True),
            ("sec_2_5_fcm", Side.RANGE, True),
            ("sec_2_2", Side.DOMAIN, False),
            ("sec_2_2", Side.RANGE, False),
        ],
    )
    def test_max_steps_boundary(self, name, side, one_sided):
        spec = load_fixture(name)
        m, part = spec.matrix, spec.side_partition(side)
        runs = []
        for i in range(part.total):
            seed = StateVector.from_on_indices([i], side, part)
            hp = run_hidden_pattern(m, seed, spec.policy, one_sided=one_sided)
            runs.append((len(hp.trace), seed, hp))
        # the longest unit-seed run, so that k - 1 is a valid cap
        k, seed, hp = max(runs, key=lambda r: r[0])
        assert k >= 3
        capped = run_hidden_pattern(
            m, seed, spec.policy, max_steps=k, one_sided=one_sided
        )
        assert capped == hp
        with pytest.raises(StepLimitExceeded, match="max_steps"):
            run_hidden_pattern(
                m, seed, spec.policy, max_steps=k - 1, one_sided=one_sided
            )

    def test_sweep_rows_equal_single_runs_on_fuzzy_model(self):
        spec = _fuzzy_spec()
        for side in (Side.DOMAIN, Side.RANGE):
            part = spec.side_partition(side)
            rows = sweep_unit_seeds(spec.matrix, side, spec.policy)
            assert [i for i, _ in rows] == list(range(part.total))
            # rows leave the block at different products
            assert len({hp.steps_to_enter + hp.period for _, hp in rows}) > 1
            for i, hp in rows:
                seed = StateVector.from_on_indices([i], side, part)
                assert hp == run_hidden_pattern(
                    spec.matrix, seed, spec.policy, record_trace=False
                )
                assert hp == stepped_pattern(spec.matrix, seed, spec.policy, False, False)
                traced = run_hidden_pattern(spec.matrix, seed, spec.policy)
                assert traced == stepped_pattern(spec.matrix, seed, spec.policy, False, True)

    def test_peak_memory_of_a_long_two_sided_run(self):
        # a chain lights one more node a round: 398 rounds to its fixed
        # pair; a row keeps only its packed seed-side states
        n = 400
        m = SuperMatrix.simple(np.eye(n) + np.eye(n, k=-1))
        seed = StateVector.from_on_indices([0], Side.DOMAIN, m.row_partition)
        hp, peak = _traced_peak(
            lambda: run_hidden_pattern(m, seed, GT0_POLICY, record_trace=False)
        )
        assert (hp.steps_to_enter, hp.period) == (n - 2, 1)
        assert hp.fixed_pair[0].bits == (1,) * n
        assert peak <= 88 * 2**10

    def test_peak_memory_of_a_two_sided_chain_sweep(self):
        # all 200 rows' histories are alive at once, seed side only; the
        # lit run grows both ways until every node is on
        m = SuperMatrix.simple(np.eye(200) + np.eye(200, k=-1))
        rows, peak = _traced_peak(
            lambda: sweep_unit_seeds(m, Side.DOMAIN, GT0_POLICY)
        )
        assert [hp.steps_to_enter for _, hp in rows] == [
            max(198 - i, i - 1) for i in range(200)
        ]
        assert {hp.fixed_pair[0].bits for _, hp in rows} == {(1,) * 200}
        assert peak <= 4 * 2**20

    def test_peak_memory_of_a_one_sided_sweep(self):
        # sparse signed map: 740 cycle states over its rows, the longest
        # cycle of period 35; each state becomes its tuple without a list
        # of n ints beside it
        n, rng = 200, random.Random(0)
        m = SuperMatrix.simple(
            [
                [
                    rng.choice((-1.0, 1.0)) if i != j and rng.random() < 3 / n else 0.0
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        rows, peak = _traced_peak(
            lambda: sweep_unit_seeds(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        )
        periods = [hp.period for _, hp in rows]
        assert (sum(periods), max(periods)) == (740, 35)
        assert peak <= 2.2 * 2**20

    @pytest.mark.parametrize("side", list(Side))
    def test_two_sided_pairs_of_a_period_2_cycle_follow_step(self, side):
        # no two-sided run reaches a limit cycle, so the pairing rule is
        # checked on a hand-built cycle: from the domain side each state
        # pairs with its across product; from the range side a pair's
        # domain member is the across product of the previous pair's range
        # member
        m = SuperMatrix.simple(
            np.array([[1, 1, 0, -1], [0, 1, 1, 1], [1, 0, 1, 1]], dtype=float)
        )
        policy = ThresholdPolicy(GT0, GE2)  # across results differ by rule
        if side is Side.DOMAIN:
            part, cycle = m.row_partition, [bits("110"), bits("011")]
        else:
            part, cycle = m.col_partition, [bits("1100"), bits("0011")]
        seed = StateVector.zeros(side, part)

        def across(state_bits):  # one product from the seed's side, not the first
            state = StateVector(state_bits, side, part)
            return step(m, state, policy, seed, 2).after_update

        assert across(cycle[0]) != across(cycle[1])
        keys = [np.packbits(c).tobytes() for c in cycle]
        forward = side is Side.DOMAIN
        move = dynamics._move(
            m, forward, side.opposite, policy.rule_for(side.opposite), False
        )
        (hp,) = dynamics._patterns(m, side, [(3, keys)], move, [])
        assert (hp.kind, hp.period, hp.steps_to_enter, hp.trace) == (
            PatternKind.LIMIT_CYCLE, 2, 3, None
        )
        pairs = hp.pair_sequence
        for (d, r), (_, before) in zip(pairs, pairs[-1:] + pairs[:-1]):
            assert (d.side, r.side) == (Side.DOMAIN, Side.RANGE)
            assert (d.partition, r.partition) == (m.row_partition, m.col_partition)
            if side is Side.DOMAIN:
                assert r.bits == across(d.bits)
            else:
                assert d.bits == across(before.bits)
        mine = [pair[side is Side.RANGE].bits for pair in pairs]
        assert mine == (cycle if side is Side.DOMAIN else cycle[1:] + cycle[:1])


def _traced_peak(call):
    """``call()``'s result and its peak traced memory, from a second call
    (the first may set up numpy's own state)."""
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExactProduct:
    """Integer maps multiply in float32 against integer-equivalent cutoffs;
    any other map keeps the float64 per-row product."""

    @pytest.mark.parametrize(
        "rule, on",
        [
            (ThresholdRule(Comparator.GT, 2.9999999999), True),
            (ThresholdRule(Comparator.GE, 3.0000000001), False),
        ],
    )
    def test_a_sum_of_3_against_a_near_tie_cutoff(self, rule, on):
        # node 3 sums 3 from the seed: in float32 either cutoff rounds to 3.0
        fcm = np.zeros((4, 4))
        fcm[:3, 3] = 1
        frm = [[1, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1]]
        never = FirstStepMode.NEVER
        cases = [
            (SuperMatrix.simple(fcm), True, ThresholdPolicy(rule, rule), 0b0111),
            (SuperMatrix.simple(frm), False, ThresholdPolicy(rule, GT0), 0b0001),
        ]
        for m, one_sided, policy, mask in cases:
            policy = replace(policy, first_step_mode=never)
            seed = seed_state(mask, Side.DOMAIN, m.row_partition)
            assert m._exact32 is not None
            hp = run_hidden_pattern(m, seed, policy, one_sided=one_sided)
            assert hp == stepped_pattern(m, seed, policy, one_sided, True)
            record = hp.trace[0 if one_sided else 1]
            assert (record.raw[3], record.thresholded[3]) == (3.0, on)
            assert hp.fixed_pair[0].bits[3] == on
            census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=one_sided)
            assert census.attractor_of(seed).states == (mask | on << 3,)

    @pytest.mark.parametrize(
        "entries",
        [
            [[1, 0.5, 0], [0, 1, 1], [1, 1, 0]],  # one entry not an integer
            [[2**23, -1, 0], [0, 0, 2**22], [1, 0, 2**22 - 2]],  # total 2**24
        ],
    )
    def test_other_maps_keep_the_float64_product(self, entries):
        m = SuperMatrix.simple(entries)
        assert m._exact32 is None
        policy = ThresholdPolicy(GT0, ThresholdRule(Comparator.GE, 1.5))
        for side, one_sided in itertools.product(Side, (False, True)):
            part = m.row_partition if side is Side.DOMAIN else m.col_partition
            rows = sweep_unit_seeds(m, side, policy, one_sided=one_sided)
            census = enumerate_attractors(m, side, policy, one_sided=one_sided)
            for mask in range(1 << part.total):
                seed = seed_state(mask, side, part)
                hp = run_hidden_pattern(m, seed, policy, one_sided=one_sided)
                assert hp == stepped_pattern(m, seed, policy, one_sided, True)
                got = canonical(pattern_cycle_masks(hp, side))
                assert got == census.attractor_of(mask).states
                if mask.bit_count() == 1:
                    assert replace(hp, trace=None) == rows[mask.bit_length() - 1][1]

    def test_peak_memory_of_a_two_sided_census(self):
        # 2**18 seeds in chunks of 2**16: each chunk's 0/1 block goes back
        # through the float32 copy, not a float64 cast and product
        rng = np.random.default_rng(18)
        m = SuperMatrix.simple(rng.choice([-1.0, 0.0, 1.0], size=(18, 20)))
        policy = ThresholdPolicy(GT0, ThresholdRule(Comparator.GT, 1))
        census, peak = _traced_peak(
            lambda: enumerate_attractors(m, Side.DOMAIN, policy, state_limit=1 << 18)
        )
        assert census.n_seeds == 1 << 18
        assert peak <= 25 * 2**20


def _path(n: int, backward: bool = False) -> SuperMatrix:
    """A one-sided chain: node i excites i + 1 (i - 1 when ``backward``)."""
    entries = np.eye(n, k=-1 if backward else 1)
    return SuperMatrix.simple(entries)


class TestLockstepSweep:
    """``sweep_unit_seeds`` runs its seeds as one block; rows leave it as
    their patterns close."""

    def test_rows_finish_at_many_rounds(self):
        m = _path(9)
        rows = sweep_unit_seeds(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        # seed i lights one more node a round until node 8 is on
        assert [hp.steps_to_enter for _, hp in rows] == [max(7 - i, 0) for i in range(9)]
        for i, hp in rows:
            seed = seed_state(1 << i, Side.DOMAIN, m.row_partition)
            assert hp == stepped_pattern(m, seed, GT0_POLICY, True, False)
            assert hp.fixed_pair[0].bits == (0,) * i + (1,) * (9 - i)

    @pytest.mark.parametrize("backward", [False, True])
    def test_max_steps_boundary(self, backward):
        m = _path(7, backward)
        rows = sweep_unit_seeds(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        # each row's products, counted by a traced run of its seed alone
        lengths = []
        for i, _ in rows:
            seed = seed_state(1 << i, Side.DOMAIN, m.row_partition)
            hp = run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)
            lengths.append(len(hp.trace))
        k = max(lengths)
        slowest = [i for i, n in enumerate(lengths) if n == k]
        assert slowest == [6 if backward else 0]
        capped = sweep_unit_seeds(
            m, Side.DOMAIN, GT0_POLICY, max_steps=k, one_sided=True
        )
        assert capped == rows
        with pytest.raises(
            StepLimitExceeded,
            match=rf"within {k - 1} products for 1 of 7 unit seeds "
            rf"\(lowest index {slowest[0]}\)",
        ):
            sweep_unit_seeds(
                m, Side.DOMAIN, GT0_POLICY, max_steps=k - 1, one_sided=True
            )
        # a single run's message names no seeds
        seed = seed_state(1 << slowest[0], Side.DOMAIN, m.row_partition)
        with pytest.raises(StepLimitExceeded) as single:
            run_hidden_pattern(m, seed, GT0_POLICY, max_steps=k - 1, one_sided=True)
        assert str(single.value) == (
            f"no seed-side state recurred within {k - 1} products; "
            "raise max_steps (--max-steps) to run longer"
        )

    def test_step_limit_counts_the_seeds_left(self):
        m = _path(8, backward=True)
        cap = 4
        lengths = [
            len(stepped_pattern(m, seed_state(1 << i, Side.DOMAIN, m.row_partition),
                                GT0_POLICY, True).trace)
            for i in range(8)
        ]
        left = [i for i, k in enumerate(lengths) if k > cap]
        assert 1 < len(left) < 8
        with pytest.raises(StepLimitExceeded) as info:
            sweep_unit_seeds(m, Side.DOMAIN, GT0_POLICY, max_steps=cap, one_sided=True)
        assert f"for {len(left)} of 8 unit seeds (lowest index {left[0]})" in str(
            info.value
        )


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

    def test_census_equality_and_hash_by_value(self):
        # a generated dataclass __eq__ would compare the ndarray columns
        # inside a tuple and raise ValueError here
        m = SuperMatrix.simple([[0, 1], [-1, 0]])
        a = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        b = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != a.attractors
        m4 = SuperMatrix.simple(
            [[0, -1, 0, 1], [0, -1, 0, -1], [1, 1, -1, 0], [1, 1, 1, 0]]
        )
        c = enumerate_attractors(m4, Side.DOMAIN, GT0_POLICY, one_sided=True)
        ge2 = ThresholdPolicy(GE2, GE2)
        d = enumerate_attractors(m4, Side.DOMAIN, ge2, one_sided=True)
        assert c != d and hash(c) != hash(d)
        # the same columns on another side are another census
        assert c != replace(c, side=Side.RANGE)

    def test_state_space_guard(self):
        census_limit = 1 << 3
        with pytest.raises(StateSpaceTooLarge):
            enumerate_attractors(
                EXPERTS_12X6, Side.DOMAIN, GT0_POLICY, state_limit=census_limit
            )

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda m: run_hidden_pattern(
                    m,
                    StateVector.from_on_indices([0], Side.DOMAIN, m.row_partition),
                    GT0_POLICY,
                    one_sided=True,
                ),
                "one-sided runs need a square matrix",
            ),
            (
                lambda m: enumerate_attractors(
                    m, Side.DOMAIN, GT0_POLICY, one_sided=True
                ),
                "one-sided enumeration needs a square matrix",
            ),
        ],
        ids=["run", "census"],
    )
    def test_one_sided_needs_a_square_matrix(self, call, message):
        m = SuperMatrix.simple([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(DimensionMismatch) as err:
            call(m)
        assert str(err.value) == message

    def test_matches_reference_across_the_chunk_boundary(self):
        # 17 fuzzy nodes: two table chunks of 2**16 masks, each from the
        # sums over the low 16 seed bits plus those over bit 16
        rng = np.random.default_rng(1717)
        m = SuperMatrix.simple(rng.choice(FUZZY, size=(17, 17)))
        policy = ThresholdPolicy(
            ThresholdRule(Comparator.GT, 0.1 + 0.2),
            ThresholdRule(Comparator.GT, 0.1 + 0.2),
            ThresholdRule(Comparator.GE, 0.3),
            FirstStepMode.ALWAYS,
        )
        census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
        expected = _reference_census(m, Side.DOMAIN, policy, True)
        _assert_census_is(census, *expected)
        # limit cycles of many periods, some sharing their minimum state
        cycles = [c for c in expected[0] if len(c) > 1]
        assert len({len(c) for c in cycles}) > 5
        assert len({(len(c), c[0]) for c in cycles}) < len(cycles)

    def test_peak_memory_of_a_2_18_census(self):
        # no float block of a whole table chunk, no copy of the seeds or
        # start states beside the walk
        spec = load_fixture("sec_2_5_fcm")

        def census():
            return enumerate_attractors(
                spec.matrix, Side.DOMAIN, spec.policy, one_sided=True
            )

        _, peak = _traced_peak(census)
        assert peak <= 20 * 2**20

    def test_census_never_imports_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, about 1 MB of
        # resident memory that no part of the package uses
        script = (
            "import contextlib, io, sys\n"
            "import fuzzymaps, fuzzymaps.cli\n"
            "m = fuzzymaps.SuperMatrix.simple("
            "[[0, -1, 0, 1], [0, -1, 0, -1], [1, 1, -1, 0], [1, 1, 1, 0]])\n"
            "rule = fuzzymaps.ThresholdRule('gt', 0)\n"
            "policy = fuzzymaps.ThresholdPolicy(rule, rule)\n"
            "census = fuzzymaps.enumerate_attractors(m, 'domain', policy, "
            "one_sided=True)\n"
            "assert (census.periods == 2).any()\n"
            "argv = ['attractors', '--json', '--fixture', 'sec_2_4', "
            "'--side', 'domain']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert fuzzymaps.cli.main(argv) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


FUZZY = (0.0, 0.1, 0.2, 0.3, -0.1, -0.2, -0.3)
TERNARY = (-1.0, 0.0, 1.0)
# cutoffs on sums of those entries, 0.1 + 0.2 and 0.6 among them: which side
# of such a cutoff a sum falls on depends on the order of its additions
CUTOFFS = (0.0, 1.0, 2.0, 0.3, 0.1 + 0.2, 0.6, 0.5, -0.1)


def _reference_census(m, side, policy, one_sided):
    """The census computed the plain way: (cycles, assignment).

    A round's first raw sums add the seed-side rows of the set bits in
    increasing order, those below bit 16 and those above separately, then
    the two parts; a two-sided round adds the opposite side's columns back
    the same way.  Each seed walks until a state repeats; its cycle, rotated
    to its minimum state, is looked up in a dict whose insertion order
    numbers the attractors by their smallest seed.
    """
    grid = m.entries if one_sided or side is Side.DOMAIN else m.entries.T
    n, width = grid.shape
    masks = np.arange(1 << n)
    low, high = np.zeros((1 << n, width)), np.zeros((1 << n, width))
    for i in range(n):
        (low if i < 16 else high)[(masks >> i) & 1 == 1] += grid[i]
    raw = low + high

    def round_table(rule):
        bits = rule.compare(raw, rule.cutoff)
        if not one_sided:
            back_rule = policy.rule_for(side)
            back = np.zeros((1 << n, n))
            for j in range(width):
                back[bits[:, j]] += grid[:, j]
            bits = back_rule.compare(back, back_rule.cutoff)
        return (bits.astype(np.int64) << np.arange(n)).sum(axis=1).tolist()

    table = round_table(policy.rule_for(side if one_sided else side.opposite))
    first = round_table(policy.first_step_rule)
    mode = policy.first_step_mode
    cycles: dict = {}
    assignment = []
    for s in range(1 << n):
        takes_first = mode is FirstStepMode.ALWAYS or (
            mode is FirstStepMode.AUTO and bin(s).count("1") == 1
        )
        x = (first if takes_first else table)[s] | s
        seen: dict = {}
        while x not in seen:
            seen[x] = len(seen)
            x = table[x] | s
        cycle = list(seen)[seen[x] :]
        assignment.append(cycles.setdefault(canonical(tuple(cycle)), len(cycles)))
    return list(cycles), assignment


def _assert_census_is(census, cycles, assignment):
    periods = [len(c) for c in cycles]
    assert census.periods.tolist() == periods
    assert census.states.tolist() == [s for c in cycles for s in c]
    assert census.offsets.tolist() == [0, *itertools.accumulate(periods)]
    assert census.assignment.tolist() == assignment
    assert census.basins.tolist() == np.bincount(assignment).tolist()
    for column in census._columns():
        assert column.dtype == np.int64


@st.composite
def census_cases(draw):
    one_sided = draw(st.booleans())
    rows = draw(st.integers(1, 10))
    cols = rows if one_sided else draw(st.integers(1, 10))
    values = draw(st.sampled_from([TERNARY, FUZZY]))
    entries = draw(
        st.lists(st.sampled_from(values), min_size=rows * cols, max_size=rows * cols)
    )
    rule = st.builds(
        ThresholdRule, st.sampled_from(list(Comparator)), st.sampled_from(CUTOFFS)
    )
    policy = ThresholdPolicy(
        draw(rule), draw(rule), draw(rule), draw(st.sampled_from(list(FirstStepMode)))
    )
    side = draw(st.sampled_from(list(Side)))
    m = SuperMatrix.simple(np.array(entries).reshape(rows, cols))
    return m, side, policy, one_sided


@given(census_cases())
@example(
    (
        SuperMatrix.simple(
            [[0, -1, 0, 1], [0, -1, 0, -1], [1, 1, -1, 0], [1, 1, 1, 0]]
        ),
        Side.DOMAIN,
        GT0_POLICY,
        True,
    )
)  # period-2 cycles (11, 13) and (11, 15) share their minimum
@settings(max_examples=150, deadline=None)
def test_census_matches_reference(case):
    m, side, policy, one_sided = case
    census = enumerate_attractors(m, side, policy, one_sided=one_sided)
    _assert_census_is(census, *_reference_census(m, side, policy, one_sided))


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


def _split(draw, total: int) -> Partition:
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=3)) if total > 1 else set()
    bounds = [0, *sorted(cuts), total]
    return Partition([b - a for a, b in zip(bounds, bounds[1:])])


@st.composite
def engine_cases(draw, entry=None, cutoff=st.sampled_from(CUTOFFS)):
    """A map, side, policy, ``one_sided`` and ``record_trace``; entries are
    drawn by ``entry``, or all ternary or all fuzzy when it is ``None``."""
    one_sided = draw(st.booleans())
    rows = draw(st.integers(1, 9))
    cols = rows if one_sided else draw(st.integers(1, 9))
    if entry is None:
        entry = st.sampled_from(draw(st.sampled_from([TERNARY, FUZZY])))
    entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    rule = st.builds(ThresholdRule, st.sampled_from(list(Comparator)), cutoff)
    policy = ThresholdPolicy(
        draw(rule), draw(rule), draw(rule), draw(st.sampled_from(list(FirstStepMode)))
    )
    m = SuperMatrix(
        np.array(entries, float).reshape(rows, cols),
        _split(draw, rows),
        _split(draw, cols),
    )
    side = draw(st.sampled_from(list(Side)))
    return m, side, policy, one_sided, draw(st.booleans())


@given(engine_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_sweep_equals_stepped_reference(case, data):
    _assert_engine_is_stepped(*case, data)


def _assert_engine_is_stepped(m, side, policy, one_sided, trace, data):
    """The unit-seed sweep and one run from a drawn seed equal
    :func:`stepped_pattern`; returns that run, or ``None`` where a unit seed
    reaches the step limit."""
    part = m.row_partition if side is Side.DOMAIN else m.col_partition
    expected = [
        stepped_pattern(m, seed_state(1 << i, side, part), policy, one_sided, False)
        for i in range(part.total)
    ]
    if None in expected:
        with pytest.raises(StepLimitExceeded):
            sweep_unit_seeds(m, side, policy, one_sided=one_sided)
        return None
    rows = sweep_unit_seeds(m, side, policy, one_sided=one_sided)
    assert rows == tuple(enumerate(expected))
    # one run, a block of one row, from any seed, traced or not
    seed = seed_state(data.draw(st.integers(0, (1 << part.total) - 1)), side, part)
    hp = run_hidden_pattern(m, seed, policy, one_sided=one_sided, record_trace=trace)
    assert hp == stepped_pattern(m, seed, policy, one_sided, trace)
    return seed, hp


# integer cutoffs moved by less than float32 resolves, halves, cutoffs past
# every float32-exact sum and past the float32 range
_NEAR_INTEGER = st.one_of(
    st.builds(
        lambda k, d: k + d, st.integers(-4, 4), st.sampled_from((-(2**-30), 2**-30))
    ),
    st.builds(lambda k: k + 0.5, st.integers(-4, 4)),
    st.sampled_from((2**24 + 3.0, -(2**24 + 3.0), 1e40, -1e40)),
)


@given(engine_cases(st.integers(-3, 3), _NEAR_INTEGER), st.data())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error")  # no cutoff overflows float32
def test_exact_product_equals_stepped_reference(case, data):
    # integer maps take the float32 product; near-integer cutoffs would
    # round onto the sums if the float cutoff were compared in float32
    m, side, policy, one_sided, _ = case
    assert m._exact32 is not None
    run = _assert_engine_is_stepped(*case, data)
    if run is not None:
        seed, hp = run
        census = enumerate_attractors(m, side, policy, one_sided=one_sided)
        got = canonical(pattern_cycle_masks(hp, side))
        assert got == census.attractor_of(seed).states


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
