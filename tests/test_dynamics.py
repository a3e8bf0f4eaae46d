import itertools
import math
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
    StepRecord,
    SuperMatrix,
    SuperVector,
    ThresholdPolicy,
    ThresholdRule,
    apply_threshold,
    apply_update,
    build_report,
    enumerate_attractors,
    load_fixture,
    partition_matrix,
    report_to_text,
    run_hidden_pattern,
    run_model,
    seed_from_labels,
    serialize_report,
    special_product,
    step,
    sweep_unit_seeds,
)
from fuzzymaps import dynamics
from fuzzymaps.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ModelValidationError,
    StateSpaceTooLarge,
    StepLimitExceeded,
)

from _util import (
    bits,
    canonical,
    exact,
    exact_pattern,
    pattern_cycle_masks,
    seed_state,
    stepped_pattern,
)

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

# a 6-node fuzzy map whose seed 49 = {0, 4, 5} sums 0.2 + 0.4 + 0.6 = 1.2
# into node 2, just below the cutoff; in float64 the sum is the cutoff
NEAR_TIE_6 = [
    [0.1, 0.3, 0.2, 0, 0, 0.2],
    [0.3, 0.7, 0, 0.2, 0.1, 0],
    [0, 0.6, 0, 0.6, 0.3, 0],
    [0, 0.7, 0.4, 0, 0, 0.7],
    [0.3, 0, 0.4, 0, 0, 0],
    [0, 0.7, 0.6, 0, 0, 0.1],
]
_NEAR_TIE_RULE = ThresholdRule(Comparator.GE, 1.2000000000000002)
NEAR_TIE_POLICY = ThresholdPolicy(
    _NEAR_TIE_RULE, _NEAR_TIE_RULE, first_step_mode=FirstStepMode.NEVER
)


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
        with pytest.raises(DimensionMismatch, match="state must be one-dimensional"):
            special_product(np.ones((1, 12)), PROD_12X5, Direction.FORWARD)

    def test_a_super_vector_multiplies_by_its_entries(self):
        x = SuperVector(np.array([1.0] * 5), GROUPS_5X12.row_partition)
        raw = special_product(x, GROUPS_5X12, Direction.FORWARD)
        assert raw == special_product([1] * 5, GROUPS_5X12, Direction.FORWARD)
        assert raw.as_tuple() == tuple(GROUPS_5X12.entries.sum(axis=0))


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
        m = partition_matrix([[-1, 1], [1, -1]])
        seed = seed_state(1, Side.DOMAIN, m.row_partition)
        hp = run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)
        assert hp.kind is PatternKind.LIMIT_CYCLE
        assert hp.period == 2
        states = {pair[0].bits for pair in hp.pair_sequence}
        assert states == {bits("11"), bits("10")}

    def test_cycle_replays_in_order(self):
        m = partition_matrix([[-1, 1], [1, -1]])
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

    @pytest.mark.parametrize("max_steps", [2.5, float("inf"), 50.0, "50", None])
    def test_max_steps_that_is_not_an_integer(self, max_steps):
        seed = seed_state(1, Side.DOMAIN, GROUPS_5X12.row_partition)
        with pytest.raises(TypeError) as err:
            run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY, max_steps=max_steps)
        assert str(err.value) == f"max_steps must be an integer, got {max_steps!r}"

    def test_max_steps_of_any_integer_type(self):
        seed = seed_state(1, Side.DOMAIN, GROUPS_5X12.row_partition)
        hp = run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY, max_steps=np.int64(50))
        assert hp == run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY, max_steps=50)

    @pytest.mark.parametrize("max_steps", [sys.maxsize, sys.maxsize + 1, 10**30])
    def test_max_steps_above_any_run(self, max_steps):
        seed = seed_state(1, Side.DOMAIN, GROUPS_5X12.row_partition)
        hp = run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY, max_steps=max_steps)
        assert hp == run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY)

    @pytest.mark.parametrize("sizes", [[4], [2, 3]])  # wrong length, other blocks
    def test_seed_partition_must_match_the_matrix(self, sizes):
        seed = seed_state(1, Side.DOMAIN, Partition(sizes))
        with pytest.raises(DimensionMismatch, match="seed partition does not match"):
            run_hidden_pattern(GROUPS_5X12, seed, GT0_POLICY)

    def test_a_limit_cycle_has_no_fixed_pair(self):
        m = partition_matrix([[-1, 1], [1, -1]])
        seed = seed_state(1, Side.DOMAIN, m.row_partition)
        hp = run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)
        with pytest.raises(ValueError, match="not a fixed point"):
            hp.fixed_pair

    def test_antisymmetric_two_node_matches_enumeration(self):
        m = partition_matrix([[0, 1], [-1, 0]])
        census = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        assert census.basins.sum() == 4
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
        m = partition_matrix([[0.0]])
        results = sweep_unit_seeds(m, Side.DOMAIN, GT0_POLICY)
        ((_, hp),) = results
        d, r = hp.fixed_pair
        assert d.bits == (1,)  # the seed stays forced on
        assert r.bits == (0,)  # nothing propagates

    @pytest.mark.parametrize("max_steps", [2.5, float("inf"), 50.0, "50", None])
    def test_max_steps_that_is_not_an_integer(self, max_steps):
        with pytest.raises(TypeError) as err:
            sweep_unit_seeds(EXPERTS_12X6, Side.RANGE, GT0_POLICY, max_steps=max_steps)
        assert str(err.value) == f"max_steps must be an integer, got {max_steps!r}"

    @pytest.mark.parametrize("max_steps", [sys.maxsize, sys.maxsize + 1, 10**30])
    def test_max_steps_above_any_run(self, max_steps):
        rows = sweep_unit_seeds(EXPERTS_12X6, Side.RANGE, GT0_POLICY, max_steps=max_steps)
        assert rows == sweep_unit_seeds(EXPERTS_12X6, Side.RANGE, GT0_POLICY)


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


def _assert_trace_is_stepped(matrix, seed, policy, one_sided, exact_sums=False):
    """The traced run's records are those of :func:`step`, or, with
    ``exact_sums``, those of :func:`exact_pattern`'s walk."""
    hp = run_hidden_pattern(matrix, seed, policy, one_sided=one_sided)
    trace = hp.trace
    if exact_sums:
        stepped = exact_pattern(matrix, seed, policy, one_sided).trace
    else:
        stepped = _stepped(matrix, seed, policy, one_sided, len(trace))
    # a read-only sequence that equals, and hashes as, the tuple of records
    assert trace == stepped and stepped == trace and tuple(trace) == stepped
    assert hash(trace) == hash(stepped)
    assert trace[-1] == stepped[-1] and trace[1:-1:2] == stepped[1:-1:2]
    for k in (len(trace), -len(trace) - 1):
        with pytest.raises(IndexError):
            trace[k]
    # the run stops at the first seed-side state seen twice
    seen = [r.after_update for r in hp.trace if r.produced_side is seed.side]
    assert len(set(seen)) == len(seen) - 1
    first = seen.index(seen[-1])
    assert (hp.steps_to_enter, hp.period) == (first, len(seen) - 1 - first)
    return hp


class TestTrace:
    """A traced run keeps its products as the engine's arrays and builds
    each :class:`StepRecord` as it is read."""

    def test_records_are_built_only_when_read(self, monkeypatch):
        built = []
        filled, init = dynamics._filled, StepRecord.__init__

        def spy_filled(cls, **fields):
            if cls is StepRecord:
                built.append(fields["step_index"])
            return filled(cls, **fields)

        def spy_init(record, *args, **kwargs):
            built.append(None)
            init(record, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_filled", spy_filled)
        monkeypatch.setattr(StepRecord, "__init__", spy_init)
        spec = load_fixture("sec_2_2")
        seed = seed_from_labels(spec, ["S4"], Side.RANGE)
        pattern = run_model(spec, seed)
        report = build_report(spec, seed, pattern, spec.policy)
        serialize_report(report)
        report_to_text(report)
        trace = pattern.trace
        assert built == [] and len(trace) > 2
        trace[-1]
        assert built == [len(trace)]
        serialize_report(build_report(spec, seed, pattern, spec.policy, True))
        assert built == [len(trace), *range(1, len(trace) + 1)]

    def test_memory_held_per_product(self):
        # the chain lights one more node a product: 200 products at n = 200,
        # each kept as three 1 x 200 arrays, not as tuples of 200 numbers
        m = partition_matrix(np.eye(200) + np.eye(200, k=1))
        seed = StateVector.from_on_indices([0], Side.DOMAIN, m.row_partition)
        run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)  # float32 copy
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hp = run_hidden_pattern(m, seed, GT0_POLICY, one_sided=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(hp.trace) == 200
        assert held < 4 * 2**10 * len(hp.trace)

    def test_traces_of_one_length_differ(self):
        part = EXPERTS_12X6.row_partition
        a, b = (
            run_hidden_pattern(EXPERTS_12X6, seed_state(1 << i, Side.DOMAIN, part),
                               GT0_POLICY).trace
            for i in (0, 1)
        )
        assert len(a) == len(b) == 10
        assert a != b and b != a and a != tuple(b) and tuple(b) != a
        assert a == a and a != list(a) and a != None  # noqa: E711

    def test_a_pattern_equals_and_hashes_as_with_a_tuple_trace(self):
        spec = load_fixture("sec_2_2")
        hp = run_model(spec, seed_from_labels(spec, ["S4"], Side.RANGE))
        held = replace(hp, trace=tuple(hp.trace))
        assert hp == held and held == hp and hash(hp) == hash(held)
        assert hp != replace(hp, trace=None)


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
                _assert_trace_is_stepped(spec.matrix, seed, spec.policy, False, True)

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
                assert hp == exact_pattern(spec.matrix, seed, spec.policy, False, False)
                traced = run_hidden_pattern(spec.matrix, seed, spec.policy)
                assert traced == exact_pattern(spec.matrix, seed, spec.policy, False, True)

    def test_peak_memory_of_a_long_two_sided_run(self):
        # a chain lights one more node a round: 398 rounds to its fixed
        # pair; a row keeps only its packed seed-side states
        n = 400
        m = partition_matrix(np.eye(n) + np.eye(n, k=-1))
        seed = StateVector.from_on_indices([0], Side.DOMAIN, m.row_partition)
        hp, peak = _traced_peak(
            lambda: run_hidden_pattern(m, seed, GT0_POLICY, record_trace=False)
        )
        assert (hp.steps_to_enter, hp.period) == (n - 2, 1)
        assert hp.fixed_pair[0].bits == (1,) * n
        assert peak <= 88 * 2**10

    def test_memory_of_a_two_sided_run_does_not_grow_with_it(self):
        # the chain takes 798 rounds to its fixed pair, the identity map
        # settles at once; a two-sided row keeps only its last state, so
        # both runs peak alike
        n = 800
        policy = ThresholdPolicy(GT0, GT0, first_step_mode=FirstStepMode.NEVER)
        peaks = []
        for entries, rounds in ((np.eye(n), 0), (np.eye(n) + np.eye(n, k=-1), n - 2)):
            m = partition_matrix(entries)
            seed = StateVector.from_on_indices([0], Side.DOMAIN, m.row_partition)
            hp, peak = _traced_peak(
                lambda: run_hidden_pattern(m, seed, policy, record_trace=False)
            )
            assert (hp.kind, hp.steps_to_enter) == (PatternKind.FIXED_POINT, rounds)
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0]

    def test_peak_memory_of_a_two_sided_chain_sweep(self):
        # all 200 rows' histories are alive at once, seed side only; the
        # lit run grows both ways until every node is on
        m = partition_matrix(np.eye(200) + np.eye(200, k=-1))
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
        m = partition_matrix(
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
    """Every map multiplies its entries scaled to integers, in float32 where
    their total allows, against integer-equivalent cutoffs."""

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
            (partition_matrix(fcm), True, ThresholdPolicy(rule, rule), 0b0111),
            (partition_matrix(frm), False, ThresholdPolicy(rule, GT0), 0b0001),
        ]
        for m, one_sided, policy, mask in cases:
            policy = replace(policy, first_step_mode=never)
            seed = seed_state(mask, Side.DOMAIN, m.row_partition)
            assert m._exact[0].dtype == np.float32 and m._exact[1] == 1
            hp = run_hidden_pattern(m, seed, policy, one_sided=one_sided)
            assert hp == stepped_pattern(m, seed, policy, one_sided, True)
            record = hp.trace[0 if one_sided else 1]
            assert (record.raw[3], record.thresholded[3]) == (3.0, on)
            assert hp.fixed_pair[0].bits[3] == on
            census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=one_sided)
            assert census.attractor_of(seed).states == (mask | on << 3,)

    @pytest.mark.parametrize(
        "entries, dtype, scale",
        [
            # one entry not an integer
            ([[1, 0.5, 0], [0, 1, 1], [1, 1, 0]], np.float32, 2),
            # total 2**24
            ([[2**23, -1, 0], [0, 0, 2**22], [1, 0, 2**22 - 2]], np.float64, 1),
        ],
    )
    def test_other_maps_take_their_scaled_grid(self, entries, dtype, scale):
        m = partition_matrix(entries)
        assert (m._exact[0].dtype, m._exact[1]) == (dtype, scale)
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

    def test_a_near_tie_in_all_six_orders(self):
        # 0.1, 0.2 and 0.3 into node 3 sum to exactly 0.6, which gt 0.6
        # leaves off whichever node carries which weight; float64 adds them
        # to 0.6000000000000001 in some orders
        rule = ThresholdRule(Comparator.GT, 0.6)
        policy = ThresholdPolicy(rule, rule, first_step_mode=FirstStepMode.NEVER)
        float_sums = set()
        for weights in itertools.permutations((0.1, 0.2, 0.3)):
            w = np.zeros((4, 4))
            w[:3, 3] = weights
            m = partition_matrix(w)
            seed = seed_state(0b0111, Side.DOMAIN, m.row_partition)
            hp = run_hidden_pattern(m, seed, policy, one_sided=True)
            assert hp.fixed_pair[0].bits == (1, 1, 1, 0)
            assert hp.trace[0].raw == (0, 0, 0, 0.6)
            census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
            assert census.attractor_of(seed).states == (0b0111,)
            float_sums.add(step(m, seed, policy, seed, 1, True).raw[3])
        assert len(float_sums) == 2

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, seed, policy: run_hidden_pattern(m, seed, policy),
            lambda m, seed, policy: sweep_unit_seeds(m, Side.DOMAIN, policy),
            lambda m, seed, policy: enumerate_attractors(m, Side.DOMAIN, policy),
        ],
        ids=["run", "sweep", "census"],
    )
    def test_a_map_past_exact_sums_is_refused(self, call):
        # three entries of 3333333333333333 / 10**16 are past 2**53 once
        # scaled; the product is refused, not run inexactly
        m = partition_matrix(np.full((3, 3), 0.3333333333333333))
        seed = seed_state(1, Side.DOMAIN, m.row_partition)
        with pytest.raises(ModelValidationError, match=r"scale 10+ .* below 2\^53"):
            call(m, seed, GT0_POLICY)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_stepped_and_exact_walks_agree_on_the_fixtures(self, name):
        # integer entries: float64 sums are exact, so the two references
        # are one, traces included
        spec = load_fixture(name)
        rng = np.random.default_rng(len(name))
        sides = [Side.DOMAIN] if spec.one_sided else list(Side)
        for side in sides:
            part = spec.side_partition(side)
            masks = [1 << i for i in range(part.total)]
            masks += rng.integers(1, 1 << part.total, size=8).tolist()
            for mask in masks:
                seed = seed_state(mask, side, part)
                args = (spec.matrix, seed, spec.policy, spec.one_sided)
                assert stepped_pattern(*args) == exact_pattern(*args)

    def test_a_sum_between_2_23_and_2_24(self):
        # float32 cutoffs are clamped at 2**24: a clamp any lower would put
        # node 1's sum of 2**23 + 5 above the cutoff of 2**23 + 10
        m = partition_matrix([[0, 2**23 + 5], [0, 0]])
        rule = ThresholdRule(Comparator.GT, 2**23 + 10)
        policy = ThresholdPolicy(rule, rule, first_step_mode=FirstStepMode.NEVER)
        assert m._exact[0].dtype == np.float32
        census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
        for mask in (0b01, 0b10, 0b11):
            seed = seed_state(mask, Side.DOMAIN, m.row_partition)
            hp = run_hidden_pattern(m, seed, policy, one_sided=True)
            assert hp == stepped_pattern(m, seed, policy, True, True)
            assert hp.fixed_pair[0].bits == seed.bits
            assert census.attractor_of(mask).states == (mask,)

    def test_peak_memory_of_a_two_sided_census(self):
        # 2**18 seeds in chunks of 2**16: each chunk's 0/1 block goes back
        # through the float32 copy, not a float64 cast and product
        rng = np.random.default_rng(18)
        m = partition_matrix(rng.choice([-1.0, 0.0, 1.0], size=(18, 20)))
        policy = ThresholdPolicy(GT0, ThresholdRule(Comparator.GT, 1))
        census, peak = _traced_peak(
            lambda: enumerate_attractors(m, Side.DOMAIN, policy, state_limit=1 << 18)
        )
        assert census.n_seeds == 1 << 18
        assert peak <= 25 * 2**20

    def test_peak_memory_of_a_two_sided_census_with_float32_sums(self):
        # the same census: its low-bit sums stay float32 and are thresholded
        # against shifted cutoffs, with no float64 buffer of added sums
        rng = np.random.default_rng(18)
        m = partition_matrix(rng.choice([-1.0, 0.0, 1.0], size=(18, 20)))
        policy = ThresholdPolicy(GT0, ThresholdRule(Comparator.GT, 1))
        census, peak = _traced_peak(
            lambda: enumerate_attractors(m, Side.DOMAIN, policy, state_limit=1 << 18)
        )
        assert census.n_seeds == 1 << 18
        assert peak <= 20 * 2**20

    @pytest.mark.parametrize(
        "sign, rule",
        [
            (1, ThresholdRule(Comparator.GT, 12_800_001.5)),
            (-1, ThresholdRule(Comparator.GE, -12_800_000)),
        ],
        ids=["gt", "ge"],
    )
    def test_a_cutoff_shifted_past_2_24(self, sign, rule):
        # seeds with bit 16 set threshold node 0's low-bit sums against the
        # integer cutoff t less row 16's entry: 12,800,001 + 4e6 for gt and
        # -12,800,001 - 4e6 for ge, which float32 rounds; every low-bit sum
        # of node 0 is at most 12,768,000 in size, so each side of the
        # rounded cutoff is still the exact sum's side
        rng = np.random.default_rng(2424)
        w = rng.integers(-1, 2, size=(17, 17)).astype(float)
        w[:16, 0] = sign * 798_000
        w[16, 0] = -sign * 4_000_000
        m = partition_matrix(w)
        assert m._exact[0].dtype == np.float32 and np.abs(w).sum() > 2**24 - 10_000
        shifted = float(dynamics._threshold(rule, *m._exact)) - w[16, 0]
        assert abs(shifted) == 16_800_001 and np.float32(shifted) != shifted
        for policy in (
            ThresholdPolicy(GT0, GT0, rule, FirstStepMode.ALWAYS),
            ThresholdPolicy(rule, rule, first_step_mode=FirstStepMode.NEVER),
        ):
            census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
            _assert_census_is(census, *_reference_census(m, Side.DOMAIN, policy, True))
            masks = [1 << 16, (1 << 17) - 1]
            masks += rng.integers(1 << 16, 1 << 17, size=40).tolist()
            _assert_census_matches_engine(
                m, Side.DOMAIN, policy, True, masks, rule.describe()
            )


def _path(n: int, backward: bool = False) -> SuperMatrix:
    """A one-sided chain: node i excites i + 1 (i - 1 when ``backward``)."""
    entries = np.eye(n, k=-1 if backward else 1)
    return partition_matrix(entries)


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
    assert census.basins.tolist() == counts.tolist()
    assert census.basins.sum() == 1 << part.total
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
        assert census.basins.sum() == 64

    def test_zero_matrix(self):
        m = partition_matrix(np.zeros((3, 4)))
        census = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY)
        assert census.basins.sum() == 8
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
        m = partition_matrix(
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
            m = partition_matrix(
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
            m = partition_matrix(rng.integers(-1, 2, size=shape).astype(float))
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

    @staticmethod
    def _settle_calls(monkeypatch) -> list:
        """Record ``(resolved, columns, scatters)`` for each ``_settle`` call."""
        calls = []
        settle = dynamics._settle

        def spy(walk, done, found=()):
            calls.append((int(done.sum()), done.shape[0], bool(found)))
            return settle(walk, done, found)

        monkeypatch.setattr(dynamics, "_settle", spy)
        return calls

    @pytest.mark.parametrize(
        "rule, resolved",
        [(None, 256_538), (ThresholdRule(Comparator.GT, 12), 1 << 18)],
        ids=["fixture-policy", "gt-12"],
    )
    def test_seeds_resolved_at_the_first_check_are_written_in_place(
        self, monkeypatch, rule, resolved
    ):
        # sec_2_5_fcm's seeds all reach fixed points, most after one round
        # and, under gt 12 with no first step, every one of them: the first
        # check writes those seeds in place, and only later checks scatter
        calls = self._settle_calls(monkeypatch)
        spec = load_fixture("sec_2_5_fcm")
        policy = spec.policy
        if rule is not None:
            policy = ThresholdPolicy(rule, rule, rule, FirstStepMode.NEVER)
        census = enumerate_attractors(spec.matrix, Side.DOMAIN, policy, one_sided=True)
        assert calls[0] == (resolved, 1 << 18, False)
        assert all(scatters for _, _, scatters in calls[1:])
        assert len(calls) > 1 or resolved == 1 << 18
        expected = _reference_census(spec.matrix, Side.DOMAIN, policy, True)
        _assert_census_is(census, *expected)

    def test_only_the_full_seed_resolves_at_the_first_check(self, monkeypatch):
        # each node inhibits itself, so every seed's first state is all ones
        # and the next is the seed again; forcing keeps the full seed fixed
        # on any map, so it alone resolves at the first check
        calls = self._settle_calls(monkeypatch)
        m = partition_matrix(-np.eye(17))
        ge0 = ThresholdRule(Comparator.GE, 0)
        policy = ThresholdPolicy(ge0, ge0, first_step_mode=FirstStepMode.NEVER)
        census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
        assert calls[0] == (1, 1 << 17, False)
        assert calls[1:] == [((1 << 17) - 1, (1 << 17) - 1, True)]
        _assert_census_is(census, *_reference_census(m, Side.DOMAIN, policy, True))
        assert census.periods.tolist().count(2) == (1 << 17) - 1

    @pytest.mark.parametrize(
        "done_at",
        [[], [3], [0, 1, 1 << 17], [(1 << 16) + 1, (1 << 17) + 4]],
        ids=["none", "first-chunk", "first-and-last-chunk", "later-chunks"],
    )
    def test_settle_copies_only_the_chunks_from_the_first_done_one(self, done_at):
        # three chunks of columns: those before the first done column stay
        # where they are, uncopied; the rest move up past the done ones
        copies = []

        class Counted(np.ndarray):
            def take(self, *args, **kwargs):
                copies.append(args)
                return super().take(*args, **kwargs)

        n = 2 * dynamics._CHUNK + 5
        before = np.arange(3 * n).reshape(3, n)
        walk = before.copy().view(Counted)
        done = np.zeros(n, dtype=bool)
        done[done_at] = True
        cycles, meet = {}, np.zeros(n, dtype=int)
        kept = dynamics._settle(walk, done, (7, cycles, meet))
        stay = np.flatnonzero(~done)
        assert kept == stay.shape[0]
        assert np.array_equal(walk[:, :kept], before[:, stay])
        # the done seeds are listed under their period, 7
        assert set(cycles) <= {7}
        assert np.concatenate(cycles.get(7, [[]])).tolist() == done_at
        assert np.flatnonzero(meet).tolist() == done_at
        assert np.array_equal(meet[done_at], before[2, done_at])
        assert len(copies) == (3 - done_at[0] // dynamics._CHUNK if done_at else 0)
        # a seed resolved with period 1 is a fixed point: its meeting state
        # is written and nothing is listed
        walk = before.copy()
        cycles, meet = {}, np.zeros(n, dtype=int)
        assert dynamics._settle(walk, done, (1, cycles, meet)) == kept
        assert cycles == {}
        assert np.array_equal(meet[done_at], before[2, done_at])

    def test_attractors_are_numbered_by_smallest_seed_not_by_key(self):
        # a fixed point's key is its state, and cycle groups are keyed past
        # every state; here the period-2 cycle is the second attractor by
        # smallest seed, ahead of ten fixed points, and the fixed states are
        # not in increasing order, so numbering by key would differ
        m = partition_matrix(
            [
                [0, 1, -1, 1, -1],
                [0, 1, 0, 0, -1],
                [1, 0, -1, 1, -1],
                [0, -1, 0, -1, -1],
                [1, -1, 0, 1, 1],
            ]
        )
        policy = ThresholdPolicy(GT0, GT0, first_step_mode=FirstStepMode.NEVER)
        census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
        cycles, assignment = _reference_census(m, Side.DOMAIN, policy, True)
        _assert_census_is(census, cycles, assignment)
        assert not any(column.flags.writeable for column in census._columns())
        periods = [len(c) for c in cycles]
        assert 1 in periods[periods.index(2) :]
        fixed = [c[0] for c in cycles if len(c) == 1]
        assert fixed != sorted(fixed)

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
        m = partition_matrix(
            [[0, -1, 0, 1], [0, -1, 0, -1], [1, 1, -1, 0], [1, 1, 1, 0]]
        )
        census = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        view = census.attractors
        assert built == []  # the census and its view build no Attractor
        assert len(view) == len(census.periods) == len(census.offsets) - 1
        assert hash(view) == hash(census.attractors)
        assert repr(view) == f"Attractors(<{len(view)} attractors>)"
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
        m = partition_matrix([[0, 1], [-1, 0]])
        a = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        b = enumerate_attractors(m, Side.DOMAIN, GT0_POLICY, one_sided=True)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != a.attractors
        m4 = partition_matrix(
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
        m = partition_matrix([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(DimensionMismatch) as err:
            call(m)
        assert str(err.value) == message

    def test_matches_reference_across_the_chunk_boundary(self):
        # 17 fuzzy nodes: two table chunks of 2**16 masks, each from the
        # sums over the low 16 seed bits plus those over bit 16
        rng = np.random.default_rng(1717)
        m = partition_matrix(rng.choice(FUZZY, size=(17, 17)))
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

    def test_peak_memory_of_a_2_18_census_numbering(self):
        # 12.2 MiB: the scatter-minimum in the walk's 32-bit dtype and the
        # attractors' keys, with no int64 copy of the seeds or of the keys
        spec = load_fixture("sec_2_5_fcm")

        def census():
            return enumerate_attractors(
                spec.matrix, Side.DOMAIN, spec.policy, one_sided=True
            )

        _, peak = _traced_peak(census)
        assert peak <= 13 * 2**20

    def test_peak_memory_of_a_cycle_heavy_2_20_census(self):
        # 23.4 MiB: seeds on limit cycles are grouped by their cycle's
        # minimum state and AND, with no (period x members) block of states
        w = np.random.default_rng(5).choice([-1, 0, 1], size=(20, 20), p=[.4, .2, .4])
        m = partition_matrix(w.astype(float))
        policy = ThresholdPolicy(GT0, GT0, first_step_mode=FirstStepMode.NEVER)
        census, peak = _traced_peak(
            lambda: enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
        )
        assert census.basins[census.periods > 1].sum() >= 0.3 * (1 << 20)
        assert peak <= 25 * 2**20

    def test_a_fuzzy_near_tie_follows_exact_sums(self):
        # the float64 sum of seed 49 into node 2 turned node 2 on and
        # settled the seed at 55
        w, rule, policy = NEAR_TIE_6, _NEAR_TIE_RULE, NEAR_TIE_POLICY
        m = partition_matrix(w)
        census = enumerate_attractors(m, Side.DOMAIN, policy, one_sided=True)
        seed = seed_state(49, Side.DOMAIN, m.row_partition)
        hp = run_hidden_pattern(m, seed, policy, one_sided=True)
        assert hp == exact_pattern(m, seed, policy, True)
        assert hp.fixed_pair[0].bitmask == 49
        assert census.attractor_of(seed).states == (49,)
        assert w[0][2] + w[4][2] + w[5][2] == rule.cutoff  # in float64

    def test_census_never_imports_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, about 1 MB of
        # resident memory that no part of the package uses
        script = (
            "import contextlib, io, sys\n"
            "import fuzzymaps, fuzzymaps.cli\n"
            "m = fuzzymaps.partition_matrix("
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

    Each entry is its :func:`exact` fraction times ``d``, the least common
    multiple of their denominators: an int64.  A round's first raw sums add
    the seed-side rows of the set bits, a two-sided round adds the opposite
    side's columns back, and a sum ``r`` passes a cutoff whose fraction
    times ``d`` is ``c`` when ``r > floor(c)`` (``gt``) or ``r >= ceil(c)``
    (``ge``).  Each seed walks until a state repeats; its cycle, rotated
    to its minimum state, is looked up in a dict whose insertion order
    numbers the attractors by their smallest seed.
    """
    fractions = [[exact(x) for x in row] for row in m.entries.tolist()]
    d = math.lcm(*(x.denominator for row in fractions for x in row))
    grid = np.array([[int(x * d) for x in row] for row in fractions], np.int64)
    if not (one_sided or side is Side.DOMAIN):
        grid = grid.T
    n, width = grid.shape
    masks = np.arange(1 << n)
    raw = np.zeros((1 << n, width), np.int64)
    for i in range(n):
        raw[(masks >> i) & 1 == 1] += grid[i]

    def passes(sums, rule):
        c = exact(rule.cutoff) * d
        if rule.comparator is Comparator.GT:
            return sums > math.floor(c)
        return sums >= math.ceil(c)

    def round_table(rule):
        bits = passes(raw, rule)
        if not one_sided:
            back = np.zeros((1 << n, n), np.int64)
            for j in range(width):
                back[bits[:, j]] += grid[:, j]
            bits = passes(back, policy.rule_for(side))
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
    m = partition_matrix(np.array(entries).reshape(rows, cols))
    return m, side, policy, one_sided


@given(census_cases())
@example(
    (
        partition_matrix(
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
    # float64 sums of fuzzy entries depend on their order: those maps are
    # held to the exact walk
    m = case[0]
    integral = np.array_equal(np.trunc(m.entries), m.entries)
    _assert_engine_is_stepped(*case, data, stepped_pattern if integral else exact_pattern)


def _assert_engine_is_stepped(
    m, side, policy, one_sided, trace, data, reference=stepped_pattern
):
    """The unit-seed sweep and one run from a drawn seed equal
    ``reference``'s patterns; returns that run, or ``None`` where a unit
    seed reaches the step limit."""
    part = m.row_partition if side is Side.DOMAIN else m.col_partition
    expected = [
        reference(m, seed_state(1 << i, side, part), policy, one_sided, False)
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
    assert hp == reference(m, seed, policy, one_sided, trace)
    return seed, hp


# --- metamorphic properties on fuzzy maps: exact sums keep the bits --------

_FUZZY_CASES = engine_cases(st.sampled_from(FUZZY))


def _seed_of(m, side, data):
    part = m.row_partition if side is Side.DOMAIN else m.col_partition
    return seed_state(data.draw(st.integers(0, (1 << part.total) - 1)), side, part)


@given(_FUZZY_CASES, st.data())
@settings(max_examples=500, deadline=None)
def test_permuting_a_sides_nodes_permutes_the_pattern(case, data):
    # node k of the permuted map is node p[k] (domain) or q[k] (range) of
    # the drawn one; a one-sided map permutes both axes alike
    m, side, policy, one_sided, _ = case
    seed = _seed_of(m, side, data)
    p = data.draw(st.permutations(range(m.n_rows)))
    q = p if one_sided else data.draw(st.permutations(range(m.n_cols)))
    moved = SuperMatrix(m.entries[p][:, q], m.row_partition, m.col_partition)
    perm = {Side.DOMAIN: p, Side.RANGE: q}
    moved_seed = StateVector([seed.bits[i] for i in perm[side]], side, seed.partition)
    hp = run_hidden_pattern(m, seed, policy, one_sided=one_sided)
    got = run_hidden_pattern(moved, moved_seed, policy, one_sided=one_sided)
    assert (got.period, got.steps_to_enter) == (hp.period, hp.steps_to_enter)
    for pair, moved_pair in zip(hp.pair_sequence, got.pair_sequence):
        for state, moved_state in zip(pair, moved_pair):
            order = perm[state.side]
            assert moved_state.bits == tuple(state.bits[i] for i in order)
    assert len(got.trace) == len(hp.trace)
    for record, moved_record in zip(hp.trace, got.trace):
        order = perm[record.produced_side]
        assert moved_record.raw == tuple(record.raw[i] for i in order)
        assert moved_record.after_update == tuple(record.after_update[i] for i in order)


@given(_FUZZY_CASES, st.data())
@settings(max_examples=500, deadline=None)
def test_repartitioning_leaves_the_bits(case, data):
    m, side, policy, one_sided, _ = case
    rows = _split(data.draw, m.n_rows)
    cols = rows if one_sided else _split(data.draw, m.n_cols)
    other = SuperMatrix(m.entries, rows, cols)
    seed = _seed_of(m, side, data)
    part = rows if side is Side.DOMAIN else cols
    hp = run_hidden_pattern(m, seed, policy, one_sided=one_sided)
    got = run_hidden_pattern(
        other, StateVector(seed.bits, side, part), policy, one_sided=one_sided
    )
    assert got.trace == hp.trace
    assert (got.period, got.steps_to_enter) == (hp.period, hp.steps_to_enter)
    assert [(d.bits, r.bits) for d, r in got.pair_sequence] == [
        (d.bits, r.bits) for d, r in hp.pair_sequence
    ]


@given(_FUZZY_CASES, st.data())
@settings(max_examples=500, deadline=None)
def test_census_equals_engine_equals_exact_walk(case, data):
    m, side, policy, one_sided, trace = case
    seed = _seed_of(m, side, data)
    hp = run_hidden_pattern(m, seed, policy, one_sided=one_sided, record_trace=trace)
    assert hp == exact_pattern(m, seed, policy, one_sided, trace)
    census = enumerate_attractors(m, side, policy, one_sided=one_sided)
    assert census.attractor_of(seed).states == canonical(pattern_cycle_masks(hp, side))


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
    assert m._exact[0].dtype == np.float32 and m._exact[1] == 1
    run = _assert_engine_is_stepped(*case, data)
    if run is not None:
        seed, hp = run
        census = enumerate_attractors(m, side, policy, one_sided=one_sided)
        got = canonical(pattern_cycle_masks(hp, side))
        assert got == census.attractor_of(seed).states


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_two_sided_energy_never_rises_on_integer_maps(data):
    """Kosko's BAM energy ``E(x, y) = -x M y^T + c_D sum(x) + c_R sum(y)``,
    with the domain and range cutoffs, never rises from the pair (seed, first
    product) on: each product is a best state against the other side's, and
    the seed-side states all hold the forced coordinates.  With exact sums
    only a tie leaves E as it is, where a ``gt`` node can only switch off
    and a ``ge`` node only on, so no state can cycle: every pattern is a
    fixed point."""
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                                 max_size=rows * cols))
    grid = np.array(entries, float).reshape(rows, cols)
    m = partition_matrix(grid)
    cutoff = st.integers(-3, 3).flatmap(lambda k: st.sampled_from((k, k + 0.5)))
    rule = st.builds(ThresholdRule, st.sampled_from(list(Comparator)), cutoff)
    policy = ThresholdPolicy(
        data.draw(rule),
        data.draw(rule),
        data.draw(rule),
        data.draw(st.sampled_from(list(FirstStepMode))),
    )
    side = data.draw(st.sampled_from(list(Side)))
    part = m.row_partition if side is Side.DOMAIN else m.col_partition
    seed = seed_state(data.draw(st.integers(0, (1 << part.total) - 1)), side, part)
    hp = run_hidden_pattern(m, seed, policy)
    assert (hp.kind, hp.period) == (PatternKind.FIXED_POINT, 1)
    c_d, c_r = policy.domain_rule.cutoff, policy.range_rule.cutoff
    states, energies = {side: np.array(seed.bits)}, []
    for record in hp.trace:
        states[record.produced_side] = np.array(record.after_update)
        x, y = states.get(Side.DOMAIN), states.get(Side.RANGE)
        if x is not None and y is not None:
            energies.append(-x @ grid @ y + c_d * x.sum() + c_r * y.sum())
    assert all(b <= a for a, b in zip(energies, energies[1:]))


@st.composite
def two_sided_fuzzy_cases(draw):
    """A two-sided map of tenths, quarters and halves, cutoffs from
    ``CUTOFFS``, a side and a seed mask on it."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    values = st.sampled_from(FUZZY + (0.25, -0.5))
    entries = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    m = partition_matrix(np.array(entries, float).reshape(rows, cols))
    rule = st.builds(
        ThresholdRule, st.sampled_from(list(Comparator)), st.sampled_from(CUTOFFS)
    )
    policy = ThresholdPolicy(
        draw(rule), draw(rule), draw(rule), draw(st.sampled_from(list(FirstStepMode)))
    )
    side = draw(st.sampled_from(list(Side)))
    n = rows if side is Side.DOMAIN else cols
    return m, side, policy, draw(st.integers(0, (1 << n) - 1))


@given(two_sided_fuzzy_cases())
@example((partition_matrix(NEAR_TIE_6), Side.DOMAIN, NEAR_TIE_POLICY, 49))
@example((partition_matrix(NEAR_TIE_6), Side.RANGE, NEAR_TIE_POLICY, 49))
@settings(max_examples=300, deadline=None)
def test_two_sided_energy_never_rises_on_fuzzy_maps(case):
    """The energy of :func:`test_two_sided_energy_never_rises_on_integer_maps`
    on scaled fuzzy entries at near-tie cutoffs, in exact fractions of the
    shortest decimals the engine reads: it never rises, every run ends at a
    fixed pair, and the census of the same map and side has no limit
    cycle."""
    m, side, policy, mask = case
    part = m.row_partition if side is Side.DOMAIN else m.col_partition
    seed = seed_state(mask, side, part)
    hp = run_hidden_pattern(m, seed, policy)
    assert (hp.kind, hp.period) == (PatternKind.FIXED_POINT, 1)
    grid = [[exact(x) for x in row] for row in m.entries.tolist()]
    c_d, c_r = exact(policy.domain_rule.cutoff), exact(policy.range_rule.cutoff)
    states, energies = {side: seed.bits}, []
    for record in hp.trace:
        states[record.produced_side] = record.after_update
        x, y = states.get(Side.DOMAIN), states.get(Side.RANGE)
        if x is not None and y is not None:
            pull = sum(
                grid[i][j] for i, xi in enumerate(x) if xi for j, yj in enumerate(y) if yj
            )
            energies.append(-pull + c_d * sum(x) + c_r * sum(y))
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    census = enumerate_attractors(m, side, policy)
    assert set(census.periods.tolist()) == {1}


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
    m = partition_matrix(rng.integers(-2, 3, size=(rows, cols)).astype(float))
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
    m = partition_matrix(rng.integers(-1, 2, size=(8, 8)).astype(float))
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
