"""Acceptance suite: golden trajectories, invariants, performance, I/O.

Each criterion runs as one test (split into labelled parts where a criterion
bundles several runs); the conftest hook prints a pass/fail line per test.
All numeric assertions are exact: the bundled matrices are integer-valued
and the engine does nothing that leaves the integers.
"""

import json
import time
from dataclasses import replace

import numpy as np

from fuzzymaps import (
    Comparator,
    Direction,
    Partition,
    PatternKind,
    Side,
    SuperMatrix,
    ThresholdPolicy,
    ThresholdRule,
    apply_threshold,
    apply_update,
    enumerate_attractors,
    fixture_text,
    load_fixture,
    parse_model,
    partition_matrix,
    run_hidden_pattern,
    run_model,
    seed_from_labels,
    serialize_model,
    special_product,
    sweep_unit_seeds,
    emit_dot,
)
from fuzzymaps.cli import main as cli_main

from _util import bits, canonical, pattern_cycle_masks, seed_state
from test_dynamics import PROD_12X5

GT0 = ThresholdRule(Comparator.GT, 0)


def best_of(n, fn):
    out = None
    elapsed = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        elapsed = min(elapsed, time.perf_counter() - t0)
    return out, elapsed


# --- criterion 1: row-blocked demonstration model ----------------------------


def test_criterion_01_row_blocked_unit_seed():
    spec = load_fixture("ex_1_2_1")
    seed = seed_from_labels(spec, {"a1"}, Side.DOMAIN)
    run_model(spec, seed)  # warm-up
    hp, elapsed = best_of(3, lambda: run_model(spec, seed))
    d, r = hp.fixed_pair
    assert d.bits == (1,) * 5
    assert r.bits == bits("111 1111 11111")
    # the fixed pair is complete within the first four products
    assert hp.trace[2].after_update == r.bits
    assert hp.trace[3].after_update == d.bits
    assert elapsed < 0.010


# --- criterion 2: column-blocked demonstration model -------------------------


def test_criterion_02_column_blocked_multi_seed():
    spec = load_fixture("ex_1_2_2")
    seed = seed_from_labels(spec, {"e4^1", "e2^2", "e4^3"}, Side.DOMAIN)
    hp = run_model(spec, seed)
    assert hp.trace[0].raw == (1, 1, 0, 1, 2, 0)
    assert hp.trace[1].raw == (1, 1, 0, 2, 0, 2, 2, 0, 0, 1, 0, 1)
    d, r = hp.fixed_pair
    assert r.bits == bits("110110")
    assert d.bits == bits("11010 110 0101")


# --- criterion 3: four-group social model -------------------------------------


def test_criterion_03a_unit_attribute_seed_steps():
    spec = load_fixture("sec_2_2")
    hp = run_model(spec, seed_from_labels(spec, {"S1"}, Side.RANGE))
    assert hp.trace[0].after_update == bits("100100 100100 100100 010010")
    assert hp.trace[1].after_update == bits("11101011111111")
    assert hp.trace[2].after_update == bits("100101 100101 100101 010010")
    d, r = hp.fixed_pair
    assert d.bits == bits("100101 100101 100101 010010")
    assert r.bits == bits("11101011111111")


def test_criterion_03b_statement_seed_needs_forcing():
    spec = load_fixture("sec_2_2")
    seed = seed_from_labels(spec, {"A.R1", "B.R1", "C.R1", "D.R1"}, Side.DOMAIN)
    hp = run_model(spec, seed)
    assert hp.trace[0].raw == (3, 3, 3, 1, 3, 1, 3, 3, 3, 3, 3, 3, 2, 4)
    assert hp.trace[0].after_update == bits("11101011111111")
    # the fourth group's first statement only survives through seed forcing
    assert hp.trace[1].raw[18] == 1.0
    assert hp.trace[1].thresholded[18] == 0
    assert hp.trace[1].after_update == bits("100101 100101 100101 110010")


S4, S10 = 3, 5  # range indices of the two tied attributes of sec_2_2


def _range_sums(hp):
    """(S4, S10) raw sums on every range-side record of a trace."""
    return [
        (rec.raw[S4], rec.raw[S10])
        for rec in hp.trace
        if rec.produced_side is Side.RANGE
    ]


def _discrimination_run(spec, policy=None):
    """Run the S4 seed; the oracle must reach the same range member."""
    hp = run_model(spec, seed_from_labels(spec, {"S4"}, Side.RANGE), policy)
    census = enumerate_attractors(spec.matrix, Side.RANGE, policy or spec.policy)
    assert census.attractor_of(1 << S4).states == (hp.fixed_pair[1].bitmask,)
    return hp


def _range_cutoff(spec, comparator, cutoff):
    return replace(
        spec.policy, domain_rule=GT0, range_rule=ThresholdRule(comparator, cutoff)
    )


def test_criterion_03c_discrimination_seed_recorded_pair():
    """Recorded golden: the discrimination seed alone stays the only lit
    attribute.  Within the reached domain state the S4 and S10 columns
    differ only on statements that stay off, so their raw sums tie at 9 on
    every range-side product.  The tie defeats every range cutoff at or
    below 9; above it, seed forcing keeps S4 alone.  The recorded domain
    member also needs a domain cutoff of 1 or less: under ``ge 2`` the lone
    S4 column extinguishes the domain.  The source's policy for this seed
    is not recorded, so the pinned policy (which 3a and 3b reproduce) stays
    and the recorded pair is asserted under the cutoffs that produce it.
    """
    spec = load_fixture("sec_2_2")
    recorded_domain = bits("011000 011000 011000 101100")
    recorded_range = bits("00010000000000")

    # pinned policy: the recorded domain member, and S10 lit by the tie
    hp = _discrimination_run(spec)
    d, r = hp.fixed_pair
    assert d.bits == recorded_domain
    assert [i for i, b in enumerate(r.bits) if b != recorded_range[i]] == [S10]
    assert _range_sums(hp) == [(9.0, 9.0), (9.0, 9.0)]

    # the recorded pair, under a range cutoff above the tied sum
    hp = _discrimination_run(spec, _range_cutoff(spec, Comparator.GT, 9))
    d, r = hp.fixed_pair
    assert d.bits == recorded_domain
    assert r.bits == recorded_range, (
        "the S4/S10 tie at 9 defeats every range cutoff at or below 9; "
        "above it seed forcing should keep S4 alone "
        f"(got range member {''.join(map(str, r.bits))})"
    )

    # the boundary sits at the tied sum
    hp = _discrimination_run(spec, _range_cutoff(spec, Comparator.GE, 9))
    assert hp.fixed_pair[1].bits == bits("00010100000000")
    hp = _discrimination_run(spec, _range_cutoff(spec, Comparator.GE, 10))
    assert hp.fixed_pair[1].bits == recorded_range


def test_discrimination_seed_reachable_pair():
    spec = load_fixture("sec_2_2")
    hp = run_model(spec, seed_from_labels(spec, {"S4"}, Side.RANGE))
    # S4 and S10 raw sums tie exactly, on the first forward product and at
    # the fixed point
    assert _range_sums(hp) == [(9.0, 9.0), (9.0, 9.0)]
    d, r = hp.fixed_pair
    assert d.bits == bits("011000 011000 011000 101100")
    assert r.bits == bits("00010100000000")


# --- criterion 4: four-category media model -----------------------------------


def test_criterion_04_media_conduct_seeds():
    spec = load_fixture("sec_2_3")
    hp = run_model(spec, seed_from_labels(spec, {"M3"}, Side.RANGE))
    d, r = hp.fixed_pair
    assert d.bits == bits("00100 0010 0000100 010100")
    assert r.bits == bits("001000101000000")

    hp = run_model(spec, seed_from_labels(spec, {"M5"}, Side.RANGE))
    _, r = hp.fixed_pair
    off = {i + 1 for i, b in enumerate(r.bits) if not b}
    assert off == {3, 7, 9}


# --- criterion 5: statement/groups model --------------------------------------


def test_criterion_05_statement_and_group_seeds():
    spec = load_fixture("sec_2_4")
    hp = run_model(spec, seed_from_labels(spec, {"T7"}, Side.DOMAIN))
    d, r = hp.fixed_pair
    assert d.bits == (1,) * 13
    assert r.bits == bits("1110 01111 10111")

    hp = run_model(spec, seed_from_labels(spec, {"L1"}, Side.RANGE))
    assert hp.trace[0].produced_side is Side.DOMAIN
    assert hp.trace[0].after_update == (0,) * 13
    d, r = hp.fixed_pair
    assert d.bits == (0,) * 13
    assert r.bits == bits("0000 10000 00000")


# --- criterion 6: cognitive-map model ------------------------------------------


def test_criterion_06_cognitive_map_seeds():
    spec = load_fixture("sec_2_5_fcm")
    want = bits("111001111101101111")  # exactly R4, R5, R11, R14 off
    for label in ("R9", "R15"):
        hp = run_model(spec, seed_from_labels(spec, {label}, Side.DOMAIN))
        assert hp.kind is PatternKind.FIXED_POINT
        assert hp.fixed_pair[0].bits == want

    # under the pinned cutoff the eleventh seed collapses to itself; its
    # recorded trajectory reproduces only under the lower cutoff
    seed = seed_from_labels(spec, {"R11"}, Side.DOMAIN)
    hp = run_model(spec, seed)
    assert hp.fixed_pair[0].bits == tuple(
        1 if i == 10 else 0 for i in range(18)
    )
    hp = run_model(
        spec,
        seed,
        replace(
            spec.policy,
            domain_rule=ThresholdRule(Comparator.GE, 2),
            range_rule=ThresholdRule(Comparator.GE, 2),
        ),
    )
    assert hp.fixed_pair[0].bits == bits("000110000010010000")


# --- criterion 7: special-product goldens --------------------------------------


def test_criterion_07_special_product_goldens():
    x = bits("100 0001 01 010")
    fwd = special_product(x, PROD_12X5, Direction.FORWARD)
    assert fwd.as_tuple() == (2, 3, 3, 4, 2)
    bwd = special_product([1] * 5, PROD_12X5, Direction.BACKWARD)
    assert bwd.as_tuple() == (2, 3, 3, 2, 1, 4, 4, 2, 3, 3, 5, 3)
    assert bwd.partition.sizes == (3, 4, 2, 3)


# --- criterion 8: randomized property suite ------------------------------------


def _random_partition(rng):
    return Partition(
        [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
    )


def _random_supermatrix(rng):
    rp, cp = _random_partition(rng), _random_partition(rng)
    return SuperMatrix(
        rng.integers(-9, 10, size=(rp.total, cp.total)).astype(float), rp, cp
    )


def test_criterion_08a_transpose_properties_thousand():
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        m = _random_supermatrix(rng)
        t = m.transpose()
        assert t.row_partition == m.col_partition
        assert t.col_partition == m.row_partition
        assert t.transpose() == m


def test_criterion_08b_product_equals_flat_multiply_thousand():
    rng = np.random.default_rng(987654)
    for _ in range(1000):
        m = _random_supermatrix(rng)
        x = rng.integers(-3, 4, size=m.n_rows).astype(float)
        got = special_product(x, m, Direction.FORWARD)
        assert np.array_equal(got.entries, x @ m.flatten())
        assert got.partition == m.col_partition
        y = rng.integers(-3, 4, size=m.n_cols).astype(float)
        gob = special_product(y, m, Direction.BACKWARD)
        assert np.array_equal(gob.entries, m.flatten() @ y)
        assert gob.partition == m.row_partition


def test_criterion_08c_threshold_idempotence_and_update_dominance():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        raw = rng.integers(0, 2, size=n)
        for rule in (GT0, ThresholdRule(Comparator.GE, 1)):
            once = apply_threshold(raw, rule)
            assert np.array_equal(once, raw)
            assert np.array_equal(apply_threshold(once, rule), once)
        forced = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        out = apply_update(raw, forced)
        assert all(a >= b for a, b in zip(out, raw))
        off_forced = set(range(n)) - set(int(i) for i in forced)
        assert all(out[i] == raw[i] for i in off_forced)


def test_criterion_08d_determinism_and_termination():
    rng = np.random.default_rng(31337)
    for _ in range(100):
        m = partition_matrix(rng.integers(-1, 2, size=(8, 8)).astype(float))
        policy = ThresholdPolicy(
            ThresholdRule(Comparator.GT, int(rng.integers(0, 3))),
            ThresholdRule(Comparator.GT, int(rng.integers(0, 3))),
        )
        seed = seed_state(int(rng.integers(0, 256)), Side.DOMAIN, m.row_partition)
        a = run_hidden_pattern(m, seed, policy, one_sided=True)
        b = run_hidden_pattern(m, seed, policy, one_sided=True)
        assert a == b
        visits = sum(1 for rec in a.trace if rec.produced_side is Side.DOMAIN)
        assert visits <= 2**8 + 1


# --- criterion 9: oracle equivalence --------------------------------------------


def _assert_engine_matches_census(matrix, side, policy, one_sided):
    census = enumerate_attractors(matrix, side, policy, one_sided=one_sided)
    part = (
        matrix.row_partition if side is Side.DOMAIN else matrix.col_partition
    )
    n = part.total
    assert census.basins.sum() == 2**n
    for mask in range(2**n):
        seed = seed_state(mask, side, part)
        hp = run_hidden_pattern(
            matrix, seed, policy, one_sided=one_sided, record_trace=False
        )
        got = canonical(pattern_cycle_masks(hp, side))
        assert got == census.attractor_of(mask).states, f"seed mask {mask}"


def test_criterion_09a_fixture_oracle_equivalence():
    cases = [
        ("ex_1_2_1", Side.DOMAIN),
        ("ex_1_2_1", Side.RANGE),
        ("ex_1_2_2", Side.DOMAIN),
        ("ex_1_2_2", Side.RANGE),
        ("ex_1_2_3_structure", Side.DOMAIN),
    ]
    for name, side in cases:
        spec = load_fixture(name)
        part = spec.side_partition(side)
        assert part.total <= 12
        _assert_engine_matches_census(
            spec.matrix, side, spec.policy, spec.one_sided
        )


def test_criterion_09b_random_model_oracle_equivalence():
    rng = np.random.default_rng(777)
    for k in range(100):
        one_sided = k % 2 == 0
        if one_sided:
            m = partition_matrix(
                rng.integers(-1, 2, size=(10, 10)).astype(float)
            )
        else:
            cols = int(rng.integers(3, 9))
            cuts = [5] if rng.integers(0, 2) else []
            m = SuperMatrix(
                rng.integers(-1, 2, size=(10, cols)).astype(float),
                Partition([5, 5]) if cuts else Partition([10]),
                Partition([cols]),
            )
        policy = ThresholdPolicy(
            ThresholdRule(
                Comparator.GE if rng.integers(0, 2) else Comparator.GT,
                int(rng.integers(0, 3)),
            ),
            ThresholdRule(
                Comparator.GE if rng.integers(0, 2) else Comparator.GT,
                int(rng.integers(0, 3)),
            ),
        )
        _assert_engine_matches_census(m, Side.DOMAIN, policy, one_sided)


# --- criterion 10: performance envelope -----------------------------------------

FIXTURE_RUNS = {
    "ex_1_2_1": ({"a1"}, Side.DOMAIN),
    "ex_1_2_2": ({"e4^1", "e2^2", "e4^3"}, Side.DOMAIN),
    "ex_1_2_3_structure": ({"E1.1", "E2.2", "E3.4"}, Side.DOMAIN),
    "sec_2_2": ({"S1"}, Side.RANGE),
    "sec_2_3": ({"M3"}, Side.RANGE),
    "sec_2_4": ({"T7"}, Side.DOMAIN),
    "sec_2_5_fcm": ({"R9"}, Side.DOMAIN),
}


def test_criterion_10a_single_runs_under_10ms():
    for name, (labels, side) in FIXTURE_RUNS.items():
        spec = load_fixture(name)
        seed = seed_from_labels(spec, labels, side)
        run_model(spec, seed)  # warm-up
        _, elapsed = best_of(3, lambda: run_model(spec, seed))
        assert elapsed < 0.010, f"{name} took {elapsed * 1e3:.2f} ms"


def test_criterion_10b_full_sweep_under_100ms():
    spec = load_fixture("sec_2_5_fcm")
    sweep_unit_seeds(spec.matrix, Side.DOMAIN, spec.policy, one_sided=True)
    _, elapsed = best_of(
        3,
        lambda: sweep_unit_seeds(
            spec.matrix, Side.DOMAIN, spec.policy, one_sided=True
        ),
    )
    assert elapsed < 0.100, f"sweep took {elapsed * 1e3:.1f} ms"


def test_criterion_10c_exhaustive_enumeration_under_30s():
    spec = load_fixture("sec_2_5_fcm")
    t0 = time.perf_counter()
    census = enumerate_attractors(
        spec.matrix, Side.DOMAIN, spec.policy, state_limit=1 << 20, one_sided=True
    )
    elapsed = time.perf_counter() - t0
    assert census.n_seeds == 1 << 18
    assert census.basins.sum() == 1 << 18
    assert elapsed < 30.0, f"enumeration took {elapsed:.1f} s"


# --- criterion 11: I/O ------------------------------------------------------------


def test_criterion_11_documents_exit_codes_and_dot(tmp_path, capsys):
    from fuzzymaps import FIXTURE_NAMES

    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        assert serialize_model(parse_model(text)) == text

    assert cli_main(["validate", "--fixture", "sec_2_5_fcm"]) == 0
    doc = json.loads(fixture_text("ex_1_2_2"))
    doc["matrix"][0] = doc["matrix"][0][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["validate", str(bad)]) == 3
    assert cli_main(["validate"]) == 2
    capsys.readouterr()

    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        dot = emit_dot(spec)
        assert dot.count(" -> ") == int(np.count_nonzero(spec.matrix.entries))
