from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymaps import (
    FIXTURE_NAMES,
    Comparator,
    EntryDomain,
    ModelKind,
    ModelSpec,
    Partition,
    Side,
    StateVector,
    SuperMatrix,
    ThresholdPolicy,
    ThresholdRule,
    describe,
    enumerate_attractors,
    fixture_text,
    load_fixture,
    parse_model,
    partition_matrix,
    run_hidden_pattern,
    run_model,
    seed_from_labels,
    serialize_model,
    sweep_unit_seeds,
    validate_model,
)
from fuzzymaps import models
from fuzzymaps.errors import (
    FuzzyMapsError,
    IndexOutOfRange,
    ModelValidationError,
    NonFiniteCutoff,
    UnknownLabel,
    WrongSide,
)

from _util import bits


def tiny_spec(**kw):
    defaults = dict(
        name="tiny",
        kind=ModelKind.FRM,
        domain_labels=(("x",),),
        range_labels=(("y",),),
        matrix=partition_matrix([[1.0]]),
        entry_domain=EntryDomain.SIGNED_TERNARY,
        policy=ThresholdPolicy(
            ThresholdRule(Comparator.GT, 0), ThresholdRule(Comparator.GT, 0)
        ),
    )
    defaults.update(kw)
    return ModelSpec(**defaults)


class TestValidate:
    def test_fixtures_validate(self):
        for name in ("ex_1_2_2", "sec_2_5_fcm"):
            assert validate_model(load_fixture(name)) == ()

    def test_rectangular_model_relabelled_fcm(self):
        base = load_fixture("ex_1_2_2")
        bad = ModelSpec(
            name=base.name,
            kind=ModelKind.FCM,
            domain_labels=base.domain_labels,
            range_labels=base.range_labels,
            matrix=base.matrix,
            entry_domain=base.entry_domain,
            policy=base.policy,
        )
        codes = {d.code for d in validate_model(bad)}
        assert "fcm_square" in codes
        assert "fcm_partitions" in codes
        assert "fcm_labels" in codes

    def test_kind_partition_mismatch(self):
        base = load_fixture("ex_1_2_2")  # row-blocked
        bad = ModelSpec(
            name=base.name,
            kind=ModelKind.SUPER_ROW_FRM,
            domain_labels=base.domain_labels,
            range_labels=base.range_labels,
            matrix=base.matrix,
            entry_domain=base.entry_domain,
            policy=base.policy,
        )
        diags = validate_model(bad)
        assert any(d.code == "kind_partitions" for d in diags)

    def test_label_shape_mismatch(self):
        bad = tiny_spec(domain_labels=(("x", "extra"),))
        diags = validate_model(bad)
        assert any(d.code == "label_block_size" for d in diags)

    def test_empty_label_block_of_a_code_built_spec(self):
        bad = tiny_spec(
            domain_labels=((),),
            matrix=partition_matrix([[1.0]] * 6),
        )
        assert [str(d) for d in validate_model(bad)] == [
            "label_block_size at domain.blocks[0]: 0 labels against block width 6"
        ]

    def test_more_label_blocks_than_partition_blocks(self):
        bad = tiny_spec(domain_labels=(("x",), ("extra",)))
        assert [str(d) for d in validate_model(bad)] == [
            "label_blocks at domain.blocks: 2 label blocks against 1 partition blocks"
        ]

    def test_duplicate_labels(self):
        bad = tiny_spec(
            matrix=partition_matrix([[1.0, 0.0]]),
            range_labels=(("y", "y"),),
        )
        assert any(d.code == "duplicate_labels" for d in validate_model(bad))

    def test_entry_domain_cell_reported(self):
        bad = tiny_spec(matrix=partition_matrix([[2.0]]))
        diags = validate_model(bad)
        assert any(
            d.code == "entry_domain" and d.location == "matrix[0][0]"
            for d in diags
        )

    def test_diagnostic_strings_pinned(self):
        bad = tiny_spec(
            kind=ModelKind.SUPER_ROW_FRM,
            domain_labels=(("a", "b", "a"),),
            range_labels=(("x", "y"), ("x", "z", "y")),
            matrix=partition_matrix(
                [[0.5, -1, 2], [1, 1.5, 0], [0, 0, -0.25]], (), (2,)
            ),
        )
        assert [str(d) for d in validate_model(bad)] == [
            "duplicate_labels at domain.blocks: labels repeat: a",
            "label_block_size at range.blocks[1]: 3 labels against block width 1",
            "duplicate_labels at range.blocks: labels repeat: x, y",
            "entry_domain at matrix[0][0]: entry 0.5 outside signed_ternary",
            "entry_domain at matrix[0][2]: entry 2 outside signed_ternary",
            "entry_domain at matrix[1][1]: entry 1.5 outside signed_ternary",
            "entry_domain at matrix[2][2]: entry -0.25 outside signed_ternary",
        ]

    @pytest.mark.parametrize("domain", list(EntryDomain))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_refused_in_every_domain(self, domain, value):
        bad = tiny_spec(
            matrix=partition_matrix([[1.0, value]]),
            range_labels=(("y", "z"),),
            entry_domain=domain,
        )
        assert [str(d) for d in validate_model(bad)] == [
            f"entry_domain at matrix[0][1]: entry {value:g} outside {domain.value}"
        ]

    @pytest.mark.parametrize(
        "domain, value, text",
        [
            (EntryDomain.FUZZY_UNIT, 1.0000000000000002, "1.0000000000000002"),
            (EntryDomain.SIGNED_UNIT, 1e20, "100000000000000000000"),
        ],
    )
    def test_entry_named_by_its_exact_value(self, domain, value, text):
        bad = tiny_spec(matrix=partition_matrix([[value]]), entry_domain=domain)
        assert [str(d) for d in validate_model(bad)] == [
            f"entry_domain at matrix[0][0]: entry {text} outside {domain.value}"
        ]

    @pytest.mark.parametrize("field", ["domain_rule", "range_rule", "first_step_rule"])
    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cutoff_refused(self, field, cutoff):
        """No spec can hold such a policy: it is refused when it is built."""
        rules = dict(
            domain_rule=ThresholdRule(Comparator.GT, 0),
            range_rule=ThresholdRule(Comparator.GT, 0),
        )
        policy = ThresholdPolicy(**rules)
        rule = ThresholdRule(Comparator.GE, cutoff)
        where = "policy." + field.removesuffix("_rule")
        for build in (
            lambda: ThresholdPolicy(**{**rules, field: rule}),
            lambda: replace(policy, **{field: rule}),
        ):
            with pytest.raises(NonFiniteCutoff) as err:
                build()
            for cls in (ModelValidationError, FuzzyMapsError, ValueError):
                assert isinstance(err.value, cls)
            assert str(err.value) == (
                f"cutoff at {where}: cutoff {cutoff:g} is not finite"
            )


class TestSeeds:
    def test_unit_seed_by_label(self):
        spec = load_fixture("sec_2_5_fcm")
        seed = seed_from_labels(spec, {"R9"}, Side.DOMAIN)
        assert seed.on_indices == (8,)
        assert len(seed) == 18

    def test_empty_seed(self):
        spec = load_fixture("sec_2_5_fcm")
        seed = seed_from_labels(spec, set(), Side.DOMAIN)
        assert seed.count_on == 0

    def test_duplicates_collapse(self):
        spec = load_fixture("sec_2_5_fcm")
        seed = seed_from_labels(spec, ["R9", "R9"], Side.DOMAIN)
        assert seed.on_indices == (8,)

    def test_unknown_label(self):
        spec = load_fixture("sec_2_5_fcm")
        with pytest.raises(UnknownLabel):
            seed_from_labels(spec, {"R99"}, Side.DOMAIN)

    def test_wrong_side(self):
        spec = load_fixture("ex_1_2_2")
        with pytest.raises(WrongSide):
            seed_from_labels(spec, {"a1"}, Side.DOMAIN)

    def test_labels_round_trip(self):
        spec = load_fixture("sec_2_3")
        labels = {"D3", "P3", "C5"}
        seed = seed_from_labels(spec, labels, Side.DOMAIN)
        flat = spec.labels_flat(Side.DOMAIN)
        assert {flat[i] for i in seed.on_indices} == labels


class TestNameForms:
    """A node's label, 1-based index and ``block.position`` name the same
    coordinate, on every fixture and on both sides of a two-sided one."""

    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_three_forms_agree(self, fixture):
        spec = load_fixture(fixture)
        sides = [Side.DOMAIN] if spec.one_sided else [Side.DOMAIN, Side.RANGE]
        for side in sides:
            blocks = spec.domain_labels if side is Side.DOMAIN else spec.range_labels
            i = 0
            for b, blk in enumerate(blocks, 1):
                for p, label in enumerate(blk, 1):
                    forms = [label, str(i + 1), f"{b}.{p}"]
                    seeds = [seed_from_labels(spec, [f], side) for f in forms]
                    assert all(s.on_indices == (i,) for s in seeds), (side, forms)
                    assert seeds[0] == seeds[1] == seeds[2]
                    i += 1
            assert i == len(spec.labels_flat(side))

    def test_forms_mix_in_one_seed(self):
        spec = load_fixture("ex_1_2_3_structure")
        flat = spec.labels_flat(Side.DOMAIN)
        # the first block holds four nodes, so "2.1" is node 4
        seed = seed_from_labels(spec, [flat[0], "2", "2.1"], Side.DOMAIN)
        assert seed.on_indices == (0, 1, 4)

    def test_a_label_takes_precedence(self):
        # labels that read as indices or positions name their own nodes
        spec = tiny_spec(
            kind=ModelKind.FCM,
            domain_labels=(("2", "1.1", "x"),),
            range_labels=(("2", "1.1", "x"),),
            matrix=partition_matrix(np.zeros((3, 3))),
        )
        assert seed_from_labels(spec, ["2"], Side.DOMAIN).on_indices == (0,)
        assert seed_from_labels(spec, ["1.1"], Side.DOMAIN).on_indices == (1,)
        assert seed_from_labels(spec, ["3", "1.3"], Side.DOMAIN).on_indices == (2,)

    @pytest.mark.parametrize(
        "fixture, name, error, text",
        [
            ("sec_2_5_fcm", "99", IndexOutOfRange,
             "index 99 out of range; domain side has 18 nodes"),
            ("sec_2_5_fcm", "0", IndexOutOfRange,
             "index 0 out of range; domain side has 18 nodes"),
            ("sec_2_5_fcm", "2.3", IndexOutOfRange,
             "block position '2.3' out of range for domain blocks [18]"),
            ("sec_2_5_fcm", "1.19", IndexOutOfRange,
             "block position '1.19' out of range for domain blocks [18]"),
            ("sec_2_5_fcm", "R9x", UnknownLabel,
             "unknown domain label 'R9x'; near matches: R9, R8, R7"),
            ("sec_2_5_fcm", "~", UnknownLabel,
             "unknown domain label '~'"),
            ("sec_2_2", "S1", WrongSide,
             "label 'S1' lives on the range side"),
        ],
        ids=["index", "index-zero", "position", "position-width", "near",
             "no-near", "wrong-side"],
    )
    def test_error_class_and_text(self, fixture, name, error, text):
        spec = load_fixture(fixture)
        # a valid name before the bad one does not hide it
        first = spec.labels_flat(Side.DOMAIN)[0]
        with pytest.raises(error) as err:
            seed_from_labels(spec, [first, name], Side.DOMAIN)
        assert type(err.value) is error
        assert str(err.value) == text


class TestRunModel:
    def test_statement_seed_saturates_domain(self):
        spec = load_fixture("sec_2_4")
        hp = run_model(spec, seed_from_labels(spec, {"T7"}, Side.DOMAIN))
        d, r = hp.fixed_pair
        assert d.bits == (1,) * 13
        assert r.bits == bits("1110 01111 10111")

    def test_neutrality_seed_fixed_pair(self):
        spec = load_fixture("sec_2_3")
        hp = run_model(spec, seed_from_labels(spec, {"M3"}, Side.RANGE))
        d, r = hp.fixed_pair
        assert d.bits == bits("00100 0010 0000100 010100")
        assert r.bits == bits("001000101000000")

    def test_partisan_seed_collapses_to_zero(self):
        spec = load_fixture("sec_2_4")
        hp = run_model(spec, seed_from_labels(spec, {"L1"}, Side.RANGE))
        # every raw sum on the first backward product is non-positive
        assert all(v <= 0 for v in hp.trace[0].raw)
        assert hp.trace[0].after_update == (0,) * 13
        d, r = hp.fixed_pair
        assert d.bits == (0,) * 13
        assert r.bits == bits("0000 10000 00000")

    def test_invalid_spec_refused(self):
        bad = tiny_spec(matrix=partition_matrix([[2.0]]))
        seed = StateVector((1,), Side.DOMAIN, Partition([1]))
        with pytest.raises(ModelValidationError):
            run_model(bad, seed)

    def test_spec_validated_once(self, monkeypatch):
        calls = []
        original = models.validate_model

        def counted(spec):
            calls.append(spec.name)
            return original(spec)

        monkeypatch.setattr(models, "validate_model", counted)
        spec = parse_model(fixture_text("sec_2_4"))
        assert calls == ["sec_2_4"]
        seed = seed_from_labels(spec, {"T7"}, Side.DOMAIN)
        run_model(spec, seed)
        run_model(spec, seed, replace(spec.policy, first_step_mode="never"))
        assert calls == ["sec_2_4"]
        bad = tiny_spec(matrix=partition_matrix([[2.0]]))
        seed = StateVector((1,), Side.DOMAIN, Partition([1]))
        for _ in range(2):
            with pytest.raises(ModelValidationError, match=r"matrix\[0\]\[0\]"):
                run_model(bad, seed)
        assert calls == ["sec_2_4", "tiny"]

    def test_overrides_equal_to_defaults_are_identical(self):
        spec = load_fixture("sec_2_2")
        seed = seed_from_labels(spec, {"S1"}, Side.RANGE)
        plain = run_model(spec, seed)
        overridden = run_model(
            spec,
            seed,
            replace(
                spec.policy,
                domain_rule=spec.policy.domain_rule,
                range_rule=spec.policy.range_rule,
                first_step_rule=spec.policy.first_step_rule,
                first_step_mode=spec.policy.first_step_mode,
            ),
        )
        assert plain == overridden


_ENTRY_POINTS = {
    "run_model": lambda spec, policy, seed: run_model(
        spec, seed, replace(
            spec.policy,
            domain_rule=policy.domain_rule,
            range_rule=policy.range_rule,
            first_step_rule=policy.first_step_rule,
        )
    ),
    "run_hidden_pattern": lambda spec, policy, seed: run_hidden_pattern(
        spec.matrix, seed, policy
    ),
    "sweep_unit_seeds": lambda spec, policy, seed: sweep_unit_seeds(
        spec.matrix, Side.DOMAIN, policy
    ),
    "enumerate_attractors": lambda spec, policy, seed: enumerate_attractors(
        spec.matrix, Side.DOMAIN, policy
    ),
}


class TestNonFiniteCutoff:
    """A NaN or infinite cutoff never reaches the engine: the policy holding
    it cannot be built."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("where", ["domain", "range", "first_step"])
    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), float("-inf")])
    def test_refused_at_every_entry_point(self, entry, where, cutoff):
        spec = load_fixture("sec_2_4")
        seed = seed_from_labels(spec, {"T7"}, Side.DOMAIN)
        rule = ThresholdRule("gt", cutoff)
        with pytest.raises(NonFiniteCutoff) as err:
            # replace() raises before the entry point is called
            _ENTRY_POINTS[entry](spec, replace(spec.policy, **{f"{where}_rule": rule}), seed)
        assert isinstance(err.value, ModelValidationError)
        assert str(err.value) == (
            f"cutoff at policy.{where}: cutoff {cutoff} is not finite"
        )

    def test_finite_override_still_runs(self):
        spec = load_fixture("sec_2_4")
        seed = seed_from_labels(spec, {"T7"}, Side.DOMAIN)
        policy = replace(spec.policy, range_rule=ThresholdRule("gt", 1e300))
        d, r = run_model(spec, seed, policy).fixed_pair
        assert r.bits == (0,) * len(r)


class TestBlockedModel:
    """Derived goldens for the doubly blocked fixture."""

    def test_mixed_seed_fixed_pair(self):
        spec = load_fixture("ex_1_2_3_structure")
        seed = seed_from_labels(spec, {"E1.1", "E2.2", "E3.4"}, Side.DOMAIN)
        hp = run_model(spec, seed)
        d, r = hp.fixed_pair
        assert d.bits == bits("1101 110 10010")
        assert r.bits == bits("1110 11011 110 001")

    def test_zero_blocks_preserved(self):
        spec = load_fixture("ex_1_2_3_structure")
        m = spec.matrix
        assert not m.block(0, 1).any()
        assert not m.block(1, 0).any()
        assert not m.block(1, 2).any()
        assert not m.block(1, 3).any()
        assert m.block(1, 1).any()


class TestDescribe:
    def test_group_model_summary(self):
        d = describe(load_fixture("sec_2_2"))
        assert d["kind"] == "super_column_frm"
        assert (d["rows"], d["cols"]) == (24, 14)
        assert d["row_blocks"] == [6, 6, 6, 6]
        assert d["col_blocks"] == [14]

    def test_minimal_model(self):
        d = describe(tiny_spec())
        assert (d["rows"], d["cols"]) == (1, 1)
        assert d["kind"] == "frm"

    def test_round_trip_through_document(self):
        for name in ("ex_1_2_1", "sec_2_4"):
            spec = load_fixture(name)
            again = parse_model(serialize_model(spec))
            assert describe(again) == describe(spec)


# --- zero-block locality -----------------------------------------------------


def isolated_block_model(rng):
    """Doubly blocked matrix whose block (i, j) is the only nonzero block
    in both its row band and its column band."""
    rp = Partition([int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))])
    cp = Partition([int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))])
    i = int(rng.integers(0, rp.n_blocks))
    j = int(rng.integers(0, cp.n_blocks))
    m = rng.integers(-1, 2, size=(rp.total, cp.total)).astype(float)
    rs, cs = rp.block_slice(i), cp.block_slice(j)
    m[rs, :] = 0.0
    m[:, cs] = 0.0
    blk = rng.integers(-1, 2, size=(rp.sizes[i], cp.sizes[j])).astype(float)
    m[rs, cs] = blk
    return SuperMatrix(m, rp, cp), i, j


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.data())
def test_zeroing_isolated_block_is_local(rng_seed, data):
    from fuzzymaps import run_hidden_pattern

    rng = np.random.default_rng(rng_seed)
    m, i, j = isolated_block_model(rng)
    zeroed = m.entries.copy()
    zeroed[m.row_partition.block_slice(i), m.col_partition.block_slice(j)] = 0.0
    m2 = SuperMatrix(zeroed, m.row_partition, m.col_partition)
    policy = ThresholdPolicy(
        ThresholdRule(Comparator.GT, 0), ThresholdRule(Comparator.GT, 0)
    )
    outside = [
        k
        for k in range(m.n_rows)
        if not (
            m.row_partition.offsets[i] <= k < m.row_partition.offsets[i + 1]
        )
    ]
    if not outside:
        return
    chosen = data.draw(
        st.lists(st.sampled_from(outside), min_size=1, unique=True)
    )
    seed = StateVector.from_on_indices(chosen, Side.DOMAIN, m.row_partition)
    a = run_hidden_pattern(m, seed, policy, record_trace=False)
    b = run_hidden_pattern(m2, seed, policy, record_trace=False)
    assert a.pair_sequence == b.pair_sequence
