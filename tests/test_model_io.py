import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymaps import (
    FIXTURE_NAMES,
    ModelSpec,
    Partition,
    Side,
    SuperMatrix,
    ThresholdPolicy,
    ThresholdRule,
    build_report,
    emit_dot,
    fixture_text,
    load_fixture,
    parse_model,
    report_to_text,
    run_model,
    seed_from_labels,
    serialize_model,
    serialize_report,
)
from fuzzymaps.errors import (
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
    UnknownFixture,
)
from fuzzymaps.model_io import _num

# nonzero entry counts of the bundled matrices, counted independently
FIXTURE_NONZEROS = {
    "ex_1_2_1": 25,
    "ex_1_2_2": 16,
    "ex_1_2_3_structure": 46,
    "sec_2_2": 178,
    "sec_2_3": 196,
    "sec_2_4": 148,
    "sec_2_5_fcm": 184,
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_serialize_parse_is_identity_on_bytes(self, name):
        text = fixture_text(name)
        assert serialize_model(parse_model(text)) == text

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_parse_serialize_round_trip(self, name):
        spec = load_fixture(name)
        assert parse_model(serialize_model(spec)) == spec

    def test_serialization_is_deterministic(self):
        spec = load_fixture("sec_2_3")
        assert serialize_model(spec) == serialize_model(spec)

    def test_canonicalization_idempotent(self):
        text = fixture_text("sec_2_2")
        once = serialize_model(parse_model(text))
        twice = serialize_model(parse_model(once))
        assert once == twice

    def test_line_hygiene(self):
        text = fixture_text("sec_2_5_fcm")
        assert "\r" not in text
        assert text.endswith("\n")
        assert not any(line != line.rstrip() for line in text.splitlines())

    def test_matrix_rows_one_per_line(self):
        spec = load_fixture("ex_1_2_2")
        body = serialize_model(spec)
        rows = [ln for ln in body.splitlines() if ln.startswith("    [") and '"' not in ln]
        assert len(rows) == spec.matrix.n_rows


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("{ not json")

    def test_wrong_row_width_names_row(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][3] = doc["matrix"][3][:-1]
        with pytest.raises(ModelSchemaError, match=r"matrix\[3\]"):
            parse_model(json.dumps(doc))

    def test_out_of_domain_entry_names_cell(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][2][4] = 2
        with pytest.raises(ModelValidationError, match=r"matrix\[2\]\[4\]"):
            parse_model(json.dumps(doc))

    def test_unknown_top_level_field(self):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["surprise"] = 1
        with pytest.raises(ModelSchemaError, match="surprise"):
            parse_model(json.dumps(doc))

    def test_unknown_policy_field(self):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["policy"]["extra"] = {}
        with pytest.raises(ModelSchemaError, match="extra"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "version", [2, True, 1.0, "1"], ids=["int-2", "true", "float-1.0", "string-1"]
    )
    def test_bad_format_version(self, version):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["format_version"] = version
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == f"format_version: expected 1, got {version!r}"

    def test_missing_field(self):
        doc = json.loads(fixture_text("ex_1_2_1"))
        del doc["range"]
        with pytest.raises(ModelSchemaError, match="range"):
            parse_model(json.dumps(doc))

    def test_label_count_mismatch(self):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["domain"]["blocks"] = [["a1", "a2"]]
        with pytest.raises(ModelSchemaError, match="domain"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("domain", ["fuzzy_unit", "signed_ternary", "signed_unit",
                                        "unrestricted"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_entry_is_validation_error(self, domain, literal):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["entry_domain"] = domain
        doc["matrix"] = [[0] * len(row) for row in doc["matrix"]]
        text = json.dumps(doc).replace("0]", literal + "]", 1)
        with pytest.raises(ModelValidationError, match=r"matrix\[0\]\[5\]"):
            parse_model(text)

    @pytest.mark.parametrize("where", ["domain", "range", "first_step"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cutoff_is_validation_error(self, where, literal):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["policy"][where]["cutoff"] = "CUTOFF"
        text = json.dumps(doc).replace('"CUTOFF"', literal)
        with pytest.raises(ModelValidationError, match=f"policy.{where}"):
            parse_model(text)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_float_range_entry_is_validation_error(self, sign):
        text = _with_matrix_literal(2, 1, sign + "1" + "0" * 400)
        with pytest.raises(ModelValidationError) as err:
            parse_model(text)
        assert str(err.value) == (
            f"entry_domain at matrix[2][1]: entry {sign}inf outside signed_ternary"
        )
        # the message 1e999 gets
        with pytest.raises(ModelValidationError) as same:
            parse_model(_with_matrix_literal(2, 1, sign + "1e999"))
        assert str(same.value) == str(err.value)

    def test_integer_too_long_for_int_is_validation_error(self):
        # longer than the digits Python converts to int by default
        text = _with_matrix_literal(2, 1, "7" * 5000)
        with pytest.raises(ModelValidationError, match=r"matrix\[2\]\[1\]: entry inf"):
            parse_model(text)
        with pytest.raises(ModelSyntaxError):
            parse_model(text[:-2])

    @pytest.mark.parametrize("where", ["domain", "range", "first_step"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_float_range_cutoff_is_validation_error(self, where, sign):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["policy"][where]["cutoff"] = "CUTOFF"
        text = json.dumps(doc).replace('"CUTOFF"', sign + "9" * 400)
        with pytest.raises(ModelValidationError) as err:
            parse_model(text)
        assert str(err.value) == (
            f"cutoff at policy.{where}: cutoff {sign}inf is not finite"
        )

    def test_kind_mismatch_is_validation_error(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["kind"] = "super_row_frm"
        with pytest.raises(ModelValidationError, match="kind"):
            parse_model(json.dumps(doc))


class TestReports:
    def run_report(self, include_trace=False):
        spec = load_fixture("ex_1_2_1")
        seed = seed_from_labels(spec, {"a1"}, Side.DOMAIN)
        pattern = run_model(spec, seed)
        return build_report(spec, seed, pattern, include_trace=include_trace)

    def test_pair_states_match_golden(self):
        report = self.run_report()
        payload = json.loads(serialize_report(report))
        pair = payload["pattern"]["pairs"][0]
        assert pair["domain"]["bits"] == [1, 1, 1, 1, 1]
        assert pair["range"]["bits"] == [1] * 12
        assert pair["range"]["blocked"] == "111|1111|11111"
        assert payload["pattern"]["kind"] == "fixed_point"

    def test_serialization_deterministic(self):
        r1 = serialize_report(self.run_report(include_trace=True))
        r2 = serialize_report(self.run_report(include_trace=True))
        assert r1 == r2

    def test_text_rendering_mentions_labels(self):
        text = report_to_text(self.run_report(include_trace=True))
        assert "a1" in text and "E1^1" in text
        assert "fixed point" in text
        assert "step  1" in text

    def test_report_states_revalidate(self):
        spec = load_fixture("ex_1_2_1")
        report = self.run_report()
        for d, r in report.pattern.pair_sequence:
            assert d.partition == spec.matrix.row_partition
            assert r.partition == spec.matrix.col_partition


class TestDot:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_edge_count_equals_nonzeros(self, name):
        spec = load_fixture(name)
        dot = emit_dot(spec)
        assert dot.count(" -> ") == FIXTURE_NONZEROS[name]
        assert FIXTURE_NONZEROS[name] == int(
            np.count_nonzero(spec.matrix.entries)
        )

    def test_single_node_set_for_square_map(self):
        dot = emit_dot(load_fixture("sec_2_5_fcm"))
        # one node per label, not one per side
        assert dot.count("[label=\"R1\"]") == 1
        assert dot.count("n0 ") >= 1

    def test_zero_matrix_edgeless(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"] = [[0] * 6 for _ in range(12)]
        spec = parse_model(json.dumps(doc))
        dot = emit_dot(spec)
        assert " -> " not in dot
        assert dot.count("[label=") == 18  # nodes only

    def test_negative_edges_distinguished(self):
        dot = emit_dot(load_fixture("sec_2_2"))
        assert dot.count("style=dashed") == 41

    def test_deterministic(self):
        spec = load_fixture("sec_2_4")
        assert emit_dot(spec) == emit_dot(spec)

    def test_well_formed(self):
        dot = emit_dot(load_fixture("sec_2_4"))
        assert dot.startswith('digraph "sec_2_4" {')
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")
        assert "cluster_d0" in dot and "cluster_r2" in dot


class TestFixtures:
    def test_names(self):
        assert set(FIXTURE_NAMES) == set(FIXTURE_NONZEROS)

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            load_fixture("sec_9_9")

    def test_group_model_shape(self):
        spec = load_fixture("sec_2_2")
        assert spec.matrix.shape == (24, 14)
        assert spec.matrix.row_partition.sizes == (6, 6, 6, 6)
        assert spec.labels_flat(Side.DOMAIN)[:2] == ("A.R1", "A.R2")
        assert spec.labels_flat(Side.RANGE)[0] == "S1"

    def test_cognitive_map_shape(self):
        spec = load_fixture("sec_2_5_fcm")
        assert spec.kind.value == "fcm"
        assert spec.matrix.shape == (18, 18)
        assert spec.labels_flat(Side.DOMAIN) == tuple(
            f"R{i}" for i in range(1, 19)
        )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fuzzy_super_frm(seed: int = 7) -> ModelSpec:
    """A 9x7 fuzzy super-FRM mixing 0, 1, two-decimal and full-precision entries."""
    rng = random.Random(seed)
    rows = [
        [rng.choice((0, 1, round(rng.random(), 2), rng.random())) for _ in range(7)]
        for _ in range(9)
    ]
    return ModelSpec(
        name="fuzzy_sfrm",
        kind="super_frm",
        domain_labels=(("x1", "x2"), ("x3", "x4", "x5"), ("x6", "x7", "x8", "x9")),
        range_labels=(("y1", "y2", "y3"), ("y4", "y5", "y6", "y7")),
        matrix=SuperMatrix(
            np.array(rows, dtype=float), Partition((2, 3, 4)), Partition((3, 4))
        ),
        entry_domain="fuzzy_unit",
        policy=ThresholdPolicy(ThresholdRule("gt", 0.25), ThresholdRule("ge", 0.5)),
        description="seeded fuzzy super-FRM",
    )


# sha256 of serialize_model and emit_dot output, recorded with the
# per-entry implementation both were rewritten from
PINNED_BYTES = {
    "ex_1_2_1": (
        "dc87e2aebb37eaea4786e430e7e8b19327272cd9b496350d6c1d2cb33e02a434",
        "797ddb94a09856b1163668c99f980328d0772ce0d2ece60a632c5e16c5cdd5f1",
    ),
    "ex_1_2_2": (
        "6bfdb3e1fbbc22772e61e35a6c4c0eb0ed4ed1c3bed49e6bba3844f7a309ea44",
        "9f0b3c6cfbfa22a4717d522223b5bccecb592b783859c28384b324377cee2213",
    ),
    "ex_1_2_3_structure": (
        "f40cfc6980e8d1bbac841b4e1bc27a430be044b4724516a1645cf764ceabd225",
        "241b4640f19205e6885d531e7dfc799133e565dc2b49ba96bc19876743596afc",
    ),
    "sec_2_2": (
        "e3cff0f6c16aaa87e8eec9662326687e2f87a4a3f53a554be1adaa2b4edd6cc0",
        "a853560b3bca88d413e351516b60cc1e9639cc536e6117d48c410b1eaafd177c",
    ),
    "sec_2_3": (
        "92da471a09b357a6da34ef3012ed7165a003646197ccf86f450d8efb5f08a4bb",
        "1ed987de0150ed39dcc7e44ceff37fc9b2832bb8dc8d70bd30a00f3dd2c1a1cc",
    ),
    "sec_2_4": (
        "e100836b3716e53cec53eedfa08d6a91852fe78eb999e71320fca0b8d40cd081",
        "159d4d7ca1992a811e21daaa14a5d566d25033e17acf6ec8987f176260e4c613",
    ),
    "sec_2_5_fcm": (
        "ccf9fc44bac537e6fd2d81c8d273d282196dfd03bb0b3021852774ed8145b055",
        "464f7d2c1561242fbfdf30cd973f1c17afadfe32471267165607c6d15ea67559",
    ),
    "fuzzy_super_frm": (
        "8fdf415771b848b6b407925d055acfeb490abee0e240f1a532510ff8b614defc",
        "782e992590b93cacbbb9d28b6d5a81f138556b0cf06951386d85fda8cc4eea13",
    ),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_BYTES))
    def test_serialize_and_dot_bytes(self, name):
        spec = fuzzy_super_frm() if name == "fuzzy_super_frm" else load_fixture(name)
        assert not spec.diagnostics
        assert (_sha(serialize_model(spec)), _sha(emit_dot(spec))) == PINNED_BYTES[name]


# entries that mix integers with floats whose text is easy to get wrong
_AWKWARD = (
    -0.0, 0.1 + 0.2, 1e-7, -1e-7, 1e20, -1e20, 2**53 + 1.0, 2.0**63, -(2.0**63),
    1 - 2**-53, -1 + 2**-53, 1 + 2**-52, -1 - 2**-52, 0.5, 1.0, -1.0,
)
_entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(_AWKWARD),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrices(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


@st.composite
def _policies(draw):
    cmps = st.sampled_from(("ge", "gt"))
    rules = [ThresholdRule(draw(cmps), draw(_entries)) for _ in range(3)]
    mode = draw(st.sampled_from(("auto", "always", "never")))
    return ThresholdPolicy(*rules, first_step_mode=mode)


def _rule_text(rule: ThresholdRule) -> str:
    c = rule.cutoff
    cutoff = json.dumps(int(c) if c.is_integer() else c)
    return f'"cmp": "{rule.comparator.value}", "cutoff": {cutoff}'


def test_serialize_refuses_an_invalid_spec():
    spec = ModelSpec(
        name="inf",
        kind="frm",
        domain_labels=(("x",),),
        range_labels=(("y", "z"),),
        matrix=SuperMatrix.simple([[float("inf"), 1.0]]),
        entry_domain="unrestricted",
        policy=ThresholdPolicy(ThresholdRule("gt", 0), ThresholdRule("gt", 0)),
    )
    with pytest.raises(ModelValidationError, match=r"matrix\[0\]\[0\]: entry inf"):
        serialize_model(spec)


class TestGeneratedRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_policies())
    def test_policy_lines_round_trip(self, policy):
        spec = ModelSpec(
            name="generated",
            kind="frm",
            domain_labels=(("x",),),
            range_labels=(("y",),),
            matrix=SuperMatrix.simple([[1.0]]),
            entry_domain="unrestricted",
            policy=policy,
        )
        doc = serialize_model(spec)
        assert parse_model(doc).policy == policy
        assert serialize_model(parse_model(doc)) == doc
        lines = doc.splitlines()
        start = lines.index('  "policy": {') + 1
        mode = policy.first_step_mode.value
        assert lines[start : start + 4] == [
            f'    "domain": {{{_rule_text(policy.domain_rule)}}},',
            f'    "range": {{{_rule_text(policy.range_rule)}}},',
            f'    "first_step": {{"mode": "{mode}", '
            f"{_rule_text(policy.first_step_rule)}}}",
            "  }",
        ]

    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_canonical_text_round_trips_and_matches_num(self, rows):
        entries = np.array(rows, dtype=float)
        n_rows, n_cols = entries.shape
        spec = ModelSpec(
            name="generated",
            kind="frm",
            domain_labels=(tuple(f"x{i}" for i in range(n_rows)),),
            range_labels=(tuple(f"y{j}" for j in range(n_cols)),),
            matrix=SuperMatrix.simple(entries),
            entry_domain="unrestricted",
            policy=ThresholdPolicy(ThresholdRule("gt", 0), ThresholdRule("ge", 0.5)),
        )
        doc = serialize_model(spec)
        assert serialize_model(parse_model(doc)) == doc
        lines = doc.splitlines()
        start = lines.index('  "matrix": [') + 1
        for i in range(n_rows):
            cells = lines[start + i].strip().rstrip(",")[1:-1].split(", ")
            assert cells == [_num(v) for v in entries[i]]
        dot = emit_dot(spec)
        edges = [ln for ln in dot.splitlines() if " -> " in ln]
        assert edges == [
            f"  d{i} -> r{j} [label={json.dumps(_num(w))}"
            + (", style=dashed" if w < 0 else "") + "];"
            for i in range(n_rows)
            for j in range(n_cols)
            if (w := float(entries[i, j])) != 0.0
        ]


def _with_matrix_literal(row: int, col: int, literal: str) -> str:
    doc = json.loads(fixture_text("ex_1_2_2"))
    doc["matrix"][row][col] = "LITERAL"
    return json.dumps(doc).replace('"LITERAL"', literal)


class TestParseMessages:
    """Messages recorded with the per-entry type check, kept word for word."""

    @pytest.mark.parametrize("row", [0, 7])
    @pytest.mark.parametrize("literal", ["true", '"1"', "null", "[1]"])
    def test_non_number_entry(self, row, literal):
        with pytest.raises(ModelSchemaError) as err:
            parse_model(_with_matrix_literal(row, 3, literal))
        assert str(err.value) == f"matrix[{row}][3]: entries must be numbers"

    def test_first_bad_entry_of_a_row_is_named(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][4][1] = None
        doc["matrix"][4][5] = True
        doc["matrix"][6][0] = "1"
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == "matrix[4][1]: entries must be numbers"

    def test_ragged_row(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][5] = doc["matrix"][5] + [0]
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == "matrix[5]: row has 7 entries, expected 6"

    def test_ragged_row_reported_before_a_later_bad_entry(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][5] = doc["matrix"][5] + ["1"]
        doc["matrix"][9][2] = None
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == "matrix[5]: row has 7 entries, expected 6"

    def test_non_list_row(self):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][5] = {"a": 1}
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == "matrix[5]: each row must be an array"
