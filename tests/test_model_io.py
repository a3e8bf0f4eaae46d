import json

import numpy as np
import pytest

from fuzzymaps import (
    FIXTURE_NAMES,
    Side,
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

    def test_bad_format_version(self):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["format_version"] = 2
        with pytest.raises(ModelSchemaError, match="format_version"):
            parse_model(json.dumps(doc))

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
