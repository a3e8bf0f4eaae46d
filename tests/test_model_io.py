import functools
import hashlib
import json
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    partition_matrix,
    report_to_text,
    run_model,
    seed_from_labels,
    serialize_model,
    serialize_report,
    validate_model,
)
from fuzzymaps.errors import (
    FuzzyMapsError,
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
    UnknownFixture,
)
from fuzzymaps.model_io import _json, _num, report_to_dict

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

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            '{"a": ' * 100_000 + "1" + "}" * 100_000,
            fixture_text("ex_1_2_1")[:-2]
            + ', "description": '
            + "[" * 5000
            + "]" * 5000
            + "}",
        ],
        ids=["arrays", "objects", "in-a-field"],
    )
    def test_nested_too_deeply(self, text):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(text)
        assert str(err.value) == "arrays or objects nested too deeply to read"

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
        return build_report(spec, seed, pattern, spec.policy, include_trace=include_trace)

    def test_a_report_needs_a_policy(self):
        spec = load_fixture("ex_1_2_1")
        seed = seed_from_labels(spec, {"a1"}, Side.DOMAIN)
        with pytest.raises(TypeError):
            build_report(spec, seed, run_model(spec, seed))

    def test_pair_states_match_golden(self):
        report = self.run_report()
        payload = json.loads(serialize_report(report))
        assert report_to_dict(report) == payload
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

    def test_text_rendering_of_a_limit_cycle(self):
        # mutual inhibition: the free node flips at every product
        spec = ModelSpec(
            name="ping",
            kind="fcm",
            domain_labels=(("a", "b"),),
            range_labels=(("a", "b"),),
            matrix=partition_matrix([[-1, 1], [1, -1]]),
            entry_domain="signed_ternary",
            policy=ThresholdPolicy(ThresholdRule("gt", 0), ThresholdRule("gt", 0)),
        )
        seed = seed_from_labels(spec, {"a"}, Side.DOMAIN)
        report = build_report(spec, seed, run_model(spec, seed), spec.policy)
        assert report.pattern.period == 2
        assert report_to_text(report) == (
            "model: ping\n"
            "seed:  a [domain]\n"
            "policy: domain > 0 | range > 0 | first step > 0 (auto)\n"
            "hidden pattern: limit cycle, period 2 (entered after 0 rounds)\n"
            "  pair 0 domain 11\n"
            "         on: a, b\n"
            "  pair 0 range  11\n"
            "         on: a, b\n"
            "  pair 1 domain 10\n"
            "         on: a\n"
            "  pair 1 range  10\n"
            "         on: a\n"
        )

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

    def test_non_ascii_name_and_labels_written_as_they_are(self):
        # DOT has no \u escape: Graphviz would print "médias" literally
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["name"] = "réseau des médias"
        doc["domain"]["blocks"][0][0] = "médias"
        doc["range"]["blocks"][-1][-1] = 'Ωmega "quoted"'
        spec = parse_model(json.dumps(doc))
        dot = emit_dot(spec)
        assert dot.startswith('digraph "réseau des médias" {\n')
        assert '    d0 [label="médias"];' in dot.splitlines()
        assert '    r5 [label="Ωmega \\"quoted\\""];' in dot.splitlines()
        assert "\\u" not in dot
        # the model document itself stays ASCII, with JSON escapes
        assert serialize_model(spec).isascii()


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
        matrix=partition_matrix([[float("inf"), 1.0]]),
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
            matrix=partition_matrix([[1.0]]),
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
            matrix=partition_matrix(entries),
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


# strings with non-ASCII letters, control characters, quotes and backslashes
_JSON_TEXT = st.text() | st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té名\U0001f600'))
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, 0.1])
    | _JSON_TEXT
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=500, deadline=None)
    @given(_JSON_TREES)
    @example({"pad": [], "b": {}, "c": ((),), "d": [math.nan, -math.inf, math.inf]})
    def test_equals_the_stdlib_encoder(self, value):
        assert _json(value) == json.dumps(value, indent=2)


def _field_paths(node, path=()):
    """The path of every member and item under ``node``, ``node`` itself
    included, as keys and indices from the top."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _field_paths(value, path + (key,))


# every field of each bundled document, at any depth, the top excluded
_FIXTURE_FIELDS = {
    name: list(_field_paths(json.loads(fixture_text(name))))[1:]
    for name in FIXTURE_NAMES
}


class TestParseFuzz:
    """Whatever text ``parse_model`` is given, it returns a model or raises a
    :class:`FuzzyMapsError`; nothing else escapes."""

    @staticmethod
    def _parse(text):
        try:
            parse_model(text)
        except FuzzyMapsError:
            pass

    @settings(max_examples=500, deadline=None)
    @given(_JSON_TREES)
    def test_any_json_document(self, tree):
        self._parse(json.dumps(tree))

    @settings(max_examples=500, deadline=None)
    @given(st.text() | st.text(st.sampled_from('{}[]":,.-+0123456789eEtruefalsn \\')))
    def test_any_text(self, text):
        self._parse(text)

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(FIXTURE_NAMES), st.data())
    def test_a_fixture_with_one_field_replaced(self, name, data):
        doc = json.loads(fixture_text(name))
        *head, last = data.draw(st.sampled_from(_FIXTURE_FIELDS[name]))
        functools.reduce(operator.getitem, head, doc)[last] = data.draw(_JSON_TREES)
        self._parse(json.dumps(doc))


class TestParseMemory:
    def test_peak_of_a_400_node_map(self):
        # the float grid is built once: 1.22 MiB of entries, traced on a
        # second parse (the first may set up numpy's own state)
        rng = random.Random(0)
        labels = {"blocks": [[f"C{i}" for i in range(400)]]}
        rule = {"cmp": "gt", "cutoff": 0}
        doc = {
            "format_version": 1,
            "name": "ternary400",
            "kind": "fcm",
            "entry_domain": "signed_ternary",
            "domain": labels,
            "range": labels,
            "matrix": [
                [rng.choice((-1, 0, 0, 0, 1)) for _ in range(400)]
                for _ in range(400)
            ],
            "policy": {
                "domain": rule,
                "range": rule,
                "first_step": {"mode": "auto", **rule},
            },
        }
        text = json.dumps(doc)
        parse_model(text)
        tracemalloc.start()
        try:
            spec = parse_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.matrix.entries.tolist() == doc["matrix"]
        assert peak <= 3.5 * 2**20


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


def _edited(edit) -> str:
    doc = json.loads(fixture_text("ex_1_2_1"))
    edit(doc)
    return json.dumps(doc)


class TestFieldMessages:
    """Every document object is checked by one rule: its shape, then any
    unknown field, then any missing one."""

    @pytest.mark.parametrize("text", ["[]", "1", '"doc"', "null"])
    def test_top_level_not_an_object(self, text):
        with pytest.raises(ModelSchemaError) as err:
            parse_model(text)
        assert str(err.value) == "document: expected an object"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("matrix"), "document: missing fields: ['matrix']"),
            (
                lambda d: [d.pop(k) for k in ("policy", "kind")],
                "document: missing fields: ['kind', 'policy']",
            ),
            (
                lambda d: d["domain"].pop("blocks"),
                "domain: missing fields: ['blocks']",
            ),
            (
                lambda d: d["policy"].pop("first_step"),
                "policy: missing fields: ['first_step']",
            ),
            (
                lambda d: d["policy"]["first_step"].pop("mode"),
                "policy.first_step: missing fields: ['mode']",
            ),
            (
                lambda d: d["policy"]["range"].pop("cutoff"),
                "policy.range: missing fields: ['cutoff']",
            ),
            (
                lambda d: d["policy"]["domain"].clear(),
                "policy.domain: missing fields: ['cmp', 'cutoff']",
            ),
        ],
    )
    def test_missing_fields(self, edit, message):
        with pytest.raises(ModelSchemaError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: d["range"].update(extra=1),
                "range: unknown fields: ['extra']",
            ),
            (
                lambda d: d["policy"]["domain"].update(mode="auto"),
                "policy.domain: unknown fields: ['mode']",
            ),
            (lambda d: d.update(range=[]), "range: expected an object"),
            (
                lambda d: d["policy"].update(first_step="auto"),
                "policy.first_step: expected an object",
            ),
        ],
    )
    def test_unknown_fields_and_shapes(self, edit, message):
        with pytest.raises(ModelSchemaError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == message

    def test_unknown_field_reported_before_a_missing_one(self):
        def edit(doc):
            doc["policy"]["range"] = {"cmp": "gt", "cut": 0}

        with pytest.raises(ModelSchemaError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == "policy.range: unknown fields: ['cut']"

    def test_first_step_shape_reported_before_the_side_rules(self):
        def edit(doc):
            doc["policy"]["domain"] = {"cmp": "gte", "cutoff": 0}
            del doc["policy"]["first_step"]["cutoff"]

        with pytest.raises(ModelSchemaError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == "policy.first_step: missing fields: ['cutoff']"


class TestFirstBadItemAfterValidOnes:
    """The checks test a whole matrix, block or side at once; when one fails,
    the first bad item is named as a walk item by item would name it."""

    @pytest.mark.parametrize("bad_entry_after", [False, True])
    def test_short_row_after_valid_rows(self, bad_entry_after):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][9] = doc["matrix"][9][:5]
        if bad_entry_after:
            doc["matrix"][11][0] = None
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == "matrix[9]: row has 5 entries, expected 6"

    @pytest.mark.parametrize("label", [7, None, ["e4^3"]])
    def test_non_string_label_in_a_later_block(self, label):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["domain"]["blocks"][2][3] = label
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == "domain.blocks[2]: labels must be strings"

    @pytest.mark.parametrize("block", [[], "e1^2", None])
    def test_bad_later_block(self, block):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["domain"]["blocks"][1] = block
        doc["domain"]["blocks"][2][0] = 1
        with pytest.raises(ModelSchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == (
            "domain.blocks[1]: each block must be a non-empty array"
        )

    @pytest.mark.parametrize(
        "label, what, code",
        [
            ("E" * 65, "longer than 64 characters", "label_length"),
            ("E4\x1b2", "holds a control character", "label_control"),
        ],
        ids=["label_length", "label_control"],
    )
    def test_bad_last_label_of_a_middle_block(self, label, what, code):
        def edit(doc):
            doc["range"]["blocks"][1][3] = label

        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == f"{code} at range.blocks[1]: label {label!r} {what}"

    def test_label_repeated_across_blocks(self):
        def edit(doc):
            doc["range"]["blocks"][2][4] = "E2^1"

        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == (
            "duplicate_labels at range.blocks: labels repeat: E2^1"
        )

    def test_entry_outside_the_domain_in_the_last_cell(self):
        def edit(doc):
            doc["matrix"][4][11] = 0.5

        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == (
            "entry_domain at matrix[4][11]: entry 0.5 outside signed_ternary"
        )


class TestControlCharacters:
    """DOT can neither hold nor escape a C0 control character."""

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\t", "\n", "\x1f"])
    def test_label_refused(self, char):
        label = f"a{char}b"

        def edit(doc):
            doc["range"]["blocks"][1][2] = label

        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == (
            f"label_control at range.blocks[1]: label {label!r} holds a control "
            "character"
        )

    @pytest.mark.parametrize("char", ["\x02", "\r", "\x1b"])
    def test_model_name_refused(self, char):
        def edit(doc):
            doc["name"] = f"n{char}m"

        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == (
            "name_control at name: must not hold a control character"
        )

    @pytest.mark.parametrize("char", [" ", "\x7f", "\u00e9", "\u2028"])
    def test_other_characters_kept(self, char):
        def edit(doc):
            doc["name"] = f"n{char}m"
            doc["domain"]["blocks"][0][0] = f"a{char}b"

        spec = parse_model(_edited(edit))
        assert spec.name == f"n{char}m"
        assert f'label="a{char}b"' in emit_dot(spec)


class TestLoneSurrogates:
    """No UTF-8 writer can encode a lone surrogate, which a JSON escape such
    as \\ud800 can put in a name or label."""

    @pytest.mark.parametrize("char", ["\ud800", "\udbff", "\udc00", "\udfff"])
    def test_label_refused(self, char):
        label = f"a{char}b"

        def edit(doc):
            doc["range"]["blocks"][1][2] = label

        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == (
            f"lone_surrogate at range.blocks[1]: label {label!r} holds a lone "
            "surrogate"
        )

    def test_model_name_refused(self):
        def edit(doc):
            doc["name"] = "n\udc80m"

        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(edit))
        assert str(err.value) == "lone_surrogate at name: must not hold a lone surrogate"

    def test_with_a_control_character(self):
        spec = _one_by_one(name="\x01\ud800", label="\ud800\x01")
        assert [str(d) for d in validate_model(spec)] == [
            "name_control at name: must not hold a control character",
            "lone_surrogate at name: must not hold a lone surrogate",
            "label_control at domain.blocks[0]: label '\\ud800\\x01' holds a "
            "control character",
            "lone_surrogate at domain.blocks[0]: label '\\ud800\\x01' holds a "
            "lone surrogate",
        ]

    def test_surrogate_pair_kept(self):
        # json.dumps writes U+1F600 as the escaped pair \\ud83d\\ude00
        def edit(doc):
            doc["name"] = "n\U0001f600"
            doc["domain"]["blocks"][0][0] = "a\U0001f600"

        text = _edited(edit)
        assert "\\ud83d\\ude00" in text
        spec = parse_model(text)
        assert 'label="a\U0001f600"' in emit_dot(spec)
        emit_dot(spec).encode("utf-8")


def _one_by_one(name: str = "one", label: str = "x") -> ModelSpec:
    """A 1x1 ``frm`` spec built in code, with domain label ``label``."""
    return ModelSpec(
        name=name,
        kind="frm",
        domain_labels=((label,),),
        range_labels=(("y",),),
        matrix=partition_matrix([[1.0]]),
        entry_domain="signed_ternary",
        policy=ThresholdPolicy(ThresholdRule("gt", 0), ThresholdRule("gt", 0)),
    )


class TestLabelRules:
    """Label length and control characters are validation diagnostics, so a
    spec built in code meets the rules that a parsed document meets."""

    @pytest.mark.parametrize(
        "fields, diagnostic",
        [
            (
                {"label": "a\x01b"},
                "label_control at domain.blocks[0]: label 'a\\x01b' holds a "
                "control character",
            ),
            (
                {"name": "n\x02m"},
                "name_control at name: must not hold a control character",
            ),
            (
                {"label": "x" * 65},
                f"label_length at domain.blocks[0]: label '{'x' * 65}' longer "
                "than 64 characters",
            ),
        ],
        ids=["label", "name", "length"],
    )
    def test_code_built_spec_is_refused(self, fields, diagnostic):
        spec = _one_by_one(**fields)
        assert [str(d) for d in validate_model(spec)] == [diagnostic]
        for write in (serialize_model, emit_dot):
            with pytest.raises(ModelValidationError) as err:
                write(spec)
            assert str(err.value) == diagnostic

    def test_64_character_label_passes(self):
        spec = _one_by_one(label="x" * 64)
        assert validate_model(spec) == ()
        assert parse_model(serialize_model(spec)) == spec
        assert f'd0 [label="{"x" * 64}"];' in emit_dot(spec)

    def test_label_length_through_a_document(self):
        def edit(doc, label):
            doc["range"]["blocks"][2][4] = label

        spec = parse_model(_edited(lambda d: edit(d, "e" * 64)))
        assert spec.labels_flat(Side.RANGE)[-1] == "e" * 64
        with pytest.raises(ModelValidationError) as err:
            parse_model(_edited(lambda d: edit(d, "e" * 65)))
        assert str(err.value) == (
            f"label_length at range.blocks[2]: label '{'e' * 65}' longer than 64 "
            "characters"
        )
