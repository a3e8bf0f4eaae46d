import hashlib
import json
from dataclasses import replace

import pytest

from fuzzymaps import (
    Comparator,
    Side,
    ThresholdRule,
    enumerate_attractors,
    fixture_text,
    load_fixture,
)
from fuzzymaps.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_fixture_ok(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--fixture", "sec_2_5_fcm")
        assert code == 0
        assert "fcm 18x18 ok" in out

    def test_truncated_document(self, capsys, tmp_path):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["matrix"][5] = doc["matrix"][5][:-2]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 3
        assert "matrix[5]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["run", "--side", "domain", "--on", "1"],
            ["sweep", "--side", "domain"],
            ["attractors", "--side", "domain"],
        ],
    )
    def test_nan_entry_is_invalid_model(self, capsys, tmp_path, argv):
        doc = json.loads(fixture_text("ex_1_2_2"))
        doc["entry_domain"] = "unrestricted"
        doc["matrix"][1][2] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 3
        assert "matrix[1][2]: entry nan outside unrestricted" in err

    @pytest.mark.parametrize("argv", [["validate"], ["run", "--on", "a1"], ["dot"]])
    @pytest.mark.parametrize("where", ["matrix", "cutoff"])
    def test_integer_beyond_float_range_is_invalid_model(
        self, capsys, tmp_path, argv, where
    ):
        doc = json.loads(fixture_text("ex_1_2_1"))
        if where == "matrix":
            doc["matrix"][0][0] = "HUGE"
            expected = "matrix[0][0]: entry inf outside"
        else:
            doc["policy"]["range"]["cutoff"] = "HUGE"
            expected = "policy.range: cutoff inf is not finite"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 400))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 3
        assert expected in err

    def test_no_input(self, capsys):
        code, out, err = run_cli(capsys, "validate")
        assert code == 2
        assert "no model" in err

    def test_path_and_fixture_conflict(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(fixture_text("ex_1_2_1"))
        code, out, err = run_cli(
            capsys, "validate", str(path), "--fixture", "ex_1_2_1"
        )
        assert code == 2

    def test_model_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(fixture_text("ex_1_2_1"))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 0

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_document_not_utf8_is_invalid_model(self, capsys, tmp_path, flags):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "validate", str(path), *flags)
        assert code == 3
        assert err.startswith("invalid model: ") and "UTF-8" in err
        if flags:
            assert json.loads(out)["valid"] is False

    def test_entry_named_by_its_exact_value(self, capsys, tmp_path):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["entry_domain"] = "fuzzy_unit"
        doc["matrix"][0][0] = 1.0000000000000002
        path = tmp_path / "above_one.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 3
        assert "matrix[0][0]: entry 1.0000000000000002 outside fuzzy_unit" in err

    @pytest.mark.parametrize("flags, code", [([], 3), (["--json"], 2)])
    def test_diagnosis_printed_before_the_output_is_written(
        self, capsys, tmp_path, flags, code
    ):
        doc = json.loads(fixture_text("ex_1_2_1"))
        doc["matrix"][0][0] = 2
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        target = tmp_path / "missing" / "x"
        got, out, err = run_cli(capsys, "validate", str(path), *flags, "-o", str(target))
        # an unwritable -o is still a usage error, after the diagnosis
        assert got == code and out == ""
        assert err.startswith("invalid model: ") and "matrix[0][0]: entry 2" in err
        assert ("error: cannot write output: " in err) is bool(flags)

    def test_json_output(self, capsys):
        code, out, err = run_cli(
            capsys, "validate", "--fixture", "ex_1_2_2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["model"]["kind"] == "super_column_frm"


class TestRun:
    def test_expert_seed(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run",
            "--fixture",
            "ex_1_2_2",
            "--side",
            "domain",
            "--on",
            "e4^1,e2^2,e4^3",
        )
        assert code == 0
        assert "11010|110|0101" in out
        assert "110110" in out

    def test_cognitive_map_seed(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--fixture", "sec_2_5_fcm", "--on", "R9", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        pair = payload["pattern"]["pairs"][0]
        off = [i + 1 for i, b in enumerate(pair["domain"]["bits"]) if not b]
        assert off == [4, 5, 11, 14]

    def test_unknown_label_lists_near_matches(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--fixture", "sec_2_5_fcm", "--on", "R9x"
        )
        assert code == 2
        assert "near matches" in err and "R9" in err

    def test_side_inference(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--fixture", "sec_2_2", "--on", "S1", "--json"
        )
        assert code == 0
        assert json.loads(out)["seed"]["side"] == "range"

    def test_block_qualified_syntax(self, capsys):
        # 2.3 means block 2, position 3 on the domain side
        code, out, err = run_cli(
            capsys,
            "run", "--fixture", "ex_1_2_2", "--side", "domain",
            "--on", "1.4,2.2,3.4", "--json",
        )
        assert code == 0
        assert json.loads(out)["seed"]["labels"] == ["e4^1", "e2^2", "e4^3"]

    @pytest.mark.parametrize(
        "fixture, flags, token",
        [
            ("sec_2_5_fcm", [], "\u00b2"),
            ("sec_2_2", ["--side", "domain"], "1.\u00b2"),
        ],
    )
    def test_non_decimal_digits_are_usage_error(self, capsys, fixture, flags, token):
        # "\u00b2".isdigit() holds, but int() refuses it
        code, out, err = run_cli(
            capsys, "run", "--fixture", fixture, *flags, "--on", token
        )
        assert code == 2
        assert f"label {token!r}" in err and out == ""

    def test_policy_override_grammar(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run", "--fixture", "sec_2_5_fcm", "--on", "R11",
            "--threshold-domain", "ge:2", "--threshold-range", "ge:2",
            "--json",
        )
        assert code == 0
        pair = json.loads(out)["pattern"]["pairs"][0]
        on = [i + 1 for i, b in enumerate(pair["domain"]["bits"]) if b]
        assert on == [4, 5, 11, 14]

    def test_bad_override(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run", "--fixture", "sec_2_5_fcm", "--on", "R1",
            "--threshold-domain", "gte/2",
        )
        assert code == 2

    @pytest.mark.parametrize("rule", ["gt:nan", "ge:inf", "ge:-inf", "gt:NaN"])
    @pytest.mark.parametrize("flag", ["--threshold-domain", "--threshold-range",
                                      "--first-step"])
    def test_non_finite_override_is_usage_error(self, capsys, flag, rule):
        code, out, err = run_cli(
            capsys, "run", "--fixture", "sec_2_5_fcm", "--on", "R1", flag, rule
        )
        assert code == 2
        assert "not finite" in err and out == ""

    def test_trace_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--fixture", "ex_1_2_1", "--on", "a1", "--trace"
        )
        assert code == 0
        assert "step  1" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys,
            "run", "--fixture", "ex_1_2_1", "--on", "a1",
            "--json", "-o", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["model"] == "ex_1_2_1"

    def test_trace_prints_a_near_tie_exactly(self, capsys, tmp_path):
        # 0.1 + 0.2 is 0.30000000000000004, which gt 0.3 turns on
        doc = {
            "format_version": 1,
            "name": "near_tie",
            "kind": "fcm",
            "entry_domain": "fuzzy_unit",
            "domain": {"blocks": [["a", "b", "c"]]},
            "range": {"blocks": [["a", "b", "c"]]},
            "matrix": [[0, 0, 0.1], [0, 0, 0.2], [0, 0, 0]],
            "policy": {
                "domain": {"cmp": "gt", "cutoff": 0.3},
                "range": {"cmp": "gt", "cutoff": 0.3},
                "first_step": {"mode": "never", "cmp": "gt", "cutoff": 0},
            },
        }
        path = tmp_path / "near_tie.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", str(path), "--on", "a,b", "--trace")
        assert code == 0, err
        assert "raw [0 0 0.30000000000000004] > 0.3 -> 111" in out


class TestSweep:
    def test_row_count(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--fixture", "sec_2_5_fcm", "--side", "domain"
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln.startswith("  R")]
        assert len(rows) == 18

    def test_twin_seeds_share_fixed_point(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--fixture", "sec_2_5_fcm", "--side", "domain", "--json",
        )
        payload = json.loads(out)
        by_seed = {row["seed"]: row["pattern"] for row in payload["rows"]}
        assert by_seed["R9"] == by_seed["R15"]

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(
            capsys, "sweep", "--fixture", "sec_2_4", "--side", "domain", "--json"
        )
        _, out2, _ = run_cli(
            capsys, "sweep", "--fixture", "sec_2_4", "--side", "domain", "--json"
        )
        assert out1 == out2

    def test_side_required_for_two_sided(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--fixture", "ex_1_2_2")
        assert code == 2


class TestAttractors:
    def test_basins_sum(self, capsys):
        code, out, err = run_cli(
            capsys,
            "attractors", "--fixture", "ex_1_2_1", "--side", "domain", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_seeds"] == 32
        assert sum(a["basin_size"] for a in payload["attractors"]) == 32

    def test_state_bound_exceeded(self, capsys):
        code, out, err = run_cli(
            capsys,
            "attractors", "--fixture", "sec_2_5_fcm", "--side", "domain",
            "--max-states", "8",
        )
        assert code == 4
        assert "exceed" in err

    def test_text_output(self, capsys):
        code, out, err = run_cli(
            capsys, "attractors", "--fixture", "ex_1_2_2", "--side", "range"
        )
        assert code == 0
        assert "64 seeds" in out

    def test_policy_flags(self, capsys):
        def attractors(*flags):
            code, out, err = run_cli(
                capsys, "attractors", "--fixture", "sec_2_2", "--side", "range",
                "--json", *flags,
            )
            assert code == 0, err
            return sorted(
                (a["kind"], a["period"], a["basin_size"],
                 tuple(sum(b << i for i, b in enumerate(s)) for s in a["states"]))
                for a in json.loads(out)["attractors"]
            )

        spec = load_fixture("sec_2_2")
        policy = replace(
            spec.policy,
            domain_rule=ThresholdRule(Comparator.GT, 0),
            range_rule=ThresholdRule(Comparator.GT, 9),
        )
        census = enumerate_attractors(spec.matrix, Side.RANGE, policy)
        expected = sorted(
            (a.kind.value, a.period, a.basin_size, a.states)
            for a in census.attractors
        )
        got = attractors("--threshold-domain", "gt:0", "--threshold-range", "gt:9")
        assert got == expected
        assert got != attractors()


    @pytest.mark.parametrize(
        "fixture, side, fmt, digest",
        [
            ("sec_2_4", "domain", "--json",
             "42ce66a32ff885e24a54e80db8c7e1936e014719fa1e4270c67e7222f21afb92"),
            ("sec_2_4", "domain", "text",
             "d091a0814c93d397eabc23e5deeda828d82b34121fe3882c172440777a507b63"),
            ("ex_1_2_3_structure", "range", "--json",
             "406d2c8badc546d7e5644097744bf707e3c54a4aeea6e229e6f25b2692f3054c"),
            ("ex_1_2_3_structure", "range", "text",
             "80f85f2a00827eea6160aa7623152c945fcb27b48a8706d8eb090c78e64f278b"),
        ],
        ids=["sec_2_4-json", "sec_2_4-text", "ex_1_2_3-json", "ex_1_2_3-text"],
    )
    def test_output_bytes_pinned(self, capsys, fixture, side, fmt, digest):
        # sha256 of the output as recorded before the census became columnar:
        # the (-basin, states) order and every byte of both formats
        flags = [fmt] if fmt == "--json" else []
        code, out, err = run_cli(
            capsys, "attractors", "--fixture", fixture, "--side", side, *flags
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

class TestPinnedOutput:
    """sha256 of run, sweep and validate output, recorded before the report
    and the CLI shared one policy writer and ``run`` called ``run_model``."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["run", "--fixture", "ex_1_2_1", "--on", "a1", "--json", "--trace"],
             "7dfc6a5a38245bcce25f8fdb71ea96bd7ef5ca3149d9f2792c440b2eb25d39db"),
            (["run", "--fixture", "sec_2_2", "--side", "domain",
              "--on", "A.R1,C.R4", "--json", "--trace"],
             "f8f4ccfd2f552118d622fdd6c61facd20784a8495ba35f5d5eb06231e349c9db"),
            (["run", "--fixture", "sec_2_2", "--side", "range", "--on", "S4",
              "--json", "--trace"],
             "60c84505e227d1b6f358f0823fe79ff75842d217e568629d5be68a68a4e4a17d"),
            (["run", "--fixture", "sec_2_5_fcm", "--on", "R11", "--json", "--trace"],
             "1fe222ff69ffb310b6f45bb4b8c9c4c3d648b8f7e3f042d21073aa698133ab97"),
            (["run", "--fixture", "sec_2_2", "--side", "range", "--on", "S1,S10",
              "--json", "--trace", "--threshold-domain", "gt:0",
              "--threshold-range", "ge:1.5", "--first-step", "ge:1"],
             "d4fed07d02e6add0bc364a0e0220b08223214f0eff14f442a2629445cd5009a7"),
            (["run", "--fixture", "ex_1_2_1", "--on", "a2", "--json", "--trace",
              "--threshold-domain", "ge:1", "--first-step", "never"],
             "0d116ceb7d495cafebb18f7c51ef7b1502634f23198a683c5482dd7eaa9483c8"),
            (["sweep", "--fixture", "ex_1_2_1", "--side", "domain", "--json"],
             "50d96688c5aa0fa12ea74a2877a8d679df6f333f1c4959fb368803554c7bc906"),
            (["sweep", "--fixture", "sec_2_2", "--side", "domain", "--json"],
             "1f7405f5c080609490d58840950cb9db8459cbada3dc7a80d5c175141c42428f"),
            (["sweep", "--fixture", "sec_2_2", "--side", "range", "--json"],
             "cfc681125feea1a3d1a0c1cdcbbbe8544ca01dca3491bcd3fc3204773c3f62bc"),
            (["sweep", "--fixture", "sec_2_5_fcm", "--json"],
             "468a9b682da49cd5bdd38e0323f19f076c7958df885207a0e398476144f176c0"),
            (["sweep", "--fixture", "sec_2_2", "--side", "range", "--json",
              "--threshold-range", "gt:9", "--first-step", "always"],
             "b1bce7d2fbaedbddd321e571db8b6cb93df706df06ec8cd9093dc7977a8d1a60"),
            (["validate", "--fixture", "ex_1_2_1", "--json"],
             "718124e46efcab07f822177ebcd2b900ba7b60c9fdd5113aab701addf6abf202"),
            (["validate", "--fixture", "sec_2_2", "--json"],
             "6e149fb1f021ca0e4385ec8ba338c5e5abe0e48f8c652988685d98741aefe4e0"),
            (["validate", "--fixture", "sec_2_5_fcm", "--json"],
             "9260adc2f9c4298e5e8b80f09770c00eb50001704fc535304fcafd69a66f4aa4"),
        ],
        ids=[
            "run-ex_1_2_1", "run-sec_2_2-domain", "run-sec_2_2-range",
            "run-sec_2_5_fcm", "run-sec_2_2-flags", "run-ex_1_2_1-flags",
            "sweep-ex_1_2_1", "sweep-sec_2_2-domain", "sweep-sec_2_2-range",
            "sweep-sec_2_5_fcm", "sweep-sec_2_2-flags", "validate-ex_1_2_1",
            "validate-sec_2_2", "validate-sec_2_5_fcm",
        ],
    )
    def test_output_bytes_pinned(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # the text report of a traced run, recorded before raw sums, cutoffs and
    # model documents shared one number renderer
    @pytest.mark.parametrize(
        "argv, flagged, digest",
        [
            (["run", "--fixture", "ex_1_2_1", "--on", "a1"], False,
             "a609c9edd7f2f5fcdcf00b6aeac97db25a80d4ec85657be539a36ea931a2fc41"),
            (["run", "--fixture", "ex_1_2_1", "--on", "a1"], True,
             "a7e43f617c256eaa54b30f84e9781b26fe5ddc773ebd5dd5f4831c1014322c5f"),
            (["run", "--fixture", "sec_2_2", "--side", "range", "--on", "S4"], False,
             "f8dc372466910e805cb32a3cc6106d1cc54063ba2080a7088c57b49f5a016753"),
            (["run", "--fixture", "sec_2_2", "--side", "range", "--on", "S4"], True,
             "464d69b9b9b2b6815e8e0eb1856d5d2806aabde1fc941b1fa50050793e57b1a7"),
            (["run", "--fixture", "sec_2_5_fcm", "--on", "R11"], False,
             "459eb20c39304507d43796ab03dc2adca371cc70d7ca8fb581673be7c323cc65"),
            (["run", "--fixture", "sec_2_5_fcm", "--on", "R11"], True,
             "ab9b88b4178af5a530adeec1ad8b9653ab0368a250271c7d5bfdbbf8056a2fab"),
        ],
        ids=[
            "ex_1_2_1", "ex_1_2_1-flags", "sec_2_2-range", "sec_2_2-range-flags",
            "sec_2_5_fcm", "sec_2_5_fcm-flags",
        ],
    )
    def test_trace_text_pinned(self, capsys, argv, flagged, digest):
        flags = ["--threshold-range", "ge:1.5", "--first-step", "ge:0.5"]
        code, out, err = run_cli(capsys, *argv, "--trace", *(flags if flagged else []))
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestDot:
    def test_bipartite_clusters(self, capsys):
        code, out, err = run_cli(capsys, "dot", "--fixture", "sec_2_4")
        assert code == 0
        assert "cluster_d0" in out
        assert "cluster_r0" in out and "cluster_r2" in out

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "dot", "--fixture", "sec_2_3")
        _, out2, _ = run_cli(capsys, "dot", "--fixture", "sec_2_3")
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, err = run_cli(
            capsys, "dot", "--fixture", "ex_1_2_1", "-o", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("digraph")


class TestRepeatedCalls:
    """One parser serves every main() call; no call leaks into the next."""

    def test_trace_does_not_carry_over(self, capsys):
        base = ["run", "--fixture", "ex_1_2_1", "--on", "a1", "--json"]
        code, traced, _ = run_cli(capsys, *base, "--trace")
        assert code == 0 and "steps" in json.loads(traced)
        code, plain, _ = run_cli(capsys, *base)
        assert code == 0 and "steps" not in json.loads(plain)

    def test_threshold_flag_does_not_carry_over(self, capsys):
        base = ["run", "--fixture", "sec_2_5_fcm", "--on", "R11", "--json"]
        _, before, _ = run_cli(capsys, *base)
        _, pinned, _ = run_cli(
            capsys, *base, "--threshold-domain", "ge:2", "--threshold-range", "ge:2"
        )
        _, after, _ = run_cli(capsys, *base)
        assert json.loads(pinned)["policy"]["domain"]["cutoff"] == 2
        assert before == after != pinned

    def test_failed_call_does_not_carry_over(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--fixture", "ex_1_2_1", "--bogus")
        assert code == 2
        code, out, _ = run_cli(capsys, "validate", "--fixture", "ex_1_2_1")
        assert code == 0 and "ok" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["never-heard-of-it"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--fixture", "ex_1_2_1"],
            ["run", "--fixture", "ex_1_2_1", "--on", "a1"],
            ["dot", "--fixture", "ex_1_2_1"],
        ],
        ids=["validate", "run", "dot"],
    )
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "-o", str(target))
        assert code == 2
        assert err.startswith("error: cannot write output: ") and out == ""
        assert not target.exists()

    def test_unknown_fixture_choice(self, capsys):
        assert main(["validate", "--fixture", "nope"]) == 2

    def test_json_outputs_stable(self, capsys):
        for argv in (
            ["validate", "--fixture", "ex_1_2_1", "--json"],
            ["run", "--fixture", "ex_1_2_1", "--on", "a1", "--json"],
            ["sweep", "--fixture", "ex_1_2_1", "--side", "domain", "--json"],
            ["attractors", "--fixture", "ex_1_2_1", "--side", "domain", "--json"],
            ["dot", "--fixture", "ex_1_2_1", "--json"],
        ):
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2
            json.loads(out1)
