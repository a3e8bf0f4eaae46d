import hashlib
import json

import pytest

from fuzzymaps import (
    Comparator,
    PolicyOverrides,
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
        policy = PolicyOverrides(
            domain_rule=ThresholdRule(Comparator.GT, 0),
            range_rule=ThresholdRule(Comparator.GT, 9),
        ).merge(spec.policy)
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


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["never-heard-of-it"]) == 2

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
