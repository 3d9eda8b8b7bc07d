"""End-to-end tests of the command line front end.

Each test drives main() in process with a JSON document on disk and reads
the report back, so exit codes, stdout and stderr are all covered.
"""

import json

import pytest

from chowstab import Ambient, cli, normalize_cycle
from chowstab.cli import emit_cycle, main, parse_input
from chowstab.errors import ChowstabError, NonRationalCoordinate, SchemaError

COLLINEAR_DOC = {
    "ambient": {"projective": 2},
    "points": [{"coords": [1, 0, 0]}, {"coords": [0, 1, 0]},
               {"coords": [1, 1, 0]}],
    "weights": [1, 1, -2],
}
STABLE_DOC = {
    "ambient": {"projective": 2},
    "points": [{"coords": [1, 0, 0]}, {"coords": [0, 1, 0]},
               {"coords": [0, 0, 1]}, {"coords": [1, 1, 1]}],
}
TRIANGLE_DOC = {
    "ambient": {"projective": 2},
    "points": [{"coords": [1, 0, 0]}, {"coords": [0, 1, 0]},
               {"coords": [0, 0, 1]}],
}
COLLIDING_DOC = {
    "ambient": {"projective": 2},
    "points": [{"coords": [1, 0, 0]}, {"coords": [1, 1, 0]},
               {"coords": [1, 0, 1]}],
    "weights": [0, 1, 1],
}
# a heavy coordinate point and a lone [1:1:0]: the adapted frames complete
# by standard vectors, so the completion order shows in the output
HEAVY_CORNER_DOC = {
    "ambient": {"projective": 2},
    "points": [{"coords": [1, 0, 0], "mult": 3}, {"coords": [1, 1, 0]},
               {"coords": [0, 0, 1]}, {"coords": [0, 1, 1]}],
}
HEAVY_P3_DOC = {
    "ambient": {"projective": 3},
    "points": [{"coords": [1, 1, 0, 0], "mult": 3}, {"coords": [1, 0, 1, 0]},
               {"coords": [0, 1, 1, 1]}],
}
PRODUCT_DOC = {
    "ambient": {"product": [1, 1]},
    "points": [{"coords": [1, 0, 1, 0]}, {"coords": [0, 1, 1, 1], "mult": 2}],
    "weights": [1, -1],
    "weights2": [3, 1],
}


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(tmp_path, capsys, doc, args):
    code = main(args + [write_doc(tmp_path, doc), "--format", "json"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


class TestParsing:
    def test_rational_coordinate_forms(self):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": ["1/2", 1]}, {"coords": [1, 2]},
                          {"coords": ["0.5", 1]}]}
        cycle, alpha = parse_input(doc)
        assert alpha is None
        # all three spellings name the projective point [1:2], so they merge
        assert len(cycle) == 1 and cycle.points[0][1] == 3

    def test_float_coordinates_rejected(self):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": [0.5, 1]}]}
        with pytest.raises(NonRationalCoordinate) as err:
            parse_input(doc)
        assert "float" in str(err.value) and "exact" in str(err.value)

    def test_boolean_coordinates_rejected(self):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": [True, 1]}]}
        with pytest.raises(SchemaError):
            parse_input(doc)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            parse_input({"points": []})
        with pytest.raises(SchemaError):
            parse_input({"ambient": {"projective": 2}})
        with pytest.raises(SchemaError):
            parse_input({"ambient": {"projective": 2},
                         "points": [{"coords": [1, 0]}]})
        with pytest.raises(SchemaError):
            parse_input({"ambient": {"projective": 2},
                         "points": [{"coords": [1, 0, 0], "mult": "2"}]})
        with pytest.raises(SchemaError):
            parse_input({"ambient": {"product": [1]}, "points": []})

    def test_weight_length_checked(self):
        doc = dict(COLLINEAR_DOC, weights=[1, -1])
        with pytest.raises(SchemaError):
            parse_input(doc)

    def test_emit_parse_roundtrip(self):
        cycles = [
            normalize_cycle(Ambient.projective(2),
                            [(["1/2", 1, 0], 2), ([0, 0, 1], 1)]),
            normalize_cycle(Ambient.projective(1), [([3, 7], 4)]),
            normalize_cycle(Ambient.product(1, 1),
                            [([1, 0, 1, 0], 1), ([0, 1, 1, 1], 2)]),
        ]
        for cycle in cycles:
            doc = emit_cycle(cycle)
            parsed, _ = parse_input(doc)
            assert parsed == cycle


class TestCheckCommand:
    def test_unstable_exits_one_with_certificate(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, COLLINEAR_DOC, ["check"])
        assert code == 1
        assert payload["status"] == "unstable"
        cert = payload["certificate"]
        assert cert["ratio"] == "3/2"
        assert cert["threshold"] == "1"
        assert cert["mass_on_subspace"] == 3
        assert cert["destabilizer"]["weights"] == [1, 1, -2]
        assert cert["destabilizer"]["chow_weight"] == "3"
        assert cert["identity"]["chow_weight"] == cert["identity"]["closed_form"]

    def test_stable_exits_zero(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, STABLE_DOC, ["check"])
        assert code == 0
        assert payload["status"] == "stable"
        assert "certificate" not in payload

    def test_semistable_reports_boundary(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, TRIANGLE_DOC, ["check"])
        assert code == 0
        assert payload["status"] == "strictly_semistable"
        assert payload["values"]["boundary_subspaces"] == 6

    def test_text_format(self, tmp_path, capsys):
        code = main(["check", write_doc(tmp_path, STABLE_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: stable" in out


class TestDestabilizeCommand:
    def test_unstable_search(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, COLLINEAR_DOC,
                                    ["destabilize", "--bound", "2"])
        assert code == 0
        assert payload["positive"] is True
        assert payload["best_weight"] == "4"

    def test_stable_peaks_at_zero(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, STABLE_DOC,
                                    ["destabilize", "--bound", "2"])
        assert code == 0
        assert payload["positive"] is False
        assert payload["best_weight"] == "0"


class TestAdaptedFrameGoldens:
    """Adapted bases complete by e_0, e_1, ... in that order."""

    def test_check_adapted_basis(self, tmp_path, capsys):
        _, payload, _ = run_json(tmp_path, capsys, HEAVY_CORNER_DOC, ["check"])
        assert payload["certificate"]["destabilizer"]["adapted_basis"] == [
            ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        _, payload, _ = run_json(tmp_path, capsys, HEAVY_P3_DOC, ["check"])
        assert payload["certificate"]["destabilizer"]["adapted_basis"] == [
            ["1", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "1", "0"],
            ["0", "0", "0", "1"]]

    def test_destabilize_frame(self, tmp_path, capsys):
        _, payload, _ = run_json(tmp_path, capsys, HEAVY_CORNER_DOC,
                                 ["destabilize", "--bound", "2"])
        assert payload["best_weight"] == "4"
        assert payload["weights"] == [-2, -2, 2]
        assert payload["basis"] == [["0", "0", "1"], ["0", "1", "1"],
                                    ["1", "0", "0"]]
        assert payload["basis_support_indices"] == [0, 1]
        _, payload, _ = run_json(tmp_path, capsys, HEAVY_P3_DOC,
                                 ["destabilize", "--bound", "2"])
        assert payload["best_weight"] == "7"
        assert payload["weights"] == [-2, -2, 2, -2]
        assert payload["basis"] == [
            ["0", "1", "1", "1"], ["1", "0", "1", "0"], ["1", "1", "0", "0"],
            ["1", "0", "0", "0"]]
        assert payload["basis_support_indices"] == [0, 1, 2]


class TestChowWeightCommand:
    def test_projective(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, COLLINEAR_DOC,
                                    ["chow-weight"])
        assert code == 0
        assert payload["value"] == "3"

    def test_product_with_two_weight_vectors(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, PRODUCT_DOC,
                                    ["chow-weight"])
        assert code == 0
        assert payload["value"] == "-2"

    def test_missing_weights(self, tmp_path, capsys):
        code, _, err = run_json(tmp_path, capsys, STABLE_DOC, ["chow-weight"])
        assert code == 2
        assert "weights" in err


class TestDFCommand:
    def test_collinear_golden(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, COLLINEAR_DOC,
                                    ["df", "--gamma", "4"])
        assert code == 0
        assert payload["F"] == "-75/26"
        assert payload["negative"] is True
        assert payload["fit"]["coeffs"] == {
            "c0": "13/2", "c1": "9/2", "b0": "9/2", "b1": "6"}
        assert payload["prediction"] == {"ch_weight": "3", "leading": "-6"}

    def test_degenerate_input_exits_three(self, tmp_path, capsys):
        code, _, err = run_json(tmp_path, capsys, COLLINEAR_DOC,
                                ["df", "--gamma", "1"])
        assert code == 3
        assert "verification failure" in err


class TestExpansionCommand:
    def test_window_report(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, COLLINEAR_DOC,
                                    ["expansion", "--gamma-range", "4..7"])
        assert code == 0
        assert payload["gammas"] == [4, 5, 6, 7]
        assert payload["F"][0] == "-75/26"
        assert payload["prediction"]["gamma_coeff"] == "-3/2"
        for row in payload["per_gamma"]:
            assert row["c0_dev"] == "0"
            assert row["b0_dev"] == "-3/2"

    def test_bad_range(self, tmp_path, capsys):
        code, _, err = run_json(tmp_path, capsys, COLLINEAR_DOC,
                                ["expansion", "--gamma-range", "8..4"])
        assert code == 2
        assert "range" in err


class TestLimitCommand:
    def test_colliding_triple(self, tmp_path, capsys):
        code, payload, _ = run_json(tmp_path, capsys, COLLIDING_DOC,
                                    ["limit", "--gamma-range", "2..2"])
        assert code == 0
        (entry,) = payload["degrees"]
        assert entry["degree"] == 2 and entry["dim"] == 3
        assert entry["vanishing_orders"] == [
            {"point": ["1", "0", "0"], "order": 2}]

    def test_probe_degree_below_one(self, tmp_path, capsys):
        code, payload, err = run_json(tmp_path, capsys, COLLIDING_DOC,
                                      ["limit", "--gamma-range", "0..2"])
        assert code == 2 and payload is None
        assert "probe degree" in err and "0" in err


class TestBalanceCommand:
    def test_convergent_rational_input(self, tmp_path, capsys):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": [1, 0]}, {"coords": [0, 1]},
                          {"coords": [1, 1]}]}
        code, payload, _ = run_json(tmp_path, capsys, doc, ["balance"])
        assert code == 0
        assert payload["status"] == "converged"
        assert payload["residual_norm"] < 1e-9
        assert payload["checks"] == {"no_common_zero": True,
                                     "spanning": False}

    def test_complex_input_skips_exact_check(self, tmp_path, capsys):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": [1, 0]}, {"coords": [0, 1]},
                          {"coords": [1, 1]}, {"coords": [1, [0, 1]]}]}
        code, payload, _ = run_json(tmp_path, capsys, doc, ["balance"])
        assert code == 0
        assert payload["status"] == "converged"
        assert payload["checks"] == {"no_common_zero": None, "spanning": True}

    def test_divergent_configuration(self, tmp_path, capsys):
        doc = {"ambient": {"projective": 2},
               "points": [{"coords": [1, 0, 0]}, {"coords": [0, 1, 0]},
                          {"coords": [1, 1, 0]}]}
        code, payload, _ = run_json(tmp_path, capsys, doc, ["balance"])
        assert code == 0
        assert payload["status"] == "diverged"
        assert payload["checks"]["no_common_zero"] is False

    def test_pair_entry_that_is_not_a_number(self, tmp_path, capsys):
        for entry in ({}, None):
            doc = {"ambient": {"projective": 1},
                   "points": [{"coords": [1, 0]}, {"coords": [[entry, 0], 1]}]}
            code, payload, err = run_json(tmp_path, capsys, doc, ["balance"])
            assert code == 2 and payload is None
            assert "points[1].coords[0][0]" in err

    def test_coordinate_too_large_for_a_float(self, tmp_path, capsys):
        for coords, field in (([10 ** 400, 1], "points[0].coords[0]"),
                              ([[1, "1e400"], 1], "points[0].coords[0][1]")):
            doc = {"ambient": {"projective": 1},
                   "points": [{"coords": coords}, {"coords": [0, 1]}]}
            code, payload, err = run_json(tmp_path, capsys, doc, ["balance"])
            assert code == 2 and payload is None
            assert field in err

    def test_coordinates_whose_squares_leave_float_range(self, tmp_path,
                                                         capsys):
        for first in ([10 ** 300, 1], [1e300, 1], [1e-320, 0],
                      [[1.5e308, 1.5e308], 1]):
            doc = {"ambient": {"projective": 1},
                   "points": [{"coords": first}, {"coords": [0, 1]},
                              {"coords": [1, 1]}]}
            code, payload, err = run_json(tmp_path, capsys, doc, ["balance"])
            assert code == 0 and err == ""
            assert payload["status"] == "converged"

    def test_rational_string_in_pair_reads_like_a_coordinate(self, tmp_path,
                                                             capsys):
        plain = {"ambient": {"projective": 1},
                 "points": [{"coords": [1, 0]}, {"coords": ["1/3", 1]}]}
        paired = {"ambient": {"projective": 1},
                  "points": [{"coords": [1, 0]}, {"coords": [["1/3", 0], 1]}]}
        code, payload, _ = run_json(tmp_path, capsys, paired, ["balance"])
        assert code == 0
        assert payload == run_json(tmp_path, capsys, plain, ["balance"])[1]

    def test_exact_zero_imaginary_part_keeps_exact_check(self, tmp_path,
                                                         capsys):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": [0, 1]}, {"coords": [["1/2", "0"], 1]}]}
        code, payload, _ = run_json(tmp_path, capsys, doc, ["balance"])
        assert code == 0
        assert payload["checks"]["no_common_zero"] is False

    def test_tolerance_flag(self, tmp_path, capsys):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": [1, 0]}, {"coords": [0, 1]}]}
        code, payload, _ = run_json(tmp_path, capsys, doc,
                                    ["balance", "--tol", "1e-6"])
        assert code == 0
        assert payload["tolerance"] == 1e-6


class TestEntryPoint:
    def test_missing_file(self, capsys):
        code = main(["check", "/nonexistent/input.json"])
        assert code == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["check", str(path)])
        assert code == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_undecodable_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00")
        code = main(["check", str(path)])
        assert code == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_unlisted_package_error_exits_three(self, tmp_path, capsys,
                                                monkeypatch):
        class NewFailure(ChowstabError):
            pass

        def handler(doc, args):
            raise NewFailure("identity broke")

        monkeypatch.setitem(cli._HANDLERS, "check", handler)
        code = main(["check", write_doc(tmp_path, STABLE_DOC)])
        assert code == 3
        assert "verification failure: identity broke" in capsys.readouterr().err

    def test_float_input_exit_code(self, tmp_path, capsys):
        doc = {"ambient": {"projective": 1},
               "points": [{"coords": [0.5, 1]}]}
        code = main(["check", write_doc(tmp_path, doc)])
        assert code == 2
        assert "float" in capsys.readouterr().err

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(STABLE_DOC)))
        code = main(["check", "-", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "stable"

    def test_json_output_is_deterministic(self, tmp_path, capsys):
        path = write_doc(tmp_path, COLLINEAR_DOC)
        main(["check", path, "--format", "json"])
        first = capsys.readouterr().out
        main(["check", path, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
