import json
import time

from radolab import filters, linear, model
from radolab.cli import main
from radolab.filters import FILTER_CATALOGUE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestAnalyze:
    def test_schur(self, capsys):
        code, report, err = run_json(capsys, "analyze", "x + y = z")
        assert code == 0
        assert report["verdict"]["status"] == "PR"
        assert report["verdict"]["certificate"]["variables"] == ["x", "z"]
        assert report["equation"]["canonical"] == "x + y - z = 0"
        assert "PR" in err

    def test_not_pr_with_citation(self, capsys):
        code, report, err = run_json(capsys, "analyze", "x^2 - y^2 = z^5")
        assert code == 0
        assert report["verdict"]["status"] == "NOT_PR"
        reasons = report["verdict"]["reasons"]
        assert [r["name"] for r in reasons] == ["fc-degree"]
        catalogue = {entry["citation"] for entry in FILTER_CATALOGUE}
        assert all(r["citation"] in catalogue for r in reasons)

    def test_unknown(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "x^2 + y^2 = z^2")
        assert code == 0 and report["verdict"]["status"] == "UNKNOWN"

    def test_one_constant_search_per_report(self, capsys, monkeypatch):
        # inhomogeneous linear, and Fermat-Catalan shapes: x^2 + y^2 = z^2
        # has three pure-power pairs, each matching the fc-degree rule
        calls = []

        def counted(poly):
            calls.append(poly)
            return model.trivial_constant_solution(poly)

        monkeypatch.setattr(linear, "trivial_constant_solution", counted)
        monkeypatch.setattr(filters, "trivial_constant_solution", counted)
        for text in ["3x = 5y + 1000003", "x^2 + y^2 = z^2",
                     "x^2 - y^2 = z^5"]:
            calls.clear()
            code, _, _ = run_json(capsys, "analyze", text)
            assert code == 0 and len(calls) == 1, text

    def test_constant_past_trial_division(self, capsys):
        # trial division up to the square root of 10^24 never finished; the
        # verdict matches the one for a small constant
        small = run_json(capsys, "analyze", "2x = y + 1000003")[1]["verdict"]
        start = time.perf_counter()
        code, report, _ = run_json(capsys, "analyze",
                                   "2x = y + 1000000000000000000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        verdict = report["verdict"]
        assert verdict["status"] == small["status"] == "NOT_PR"
        assert ([r["name"] for r in verdict["reasons"]]
                == [r["name"] for r in small["reasons"]])
        assert verdict["reasons"][0]["evidence"]["has_constant_solution"]
        assert any("k=1000000000000000000000000" in note
                   for note in verdict["notes"])

    def test_linear_report_carries_candidates(self, capsys):
        _, report, _ = run_json(capsys, "analyze", "x + 2y = z")
        assert report["asymptotic_candidates"] == [[["x", "z"], ["y"]]]

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "x^0 = y")
        assert code == 2 and "parse error" in err

    def test_zero_equation_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "x = x")
        assert code == 2

    def test_cap_exit_3(self, capsys):
        text = " + ".join(f"v{i}" for i in range(23)) + " = 0"
        assert run_cli(capsys, "analyze", text)[0] == 3

    def test_degree_cap_exit_3(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "x^3000000 = y^2")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == "" and "total degree 3000000" in err

    def test_degree_cap_boundary(self, capsys):
        cap = filters.DEGREE_CAP
        assert run_cli(capsys, "analyze", f"x^{cap} = y^2")[0] == 0
        half = cap // 2
        assert run_cli(capsys, "analyze", f"x^{half}*y^{half} = z^2 + 3")[0] == 0
        assert run_cli(capsys, "analyze", f"x^{cap + 1} = y^2")[0] == 3

    def test_nonlinear_report_lists_full_battery(self, capsys):
        _, report, _ = run_json(capsys, "analyze", "x^2 - y^2 = z^5")
        names = {f["name"] for f in report["filters"]}
        assert {"homogeneous-rado", "exponent-rado", "maximal-root",
                "fc-degree"} <= names

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "x^4 - y^4 = z1*z2")
        _, out2, _ = run_cli(capsys, "analyze", "x^4 - y^4 = z1*z2")
        assert out1 == out2


class TestAsymptotic:
    def test_schur_two_certified(self, capsys):
        code, report, _ = run_json(capsys, "asymptotic", "x + y = z", "--N", "5")
        assert code == 0
        entries = report["asymptotic_candidates"]
        assert len(entries) == 2
        assert all(e["certificate"] is not None for e in entries)
        assert entries[0]["classes"] == [["x", "z"], ["y"]]
        assert entries[0]["matrix_shape"] == [4, 6]
        assert entries[0]["matrix_shape_conventional"] == [6, 8]

    def test_x_plus_2y(self, capsys):
        code, report, _ = run_json(capsys, "asymptotic", "x + 2y = z", "--N", "5")
        assert code == 0
        entries = report["asymptotic_candidates"]
        assert len(entries) == 1 and entries[0]["certificate"]

    def test_not_pr_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "asymptotic", "x + y = 3z")
        assert code == 4

    def test_nonlinear_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "asymptotic", "x^2 + y^2 = z^2")
        assert code == 4

    def test_single_class_uncertified(self, capsys):
        _, report, _ = run_json(capsys, "asymptotic", "2x + 3y = 5z")
        entries = report["asymptotic_candidates"]
        assert len(entries) == 1
        assert entries[0]["certificate"] is None and "note" in entries[0]


class TestSearch:
    def test_census(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "x + y = z", "--coloring", "mod:2",
            "--bound", "1000", "--mode", "census", "--N", "10")
        assert code == 0
        classes = [e["classes"] for e in report["census"]["entries"]]
        assert sorted(classes) == [[["x", "z"], ["y"]], [["y", "z"], ["x"]]]
        assert report["census"]["valid_profiles"] == sum(
            e["count"] for e in report["census"]["entries"])

    def test_witness(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "x = y + 1", "--coloring", "mod:2",
            "--bound", "10000", "--mode", "witness")
        assert code == 0
        assert report["witnesses"]["found"] == ["mod:2"]
        assert "not a proof" in report["witnesses"]["disclaimer"]

    def test_witness_family(self, capsys):
        _, report, _ = run_json(
            capsys, "search", "x + y = z", "--coloring", "mod:2",
            "--coloring", "mod:3", "--bound", "100", "--mode", "witness")
        assert report["witnesses"]["found"] == []

    def test_heads(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "x*y = z", "--coloring", "logband:2:3",
            "--bound", "300", "--mode", "heads", "--base", "2", "--bins", "8")
        assert code == 0
        heads = report["heads"]
        assert heads["bin_count"] == 8 and sum(heads["bins"]) > 0

    def test_heads_requires_base(self, capsys):
        code, _, err = run_cli(capsys, "search", "x*y = z", "--mode", "heads")
        assert code == 2

    def test_solutions_stream(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "x + y = z", "--coloring", "mod:2",
            "--bound", "12", "--mode", "solutions", "--N", "5")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        for rec in records:
            x, y, z = rec["assignment"]
            assert x + y == z
            assert rec["profile"]["N"] == 5

    def test_N_below_two_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "search", "x + y = z", "--N", "1")
        assert code == 2 and out == ""

    def test_modulus_past_int64(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "x + y = z", "--coloring",
            "mod:18446744073709551617", "--bound", "10")
        assert code == 0
        assert report["census"]["total_solutions"] == 45

    def test_bad_coloring_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "search", "x + y = z",
                             "--coloring", "digit:2")
        assert code == 2


def test_parameters_carry_no_thread_count(capsys):
    # a machine-dependent thread count would break byte-identical reports
    for argv in (["analyze", "x + y = z"], ["asymptotic", "x + y = z"],
                 ["search", "x + y = z", "--bound", "50"]):
        _, report, _ = run_json(capsys, *argv)
        assert "threads" not in report["parameters"], argv


class TestColumnsCondition:
    def test_schur_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1 -1\n")
        code, report, err = run_json(capsys, "columns-condition", str(path))
        assert code == 0
        assert report["columns_condition"]["blocks"] == [[1, 3], [2]]

    def test_none(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1 1\n")
        code, report, err = run_json(capsys, "columns-condition", str(path))
        assert code == 0 and report["columns_condition"] is None
        assert "NONE" in err

    def test_identity_none(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 1\n")
        code, report, _ = run_json(capsys, "columns-condition", str(path))
        assert code == 0 and report["columns_condition"] is None

    def test_fractions_accepted(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1/2 1/2 -1\n")
        code, report, _ = run_json(capsys, "columns-condition", str(path))
        assert code == 0 and report["columns_condition"] is not None

    def test_malformed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 spam\n")
        assert run_cli(capsys, "columns-condition", str(path))[0] == 2

    def test_missing_file_exit_2(self, capsys):
        assert run_cli(capsys, "columns-condition", "no-such-file")[0] == 2

    def test_cap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text(" ".join(["1"] * 23) + "\n")
        assert run_cli(capsys, "columns-condition", str(path))[0] == 3
