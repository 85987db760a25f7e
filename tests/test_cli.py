import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import oracle_candidate_names, oracle_emit
from radolab import cli, coloring, filters, linear, model
from radolab.cli import main
from radolab.filters import FILTER_CATALOGUE
from radolab.parser import parse
from radolab.results import Status


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

    def test_constant_past_cauchy_bound(self, capsys):
        # the constant search bisects below the positive-root bound, about
        # 10^94 here, where below the Cauchy bound (10^1500) it took seconds
        text = "x^8*y^8 = z^15 + 1" + "0" * 1500
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "analyze", text)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        # the report's bytes, as the Cauchy-bound search wrote them
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "96f81b28c3a02eafa9d63bf25e5a50c136e6c0e570334aec756839e7aacf5597")

    def test_twenty_positive_monomials(self, capsys):
        # the maximal-root filter fires in closed form; scanning its 2^20 - 1
        # subsets took minutes
        text = " + ".join(f"{k}x^{k}*y" for k in range(1, 20)) + " + z^3 = 0"
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "analyze", text)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        # the report's bytes, as the exhaustive scan wrote them
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ad0eb44fd4110b5918974d73580f0c4de8991ab4d83f248d5f2a394022314f60")

    def test_linear_report_carries_candidates(self, capsys):
        _, report, _ = run_json(capsys, "analyze", "x + 2y = z")
        assert report["asymptotic_candidates"] == [[["x", "z"], ["y"]]]

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "x^0 = y")
        assert code == 2 and "parse error" in err

    def test_literal_past_digit_limit_exit_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "analyze", "x = y + " + "7" * (limit + 100))
        assert code == 2 and out == ""
        assert f"literal has {limit + 100} digits at position 8" in err
        assert "set_int_max_str_digits" not in err

    def test_product_past_digit_limit_exit_2(self, capsys):
        # each literal fits, the coefficient they multiply to does not
        big = "7" * (sys.get_int_max_str_digits() * 2 // 3)
        code, out, err = run_cli(capsys, "analyze", f"x = y + {big}*{big}")
        assert code == 2 and out == ""
        assert "coefficient has more than" in err and "position 8" in err
        assert "set_int_max_str_digits" not in err

    def test_long_literal_product_exit_2(self, capsys):
        # the product is checked after each literal, not after all 200
        big = "7" * sys.get_int_max_str_digits()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "x = y + " + "*".join([big] * 200))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "coefficient has more than" in err and "position 8" in err
        assert "set_int_max_str_digits" not in err

    def test_ten_thousand_variables_exit_3(self, capsys):
        # canonical order costs no exponent vector per monomial
        text = " + ".join(f"x{i}" for i in range(10000)) + " = 0"
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "analyze", text)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""

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

    def test_unprintable_degree_cap_exit_3(self, capsys):
        # each exponent fits the digit limit, the total degree does not
        big = "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "analyze", f"x^{big}*y^{big} = z")
        assert code == 3 and out == ""
        assert f"exceeds the cap ({filters.DEGREE_CAP})" in err

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

    def test_N_below_two_exit_2_for_every_candidate_shape(self, capsys,
                                                          monkeypatch):
        # "x - y = 0" has only a single-class candidate, which never reaches
        # hl_matrix's own check; out-of-scope equations keep exit 4.  N is
        # checked before any candidate is listed, so the 184755 candidates
        # of the 20-variable balanced equation are never walked.
        def unreachable(*args):
            raise AssertionError("candidates listed before the N check")

        monkeypatch.setattr(linear, "_zero_sum_masks", unreachable)
        monkeypatch.setattr(cli, "_zero_sum_masks", unreachable)
        balanced = (" + ".join(f"x{i}" for i in range(10)) + " = "
                    + " + ".join(f"y{i}" for i in range(10)))
        for text in ("x - y = 0", "x + y = z", balanced):
            for N in ("1", "-5"):
                code, out, _ = run_cli(capsys, "asymptotic", text, "--N", N)
                assert code == 2 and out == "", (text, N)
        code, _, _ = run_cli(capsys, "asymptotic", "x + y = 3z", "--N", "1")
        assert code == 4


class TestCandidateBytes:
    """Raw stdout against the standard library's indented dump of the same
    report with its candidates from `oracle_candidate_names`."""

    @staticmethod
    def corpus():
        rng = random.Random(88)
        out = ["2x + 3y = 5z", "x + y = z"]
        # 60 of 2 to 17 variables, then three past the bench pools' widest,
        # whose candidate lists take many of the streamed chunks
        for n in [*[None] * 60, 18, 18, 19]:
            n = n or rng.randint(2, 17)
            coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(n)]
            text = " + ".join(f"{c}*w{i}" for i, c in enumerate(coeffs))
            out.append(text.replace("+ -", "- ") + " = 0")
        return out

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_analyze(self, capsys):
        listed = 0
        for text in self.corpus():
            code, out, _ = run_cli(capsys, "analyze", text)
            report = json.loads(out)
            eq = parse(text)
            if report["verdict"]["status"] == "PR":
                # the streamed list is written first: its key sorts first
                assert min(report) == "asymptotic_candidates", text
                report["asymptotic_candidates"] = oracle_candidate_names(
                    eq.poly.linear_coefficients(), eq.poly.variables)
                listed += 1
            else:
                assert "asymptotic_candidates" not in report
            expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
            assert code == 0 and self.digest(out) == self.digest(expected), text
        assert listed > 40

    def test_asymptotic(self, capsys):
        listed = 0
        for text in self.corpus():
            eq = parse(text)
            if len(eq.poly.variables) > 10:
                continue
            code, out, _ = run_cli(capsys, "asymptotic", text, "--N", "4")
            if code == 4:
                continue
            report = json.loads(out)
            names = oracle_candidate_names(eq.poly.linear_coefficients(),
                                           eq.poly.variables)
            entries = report["asymptotic_candidates"]
            assert len(entries) == len(names), text
            for entry, classes in zip(entries, names):
                entry["classes"] = classes
            expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
            assert code == 0 and self.digest(out) == self.digest(expected), text
            listed += 1
        assert listed > 20


def _balanced(half: int) -> str:
    """x0 + ... + x(half-1) = y0 + ... + y(half-1)."""
    return " + ".join(f"x{i}" for i in range(half)) + " = " + " + ".join(
        f"y{i}" for i in range(half))


def _traced_run(argv):
    """(exit code, stdout sha256, stderr, tracemalloc peak) of `main(argv)`
    writing to a sink that keeps only the hash."""
    class Sink:
        def __init__(self):
            self.hash = hashlib.sha256()

        def write(self, text):
            self.hash.update(text.encode())
            return len(text)

        def flush(self):
            pass

    sink, err = Sink(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink.hash.hexdigest(), err.getvalue(), peak


class TestWideReport:
    """Candidate lists streamed from the zero-sum masks: `analyze` of the
    20-variable balanced equation (184,755 candidates, a 60 MB report) and
    `asymptotic` of the 12- and 14-variable ones."""

    DIGEST = "7c8926d8e4f8411836ab71d2ec59b22fc20e966ba66d0bbf1ff65fdedc1eb9c0"

    def test_bounded_memory(self):
        code, digest, _, peak = _traced_run(["analyze", _balanced(10)])
        assert code == 0
        assert digest == self.DIGEST
        assert peak < 16_000_000, peak

    def test_asymptotic_bounded_memory(self, monkeypatch):
        # 923 candidates, 64 per chunk: only a chunk of entries is held,
        # never the list or the report (5.3 MB when they were built whole)
        monkeypatch.setattr(cli, "_CHUNK", 64)
        code, digest, err, peak = _traced_run(
            ["asymptotic", _balanced(6), "--N", "3"])
        assert code == 0
        assert digest == ("dea44ab5ad2e1302efe0bff3ca0404c3"
                          "598725f9be21d0e5650a3691a1b09429")
        assert err.endswith(": 923 candidate class structure(s), "
                            "922 certified at N=3\n"), err
        assert peak < 2_000_000, peak

    def test_closed_stdout_exits_quietly(self):
        # `radolab ... | head -1`: the pipe closes mid-stream
        src = Path(cli.__file__).resolve().parents[1]
        for argv in (["analyze", _balanced(10)],
                     ["asymptotic", _balanced(7), "--N", "3"]):
            proc = subprocess.Popen(
                [sys.executable, "-m", "radolab.cli", *argv],
                cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141, argv
            assert first == b"{\n", argv
            assert b"Traceback" not in err, argv


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

    def test_heads_base_below_two_names_the_base(self, capsys):
        # a given base of 0 is not a missing one
        for base in ["0", "1"]:
            code, out, err = run_cli(capsys, "search", "x*y = z", "--mode",
                                     "heads", "--base", base)
            assert code == 2 and out == "", base
            assert err == "error: base must be at least 2\n", base

    def test_solutions_stream(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "x + y = z", "--coloring", "mod:2",
            "--bound", "12", "--mode", "solutions", "--N", "5",
            "--base", "2")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        for rec in records:
            x, y, z = rec["assignment"]
            assert x + y == z
            assert all(v % 2 == rec["color"] for v in rec["assignment"])
            assert rec["profile"]["N"] == 5
            assert sorted(sum(rec["profile"]["classes"], [])) == [0, 1, 2]
            heads = rec["heads"]["2"]
            assert len(heads) == 3
            assert all(1 <= Fraction(h) < 2 for h in heads)

    def test_solutions_stream_memory(self, capsys):
        # 499,500 records of x + y = z under mod:3 at bound 3000 (about
        # 21 MB of text): the stream holds one chunk of array-walk terms
        # and its text columns at a time, never the whole output
        class Null:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Null()):
                code = main(["search", "x + y = z", "--coloring", "mod:3",
                             "--bound", "3000", "--mode", "solutions"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().err == (
            "x + y - z = 0: 499500 monochromatic solution(s) streamed\n")
        assert peak < 32 * 2 ** 20, peak

    def test_solutions_base_below_two_exit_2_before_the_walk(self, capsys,
                                                             monkeypatch):
        def unreachable(*args):
            raise AssertionError("solutions walked with a bad base")

        monkeypatch.setattr(cli, "_stream_columns", unreachable)
        for bound in ["1", "5"]:
            for base in ["1", "0", "-2"]:
                code, out, err = run_cli(
                    capsys, "search", "x + y = z", "--mode", "solutions",
                    "--bound", bound, "--base", base)
                assert code == 2 and out == "", (bound, base)
                assert err == "error: base must be at least 2\n"

    def test_N_below_two_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "search", "x + y = z", "--N", "1")
        assert code == 2 and out == ""

    def test_solutions_N_below_two_exit_2_without_solutions(self, capsys):
        # no solution has coordinates up to 1, so only the up-front check
        # can reject N
        code, out, _ = run_cli(capsys, "search", "x + y = z", "--mode",
                               "solutions", "--N", "1", "--bound", "1")
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

    def test_coloring_fields_ascii_integers_exit_2(self, capsys):
        for name in ["mod:1_0", "mod:\uff11\uff10", "random: 7:3"]:
            code, out, err = run_cli(capsys, "search", "x + y = z",
                                     "--mode", "witness", "--coloring", name)
            assert code == 2 and out == "", name
            assert err.startswith(f"error: bad coloring spec {name!r}"), name

    def test_integer_options_ascii_only_exit_2(self, capsys):
        # int() also reads "_", spaces and non-ASCII digits; each option
        # now fails in argparse, as "--bound abc" does
        census = ["search", "x + y = z", "--mode", "census"]
        heads = ["search", "x*y = z", "--mode", "heads", "--base", "2"]
        cases = [
            [*census, "--bound", "1_0", "--N", "\uff12", "--coloring", "mod:2"],
            [*census, "--bound", "1_0"], [*census, "--N", "\uff12"],
            [*census, "--bound", " 10"], [*census, "--N", "3 "],
            [*census, "--bound", "\u0661\u0660"], [*census, "--N", ""],
            [*heads, "--bins", "1_6"], [*heads[:-1], "2_0"],
            ["asymptotic", "x + y = z", "--N", " 5"],
            ["asymptotic", "x + y = z", "--N", "+-5"],
            [*census, "--bound", "abc"],
        ]
        for argv in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == "", argv
            assert "invalid integer value" in err, argv
        # a sign is still read, and N below two keeps its own message
        code, report, _ = run_json(capsys, *census, "--bound", "+10",
                                   "--N", "+2")
        assert code == 0 and report["parameters"]["bound"] == 10
        code, out, err = run_cli(capsys, "asymptotic", "x + y = z", "--N", "-5")
        assert code == 2 and out == "" and err == "error: N must be at least 2\n"

    def test_random_seed_past_key_limit_exit_2(self, capsys):
        # refused when the coloring is parsed, not when the first color is
        # hashed, with the coloring named
        name = f"random:{10 ** 70}:3"
        for mode in ["census", "witness"]:
            code, out, err = run_cli(capsys, "search", "x + y = z",
                                     "--coloring", name, "--bound", "10",
                                     "--mode", mode)
            assert code == 2 and out == "", mode
            assert err == (f"error: random coloring {name}: the seed's "
                           f"decimal form is longer than 64 bytes, the "
                           f"blake2b key limit\n"), mode

    def test_degree_cap_exit_3(self, capsys):
        # the cap is checked before the first solution, with analyze's
        # message
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "search", "x^100000000 = y",
                                 "--bound", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == run_cli(capsys, "analyze", "x^100000000 = y")[2]

    def test_degree_cap_boundary(self, capsys):
        cap = filters.DEGREE_CAP
        assert run_cli(capsys, "search", f"x^{cap} = y", "--bound", "3")[0] == 0
        code, out, _ = run_cli(capsys, "search", f"x^{cap + 1} = y",
                               "--bound", "3")
        assert code == 3 and out == ""

    def test_unprintable_degree_cap_exit_3(self, capsys):
        big = "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "search", f"x^{big}*y^{big} = z",
                                 "--bound", "3")
        assert code == 3 and out == ""
        assert f"exceeds the cap ({filters.DEGREE_CAP})" in err

    def test_bins_past_cap_exit_3(self, capsys, monkeypatch):
        # the bin cap is checked before the equation is planned
        monkeypatch.setattr(coloring, "BIN_CAP", 8)
        argv = ["search", "x*y = z", "--coloring", "logband:2:3", "--bound",
                "300", "--mode", "heads", "--base", "2", "--bins"]
        code, report, _ = run_json(capsys, *argv, "8")
        assert code == 0 and report["heads"]["bin_count"] == 8

        def unreachable(*args):
            raise AssertionError("planned past the bin cap")

        monkeypatch.setattr(coloring, "_plan", unreachable)
        code, out, err = run_cli(capsys, *argv, "9")
        assert code == 3 and out == ""
        assert err == "cap exceeded: bin count 9 exceeds the cap (8)\n"

    def test_huge_bound_exit_3(self, capsys):
        # the bound cap stops every mode before a color table is built,
        # on the closed-form census path and the general walk alike
        for text in ["x + y = w + z + 1", "x + y = w + z", "x + y = z"]:
            for mode in ["witness", "census", "solutions", "heads"]:
                t0 = time.perf_counter()
                code, out, err = run_cli(
                    capsys, "search", text, "--bound", "99999999999",
                    "--mode", mode, "--base", "2")
                assert time.perf_counter() - t0 < 1, (text, mode)
                assert code == 3 and out == "", (text, mode)
                assert err == (f"cap exceeded: bound 99999999999 exceeds the "
                               f"cap ({coloring.BOUND_CAP})\n")
        code, out, _ = run_cli(capsys, "search", "x + y = z", "--bound",
                               str(coloring.BOUND_CAP), "--mode", "witness",
                               "--coloring", "random:7:3")
        assert code == 0 and json.loads(out)["witnesses"]["found"] == []

    def test_closed_stdout_exits_quietly(self):
        # `search --mode solutions | head -1`: the reader closes the pipe
        # after one line, and the stream stops with EXIT_PIPE and no
        # traceback, also from the flush at exit
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "radolab.cli", "search", "x + y = z",
             "--coloring", "mod:3", "--bound", "300", "--mode", "solutions",
             "--base", "10"],
            cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
        assert json.loads(first)["assignment"] == [3, 3, 6]
        assert err == b""

    def test_interrupted_stream_keeps_its_records(self, capsys, monkeypatch):
        # Ctrl-C after 1500 records, one whole chunk and part of the next:
        # every record found so far is on stdout, as in the full stream.
        # x + y^3 = z + w (cubic in its inner variable) takes the walk
        argv = ["search", "x + y^3 = z + w", "--coloring", "mod:3",
                "--bound", "80", "--mode", "solutions", "--base", "10"]
        assert not coloring._fits(coloring._plan(parse(argv[1]).poly), 80)
        full = run_cli(capsys, *argv)[1].splitlines(keepends=True)
        assert len(full) > 1500
        build = coloring._walk

        def interrupted(*args):
            walk = build(*args)

            def cut(*args):
                for k, solution in enumerate(walk(*args)):
                    if k == 1500:
                        raise KeyboardInterrupt
                    yield solution

            return cut

        monkeypatch.setattr(coloring, "_walk", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert capsys.readouterr().out.splitlines(keepends=True) == full[:1500]

    def test_interrupted_array_stream_keeps_its_first_chunk(self, capsys,
                                                            monkeypatch):
        # a planned shape streams a chunk of array-walk terms at a time:
        # Ctrl-C while the second chunk is built leaves every record of
        # the first on stdout, more than one write of them
        from radolab import arrays

        argv = ["search", "x + y = z", "--coloring", "mod:3", "--bound",
                "300", "--mode", "solutions", "--base", "10"]
        monkeypatch.setattr(coloring, "_CHUNK", 2 ** 14)
        full = run_cli(capsys, *argv)[1].splitlines(keepends=True)
        terms = arrays._array_terms
        first = []

        def interrupted(*args):
            for k, chunk in enumerate(terms(*args)):
                if k == 1:
                    raise KeyboardInterrupt
                first.append(len(chunk[2]))
                yield chunk

        monkeypatch.setattr(arrays, "_array_terms", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert cli._CHUNK < first[0] < len(full)
        out = capsys.readouterr().out.splitlines(keepends=True)
        assert out == full[:first[0]]

    def test_stream_plans_once(self, capsys, monkeypatch):
        # the stream's engine is picked from the one plan: x^2 + y^2 = z^2
        # walks and x + y = z takes the array walk, each planned once
        build = coloring._plan
        calls = []

        def counted(poly):
            calls.append(poly)
            return build(poly)

        monkeypatch.setattr(coloring, "_plan", counted)
        for text, array in [("x^2 + y^2 = z^2", False), ("x + y = z", True)]:
            assert coloring._fits(build(parse(text).poly), 50) is array
            calls.clear()
            code, out, _ = run_cli(capsys, "search", text, "--bound", "50",
                                   "--mode", "solutions")
            assert code == 0 and out, text
            assert calls == [parse(text).poly], text

    @pytest.mark.parametrize("argv", [
        ["analyze", "x + y = z"],
        ["search", "x + y = z", "--coloring", "mod:3", "--bound", "50"],
    ])
    def test_report_to_closed_stdout_exits_quietly(self, argv):
        # a report small enough to stay in stdout's buffer, written to a
        # pipe whose reader is already gone, also exits with EXIT_PIPE and
        # no traceback.  stdout is block-buffered, as in a shell pipeline
        src = Path(cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "radolab.cli", *argv], cwd=src,
                env=env, stdout=write, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == cli.EXIT_PIPE
        # stderr holds the report's prose summary and nothing else
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr

    def test_many_prefix_variables(self, capsys):
        # the prefix grid keeps no frame per variable: 1000 prefix
        # variables in a witness walk, 1199 in a census walk (past the
        # closed form's 512), both at bound 1
        text = " + ".join(f"x{i}" for i in range(1000)) + " = y + 1"
        code, report, _ = run_json(capsys, "search", text, "--bound", "1",
                                   "--mode", "witness")
        assert code == 0 and report["witnesses"]["found"] == ["mod:2"]
        eq = parse(_balanced(600))
        code, report, _ = run_json(capsys, "search", _balanced(600),
                                   "--bound", "1", "--mode", "census")
        assert code == 0
        assert report["census"] == {
            "entries": [{"classes": [sorted(eq.poly.variables)], "count": 1}],
            "total_solutions": 1, "valid_profiles": 1}


def test_parser_built_once_dispatches_rebound_commands(capsys, monkeypatch):
    run_cli(capsys, "analyze", "x + y = z")
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args) or 7)
    assert main(["analyze", "x = y"]) == 7
    assert seen[0].equation == "x = y"


def test_cli_leaves_every_engine_to_coloring():
    # `coloring` picks each search's engine: cli imports neither numpy nor
    # `radolab.arrays`, and names neither the plan nor the int64 gate
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules, names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"radolab.{module}" if module else "radolab"
            modules += [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "radolab.coloring._stream_columns" in modules
    assert not [m for m in modules if m.split(".")[0] == "numpy"
                or m.startswith("radolab.arrays")]
    assert not names & {"_plan", "_fits", "arrays"}


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

    def test_outside_grammar_exit_2(self, tmp_path, capsys):
        # decimals, underscores, exponents and non-ASCII digits included
        for tok in ["1.5", "1_000", "\u0661", "1e3", "1/-2"]:
            path = tmp_path / "m.txt"
            path.write_text(f"1 {tok} -1\n", encoding="utf-8")
            code, out, err = run_cli(capsys, "columns-condition", str(path))
            assert (code, out) == (2, ""), tok
            assert "bad matrix entry on line 1" in err

    def test_huge_exponent_exit_2_fast(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1e10000000 -1\n")
        start = time.perf_counter()
        assert run_cli(capsys, "columns-condition", str(path))[0] == 2
        assert time.perf_counter() - start < 0.1

    def test_unsatisfiable_22_columns(self, tmp_path, capsys):
        rng = random.Random(2)
        rows = [[rng.choice([-1, 1]) for _ in range(22)] for _ in range(3)]
        path = tmp_path / "m.txt"
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, err = run_cli(capsys, "columns-condition", str(path))
        assert code == 0
        assert '"columns_condition": null' in out
        assert json.loads(out)["matrix"] == {"rows": 3, "cols": 22}
        assert "NONE" in err


# every report command of the README, with its matrix file (the solutions
# stream writes lines, not a report, and has its own oracle test)
README_COMMANDS = [
    ["analyze", "x + y = z"],
    ["analyze", "x^2 - y^2 = z^5"],
    ["asymptotic", "x + 2y = z", "--N", "5"],
    ["search", "x + y = z", "--coloring", "mod:2", "--bound", "100000",
     "--mode", "census", "--N", "10"],
    ["search", "x*y = z", "--coloring", "logband:2:3", "--bound", "100000",
     "--mode", "heads", "--base", "2"],
    ["search", "x = y + 1", "--coloring", "mod:2", "--bound", "10000",
     "--mode", "witness"],
    ["columns-condition", "matrix.txt"],
]

STRINGS = ["", "x1", "caf\u00e9 \u00fcber", "tab\tquote\"slash\\ nl\n",
           "\x00\x1f\x7f", "\u2028\ud7ff\ue000", "\ud800 lone",
           "\U0001f600 astral", Status.PR, Status.NOT_PR]
SCALARS = [None, True, False, 0, -1, 7, 2 ** 64, -(2 ** 64) - 1, 10 ** 40,
           0.0, -0.0, 0.1, -2.5e-300, 1e300, math.inf, -math.inf, math.nan,
           Fraction(3, 7), Fraction(-5), frozenset(), frozenset({3, 1, 2})]
NUMERIC_KEYS = [True, False, 0, 1, -3, 2 ** 64, 0.5, -1e20, math.inf]


def _payload(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(SCALARS)
    if kind == 2:
        return [rng.choice(STRINGS) for _ in range(rng.randrange(4))]
    if kind == 3:  # a string first, then anything
        return [rng.choice(STRINGS)] + [_payload(rng, depth + 1)
                                        for _ in range(rng.randrange(4))]
    if kind in (4, 5):
        items = [_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
        return tuple(items) if kind == 5 else items
    if kind == 6:
        return {rng.choice(NUMERIC_KEYS): _payload(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    if kind == 7:
        return {None: _payload(rng, depth + 1)} if rng.random() < 0.2 else {}
    return {str(rng.choice(STRINGS)): _payload(rng, depth + 1)
            for _ in range(rng.randrange(5))}


class TestReportWriter:
    def test_matches_stdlib_on_generated_payloads(self):
        rng = random.Random(7)
        for _ in range(3000):
            payload = _payload(rng, 0)
            assert cli._dumps(payload) == oracle_emit(payload), payload

    def test_matches_stdlib_on_nested_empties_and_strings(self):
        payload = {"a": [[], {}, [[]], [{}], ()], "b": {"c": {}, "d": [[[]]]},
                   "strings": ["\u00e9", "\"", "\\"], "mixed": ["a", 1, "b"],
                   "ints": [1, 2 ** 70], 3: None}
        with pytest.raises(TypeError):
            cli._dumps(payload)  # str and int keys do not sort together
        del payload[3]
        assert cli._dumps(payload) == oracle_emit(payload)
        for payload in ([], {}, (), "s", 5, None, [["a"], ["b", "c"]]):
            assert cli._dumps(payload) == oracle_emit(payload)

    def test_rejects_what_the_stdlib_rejects(self):
        for payload in ({Fraction(1, 2): 1}, {(1, 2): 1}, [object()]):
            with pytest.raises(TypeError):
                oracle_emit(payload)
            with pytest.raises(TypeError):
                cli._dumps(payload)

    def test_readme_reports_match_stdlib(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "matrix.txt").write_text("1 1 -1\n")
        emitted = []
        emit = cli._emit

        def spy(payload):
            emitted.append(payload)
            emit(payload)

        emit_candidates = cli._emit_candidates

        def spy_candidates(report, coeffs, render):
            # the streamed list: analyze's as the oracle lists it, and
            # asymptotic's entries read back, with the oracle's classes
            items = []

            def spy_render(masks):
                chunk = render(masks)
                items.extend(chunk)
                return chunk

            emit_candidates(report, coeffs, spy_render)
            names = oracle_candidate_names(
                coeffs, parse(report["equation"]["source"]).poly.variables)
            entries = names
            if argv[0] == "asymptotic":
                entries = [json.loads(item) for item in items]
                assert [e["classes"] for e in entries] == names
            emitted.append({**report, "asymptotic_candidates": entries})

        monkeypatch.setattr(cli, "_emit", spy)
        monkeypatch.setattr(cli, "_emit_candidates", spy_candidates)
        for argv in README_COMMANDS:
            emitted.clear()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and len(emitted) == 1, argv
            assert out == oracle_emit(emitted[0]) + "\n", argv
