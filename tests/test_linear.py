import random
from fractions import Fraction

import pytest

from _oracles import oracle_candidate_names, oracle_hl_matrix
from radolab import linear
from radolab.errors import CapExceededError
from radolab.linalg import QMatrix, columns_condition, verify_certificate
from radolab.linear import (
    NotLinearError,
    NotPRError,
    _fast_path_blocks,
    asymptotic_candidates_linear,
    default_hl_weights,
    hl_conventional_shape,
    hl_matrix,
    hl_shape,
    hl_slack_pairs,
    linear_pr_verdict,
    rado_condition,
    verify_hl_choice,
)
from radolab.parser import parse
from radolab.results import Status


class TestRadoCondition:
    def test_schur(self):
        assert rado_condition([1, 1, -1]) == (0, 2)

    def test_x_plus_y_3z(self):
        assert rado_condition([1, 1, -3]) is None

    def test_full_set(self):
        assert rado_condition([2, 3, -5]) == (0, 1, 2)

    def test_scaling_invariance(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(1, 8)
            coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(n)]
            s = rng.choice([-3, -1, 2, 7])
            assert (rado_condition(coeffs) is None) == (
                rado_condition([s * c for c in coeffs]) is None
            )

    def test_permutation_equivariance(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(2, 8)
            coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [coeffs[perm[i]] for i in range(n)]
            a = rado_condition(coeffs)
            b = rado_condition(permuted)
            assert (a is None) == (b is None)
            if b is not None:
                assert sum(permuted[i] for i in b) == 0


class TestLinearVerdict:
    def test_schur_pr(self):
        v = linear_pr_verdict(parse("x + y = z"))
        assert v.status is Status.PR
        assert v.certificate == {"kind": "rado_subset", "variables": ["x", "z"]}

    def test_x_plus_y_3z_not_pr(self):
        v = linear_pr_verdict(parse("x + y = 3z"))
        assert v.status is Status.NOT_PR
        assert v.reasons[0].filter_name == "linear-rado"

    def test_inhomogeneous_no_constant_solution(self):
        v = linear_pr_verdict(parse("x - y = 1"))
        assert v.status is Status.NOT_PR
        assert not v.reasons[0].evidence["has_constant_solution"]

    def test_inhomogeneous_pr(self):
        # x + y - z - 1 = 0 has k = 1 and a Rado-satisfying homogeneous part
        v = linear_pr_verdict(parse("x + y = z + 1"))
        assert v.status is Status.PR
        assert v.certificate["constant"] == 1

    def test_conjunctive_rule_beats_constant_shortcut(self):
        # constant solution k = 1 but the homogeneous part fails Rado
        v = linear_pr_verdict(parse("x + y + 1 = 3z"))
        assert v.status is Status.NOT_PR
        assert v.reasons[0].evidence["has_constant_solution"]
        assert any("conjunctive" in note for note in v.notes)

    def test_nonlinear_rejected(self):
        with pytest.raises(NotLinearError):
            linear_pr_verdict(parse("x^2 + y^2 = z^2"))

    def test_matches_columns_condition_on_single_row(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 6)
            coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(n)]
            names = [f"v{i}" for i in range(n)]
            text = ""
            for c, v in zip(coeffs, names):
                sign = "- " if c < 0 else ("+ " if text else "")
                text += f"{sign}{abs(c)}*{v} "
            verdict = linear_pr_verdict(parse(text + "= 0"))
            cert = columns_condition(QMatrix.from_rows([coeffs]))
            assert (verdict.status is Status.PR) == (cert is not None)


class TestAsymptoticCandidates:
    def test_schur(self):
        eq = parse("x + y = z")
        cands = asymptotic_candidates_linear(eq)
        assert [p.named(eq.poly.variables) for p in cands] == [
            [["x", "z"], ["y"]],
            [["y", "z"], ["x"]],
        ]

    def test_x_plus_2y(self):
        eq = parse("x + 2y = z")
        cands = asymptotic_candidates_linear(eq)
        assert [p.named(eq.poly.variables) for p in cands] == [[["x", "z"], ["y"]]]

    def test_six_variables(self):
        eq = parse("x1 - y1 + z1 + x2 - y2 + z2 = 0")
        coeffs = eq.poly.linear_coefficients()
        cands = asymptotic_candidates_linear(eq)
        assert len(cands) > 4
        for p in cands:
            first = p.classes[0]
            assert sum(coeffs[i] for i in first) == 0
            assert {"x1", "y1"} <= set(
                eq.poly.variables[i] for i in p.classes[0]
            ) or p.classes[0] != frozenset()
        # the two-element zero-sum pairs appear
        named = [p.named(eq.poly.variables) for p in cands]
        assert [["x1", "y1"], ["x2", "y2", "z1", "z2"]] in named

    def test_full_set_single_class(self):
        eq = parse("2x + 3y = 5z")
        cands = asymptotic_candidates_linear(eq)
        assert [p.named(eq.poly.variables) for p in cands] == [[["x", "y", "z"]]]

    def test_not_pr(self):
        with pytest.raises(NotPRError):
            asymptotic_candidates_linear(parse("x + y = 3z"))

    def test_classes_match_partition_oracle(self):
        # the first texts hit the single-class case and a lone two-class one
        rng = random.Random(8)
        texts = ["2x + 3y = 5z", "x + y = z", "x - y = 0",
                 "x1 - y1 + z1 + x2 - y2 + z2 = 0"]
        for _ in range(200):
            n = rng.randint(2, 16)
            coeffs = [rng.choice([c for c in range(-6, 7) if c]) for _ in range(n)]
            text = " + ".join(f"{c}*v{i}" for i, c in enumerate(coeffs))
            texts.append(text.replace("+ -", "- ") + " = 0")
        singles = 0
        for text in texts:
            eq = parse(text)
            expected = oracle_candidate_names(eq.poly.linear_coefficients(),
                                              eq.poly.variables)
            if not expected:
                with pytest.raises(NotPRError):
                    asymptotic_candidates_linear(eq)
                continue
            named = [p.named(eq.poly.variables)
                     for p in asymptotic_candidates_linear(eq)]
            assert named == expected, text
            singles += sum(len(c) == 1 for c in named)
        assert singles > 10

    def test_classes_cap(self):
        text = " + ".join(f"x{i}" for i in range(12)) + " = " + " + ".join(
            f"y{i}" for i in range(12))
        with pytest.raises(CapExceededError):
            asymptotic_candidates_linear(parse(text))

    def test_nonhomogeneous(self):
        with pytest.raises(NotLinearError):
            asymptotic_candidates_linear(parse("x - y = 1"))


class TestHLMatrix:
    def test_dimensions(self):
        m = hl_matrix([1, -1, 2], 2, 3, default_hl_weights(2, 3, 3))
        # 1 equation row, 2 ratio rows, 1 separation row; 3 slack columns
        assert (m.rows, m.cols) == (4, 6)
        assert (m.rows, m.cols) == hl_shape(3)
        assert hl_conventional_shape(3) == (6, 8)

    def test_columns_condition_succeeds(self):
        m = hl_matrix([1, -1, 1], 2, 2, default_hl_weights(2, 3, 2))
        cert = columns_condition(m)
        assert cert is not None and verify_certificate(m, cert)

    def test_boundary_k_equals_n(self):
        with pytest.raises(ValueError):
            hl_matrix([1, -1], 2, 2, default_hl_weights(2, 2, 2))

    def test_zero_coefficient(self):
        with pytest.raises(ValueError):
            hl_matrix([1, 0, -1], 2, 2, default_hl_weights(2, 3, 2))

    def test_nonpositive_weight(self):
        weights = default_hl_weights(2, 3, 2)
        weights[(1, 2)] = 0
        with pytest.raises(ValueError):
            hl_matrix([1, -1, 1], 2, 2, weights)

    def test_missing_weight(self):
        weights = default_hl_weights(2, 3, 2)
        del weights[(2, 1)]
        with pytest.raises(ValueError):
            hl_matrix([1, -1, 1], 2, 2, weights)

    def test_non_integer_input_rejected(self):
        weights = default_hl_weights(2, 3, 2)
        weights[(1, 2)] = Fraction(3, 2)
        with pytest.raises(ValueError):
            hl_matrix([1, -1, 1], 2, 2, weights)
        with pytest.raises(ValueError):
            hl_matrix([1, -1, 1.0], 2, 2, default_hl_weights(2, 3, 2))

    def test_equation_row(self):
        m = hl_matrix([1, -1, 2], 2, 3, default_hl_weights(2, 3, 3))
        assert m.row(0)[:3] == (1, -1, 2)
        assert all(x == 0 for x in m.row(0)[3:])

    def test_full_construction_content(self):
        # equation row; N*x1 - x2 - q*z; -x1 + N*x2 - q*z'; x1 - x3 - z''
        m = hl_matrix([1, -1, 1], 2, 2, default_hl_weights(2, 3, 2))
        assert [list(m.row(i)) for i in range(4)] == [
            [1, -1, 1, 0, 0, 0],
            [2, -1, 0, -1, 0, 0],
            [-1, 2, 0, 0, -1, 0],
            [1, 0, -1, 0, 0, -1],
        ]

    def test_matches_oracle_on_seeded_corpus(self):
        rng = random.Random(15)
        nonzero = [c for c in range(-9, 10) if c]
        for n in range(2, 9):
            for k in range(1, n):
                for N in range(2, 11):
                    coeffs = [rng.choice(nonzero) for _ in range(n)]
                    weights = {pair: rng.randint(1, 12)
                               for pair in hl_slack_pairs(k, n)}
                    m = hl_matrix(coeffs, k, N, weights)
                    assert m == oracle_hl_matrix(coeffs, k, N, weights), \
                        (coeffs, k, N, weights)
                    assert (m.rows, m.cols) == hl_shape(n)

    def test_weight_errors_match_oracle(self):
        # two spoiled weights per case: the error names the first in slack
        # order, and a non-integer weight is reported before either
        rng = random.Random(16)
        for n in range(2, 9):
            for k in range(1, n):
                pairs = hl_slack_pairs(k, n)
                for _ in range(6):
                    weights = {pair: rng.randint(1, 12) for pair in pairs}
                    for pair in rng.sample(pairs, min(2, len(pairs))):
                        bad = rng.choice([None, 0, -3, Fraction(3, 2), 2.0])
                        if bad is None:
                            del weights[pair]
                        else:
                            weights[pair] = bad
                    coeffs = [rng.choice([-2, -1, 1, 3]) for _ in range(n)]
                    with pytest.raises(ValueError) as want:
                        oracle_hl_matrix(coeffs, k, 4, weights)
                    with pytest.raises(ValueError) as got:
                        hl_matrix(coeffs, k, 4, weights)
                    assert str(got.value) == str(want.value), (k, n, weights)

    def test_fast_path_block_structure(self):
        cert = verify_hl_choice([1, -1, 1], 2, 2)
        # first class columns, their ratio slacks, and the separation slack
        assert cert.blocks == ((0, 1, 3, 4, 5), (2,))


class TestVerifyHLChoice:
    def test_three_variables(self):
        cert = verify_hl_choice([1, -1, 1], 2, 5)
        assert cert is not None
        m = hl_matrix([1, -1, 1], 2, 5, default_hl_weights(2, 3, 5))
        assert verify_certificate(m, cert)

    def test_four_variables(self):
        cert = verify_hl_choice([1, -1, 1, 1], 2, 2)
        assert cert is not None
        m = hl_matrix([1, -1, 1, 1], 2, 2, default_hl_weights(2, 4, 2))
        assert verify_certificate(m, cert)

    def test_precondition_violated(self):
        with pytest.raises(ValueError):
            verify_hl_choice([1, 1, 1], 3, 2)

    def test_prediction_always_holds(self, monkeypatch):
        # the argument in the docstring: every zero-sum prefix gets the
        # predicted certificate, and the exhaustive search never runs.  For
        # n >= 9 it could not: 3n - 3 > COLUMN_CAP columns
        calls = []
        monkeypatch.setattr(linear, "columns_condition", calls.append)
        rng = random.Random(2031)
        nonzero = [c for c in range(-9, 10) if c]
        for _ in range(600):
            n = rng.randint(3, 12)
            k = rng.randint(2, n - 1)
            prefix = [0]
            while not 1 <= abs(prefix[-1]) <= 9:
                prefix = [rng.choice(nonzero) for _ in range(k - 1)]
                prefix.append(-sum(prefix))
            coeffs = prefix + [rng.choice(nonzero) for _ in range(n - k)]
            N = rng.randint(2, 50)
            cert = verify_hl_choice(coeffs, k, N)
            assert cert.blocks == _fast_path_blocks(k, n), (coeffs, k, N)
        assert calls == []

    def test_arrangement_invariance(self):
        # success depends only on the prefix/suffix multisets
        rng = random.Random(7)
        for _ in range(25):
            k = rng.randint(2, 3)
            prefix = [rng.choice([c for c in range(-6, 7) if c])
                      for _ in range(k - 1)]
            prefix.append(-sum(prefix))
            if 0 in prefix or sum(prefix) != 0:
                continue
            suffix = [rng.choice([c for c in range(-6, 7) if c])
                      for _ in range(rng.randint(1, 5 - k))]
            N = rng.randint(2, 6)
            base = verify_hl_choice(prefix + suffix, k, N) is not None
            rng.shuffle(prefix)
            rng.shuffle(suffix)
            assert (verify_hl_choice(prefix + suffix, k, N) is not None) == base
