import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import oracle_grlex_key
from radolab.model import (
    Equation,
    MissingVariableError,
    Polynomial,
    ZeroPolynomialError,
    collapse_to_univariate,
    evaluate,
    is_homogeneous,
    trivial_constant_solution,
)


def P(terms):
    return Polynomial.from_terms(terms)


PYTH = P({(("x", 2),): 1, (("y", 2),): 1, (("z", 2),): -1})
SCHUR = P({(("x", 1),): 1, (("y", 1),): 1, (("z", 1),): -1})
X2Y_Z = P({(("x", 1),): 1, (("y", 1),): 2, (("z", 1),): -1})
XY_2Z = P({(("x", 1), ("y", 1)): 1, (("z", 1),): -2})


class TestEvaluate:
    def test_pythagorean_triple(self):
        assert evaluate(PYTH, {"x": 3, "y": 4, "z": 5}) == 0

    def test_schur_all_ones(self):
        assert evaluate(SCHUR, {"x": 1, "y": 1, "z": 1}) == 1

    def test_x_plus_2y_solution(self):
        assert evaluate(X2Y_Z, {"x": 2, "y": 1, "z": 4}) == 0

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            evaluate(SCHUR, {"x": 1, "y": 1})


class TestHomogeneous:
    def test_pythagorean(self):
        assert is_homogeneous(PYTH)

    def test_xy_2z(self):
        assert not is_homogeneous(XY_2Z)

    def test_linear(self):
        assert is_homogeneous(P({(("x", 1),): 3, (("y", 1),): -2, (("z", 1),): 1}))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            is_homogeneous(P({}))


class TestCollapse:
    def test_xy_2z_full(self):
        # xy - 2z with x substituted everywhere: x^2 - 2x
        assert collapse_to_univariate(XY_2Z, [0, 1]) == [0, -2, 1]

    def test_cancellation(self):
        # x^2 and -z^2 cancel identically
        assert collapse_to_univariate(PYTH, [0, 2]) == []

    def test_2xy_z2(self):
        poly = P({(("x", 1), ("y", 1)): 2, (("z", 2),): -1})
        assert collapse_to_univariate(poly, [0, 1]) == [0, 0, 1]

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            collapse_to_univariate(PYTH, [])

    def test_bad_index(self):
        with pytest.raises(IndexError):
            collapse_to_univariate(PYTH, [5])


class TestTrivialConstantSolution:
    def test_x_plus_y_2z(self):
        poly = P({(("x", 1),): 1, (("y", 1),): 1, (("z", 1),): -2})
        assert trivial_constant_solution(poly) == 1

    def test_schur_has_none(self):
        assert trivial_constant_solution(SCHUR) is None

    def test_pythagorean_has_none(self):
        assert trivial_constant_solution(PYTH) is None

    def test_identically_zero_diagonal(self):
        poly = P({(("x", 5),): 1, (("y", 5),): -1,
                  (("z1", 3),): -1, (("z2", 3),): 1})
        assert trivial_constant_solution(poly) == 1

    def test_xy_2z(self):
        assert trivial_constant_solution(XY_2Z) == 2

    def test_agrees_with_scan(self):
        # after the first 25 inputs, each gets a root k <= 60 planted through
        # its constant term, so the scan stops early
        rng = random.Random(5)
        for i in range(400):
            poly = _random_poly(rng, max_vars=3, max_monomials=3, max_exp=3)
            if poly.is_zero():
                continue
            if i >= 25:
                k = rng.randint(1, 60)
                terms = poly.terms_by_name()
                terms[()] = (terms.get((), 0)
                             - evaluate(poly, {v: k for v in poly.variables}))
                poly = P(terms)
                if poly.is_zero():
                    continue
            expected = next(
                (k for k in range(1, 10 ** 4 + 1)
                 if evaluate(poly, {v: k for v in poly.variables}) == 0),
                None,
            )
            assert trivial_constant_solution(poly) == expected

    def test_constant_past_trial_division(self):
        # 2k = k + 10^24: trial division would run to 10^12
        poly = P({(("x", 1),): 2, (("y", 1),): -1, (): -10 ** 24})
        assert trivial_constant_solution(poly) == 10 ** 24
        poly = P({(("x", 3),): 1, (("y", 1),): -1, (): -(10 ** 18 - 10 ** 6)})
        assert trivial_constant_solution(poly) == 10 ** 6


def _random_poly(rng, max_vars=4, max_monomials=4, max_exp=4, coeff=9):
    names = rng.sample(["x", "y", "z", "w"], rng.randint(1, max_vars))
    terms = {}
    for _ in range(rng.randint(1, max_monomials)):
        key = tuple(
            (v, rng.randint(0, max_exp)) for v in names if rng.random() < 0.8
        )
        c = rng.randint(-coeff, coeff)
        if c:
            terms[tuple((v, e) for v, e in key if e)] = c
    return Polynomial.from_terms(terms)


names_st = st.lists(st.sampled_from(["x", "y", "z", "w", "u1", "v2"]),
                    min_size=1, max_size=4, unique=True)


@st.composite
def polys(draw):
    names = draw(names_st)
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            (v, draw(st.integers(0, 4))) for v in names
            if draw(st.booleans())
        )
        coeff = draw(st.integers(-20, 20).filter(bool))
        key = tuple((v, e) for v, e in exps if e)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial.from_terms(terms)


@given(polys())
def test_normalization_idempotent(poly):
    assert Polynomial.from_terms(poly.terms_by_name()) == poly


@given(polys(), st.integers(1, 30))
def test_collapse_matches_constant_evaluation(poly, k):
    if poly.is_zero():
        return
    collapsed = collapse_to_univariate(poly, range(len(poly.monomials)))
    value = sum(c * k ** i for i, c in enumerate(collapsed))
    assert value == evaluate(poly, {v: k for v in poly.variables})


def test_equation_sign_normalization():
    eq = Equation.from_polynomial(P({(("x", 1),): -1, (("y", 1),): 1}))
    assert eq.poly.monomials[0].coeff > 0


def test_variables_pruned_and_sorted():
    poly = P({(("z", 1),): 1, (("a", 2),): 3, (("m", 1),): 0})
    assert poly.variables == ("a", "z")


def test_grlex_order_matches_dense_oracle():
    # the sparse sort key orders monomials as dense exponent vectors do
    rng = random.Random(8)
    names = ["a", "b", "c", "d", "e", "f"]
    for _ in range(2000):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            chosen = rng.sample(names, rng.randint(0, 4))
            terms[tuple((v, rng.randint(1, 3)) for v in sorted(chosen))] = rng.randint(1, 9)
        poly = P(terms)
        keys = [oracle_grlex_key(m, len(poly.variables)) for m in poly.monomials]
        assert keys == sorted(keys, reverse=True)
