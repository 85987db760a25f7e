import hashlib
import itertools
import random
import time

import pytest

from _oracles import oracle_maximal_root, oracle_positive_root
from radolab.cli import main
from radolab.errors import CapExceededError
from radolab.filters import (
    FILTER_CATALOGUE,
    OPEN_POWER_FAMILY_NOTE,
    decide,
    filter_battery,
    filter_exponent_rado,
    filter_fermat_catalan,
    filter_homogeneous_rado,
    filter_maximal_root,
    filter_single_variable_leading,
    match_power_difference,
    normalize_fermat_catalan,
    run_all_filters,
    sturm_positive_root,
)
from radolab.model import Polynomial, ZeroPolynomialError, collapse_to_univariate
from radolab.parser import parse, pretty
from radolab.results import Status


def fc_results(text):
    return {r.filter_name: r for r in filter_fermat_catalan(parse(text))}


class TestHomogeneousRado:
    def test_sum_of_squares_fires(self):
        assert filter_homogeneous_rado(parse("x^2 + y^2 + z^2 = 0")).fired

    def test_pythagorean_quiet(self):
        r = filter_homogeneous_rado(parse("x^2 + y^2 = z^2"))
        assert r.applicable and not r.fired

    def test_cubics_fire(self):
        assert filter_homogeneous_rado(parse("2x^3 + 3y^3 = 4z^3")).fired

    def test_inapplicable(self):
        r = filter_homogeneous_rado(parse("x*y = 2z"))
        assert not r.applicable and not r.fired


class TestSingleVariableLeading:
    def test_mixed_degrees_quiet(self):
        r = filter_single_variable_leading(parse("x^3 + y^2 = z^2"))
        assert r.applicable and not r.fired

    def test_all_positive_fires(self):
        assert filter_single_variable_leading(parse("x^3 + y^2 + z^5 = 0")).fired

    def test_no_cancellation_fires(self):
        assert filter_single_variable_leading(parse("x^5 - 2y^5 + z^3 = 0")).fired

    def test_inapplicable_on_mixed_monomials(self):
        r = filter_single_variable_leading(parse("x*y = 2z"))
        assert not r.applicable

    def test_dominating_leading_powers_pattern(self):
        # x^3 + y^3 - z^3 + xy: leading pure powers dominate the remainder
        r = filter_single_variable_leading(parse("x^3 + y^3 + x*y = z^3"))
        assert r.applicable and not r.fired
        r = filter_single_variable_leading(parse("x^3 + 2y^3 + x*y = 4z^3"))
        assert r.fired

    def test_remainder_too_large_inapplicable(self):
        r = filter_single_variable_leading(parse("x^3 + y^3 + x^2*y^2 = z^3"))
        assert not r.applicable


class TestExponentRado:
    def test_x2y3_z7_fires(self):
        assert filter_exponent_rado(parse("x^2*y^3 = z^7")).fired

    def test_x2y3_z5_quiet(self):
        r = filter_exponent_rado(parse("x^2*y^3 = z^5"))
        assert r.applicable and not r.fired

    def test_xy_2z_quiet(self):
        assert not filter_exponent_rado(parse("x*y = 2z")).fired

    def test_single_monomial_inapplicable(self):
        eq = parse("x^2*y = 0")
        assert not filter_exponent_rado(eq).applicable


class TestSturm:
    def test_fixed_cases(self):
        assert sturm_positive_root([0, -2, 1])        # x^2 - 2x
        assert not sturm_positive_root([0, 0, 1])     # x^2
        assert not sturm_positive_root([1, 0, 1])     # x^2 + 1
        assert sturm_positive_root([])                # identically zero
        assert sturm_positive_root([1, -2, 1])        # (x - 1)^2

    def test_agrees_with_numeric_oracle(self):
        rng = random.Random(13)
        for _ in range(800):
            deg = rng.randint(1, 8)
            coeffs = [rng.randint(-20, 20) for _ in range(deg + 1)]
            while coeffs[-1] == 0:
                coeffs[-1] = rng.randint(-20, 20)
            assert sturm_positive_root(coeffs) == oracle_positive_root(coeffs)
        # repeated roots, and two roots between consecutive integers
        for coeffs, rooted in [
            ([1, -4, 4], True),                 # (2x - 1)^2
            ([4, 4, -4, -4, 1, 1], True),       # (x^2 - 2)^2 (x + 1)
            ([143, -240, 100], True),           # (10x - 11)(10x - 13)
            ([1, 4, 4], False),                 # (2x + 1)^2
            ([4, 4, 4, 4, 1, 1], False),        # (x^2 + 2)^2 (x + 1)
            ([143, 240, 100], False),           # (10x + 11)(10x + 13)
            ([4, -8, 8, -4, 1], False),         # (x^2 - 2x + 2)^2
        ]:
            assert sturm_positive_root(coeffs) is rooted, coeffs
            assert oracle_positive_root(coeffs) is rooted, coeffs


class TestMaximalRoot:
    def test_2xy_z2_fires(self):
        assert filter_maximal_root(parse("2x*y = z^2")).fired

    def test_xy_2z_quiet(self):
        r = filter_maximal_root(parse("x*y = 2z"))
        assert not r.fired
        assert r.evidence["collapse"] == [0, -2, 1]

    def test_cancellation_counts_as_root(self):
        assert not filter_maximal_root(parse("x^2 + y^2 = z^2")).fired

    def test_cap(self):
        terms = {(("x", e),): 1 for e in range(1, 22)}
        eq_poly = Polynomial.from_terms(terms)
        from radolab.model import Equation
        with pytest.raises(CapExceededError):
            filter_maximal_root(Equation.from_polynomial(eq_poly))

    def test_never_fires_on_positive_diagonal_ray(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(300):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                key = tuple(
                    (v, rng.randint(1, 3))
                    for v in rng.sample(["x", "y", "z"], rng.randint(1, 2))
                )
                coeff = rng.randint(-5, 5)
                if coeff:
                    terms[key] = coeff
            poly = Polynomial.from_terms(terms)
            if poly.is_zero():
                continue
            diagonal = collapse_to_univariate(poly, range(len(poly.monomials)))
            if diagonal and not oracle_positive_root(diagonal):
                continue
            checked += 1
            from radolab.model import Equation
            assert not filter_maximal_root(Equation.from_polynomial(poly)).fired
        assert checked > 30


    def test_closed_form_matches_exhaustive_scan(self):
        # random signs, one sign throughout, and one total degree with small
        # coefficients (so that zero-sum subsets come and go)
        from radolab.model import Equation
        rng = random.Random(31)
        names = ["x", "y", "z"]
        fired = quiet = 0
        for _ in range(1500):
            shape = rng.choice(["signed", "one-sign", "homogeneous"])
            degree = rng.randint(1, 4)
            sign = rng.choice([-1, 1])
            terms = {}
            for _ in range(rng.randint(1, 7)):
                if shape == "homogeneous":
                    cuts = sorted(rng.randint(0, degree) for _ in range(2))
                    exps = [cuts[0], cuts[1] - cuts[0], degree - cuts[1]]
                else:
                    exps = [rng.randint(0, 3) for _ in names]
                key = tuple((v, e) for v, e in zip(names, exps) if e)
                coeff = rng.choice([1, 2, 3, 5])
                if shape == "one-sign":
                    coeff *= sign
                else:
                    coeff *= rng.choice([-1, 1])
                terms[key] = coeff
            poly = Polynomial.from_terms(terms)
            if poly.is_zero():
                continue
            eq = Equation.from_polynomial(poly)
            r = filter_maximal_root(eq)
            assert (r.fired, r.evidence) == oracle_maximal_root(eq.poly), eq
            fired += r.fired
            quiet += not r.fired
        assert fired > 400 and quiet > 400

    def test_twenty_monomials_fire_in_closed_form(self):
        # 20 positive monomials: the scan of all 2^20 - 1 subsets took minutes
        text = " + ".join(f"{k}x^{k}*y" for k in range(1, 20)) + " + z^3 = 0"
        start = time.perf_counter()
        r = filter_maximal_root(parse(text))
        assert time.perf_counter() - start < 1.0
        assert r.fired
        assert r.evidence == {"monomial_count": 20,
                              "subsets_checked": 2 ** 20 - 1}

    def test_one_sign_subsets_skipped(self):
        # the first subset with both signs is {19x^19*y, -z^3}, at bitmask
        # 2^18 + 1; every subset before it has one sign
        text = " + ".join(f"{k}x^{k}*y" for k in range(1, 20)) + " = z^3"
        start = time.perf_counter()
        r = filter_maximal_root(parse(text))
        assert time.perf_counter() - start < 1.0
        assert not r.fired
        assert r.evidence["rootful_subset"] == [0, 18]
        assert r.evidence["collapse"] == [0, 0, 0, -1] + [0] * 16 + [19]

    def test_quiet_degree_subsets_skipped(self):
        # the 19 degree-2 coefficients (-2)^i have no zero-sum subset, so
        # no subset of them is rootful; the first rootful subset pairs
        # x0*y with the one degree-1 monomial, -z, at bitmask 2^19 + 1
        text = " + ".join(f"{(-2) ** i}x{i}*y" for i in range(19))
        text = text.replace("+ -", "- ").replace("1x0", "x0") + " = z"
        start = time.perf_counter()
        r = filter_maximal_root(parse(text))
        assert time.perf_counter() - start < 1.0
        assert not r.fired
        assert r.evidence == {"rootful_subset": [0, 19], "collapse": [0, -1, 1]}

    def test_quiet_degrees_match_exhaustive_scan(self):
        # two or three total degrees, each with coefficients that have no
        # zero-sum subset (distinct powers of two) or may have one (small)
        from radolab.model import Equation
        rng = random.Random(43)
        names = ["x", "y", "z", "w"]
        mixed_quiet = 0  # equations with a quiet degree of both signs
        for _ in range(600):
            terms = {}
            for degree in rng.sample(range(0, 5), rng.randint(2, 3)):
                powers = rng.random() < 0.6
                for k in range(rng.randint(1, 4)):
                    cuts = sorted(rng.randint(0, degree) for _ in range(3))
                    exps = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1],
                            degree - cuts[2]]
                    key = tuple((v, e) for v, e in zip(names, exps) if e)
                    coeff = 2 ** k if powers else rng.choice([1, 2, 3])
                    terms[key] = coeff * rng.choice([-1, 1])
            poly = Polynomial.from_terms(terms)
            if poly.is_zero():
                continue
            eq = Equation.from_polynomial(poly)
            r = filter_maximal_root(eq)
            assert (r.fired, r.evidence) == oracle_maximal_root(eq.poly), eq
            by_degree = {}
            for m in poly.monomials:
                by_degree.setdefault(m.degree(), []).append(m.coeff)
            mixed_quiet += any(
                min(cs) < 0 < max(cs) and not any(
                    sum(sub) == 0 for k in range(1, len(cs) + 1)
                    for sub in itertools.combinations(cs, k))
                for cs in by_degree.values())
        assert mixed_quiet > 150

    def test_late_zero_sum_subset_found_in_closed_form(self, capsys):
        # the degree-2 coefficients (-2)^i for i < 18 have no zero-sum
        # subset; the first one needs the last coefficient, 1: {0, 1, 18}
        # at bitmask 2^18 + 3, below the pair {x00*y, -z} at 2^19 + 1
        text = " ".join(["x00*y"] + [
            f"{'-' if i % 2 else '+'} {2 ** i}x{i:02d}*y" for i in range(1, 18)
        ] + ["+ x18*y = z"])
        eq = parse(text)
        start = time.perf_counter()
        r = filter_maximal_root(eq)
        assert time.perf_counter() - start < 0.1
        assert not r.fired
        assert r.evidence == {"rootful_subset": [0, 1, 18], "collapse": []}
        assert main(["analyze", text]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest().startswith(
            "ee83c5e2cdab0dbe")

    def test_oracle_corpus_without_sturm(self, monkeypatch):
        # random signs with constant monomials, one sign throughout,
        # homogeneous, and 2-3 degrees of signed powers of two; the oracle
        # (which decides roots with Sturm sequences) runs first, then the
        # filter must agree without a single root test
        from radolab.model import Equation
        rng = random.Random(59)
        names = ["x", "y", "z", "w"]
        corpus = []
        while len(corpus) < 3000:
            shape = rng.choice(["signed", "one-sign", "homogeneous", "powers"])
            sign = rng.choice([-1, 1])
            degree = rng.randint(1, 4)
            terms = {}
            if shape == "powers":
                for d in rng.sample(range(0, 5), rng.randint(2, 3)):
                    for k in range(rng.randint(1, 4)):
                        cuts = sorted(rng.randint(0, d) for _ in range(3))
                        exps = [cuts[0], cuts[1] - cuts[0],
                                cuts[2] - cuts[1], d - cuts[2]]
                        key = tuple((v, e) for v, e in zip(names, exps) if e)
                        terms[key] = 2 ** k * rng.choice([-1, 1])
            else:
                # a fired equation costs the oracle all 2^t - 1 subsets
                size = 8 if shape == "one-sign" else 12
                for _ in range(rng.randint(1, size)):
                    if shape == "homogeneous":
                        cuts = sorted(rng.randint(0, degree) for _ in range(3))
                        exps = [cuts[0], cuts[1] - cuts[0],
                                cuts[2] - cuts[1], degree - cuts[2]]
                    else:
                        # exponent 0 throughout is the constant monomial
                        exps = [rng.randint(0, 2) for _ in names]
                    key = tuple((v, e) for v, e in zip(names, exps) if e)
                    coeff = rng.choice([1, 2, 3, 5])
                    terms[key] = coeff * (sign if shape == "one-sign"
                                          else rng.choice([-1, 1]))
            poly = Polynomial.from_terms(terms)
            if not poly.is_zero() and len(poly.monomials) <= 12:
                corpus.append(Equation.from_polynomial(poly))
        expected = [oracle_maximal_root(eq.poly) for eq in corpus]

        def no_root_tests(p):
            raise AssertionError("the maximal-root filter ran a root test")

        monkeypatch.setattr("radolab.filters.sturm_positive_root",
                            no_root_tests)
        for eq, want in zip(corpus, expected):
            r = filter_maximal_root(eq)
            assert (r.fired, r.evidence) == want, eq
        fired = sum(f for f, _ in expected)
        assert fired > 500 and len(corpus) - fired > 1500
        assert sum(len(eq.poly.monomials) > 8 for eq in corpus) > 200


class TestFermatCatalanRules:
    def test_r1_degree_gap(self):
        r = fc_results("x^2 - y^2 = z^5")["fc-degree"]
        assert r.fired and r.evidence["rhs_degree"] == 5

    def test_r1_respects_constant_solutions(self):
        # x^2 - y^2 = z^5 + z - 2 has the constant solution 1
        r = fc_results("x^2 - y^2 = z^5 + z - 2")["fc-degree"]
        assert r.applicable and not r.fired

    def test_r1_quiet_when_degree_close(self):
        assert not fc_results("x^2 - y^2 = z")["fc-degree"].fired
        assert not fc_results("x^4 - y^4 = z^3")["fc-degree"].fired

    def test_r2_same_power(self):
        r = fc_results("x^4 - y^4 = z^4")["fc-same-power"]
        assert r.fired
        assert not fc_results("x^3 - y^3 = z^3")["fc-same-power"].fired  # n = 3
        # x^4 + y^4 = z^4 fires through the orientation z^4 - x^4 = y^4
        assert fc_results("x^4 + y^4 = z^4")["fc-same-power"].fired
        # no orientation pairs cancelling coefficients here
        assert not fc_results("x^4 + y^4 + z^4 = 0")["fc-same-power"].fired

    def test_r3_poly_sum(self):
        assert fc_results("x^2 - y^2 = z1^4 + z2^5 - 3z3^6")["fc-poly-sum"].fired
        assert fc_results("x^5 - y^5 = z1^3 - z2^3")["fc-poly-sum"].fired
        r = fc_results("x^5 - y^5 = z1^4 - z2^3")["fc-poly-sum"]
        assert r.applicable and not r.fired  # deg 4 = n - 1

    def test_r4_power_product(self):
        r = fc_results("x^4 - y^4 = z1*z2")["fc-power-product"]
        assert r.fired and r.evidence["subset_sums"] == [1, 2]
        r = fc_results("x^3 - y^3 = z1*z2")["fc-power-product"]
        assert not r.fired and "subset_sums" not in r.evidence

    def test_r5_mixed_linear(self):
        assert fc_results("2x + 3y = w^2*z^2")["fc-mixed-linear"].fired
        assert not fc_results("2x - 2y = w^2*z^2")["fc-mixed-linear"].fired
        r = fc_results("2x + 3y = w^2*z")["fc-mixed-linear"]
        assert not r.applicable  # z exponent 1

    def test_open_family_fires_nothing(self):
        for n in (3, 4, 5):
            results = fc_results(f"x^{n} - y^{n} = z^{n - 1}")
            assert not any(r.fired for r in results.values())

    def test_r4_subset_logic(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 7)
            exps = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
            zs = "*".join(f"z{i}^{e}" for i, e in enumerate(exps))
            r = fc_results(f"x^{n} - y^{n} = {zs}")["fc-power-product"]
            sums = set()
            for size in range(1, len(exps) + 1):
                for combo in itertools.combinations(range(len(exps)), size):
                    sums.add(sum(exps[i] for i in combo))
            assert r.fired == (not sums & {n, n - 1})


def nonlinear_corpus():
    """The Fermat-Catalan texts of these tests, plus seeded equations in the
    same shapes, some with the constant solution 1."""
    texts = ["x^2 - y^2 = z^5", "x^2 - y^2 = z^5 + z - 2", "x^2 - y^2 = z",
             "x^4 - y^4 = z^3", "x^4 - y^4 = z^4", "x^3 - y^3 = z^3",
             "x^4 + y^4 = z^4", "x^4 + y^4 + z^4 = 0",
             "x^2 - y^2 = z1^4 + z2^5 - 3z3^6", "x^5 - y^5 = z1^3 - z2^3",
             "x^5 - y^5 = z1^4 - z2^3", "x^4 - y^4 = z1*z2",
             "x^3 - y^3 = z1*z2", "2x + 3y = w^2*z^2", "2x - 2y = w^2*z^2",
             "2x + 3y = w^2*z", "x^3 - y^3 = z^2", "x^2 + y^2 = z^2",
             "2x*y = z^2", "x^2*y^3 = z^7", "x^2 + y^2 = 2"]
    rng = random.Random(41)
    for _ in range(150):
        a, b, c = rng.randint(2, 6), rng.randint(2, 7), rng.randint(1, 9)
        d, e = rng.randint(2, 7), rng.randint(1, 9)
        texts.append(rng.choice([
            f"x^{a} - y^{a} = z^{b}",
            f"x^{a} - y^{a} = z^{b} + {e}z - {e + 1}",
            f"{c}x^{a} + {c}y^{a} = {2 * c}z^{b}",
            f"{c}x^{a} - {c}y^{a} = z1^{b} + z2^{d} - {e}z3^{a + 1}",
            f"x^{a} - y^{a} = z1^{b}*z2^{d}",
            f"{c}x + {e}y = w^{a}*z^{b}",
            f"x^{a}*y^{b} = z^{d}",
            f"x^{a + 1} - y^{a + 1} = {c}z^{a}",
            f"x^{a} - y^{b} = {c}z",
        ]))
    return texts


class TestStandaloneMatchesPipeline:
    # the one-argument filters search the constant solution themselves;
    # decide searches once and hands the value to the same rules

    def test_battery_matches_decide(self):
        for text in nonlinear_corpus():
            eq = parse(text)
            assert repr(filter_battery(eq)) == repr(decide(eq)[1]), text

    def test_fermat_catalan_matches_battery_entries(self):
        for text in nonlinear_corpus():
            eq = parse(text)
            fc = [r for r in decide(eq)[1] if r.filter_name.startswith("fc-")]
            assert repr(filter_fermat_catalan(eq)) == repr(fc), text


class TestNormalizeFermatCatalan:
    def test_reduction(self):
        reduced = normalize_fermat_catalan(parse("3x^4 - 3y^4 = 5z^3"))
        assert pretty(reduced) == "x^4 - y^4 - z^3 = 0"

    def test_identity(self):
        reduced = normalize_fermat_catalan(parse("x^4 - y^4 = z^3"))
        assert reduced.poly == parse("x^4 - y^4 = z^3").poly

    def test_inapplicable(self):
        assert normalize_fermat_catalan(parse("x^4 + y^4 = z^3")) is None
        assert normalize_fermat_catalan(parse("x^4 - y^4 = z^2")) is None

    def test_shape_binding(self):
        shape = match_power_difference(parse("2x^3 - 2y^3 = 7z^2").poly)
        assert (shape.a, shape.n, shape.c, shape.k) == (2, 3, 7, 2)


class TestPipeline:
    def test_trivial_linear(self):
        v = run_all_filters(parse("x + y = 2z"))
        assert v.status is Status.PR
        assert v.certificate == {"kind": "constant", "value": 1}

    def test_pythagorean_unknown(self):
        v = run_all_filters(parse("x^2 + y^2 = z^2"))
        assert v.status is Status.UNKNOWN
        assert any("open" in n for n in v.notes)

    def test_poly_sum_not_pr(self):
        v = run_all_filters(parse("x^5 - y^5 = z1^3 - z2^3"))
        assert v.status is Status.NOT_PR
        assert [r.filter_name for r in v.reasons] == ["fc-poly-sum"]

    def test_open_family_note(self):
        for n in (3, 4, 5):
            v = run_all_filters(parse(f"x^{n} - y^{n} = z^{n - 1}"))
            assert v.status is Status.UNKNOWN
            assert OPEN_POWER_FAMILY_NOTE in v.notes

    def test_reduction_note(self):
        v = run_all_filters(parse("3x^4 - 3y^4 = 5z^3"))
        assert v.status is Status.UNKNOWN
        assert any("coefficient-equivalent" in n for n in v.notes)
        assert OPEN_POWER_FAMILY_NOTE in v.notes

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            run_all_filters(parse("x = x"))

    def test_known_pr_never_flagged(self):
        for text in ["x + y = z", "x + 2y = z", "x*y = z", "x*y = 2z",
                     "x^2 - y^2 = z", "x + y = 2z"]:
            v = run_all_filters(parse(text))
            assert v.status is not Status.NOT_PR, text

    def test_linear_pr_family_never_fires_any_filter(self):
        from radolab.filters import filter_battery
        from radolab.linear import rado_condition
        rng = random.Random(41)
        checked = 0
        while checked < 150:
            n = rng.randint(2, 6)
            coeffs = [rng.choice([c for c in range(-9, 10) if c])
                      for _ in range(n)]
            if rado_condition(coeffs) is None:
                continue
            checked += 1
            terms = {((f"v{i}", 1),): c for i, c in enumerate(coeffs)}
            from radolab.model import Equation, Polynomial
            eq = Equation.from_polynomial(Polynomial.from_terms(terms))
            assert not any(r.fired for r in filter_battery(eq)), coeffs

    def test_known_pr_annotations(self):
        v = run_all_filters(parse("x*y = z"))
        assert any("multiplicative Schur" in n for n in v.notes)
        v = run_all_filters(parse("x^2 - y^2 = z"))
        assert any("known partition regular" in n for n in v.notes)
        v = run_all_filters(parse("x - y = z^4"))
        assert any("van der Waerden" in n for n in v.notes)

    def test_renaming_invariance(self):
        rng = random.Random(29)
        corpus = ["x^2 - y^2 = z^5", "2x*y = z^2", "x^2*y^3 = z^7",
                  "x^4 - y^4 = z1*z2", "x^2 + y^2 = z^2", "x*y = 2z",
                  "x^5 - y^5 = z1^3 - z2^3"]
        for text in corpus:
            eq = parse(text)
            v = run_all_filters(eq)
            names = list(eq.poly.variables)
            fresh = [f"t{i}" for i in range(len(names))]
            rng.shuffle(fresh)
            mapping = dict(zip(names, fresh))
            renamed = Polynomial.from_terms({
                tuple(sorted((mapping[v], e) for v, e in key)): c
                for key, c in eq.poly.terms_by_name().items()
            })
            from radolab.model import Equation
            v2 = run_all_filters(Equation.from_polynomial(renamed))
            assert v.status == v2.status, text
            assert sorted(r.filter_name for r in v.reasons) == sorted(
                r.filter_name for r in v2.reasons
            )

    def test_every_citation_in_catalogue(self):
        catalogue = {entry["citation"] for entry in FILTER_CATALOGUE}
        corpus = ["x + y = 3z", "x - y = 1", "x^2 - y^2 = z^5",
                  "2x*y = z^2", "x^2*y^3 = z^7", "x^4 - y^4 = z^4",
                  "2x + 3y = w^2*z^2", "x^4 - y^4 = z1*z2"]
        for text in corpus:
            for reason in run_all_filters(parse(text)).reasons:
                assert reason.citation in catalogue
