import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radolab
from _oracles import oracle_profile_valid, oracle_solution_grid
from radolab import univariate
from radolab.coloring import (
    ColoringSpec,
    _color_lookup,
    asymptotic_profile,
    enumerate_solutions,
    head_census,
    iter_records,
    profile_census,
    profile_census_many,
    standard_head,
    witness_search,
)
from radolab.model import ZeroPolynomialError, evaluate
from radolab.parser import parse
from radolab.results import OrderedPartition


def test_import_does_not_load_numpy():
    src = str(Path(radolab.__file__).resolve().parents[1])
    code = "import sys, radolab; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_star_import_exports_each_name_once():
    namespace: dict = {}
    exec("from radolab import *", namespace)
    assert len(radolab.__all__) == len(set(radolab.__all__))
    assert set(radolab.__all__) <= namespace.keys()


class TestColoringSpec:
    def test_mod(self):
        assert ColoringSpec.parse("mod:5").color(10) == 0
        assert ColoringSpec.parse("mod:5").color(13) == 3

    def test_leading_digit(self):
        assert ColoringSpec.parse("digit:10").color(987) == 9
        assert ColoringSpec.parse("digit:3").color(8) == 2  # 8 = 22_3

    def test_digit_base2_rejected(self):
        with pytest.raises(ValueError):
            ColoringSpec.parse("digit:2")

    def test_logband(self):
        spec = ColoringSpec.parse("logband:2:2")
        assert spec.color(5) == 0  # floor(log2 5) = 2
        assert spec.color(2) == 1

    def test_random_reproducible(self):
        a = ColoringSpec.parse("random:42:4")
        b = ColoringSpec.parse("random:42:4")
        xs = [1, 2, 3, 123, 10 ** 6]
        assert [a.color(x) for x in xs] == [b.color(x) for x in xs]
        # frozen regression values for the documented keyed-blake2b scheme
        assert [a.color(x) for x in (1, 2, 3, 4, 5)] == [1, 3, 0, 2, 1]

    def test_random_differs_by_seed(self):
        a = ColoringSpec.parse("random:1:4")
        b = ColoringSpec.parse("random:2:4")
        assert any(a.color(x) != b.color(x) for x in range(1, 50))

    def test_validation(self):
        for bad in ["mod:1", "logband:1:2", "logband:2:0", "random:5:1",
                    "mystery:3", "mod:x"]:
            with pytest.raises(ValueError):
                ColoringSpec.parse(bad)

    def test_color_array_matches_scalar(self):
        # the search tables and color_array against the scalar coloring, at
        # bounds 0, 1 and p^k - 1, p^k, p^k + 1 around each level edge of the
        # kind's base (the modulus for mod); digit:257 has a color, 256, past
        # 8 bits, and mod:2^64+1 a modulus past 64 bits
        for name in ["mod:3", "mod:7", "digit:3", "digit:10", "digit:257",
                     "logband:2:3", "logband:3:2", "random:9:5",
                     "mod:18446744073709551617"]:
            spec = ColoringSpec.parse(name)
            p = min(spec.params[0], 300) if spec.kind != "random" else 5
            bounds = {0, 1, 200}
            for k in range(1, 6):
                if p ** k <= 1000:
                    bounds |= {p ** k - 1, p ** k, p ** k + 1}
            for bound in sorted(bounds):
                expected = [spec.color(x) for x in range(1, bound + 1)]
                table = _color_lookup(spec, bound)
                assert [table[x] for x in range(1, bound + 1)] == expected, \
                    (name, bound)
                arr = spec.color_array(bound)
                assert len(arr) == bound + 1
                assert arr[1:].tolist() == expected, (name, bound)

    def test_random_table_hashes_on_demand(self, monkeypatch):
        # a witness search that stops at the first solutions must not hash
        # every value up to the bound
        calls = []
        scalar = ColoringSpec.color

        def counted(self, x):
            calls.append(x)
            return scalar(self, x)

        monkeypatch.setattr(ColoringSpec, "color", counted)
        spec = ColoringSpec.parse("random:7:3")
        assert witness_search(parse("x + y = z"), [spec], 10 ** 6) == []
        assert 0 < len(calls) < 1000

    def test_searches_do_not_load_numpy(self):
        src = str(Path(radolab.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from radolab.coloring import *\n"
            "from radolab.parser import parse\n"
            "specs = [ColoringSpec.parse(s) for s in "
            "('mod:3', 'digit:10', 'logband:2:3', 'random:9:5')]\n"
            "list(iter_records(parse('x + y = z'), specs[0], 30, N=3, "
            "bases=(2,)))\n"
            "head_census(parse('x*y = z'), specs[1], 60, 3)\n"
            "profile_census_many(parse('x + y + z = w'), specs, 12, 3)\n"
            "witness_search(parse('x = y + 1'), specs, 50)\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_spec_string_round_trip(self):
        for name in ["mod:3", "digit:10", "logband:2:3", "random:9:5"]:
            assert ColoringSpec.parse(name).spec_string() == name


class TestStandardHead:
    def test_twelve_base_two(self):
        assert standard_head(12, 2) == Fraction(3, 2)

    def test_powers(self):
        for k in range(6):
            assert standard_head(7 ** k, 7) == 1

    def test_shift_invariance(self):
        assert standard_head(13 * 2 ** 9, 2) == standard_head(13, 2)

    @given(st.integers(1, 10 ** 9), st.integers(2, 16), st.integers(0, 8))
    def test_range_and_shift(self, x, p, k):
        h = standard_head(x, p)
        assert 1 <= h < p
        assert standard_head(x * p ** k, p) == h


class TestAsymptoticProfile:
    def test_two_classes(self):
        partition, valid = asymptotic_profile((1000, 999, 5), 10)
        assert partition == OrderedPartition.of({0, 1}, {2})
        assert valid

    def test_invalid_boundary(self):
        partition, valid = asymptotic_profile((2, 2, 4), 2)
        assert partition == OrderedPartition.of({2}, {0, 1})
        assert not valid

    def test_constant_tuple(self):
        partition, valid = asymptotic_profile((7, 7, 7, 7), 99)
        assert partition == OrderedPartition.of({0, 1, 2, 3})
        assert valid

    @given(st.lists(st.integers(1, 10 ** 9), min_size=1, max_size=6),
           st.sampled_from([2, 5, 10]))
    @settings(max_examples=300, deadline=None)
    def test_valid_profiles_reverify(self, values, N):
        partition, valid = asymptotic_profile(values, N)
        assert partition.size() == len(values)
        if valid:
            assert oracle_profile_valid(values,
                                        [sorted(c) for c in partition.classes], N)

    def test_greedy_groups_against_max(self):
        # 91 is within 1/10 of the anchor 100, 84 is not; and the cross pair
        # (91, 84) violates the tenfold separation, so the profile is invalid
        partition, valid = asymptotic_profile((100, 91, 84), 10)
        assert partition == OrderedPartition.of({0, 1}, {2})
        assert not valid


class TestEnumerateSolutions:
    def test_schur_small(self):
        got = set(enumerate_solutions(parse("x + y = z"), 4))
        assert got == {(1, 1, 2), (1, 2, 3), (2, 1, 3), (1, 3, 4), (3, 1, 4),
                       (2, 2, 4)}

    def test_pythagorean(self):
        got = set(enumerate_solutions(parse("x^2 + y^2 = z^2"), 5))
        assert got == {(3, 4, 5), (4, 3, 5)}

    def test_quartic_product_empty(self):
        assert list(enumerate_solutions(parse("x^4 - y^4 = z1*z2"), 3)) == []

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            list(enumerate_solutions(parse("x = x"), 5))

    def test_duplicate_free(self):
        sols = list(enumerate_solutions(parse("x*y = z"), 30))
        assert len(sols) == len(set(sols))

    def test_matches_grid_oracle(self):
        corpus = ["x + y = z", "x^2 + y^2 = z^2", "x*y = 2z", "2x*y = z^2",
                  "x^2*y^3 = z^7", "x^4 - y^4 = z1*z2", "x - y = 1",
                  "x^3 - y^3 = z^2", "2x + 3y = w^2*z^2",
                  "x^5 - y^5 = z1^3 - z2^3"]
        for text in corpus:
            eq = parse(text)
            poly = eq.poly
            terms = [(m.coeff, m.exponents) for m in poly.monomials]
            expected = oracle_solution_grid(terms, len(poly.variables), 12)
            got = set(enumerate_solutions(eq, 12))
            assert got == expected, text

    def test_matches_grid_oracle_random(self):
        rng = random.Random(31)
        from radolab.model import Equation, Polynomial
        done = 0
        while done < 40:
            terms = {}
            nv = rng.randint(1, 3)
            names = ["x", "y", "z"][:nv]
            for _ in range(rng.randint(1, 3)):
                key = tuple((v, rng.randint(1, 2)) for v in names
                            if rng.random() < 0.7)
                c = rng.randint(-4, 4)
                if c:
                    terms[key] = c
            poly = Polynomial.from_terms(terms)
            if poly.is_zero() or not poly.variables:
                continue
            done += 1
            eq = Equation.from_polynomial(poly)
            expected = oracle_solution_grid(
                [(m.coeff, m.exponents) for m in poly.monomials],
                len(poly.variables), 9)
            assert set(enumerate_solutions(eq, 9)) == expected

    def test_solutions_actually_solve(self):
        for text in ["x + 2y = z", "x*y = z"]:
            eq = parse(text)
            for sol in enumerate_solutions(eq, 25):
                assignment = dict(zip(eq.poly.variables, sol))
                assert evaluate(eq.poly, assignment) == 0


def _walk_order_scan(eq, bound, solved):
    """Every solution by a full-grid scan, in the order the walk yields
    them: lexicographic in the other variables, then in the solved one."""
    poly = eq.poly
    n = len(poly.variables)
    s = poly.variables.index(solved)
    order = [i for i in range(n) if i != s] + [s]
    axes = np.meshgrid(*[np.arange(1, bound + 1, dtype=np.int64)] * (n - 1),
                       indexing="ij", sparse=True)
    out = []
    for first in range(1, bound + 1):
        at = {order[0]: first, **dict(zip(order[1:], axes))}
        total = np.zeros((bound,) * (n - 1), dtype=np.int64)
        for m in poly.monomials:
            term = m.coeff
            for v, e in m.exponents:
                term = term * at[v] ** e
            total = total + term
        for hit in np.argwhere(total == 0):
            values = [0] * n
            values[order[0]] = first
            for v, i in zip(order[1:], hit):
                values[v] = int(i) + 1
            out.append(tuple(values))
    return out


class TestWindowedWalk:
    # at bound 150 each case walks the exact windows of its innermost
    # variable rather than scanning it (150 > 2 * 3^2 * 8 for degree 2)
    CASES = [
        ("x^2 - y^2 = z", "z"),          # solved value not affine in y
        ("y*z = x^2 + 1", "z"),          # y in the solved monomial
        ("x^2 - y^2 = 3z", "z"),         # solved coefficient -3 once canonical
        ("x^2 - y^2 = -3z", "z"),
        ("x^2 + y^2 = z^2", "z"),        # solved exponent 2
        ("x^2 - 2x*y + y^2 = x + y", "y"),          # full grid
        ("x^2*y + y^2 = x*y*z + z^2", "z"),         # full grid, 3 variables
    ]

    def test_order_matches_scan(self):
        for text, solved in self.CASES:
            eq = parse(text)
            for bound in (1, 2, 150):
                expected = _walk_order_scan(eq, bound, solved)
                assert list(enumerate_solutions(eq, bound)) == expected, \
                    (text, bound)

    def test_affine_walk_with_solved_power(self):
        # the innermost variable enters linearly while the solved one has an
        # exponent above 1: the walk steps through the solved power and
        # looks its root up
        for text in ["x^2*y + y = z^2", "x^2*y + 2y = z^3", "x^2*y - 3y = 2z^2"]:
            eq = parse(text)
            for bound in (1, 40):
                expected = _walk_order_scan(eq, bound, "z")
                assert list(enumerate_solutions(eq, bound)) == expected, \
                    (text, bound)
            assert expected, text

    def test_work_is_per_window_not_per_point(self, monkeypatch):
        # the walk evaluates polynomials only through univariate.evaluate;
        # scanning every inner point would take 2000 * 2000 evaluations
        calls = [0]
        evaluate = univariate.evaluate

        def counted(p, x):
            calls[0] += 1
            return evaluate(p, x)

        monkeypatch.setattr(univariate, "evaluate", counted)
        sols = list(enumerate_solutions(parse("x^2 - y^2 = z"), 2000))
        assert len(sols) == 3858
        assert calls[0] < 200_000


def test_progression_matches_brute_force():
    from radolab.coloring import _progression
    rng = random.Random(11)
    for trial in range(3000):
        alpha = rng.choice([0, rng.randint(-40, 40)])
        den = rng.choice([1, -1, rng.randint(-12, 12) or 7])
        beta = rng.randint(-300, 300)
        bound = rng.randint(0, 60)
        lo = rng.randint(-50, 50)
        hi = lo + rng.randint(-5, 80)  # hi < lo gives an empty window
        expected = [t for t in range(1, bound + 1)
                    if (alpha * t + beta) % den == 0
                    and lo <= (alpha * t + beta) // den <= hi]
        got = _progression(alpha, beta, den, lo, hi, bound)
        assert list(got) == expected, (alpha, beta, den, lo, hi, bound)
        quotients = [(alpha * t + beta) // den for t in got]
        stride = alpha * got.step // den
        assert all(b - a == stride for a, b in zip(quotients, quotients[1:]))


def test_valid_piece_decomposition_matches_scalar_profiles():
    # the closed-form interval decomposition agrees index by index with the
    # greedy profile computation, including validity
    from radolab.coloring import _valid_pieces
    rng = random.Random(7)
    for _ in range(1200):
        N = rng.choice([2, 3, 5, 10])
        count = rng.randrange(0, 40)
        u = rng.randrange(1, 60)
        vstep = rng.randrange(1, 5)
        v1 = rng.randrange(1, 60)
        wstep = rng.choice([-3, -2, -1, 1, 2, 3])
        w1 = rng.randrange(1, 90)
        if wstep < 0 and count and w1 + wstep * (count - 1) < 1:
            count = (w1 - 1) // (-wstep) + 1
        items = [(0, u, 0), (vstep, v1, 1), (wstep, w1, 2)]
        got = {}
        for a, b, code in _valid_pieces(items, count, N):
            for i in range(a, b):
                assert i not in got
                got[i] = code
        for i in range(count):
            vals = (u, v1 + vstep * i, w1 + wstep * i)
            partition, valid = asymptotic_profile(vals, N)
            if valid:
                cls = [0, 0, 0]
                for lvl, members in enumerate(partition.classes):
                    for s in members:
                        cls[s] = lvl
                assert got.get(i) == cls[0] * 9 + cls[1] * 3 + cls[2], (vals, N)
            else:
                assert i not in got, (vals, N)


def _scan_census(eq, spec, bound, N):
    """Profile counts and solution total, scanning the solutions per spec."""
    counts, total = {}, 0
    for sol in enumerate_solutions(eq, bound):
        total += 1
        c = spec.color(sol[0])
        if all(spec.color(v) == c for v in sol[1:]):
            partition, valid = asymptotic_profile(sol, N)
            if valid:
                counts[partition] = counts.get(partition, 0) + 1
    return counts, total


class TestProfileCensus:
    def test_fast_matches_general(self):
        # includes a non-unit solved coefficient (2x+3y=5z), a negative
        # inner stride (x - 2y + 4z = 0 solves for x, decreasing in z) and a
        # modulus past 2^64 (every color is the value itself)
        for eqtext in ["x + y = z", "x + 2y = z", "3x - 2y + z = 0",
                       "2x + 3y = 5z", "x - 2y + 4z = 0"]:
            eq = parse(eqtext)
            for cname in ["mod:2", "mod:3", "random:5:3", "logband:2:2",
                          "mod:18446744073709551617"]:
                spec = ColoringSpec.parse(cname)
                census = profile_census(eq, spec, 240, 6)
                counts, total = _scan_census(eq, spec, 240, 6)
                assert census.counts == counts, (eqtext, cname)
                assert census.total_solutions == total

    def test_general_path_many_matches_per_spec_scans(self):
        # one solution pass serves the whole family, duplicates included
        names = ["mod:2", "mod:3", "random:5:3", "logband:2:2", "digit:3",
                 "mod:2"]
        specs = [ColoringSpec.parse(s) for s in names]
        for eqtext, bound in [("x + y + z = w", 24), ("x*y = z", 120),
                              ("x + y = z + 1", 80)]:
            eq = parse(eqtext)
            many = profile_census_many(eq, specs, bound, 3)
            assert [c.params["coloring"] for c in many] == names
            for spec, census in zip(specs, many):
                counts, total = _scan_census(eq, spec, bound, 3)
                assert census.counts == counts, (eqtext, spec)
                assert census.total_solutions == total

    def test_schur_profiles_at_ten_thousand(self):
        eq = parse("x + 2y = z")
        census = profile_census(eq, ColoringSpec.parse("mod:3"), 10 ** 4, 10)
        assert set(census.counts) == {OrderedPartition.of({0, 2}, {1})}

    def test_conservation(self):
        eq = parse("x + y = z")
        spec = ColoringSpec.parse("mod:2")
        census = profile_census(eq, spec, 150, 5)
        recount = 0
        for sol in enumerate_solutions(eq, 150):
            c = spec.color(sol[0])
            if all(spec.color(v) == c for v in sol[1:]):
                partition, valid = asymptotic_profile(sol, 5)
                if valid:
                    assert oracle_profile_valid(
                        sol, [sorted(s) for s in partition.classes], 5)
                    recount += 1
        assert census.valid_total() == recount

    def test_empty_census_without_solutions(self):
        census = profile_census(parse("x = y + 1"),
                                ColoringSpec.parse("mod:2"), 2000, 10)
        assert census.counts == {}

    def test_colors_past_sixteen_bits(self):
        # x = y = z (mod m) with x + y = z forces every coordinate to be a
        # multiple of m, so the monochromatic solutions are (a*m, b*m,
        # (a+b)*m) with a + b <= bound // m; colors 65536 and up must not
        # wrap onto color 0
        m, bound, N = 65537, 262148, 2
        census = profile_census(parse("x + y = z"),
                                ColoringSpec.parse(f"mod:{m}"), bound, N)
        expected = {}
        top = bound // m
        for a in range(1, top):
            for b in range(1, top - a + 1):
                partition, valid = asymptotic_profile((a * m, b * m, (a + b) * m), N)
                if valid:
                    expected[partition] = expected.get(partition, 0) + 1
        assert census.counts == expected
        assert census.total_solutions == bound * (bound - 1) // 2

    def test_N_below_two_rejected_on_both_paths(self):
        # "x + y = z" takes the 3-variable closed-form path, the 4-variable
        # equation the general one
        spec = ColoringSpec.parse("mod:2")
        for text in ["x + y = z", "x + y + z = w"]:
            for N in (1, 0, -3):
                with pytest.raises(ValueError):
                    profile_census(parse(text), spec, 50, N)

    def test_many_is_consistent(self):
        eq = parse("x + y = z")
        specs = [ColoringSpec.parse(s) for s in ["mod:2", "mod:5"]]
        singles = [profile_census(eq, s, 500, 10) for s in specs]
        many = profile_census_many(eq, specs, 500, 10)
        assert [c.counts for c in many] == [c.counts for c in singles]


class TestHeadCensus:
    def test_power_of_two_solutions_have_unit_heads(self):
        for i in range(1, 5):
            for j in range(1, 5):
                assert standard_head(2 ** i, 2) == 1
                assert standard_head(2 ** (i + j), 2) == 1

    def test_histogram_totals(self):
        census = head_census(parse("x*y = z"), ColoringSpec.parse("logband:2:1"),
                             64, 2, bin_count=8)
        sols = list(enumerate_solutions(parse("x*y = z"), 64))
        assert census.total_coordinates == 3 * len(sols)
        assert sum(census.bins) == census.total_coordinates
        assert 0 <= census.mass_near_one <= 1

    def test_empty(self):
        census = head_census(parse("x = y + 1"), ColoringSpec.parse("mod:2"),
                             500, 10)
        assert census.bins == [0] * 16 and census.total_coordinates == 0

    def test_bins_match_fraction_formula(self):
        # logband:2:1 is a single color, so every solution counts; x*y = z
        # puts many exact powers of the base among the coordinates
        spec = ColoringSpec.parse("logband:2:1")
        for eqtext, bound in [("x*y = z", 300), ("x + y = z", 120)]:
            eq = parse(eqtext)
            sols = list(enumerate_solutions(eq, bound))
            for base in (2, 3, 10):
                for bin_count in (1, 3, 7, 16):
                    expected = [0] * bin_count
                    for sol in sols:
                        for x in sol:
                            h = standard_head(x, base)
                            idx = int((h - 1) * bin_count / (base - 1))
                            expected[min(idx, bin_count - 1)] += 1
                    census = head_census(eq, spec, bound, base, bin_count)
                    assert census.bins == expected, (eqtext, base, bin_count)

    def test_diagnostic_run(self):
        census = head_census(parse("x + y = z"), ColoringSpec.parse("mod:2"),
                             1000, 10)
        assert census.total_coordinates > 0


class TestWitnessSearch:
    def test_parity_kills_consecutive(self):
        found = witness_search(parse("x = y + 1"),
                               [ColoringSpec.parse("mod:2")], 10 ** 4)
        assert [s.spec_string() for s in found] == ["mod:2"]

    def test_schur_has_no_witness(self):
        found = witness_search(parse("x + y = z"),
                               [ColoringSpec.parse("mod:2"),
                                ColoringSpec.parse("mod:3")], 100)
        assert found == []

    def test_empty_family(self):
        assert witness_search(parse("x + y = z"), [], 100) == []
        # nothing is enumerated: the zero polynomial would raise
        assert witness_search(parse("x = x"), [], 100) == []

    def test_matches_per_spec_scan(self):
        # x = y + 1: mod:2 and mod:3 never give a monochromatic pair,
        # logband:2:1 (one color) is hit by the first solution (2, 1),
        # logband:2:2 only by (3, 2); duplicates are kept in family order
        names = ["mod:2", "logband:2:1", "mod:2", "logband:2:2",
                 "logband:2:1", "mod:3", "random:3:2"]
        family = [ColoringSpec.parse(s) for s in names]
        eq = parse("x = y + 1")
        sols = list(enumerate_solutions(eq, 50))
        assert sols[0] == (2, 1)
        expected = [s for s in family
                    if not any(len({s.color(x) for x in sol}) == 1
                               for sol in sols)]
        assert witness_search(eq, family, 50) == expected
        assert [s.spec_string() for s in expected] == ["mod:2", "mod:2",
                                                       "mod:3"]


class TestRecords:
    def test_record_invariants(self):
        eq = parse("x + y = z")
        spec = ColoringSpec.parse("mod:2")
        records = list(iter_records(eq, spec, 60, N=10, bases=(2, 10)))
        assert records
        for rec in records:
            assignment = dict(zip(eq.poly.variables, rec.assignment))
            assert evaluate(eq.poly, assignment) == 0
            assert all(spec.color(v) == rec.color for v in rec.assignment)
            partition, N, valid = rec.profile
            assert N == 10 and partition.size() == 3
            assert set(rec.heads) == {2, 10}
            for p, heads in rec.heads.items():
                assert all(1 <= h < p for h in heads)
