import ast
import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radolab
from _oracles import (
    _valid_pieces,
    census_plan,
    oracle_asymptotic_profile,
    oracle_census_counts,
    oracle_head_bins,
    oracle_monochromatic,
    oracle_piece_table3,
    oracle_profile_valid,
    oracle_record_lines,
    oracle_restrict,
    oracle_solution_grid,
    oracle_witness_search,
)
from radolab import arrays, cli, coloring, univariate
from radolab.coloring import (
    ColoringSpec,
    _color_lookup,
    _profile,
    asymptotic_profile,
    enumerate_solutions,
    head_census,
    iter_monochromatic,
    profile_census,
    profile_census_many,
    standard_head,
    witness_search,
)
from radolab.model import Monomial, ZeroPolynomialError, evaluate
from radolab.parser import parse, pretty
from radolab.results import OrderedPartition


def test_import_does_not_load_numpy():
    # nor hashlib, which only random colorings use
    src = str(Path(radolab.__file__).resolve().parents[1])
    code = ("import sys, radolab; "
            "print('numpy' in sys.modules, 'hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False False"


def test_coloring_imports_numpy_only_in_color_array():
    # the array paths live in `arrays`, which `coloring` imports only where
    # they start; the one numpy import left builds the public numpy view
    numpy_at, arrays_at = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
                if child.level and not child.module:
                    names = [alias.name for alias in child.names]
            else:
                names = []
            if any(n.split(".")[0] == "numpy" for n in names):
                numpy_at.append(".".join(scope))
            if "arrays" in names:
                arrays_at.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(Path(coloring.__file__).read_text(encoding="utf-8")), [])
    assert numpy_at == ["ColoringSpec.color_array"]
    assert arrays_at == ["profile_census_many", "head_census"]


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

    def test_random_seed_past_key_limit_rejected(self):
        # the seed's decimal form keys blake2b, which takes at most 64
        # bytes: 64 are accepted and hash, 65 are refused up front, with
        # the coloring named
        for seed in [10 ** 64 - 1, -(10 ** 63 - 1)]:
            assert 0 <= ColoringSpec.parse(f"random:{seed}:3").color(5) < 3
        for seed in [10 ** 64, -(10 ** 63), 10 ** 70]:
            name = f"random:{seed}:3"
            with pytest.raises(ValueError, match=f"random coloring {name}: "
                               "the seed's decimal form is longer than 64 "
                               "bytes"):
                ColoringSpec.parse(name)

    def test_color_array_matches_scalar(self, monkeypatch):
        # the search tables and color_array against the scalar coloring, at
        # bounds 0, 1 and p^k - 1, p^k, p^k + 1 around each level edge of the
        # kind's base (the modulus for mod); digit:257 has a color, 256, past
        # 8 bits, and mod:2^64+1 a modulus past 64 bits.  Random colors,
        # with 2- and 4-byte tables and a negative seed, also match the
        # documented one-shot keyed blake2b hash
        def one_shot(seed, colors, x):
            data = x.to_bytes((x.bit_length() + 7) // 8 or 1, "little")
            digest = hashlib.blake2b(data, digest_size=8,
                                     key=str(seed).encode()).digest()
            return int.from_bytes(digest, "little") % colors

        for name in ["mod:3", "mod:7", "digit:3", "digit:10", "digit:257",
                     "logband:2:3", "logband:3:2", "random:9:5",
                     "random:3:300", "random:-4:70000",
                     "mod:18446744073709551617"]:
            spec = ColoringSpec.parse(name)
            p = min(spec.params[0], 300) if spec.kind != "random" else 5
            bounds = {0, 1, 200}
            for k in range(1, 6):
                if p ** k <= 1000:
                    bounds |= {p ** k - 1, p ** k, p ** k + 1}
            for bound in sorted(bounds):
                expected = [spec.color(x) for x in range(1, bound + 1)]
                if spec.kind == "random":
                    assert expected == [one_shot(*spec.params, x)
                                        for x in range(1, bound + 1)]
                table = _color_lookup(spec, bound)
                assert [table[x] for x in range(1, bound + 1)] == expected, \
                    (name, bound)
                arr = spec.color_array(bound)
                assert len(arr) == bound + 1
                assert arr[1:].tolist() == expected, (name, bound)

        # a random table hashes a chunk of values of one byte length at a
        # time: bounds at the byte-length edges, chunks of 7 values, and
        # 2^64 and 10^30 colors, which no digest reaches, so none is reduced
        for name in ["random:9:5", "random:3:300",
                     "random:9:18446744073709551616", f"random:2:{10 ** 30}"]:
            spec = ColoringSpec.parse(name)
            expected = [spec.color(x) for x in range(1, 2 ** 16 + 1)]
            assert expected[:300] == [one_shot(*spec.params, x)
                                      for x in range(1, 301)]
            if spec.params[1] >= 2 ** 64:
                assert max(expected) >= 2 ** 63
            for chunk, bounds in [(coloring._CHUNK, [255, 256, 65535, 65536]),
                                  (7, [1, 7, 8, 255, 256, 300])]:
                monkeypatch.setattr(coloring, "_CHUNK", chunk)
                for bound in bounds:
                    arr = spec.color_array(bound)
                    assert arr[0] == 0 and len(arr) == bound + 1
                    assert arr[1:].tolist() == expected[:bound], \
                        (name, chunk, bound)

    def test_mod_table_built_at_final_length(self):
        # the period is written in place, so building the table never holds
        # a second table's worth of memory, with a small modulus or one past
        # the bound
        for name in ["mod:3", "mod:1000", "mod:18446744073709551617"]:
            tracemalloc.start()
            try:
                table = ColoringSpec.parse(name)._table(2 ** 20)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            nbytes = len(table) * table.itemsize
            assert len(table) == 2 ** 20 + 1
            assert peak < 1.25 * nbytes, (name, peak, nbytes)

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
        # the walked searches stay pure Python, the census of x*y + z = w
        # too (planned, but no closed form); the closed-form census and the
        # stream of a planned shape load arrays
        src = str(Path(radolab.__file__).resolve().parents[1])
        setup = (
            "import contextlib, io, sys\n"
            "import radolab\n"
            "from radolab import cli\n"
            "from radolab.coloring import *\n"
            "from radolab.parser import parse\n"
            "specs = [ColoringSpec.parse(s) for s in "
            "('mod:3', 'digit:10', 'logband:2:3', 'random:9:5')]\n"
            "def stream(text):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(['search', text, '--coloring', 'mod:3', "
            "'--bound', '30', '--N', '3', '--mode', 'solutions', "
            "'--base', '2'])\n"
        )
        loaded = ("print('numpy' in sys.modules, "
                  "'radolab.arrays' in sys.modules)\n")
        walked = (
            "stream('x^2*y + y = z^2')\n"
            "head_census(parse('x^2*y + y = z^2'), specs[1], 60, 3)\n"
            "profile_census_many(parse('x*y + z = w'), specs, 12, 3)\n"
            "witness_search(parse('x = y + 1'), specs, 50)\n"
            + loaded)
        closed = ("profile_census_many(parse('x + y + z = w + 1'), specs, "
                  "12, 3)\n")
        for code, expected in [
                (walked + closed + loaded, ["False False", "True True"]),
                ("stream('x + y = z')\n" + loaded, ["True True"])]:
            out = subprocess.run([sys.executable, "-c", setup + code],
                                 cwd=src, check=True, capture_output=True,
                                 text=True).stdout
            assert out.splitlines() == expected

    def test_fields_are_ascii_integers(self):
        # int() alone would also take "_" separators, surrounding spaces
        # and non-ASCII digits, and report the spec as mod:10 or random:7:3
        for bad in ["mod:1_0", "mod:\uff11\uff10", "random: 7:3", "mod:",
                    "mod:+", "mod:5 ", "logband:2:\u00b3"]:
            name = re.escape(f"bad coloring spec {bad!r}")
            with pytest.raises(ValueError, match=name):
                ColoringSpec.parse(bad)
        for good, params in [("random:-3:2", (-3, 2)),
                             ("random:+3:2", (3, 2)),
                             ("mod:007", (7,))]:
            assert ColoringSpec.parse(good).params == params

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

    @given(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 10 ** 9)),
                    max_size=8),
           st.sampled_from([2, 3, 5, 10, 99, 10 ** 30]))
    @settings(max_examples=500, deadline=None)
    def test_matches_oracle(self, values, N):
        # partition and flag, both directions; small values force ties
        assert (asymptotic_profile(values, N)
                == oracle_asymptotic_profile(values, N))

    def test_matches_oracle_on_seeded_corpus(self):
        rng = random.Random(20261018)
        for k in range(12000):
            n = rng.randint(0, 8)
            N = rng.choice([2, 3, 5, 10, 99, 10 ** 30])
            if k % 3 == 0:  # tie-heavy
                pool = [rng.randint(1, 40) for _ in range(3)]
                values = [rng.choice(pool) for _ in range(n)]
            elif k % 3 == 1:  # near the cut tests: powers of N, nudged
                base = rng.randint(1, 1000)
                values = [max(1, base * min(N, 50) ** rng.randint(0, 3)
                              + rng.randint(-2, 2)) for _ in range(n)]
            else:
                values = [rng.randint(1, 10 ** 9) for _ in range(n)]
            assert (asymptotic_profile(values, N)
                    == oracle_asymptotic_profile(values, N)), (values, N)
            # a census's early exit: ranks for a valid profile, else none
            ranks, valid = _profile(values, N)
            assert _profile(values, N, valid_only=True) == (
                (ranks, True) if valid else (None, False)), (values, N)

    def test_array_profiles_match_scalar(self):
        # every column of `arrays._profiles` against `_profile`: tuples of
        # 1-6 values up to the bound cap, tie-heavy, nudged around the cut
        # tests, or uniform; N from 2 to the bound and past it
        rng = random.Random(20261021)
        for bound in [3, 40, 1000, coloring.BOUND_CAP]:
            for n in range(1, 7):
                for N in [2, 3, 10, bound, 10 ** 30]:
                    columns = []
                    for k in range(60):
                        if k % 3 == 0:
                            pool = [rng.randint(1, bound) for _ in range(3)]
                            values = [rng.choice(pool) for _ in range(n)]
                        elif k % 3 == 1:
                            base = rng.randint(1, 1000)
                            values = [base * min(N, 50) ** rng.randint(0, 3)
                                      + rng.randint(-2, 2) for _ in range(n)]
                        else:
                            values = [rng.randint(1, bound) for _ in range(n)]
                        columns.append([min(max(v, 1), bound)
                                        for v in values])
                    ranks, valid = arrays._profiles(
                        np.array(columns, dtype=np.int64).T, N)
                    got = list(zip(map(tuple, ranks.T.tolist()),
                                   valid.tolist()))
                    assert got == [_profile(c, N) for c in columns], \
                        (bound, n, N)


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

    def test_first_solution_in_bounded_memory(self):
        # the prefix grid never copies its range into a tuple, and a
        # one-variable equation walks the roots of its polynomial rather
        # than a table of the bound's powers
        for text in ["x + y = z", "x^2 = 4"]:
            eq = parse(text)
            tracemalloc.start()
            try:
                assert next(enumerate_solutions(eq, 2 ** 20))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, (text, peak)

    def test_solutions_actually_solve(self):
        for text in ["x + 2y = z", "x*y = z"]:
            eq = parse(text)
            for sol in enumerate_solutions(eq, 25):
                assignment = dict(zip(eq.poly.variables, sol))
                assert evaluate(eq.poly, assignment) == 0


def test_restrictor_matches_oracle():
    # random monomials in up to four variables, restricted to each variable
    # with either sign.  Pairs of monomials planted with the same inner
    # exponent cancel at x = a, so a coefficient (the top one too) vanishes
    # at some prefix values and must be trimmed there
    rng = random.Random(24)
    trimmed = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        monos = []
        for _ in range(rng.randint(1, 5)):
            exps = tuple((v, rng.randint(1, 4)) for v in range(n)
                         if rng.random() < 0.5)
            monos.append(Monomial(rng.randint(-10 ** 6, 10 ** 6) or 1, exps))
        inner = rng.randrange(n)
        x = a = None
        if n > 1 and rng.random() < 0.5:
            x = rng.choice([v for v in range(n) if v != inner])
            a, c, e = rng.randint(1, 5), rng.randint(1, 9), rng.randint(1, 3)
            k = rng.randint(0, 5)
            tail = ((inner, k),) if k else ()
            monos += [Monomial(c, tuple(sorted(((x, e),) + tail))),
                      Monomial(-c * a ** e, tail)]
        for sign in (1, -1):
            restrict = coloring._restrictor(monos, inner, sign)
            for _ in range(4):
                values = [rng.randint(1, 6) for _ in range(n)]
                if x is not None and rng.random() < 0.5:
                    values[x] = a
                expected = [sign * c for c in oracle_restrict(monos, values,
                                                              inner)]
                got = restrict(values)
                assert got == expected, (monos, inner, sign, values)
                trimmed += len(got) < 1 + max(
                    (e for m in monos for v, e in m.exponents if v == inner),
                    default=0)
    assert trimmed > 500


def test_array_progressions_match_scalar():
    # rows planted with a term (t0, s0) and free rows, alpha of both signs
    # and zero, den with and without common factors: `_progressions` with
    # `_inverse` against the scalar `_progression`, all rows at once
    rng = random.Random(26)
    for bound in [1, 2, 7, 60, 1000, 2 ** 25]:
        rows = []
        for _ in range(400):
            den = rng.choice([1, 2, 6, 12, rng.randint(1, 10 ** 6)])
            alpha = rng.choice([0, 1, -1, 4, -6,
                                rng.randint(-10 ** 6, 10 ** 6)])
            if rng.random() < 0.7:
                t0, s0 = rng.randint(1, bound), rng.randint(1, bound)
                beta = den * s0 - alpha * t0
            else:
                beta = rng.randint(-10 ** 9, 10 ** 9)
            rows.append((alpha, beta, den))
        alpha, beta, den = (np.array(col, dtype=np.int64)
                            for col in zip(*rows))
        g = np.gcd(alpha, den)
        step = den // g
        inv = arrays._inverse(alpha // g, step)
        for a, m, i in zip((alpha // g).tolist(), step.tolist(), inv.tolist()):
            assert i == (pow(a, -1, m) if m > 1 else 0)
        first, count = arrays._progressions(alpha, beta, den, g, step, inv,
                                            bound)
        hits = 0
        for row, f, c, s in zip(rows, first.tolist(), count.tolist(),
                                step.tolist()):
            ts = coloring._progression(*row, 1, bound, bound)
            assert c == len(ts), (row, bound)
            if c:
                assert (f, s) == (ts.start, ts.step), (row, bound)
                hits += 1
        assert hits > 250


def test_at_most_matches_scan(monkeypatch):
    # a*t^2 + b*t + c <= 0 for a > 0 against a scan of [0, bound + 1] at
    # small bounds, with integer roots planted at the scan's ends and
    # beyond, also with every float start moved by up to one, which the
    # exact correction must undo; and at large bounds, with coefficients
    # up to the int64 gate, by its exact values at both sides of each end
    rng = random.Random(27)
    offsets = np.random.default_rng(27)
    starts = arrays._root_starts

    def moved(a, b, disc, bound):
        # a start inside (0, bound + 1) is not clipped, so a float error
        # of up to one moves it by up to one
        return [np.where((0 < x) & (x <= bound),
                         x + offsets.integers(-1, 2, size=x.shape), x)
                for x in starts(a, b, disc, bound)]

    def p(a, b, c, t):
        return (a * t + b) * t + c

    for large, shift in [(False, False), (False, True), (True, False)]:
        bound = 2 ** 25 if large else rng.randint(1, 40)
        rows = []
        for _ in range(3000):
            a = rng.randint(1, 16 if large else 9)
            if rng.random() < 0.5:
                r1 = rng.randint(-3, bound + 4)
                r2 = r1 + rng.randint(0, 2 * bound)
                b, c = -a * (r1 + r2), a * r1 * r2 + rng.randint(-1, 1)
            else:
                top = 2 ** 30 if large else 50
                b, c = rng.randint(-top, top), rng.randint(-top, top) * bound
            if max(b * b, abs(4 * a * c), p(a, abs(b), abs(c), bound + 2)) \
                    < 2 ** 62:
                rows.append((a, b, c))
        a, b, c = (np.array(col, dtype=np.int64) for col in zip(*rows))
        with monkeypatch.context() as patch:
            if shift:
                patch.setattr(arrays, "_root_starts", moved)
            lo, hi = arrays._at_most(a, b, c, bound)
        nonempty = 0
        for (x, y, z), l, h in zip(rows, lo.tolist(), hi.tolist()):
            l, h = max(l, 0), min(h, bound + 1)
            if not large:
                assert [t for t in range(bound + 2) if p(x, y, z, t) <= 0] \
                    == list(range(l, h + 1)), (x, y, z, bound)
            elif l <= h:
                assert p(x, y, z, l) <= 0 and p(x, y, z, h) <= 0
                assert l == 0 or p(x, y, z, l - 1) > 0
                assert h == bound + 1 or p(x, y, z, h + 1) > 0
            else:
                # the least value on [0, bound + 1] is next to the vertex
                v = min(max(-y // (2 * x), 0), bound + 1)
                assert p(x, y, z, v) > 0
                assert v == bound + 1 or p(x, y, z, v + 1) > 0
            nonempty += l <= h
        assert nonempty > 1000, (large, nonempty)


def test_quadratic_runs_match_scan():
    # den <= a*t^2 + b*t + c <= den*bound, a of both signs, against a scan
    # of [1, bound]: the two windows are disjoint and cover exactly the
    # t that satisfy it; planted solutions put windows of one point at
    # either end of a gap
    rng = random.Random(28)
    shapes = set()
    for _ in range(4000):
        bound = rng.randint(1, 30)
        a = rng.choice([-1, 1]) * rng.randint(1, 6)
        den = rng.randint(1, 4)
        b = rng.randint(-40, 40)
        t0 = rng.randint(1, bound)
        c = rng.choice([rng.randint(-200, 200),
                        den * rng.randint(1, bound) - a * t0 * t0 - b * t0])
        (lo1, hi1), (lo2, hi2) = (
            (int(x[0]), int(y[0])) for x, y in arrays._quadratic_runs(
                *(np.array([v], dtype=np.int64) for v in (a, b, c, den)),
                bound))
        got = [*range(lo1, hi1 + 1), *range(lo2, hi2 + 1)]
        want = [t for t in range(1, bound + 1)
                if den <= a * t * t + b * t + c <= den * bound]
        assert got == want, (a, b, c, den, bound)
        shapes.add((hi1 >= lo1, hi2 >= lo2, hi1 == lo1 or hi2 == lo2))
    assert {(True, True, False), (True, True, True)} <= shapes, shapes


def test_walk_past_the_powers_table(monkeypatch):
    # past `_POWERS` a solved power v^se is found by an exact integer root
    # instead of a table of `bound` entries.  Each power and its
    # neighbours, by square, float and (past 2^1000) Newton roots
    for se, bound in [(2, 5000), (3, 3000), (7, 300), (100, 2 ** 12)]:
        powers = coloring._Powers(se, bound)
        for v in [1, 2, 3, 1000, bound - 1, bound, bound + 1]:
            for q in [v ** se - 1, v ** se, v ** se + 1, -v]:
                member = q == v ** se and v <= bound
                if member:
                    assert powers[q] == v
                else:
                    with pytest.raises(KeyError):
                        powers[q]
                assert (q in powers) == member, (se, q)
    # the first solution of a walk at 2^22 comes in bounded memory, and
    # walks below the budget list the same solutions with the table as
    # with roots
    tracemalloc.start()
    try:
        first = next(coloring._walk(parse("x^2*y + y = z^2").poly, 2 ** 22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (1, 2, 2) and peak < 1_000_000, peak
    # x^2*y^2 = z^2 at 40 scans every t, whose powers reach 40^4
    for text, bound in [("x^2 + y^2 = z^3", 300), ("x^2*y + y = z^2", 200),
                        ("x + y = z^4", 150), ("x^2*y^2 = z^2", 40)]:
        poly = parse(text).poly
        table = list(coloring._walk(poly, bound))
        with monkeypatch.context() as patch:
            patch.setattr(coloring, "_POWERS", 0)
            roots = list(coloring._walk(poly, bound))
        assert roots == table and len(table) > 10, text


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
        ("x*y^2 - 2y^2 = z", "z"),       # degree in y drops to 0 at x = 2
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


def test_grid_matches_product():
    # lexicographic, as itertools.product, and lazy: a grid of 10^3000
    # points with 1000 coordinates yields its first points at once
    for bound in range(4):
        for k in range(5):
            assert list(coloring._grid(bound, k)) == list(
                itertools.product(range(1, bound + 1), repeat=k)), (bound, k)
    wide = coloring._grid(10, 1000)
    assert [next(wide)[-2:] for _ in range(11)][-2:] == [(1, 10), (2, 1)]


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


def _three_item_table(slopes, slots, starts, count, N):
    """The n-item `_piece_sweep` on three items given in `slots` order, as
    the (row, lo, hi, code) of `oracle_piece_table3`."""
    from radolab.arrays import _piece_sweep
    order = np.argsort(slots)
    row, lo, hi, ranks = _piece_sweep([slopes[k] for k in order],
                                      starts[order], count, N)
    code = ranks.astype(np.int64) @ np.array([9, 3, 1])
    return row, lo, hi, code


def _one_row_pieces(items, count, N):
    """`_piece_sweep` on the single row given by three (slope, intercept,
    slot) items, as (start, stop, code) triples."""
    slopes, starts, slots = zip(*items)
    starts = np.array(starts, dtype=np.int64).reshape(3, 1)
    row, lo, hi, code = _three_item_table(
        slopes, slots, starts, np.array([count], dtype=np.int64), N)
    assert not row.any()
    return sorted(zip(lo.tolist(), hi.tolist(), code.tolist()))


def test_valid_piece_decomposition_matches_scalar_profiles():
    # the closed-form interval decomposition agrees index by index with the
    # greedy profile computation, including validity
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
        for a, b, code in _one_row_pieces(items, count, N):
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


def test_piece_table_matches_scalar_oracle_row_by_row():
    # a block of u through the census's progressions, three slot orders
    # and the N >= bound clamp, against the scalar decomposition at the
    # true N, for the n-item table and the three-item oracle alike; rows
    # with count 0 and 1 and a decreasing solved variable included
    from radolab.coloring import _progression
    counts, slot_orders = set(), set()
    for coeffs, bound in [((1, 1, -1), 60), ((1, -2, 4), 70), ((2, 3, -5), 80),
                          ((3, -2, 1), 50), ((2, -1, 3), 45)]:
        solve = max(range(3), key=lambda i: (abs(coeffs[i]) == 1, i))
        free = [i for i in range(3) if i != solve]
        cu, cv, cs = coeffs[free[0]], coeffs[free[1]], coeffs[solve]
        slots = (free[0], free[1], solve)
        slot_orders.add(slots)
        rows = []
        for u in range(1, bound + 1):
            vs = _progression(-cv, -cu * u, cs, 1, bound, bound)
            v1 = vs.start if vs else 1
            w1 = (-(cu * u) - cv * v1) // cs if vs else 1
            rows.append((u, v1, w1, len(vs), vs.step))
            counts.add(len(vs))
        vstep = rows[0][4]
        wstep = -cv * vstep // cs
        starts = np.array([r[:3] for r in rows], dtype=np.int64).T
        count = np.array([r[3] for r in rows], dtype=np.int64)
        for N in (2, 3, 7, 10 ** 30):
            for table in (oracle_piece_table3, _three_item_table):
                got = {}
                for r, lo, hi, code in zip(*(col.tolist() for col in table(
                        (0, vstep, wstep), slots, starts, count,
                        min(N, bound)))):
                    got.setdefault(r, []).append((lo, hi, code))
                for r, (u, v1, w1, n, _) in enumerate(rows):
                    items = [(0, u, slots[0]), (vstep, v1, slots[1]),
                             (wstep, w1, slots[2])]
                    assert sorted(got.get(r, [])) == sorted(
                        _valid_pieces(items, n, N)), (coeffs, u, N, table)
    assert {0, 1} <= counts and len(slot_orders) == 3


def test_piece_table_matches_three_item_oracle():
    # the n-item table gives exactly the pieces of the hand-written
    # three-item cases, on seeded blocks with equal, zero and negative
    # slopes, every slot order, ties and crossings inside the range; every
    # value stays positive, as a solution's do
    rng = random.Random(19)
    for _ in range(300):
        slopes = [rng.choice([0, 0, 1, 2, 3, -1, -2]) for _ in range(3)]
        slots = rng.sample(range(3), 3)
        rows = rng.randint(0, 40)
        starts = np.array([[rng.randint(1, 60) for _ in range(rows)]
                           for _ in range(3)], dtype=np.int64).reshape(3, rows)
        count = np.array([min([rng.randint(0, 30)] + [
            (start - 1) // -slope + 1 for slope, start in zip(slopes, col)
            if slope < 0]) for col in starts.T.tolist()], dtype=np.int64)
        N = rng.choice([2, 3, 5, 60])
        expected, got = (
            sorted(zip(*(col.tolist() for col in table(
                slopes, slots, starts, count, N))))
            for table in (oracle_piece_table3, _three_item_table))
        assert got == expected, (slopes, slots, N)


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


def _census_corpus(seed, cases, widths, bounds):
    """Seeded linear census cases (equation, bound, N, colorings): the
    first two at bounds 1 and 2, then bounds drawn from `bounds`; N up to
    and past the bound; every coloring kind, with moduli above the bound
    and past 64 bits, logband periods past the number of levels and past
    64 bits, digit:1000, and random colorings with 2-byte and 4-byte
    tables and negative seeds."""
    rng = random.Random(seed)
    nonzero = [c for c in range(-7, 8) if c]
    for case in range(cases):
        n = rng.choice(widths)
        coeffs = [rng.choice(nonzero) for _ in range(n)]
        if min(coeffs) > 0 or max(coeffs) < 0:
            coeffs[rng.randrange(n)] *= -1
        bound = (1, 2)[case] if case < 2 else rng.randint(*bounds)
        N = rng.choice([2, 3, 7, max(bound, 2), 10 ** 30])
        names = [f"mod:{rng.randint(2, 12)}",
                 f"mod:{bound + rng.randint(1, 40)}",
                 "mod:18446744073709551617",
                 f"logband:{rng.randint(2, 4)}:{rng.randint(1, 3)}",
                 f"logband:{rng.randint(2, 4)}:{rng.randint(8, 40)}",
                 f"logband:{rng.randint(2, 4)}:{2 ** 64 + rng.randint(0, 9)}",
                 f"digit:{rng.choice([3, 10, 1000])}",
                 f"random:{rng.randint(-9, 9)}:{rng.choice([2, 3])}",
                 f"random:{rng.randint(-9, 9)}:{rng.choice([300, 70000])}"]
        eq = parse(" + ".join(f"{c}*x{i}" for i, c in enumerate(coeffs))
                   .replace("+ -", "- ") + " = 0")
        yield eq, bound, N, [ColoringSpec.parse(s) for s in names]


def _check_census(eq, bound, N, specs):
    """The family census against the stacked slice oracle, and each
    coloring against a scan of the solutions and counted alone, which takes
    the same kernel as in the family; returns the census's steps and
    solved coefficient."""
    from radolab.arrays import _census_linear, _linear_pieces
    plan = census_plan(eq, bound)
    per_spec, total = _census_linear(plan, specs, bound, N)
    assert (per_spec, total) == oracle_census_counts(
        eq, specs, bound, N), (eq.poly, bound, N)
    for spec, counts in zip(specs, per_spec):
        assert (counts, total) == _scan_census(eq, spec, bound, N), \
            (eq.poly, bound, N, spec)
        assert _census_linear(plan, [spec], bound, N) == (
            [counts], total), (eq.poly, bound, N, spec)
    vstep, wstep, _ = _linear_pieces(plan, bound, N)
    return vstep, wstep, plan.den_coeff


def test_census_kernels_match_stacked_slice_oracle():
    # three-variable equations: each coloring kind's counting kernel
    # against the stacked 2-D slice loop it replaced and against a scan,
    # covering vstep > 1 and a decreasing solved variable
    steps = set()
    for case in _census_corpus(1717, 48, [3], (3, 120)):
        vstep, wstep, _ = _check_census(*case)
        steps.add((vstep > 1, wstep < 0))
    assert {(True, False), (False, True), (True, True)} <= steps


def test_wide_census_matches_scan():
    # four and five variables: prefix values of one color under some
    # colorings and not others, rows dropped before the piece table, and
    # solved coefficients negative and not units
    steps, solved = set(), set()
    for case in _census_corpus(1919, 40, [4, 5], (3, 14)):
        vstep, wstep, cs = _check_census(*case)
        steps.add((vstep > 1, wstep < 0))
        solved.add((cs < 0, abs(cs) > 1))
    assert {(True, False), (False, True), (True, True)} <= steps
    assert {(True, True), (True, False), (False, True)} <= solved


def test_census_counts_do_not_depend_on_block_size(monkeypatch):
    # one prefix point per block, seven, and the default block (last, so
    # the next case's oracle runs at it), with the random colorings on the
    # bit kernel and then on the slice kernel: every census equals the
    # stacked slice oracle taken at the default
    from radolab.arrays import _census_linear, _linear_pieces
    default, budget = arrays._BLOCK, arrays._BITS_BUDGET
    cases = itertools.chain(_census_corpus(2525, 6, [3], (3, 60)),
                            _census_corpus(2626, 5, [4], (3, 12)),
                            _census_corpus(2727, 4, [5], (3, 6)))
    widths = set()
    for eq, bound, N, specs in cases:
        widths.add(len(eq.poly.variables))
        plan = census_plan(eq, bound)
        expected = oracle_census_counts(eq, specs, bound, N)
        vstep, wstep, _ = _linear_pieces(plan, bound, N)
        for bits_budget, kernel in [(budget, "_bits_counter"),
                                    (0, "_slice_counter")]:
            monkeypatch.setattr(arrays, "_BITS_BUDGET", bits_budget)
            assert {_kernel(s, bound, vstep, wstep) for s in specs
                    if s.kind == "random"} == {kernel}
            for block in (1, 7, default):
                monkeypatch.setattr(arrays, "_BLOCK", block)
                assert _census_linear(plan, specs, bound, N) == expected, (
                    eq.poly, bound, N, block, kernel)
    assert widths == {3, 4, 5}


def test_census_of_1296_prefix_points_takes_one_piece_table(monkeypatch):
    # x + y + z = w at bound 36 has 36^2 prefix points (x, y): one block
    calls = []
    sweep = arrays._piece_sweep

    def counted(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(arrays, "_piece_sweep", counted)
    census = profile_census(parse("x + y + z = w"),
                            ColoringSpec.parse("mod:3"), 36, 2)
    assert census.counts
    assert len(calls) == 1


def test_wide_random_families_match_per_spec_censuses():
    # every coloring has its own kernel: eight random colorings with 1-,
    # 2- and 4-byte tables beside a mod coloring, and a family that lists
    # one random coloring twice, each equal to the coloring's own census
    # and to the stacked slice oracle.  The steps (vstep, wstep) are
    # (1, 2), (1, -4) (z - 2x + 4y = 0, solved for z) and (5, -3), and four
    # variables drop rows per coloring before the piece table
    from radolab.arrays import _linear_pieces
    wide = [f"random:{seed}:{colors}" for seed, colors in [
        (1, 2), (2, 3), (-3, 2), (4, 300), (5, 300), (-6, 70000),
        (7, 70000), (8, 2)]] + ["mod:3"]
    twice = ["random:7:3", "mod:2", "random:7:3"]
    steps = set()
    for text, bound, N in [("x + 2y = z", 1500, 3),
                           ("x - 2y + 4z = 0", 1500, 2),
                           ("z - 2x + 4y = 0", 1500, 2),
                           ("2x = 3y + 5z", 1500, 3),
                           ("x + y - 2z + 3w = 0", 40, 3)]:
        eq = parse(text)
        vstep, wstep, _ = _linear_pieces(census_plan(eq, bound), bound, N)
        steps.add((vstep, wstep))
        for names in (wide, twice):
            specs = [ColoringSpec.parse(s) for s in names]
            many = profile_census_many(eq, specs, bound, N)
            got = ([c.counts for c in many], many[0].total_solutions)
            assert got == oracle_census_counts(eq, specs, bound, N), text
            for spec, census in zip(specs, many):
                alone = profile_census(eq, spec, bound, N)
                assert (census.counts, census.total_solutions) == (
                    alone.counts, alone.total_solutions), (text, spec)
        assert many[0].counts and many[0].counts == many[2].counts
    assert {(1, 2), (1, -4), (5, -3)} <= steps


def _pieces(eq, bound, N):
    """A linear census's steps vstep and wstep, and its valid pieces as
    arrays [x, v, w, n], with no row dropped."""
    from radolab.arrays import _linear_pieces
    vstep, wstep, blocks = _linear_pieces(census_plan(eq, bound), bound, N)
    found = [(x, v, w, n) for *_, x, v, w, n in blocks(
        lambda u: np.ones((u.shape[1], 1), dtype=bool), [0])]
    return vstep, wstep, [np.concatenate(a) for a in zip(*found)]


def _kernel(spec, bound, vstep, wstep):
    """The name of the kernel `_counter` picks for a coloring."""
    from radolab.arrays import _counter
    return _counter(spec, bound, vstep, wstep)[1].__qualname__.split(".")[0]


def test_bit_kernel_matches_slice_kernel_and_oracle(monkeypatch):
    # the packed-bit random kernel against the slice kernel on every piece
    # of seeded censuses, at bounds 0, 1 and 63 mod 64 with pieces of 1,
    # 63, 64 and 65 terms and steps (vstep, wstep) above 1 and negative,
    # gathering its default number of words at once, one word and three
    # (so pieces straddle the cuts); then whole censuses of families of up
    # to eight random colorings against the stacked slice oracle, with a
    # 70000-color coloring past the copy budget taking the slice kernel
    # beside bit kernels
    from radolab.arrays import _bits_counter, _census_linear, _slice_counter
    rng = random.Random(2323)
    words_at_once = coloring._CHUNK
    steps, lengths, ends = set(), set(), set()
    for text, bound, N in [("x + y = z", 320, 3), ("x + 2y = z", 449, 2),
                           ("x - 2y + 4z = 0", 191, 3),
                           ("z - 2x + 4y = 0", 191, 3),
                           ("2x = 3y + 5z", 257, 3),
                           ("x + y - 2z + 3w = 0", 64, 3)]:
        eq = parse(text)
        vstep, wstep, pieces = _pieces(eq, bound, N)
        steps.add((vstep, wstep))
        lengths |= set(pieces[3].tolist())
        ends.add(bound % 64)
        for colors in (2, 3, 300):
            table = ColoringSpec.parse(
                f"random:{rng.randint(-99, 99)}:{colors}").color_array(bound)
            expected = _slice_counter(table, vstep, wstep)[1](*pieces)
            for words in (words_at_once, 1, 3):
                with monkeypatch.context() as patch:
                    patch.setattr(coloring, "_CHUNK", words)
                    assert (_bits_counter(table, vstep, wstep)[1](*pieces)
                            == expected).all(), (text, colors, words)
        specs = [ColoringSpec.parse(f"random:{rng.randint(-99, 99)}:"
                                    f"{rng.choice([2, 3, 300])}")
                 for _ in range(rng.randint(1, 8))]
        assert {_kernel(s, bound, vstep, wstep) for s in specs} == {
            "_bits_counter"}
        assert _census_linear(census_plan(eq, bound), specs, bound, N) == \
            oracle_census_counts(eq, specs, bound, N), text
    assert {(1, 1), (1, 2), (1, -4), (5, -3)} <= steps
    assert {1, 63, 64, 65} <= lengths
    assert ends == {0, 1, 63}
    eq = parse("x + 2y = z")
    specs = [ColoringSpec.parse(s) for s in
             ["random:5:70000", "random:6:2", "random:-7:300"]]
    assert [_kernel(s, 2200, 1, 2) for s in specs] == [
        "_slice_counter", "_bits_counter", "_bits_counter"]
    assert _census_linear(census_plan(eq, 2200), specs, 2200, 3) == \
        oracle_census_counts(eq, specs, 2200, 3)


def test_random_kernel_chosen_by_copy_budget(monkeypatch):
    # the bit kernel's copies take 8 bytes per value, distinct color and
    # distinct step: at bound 2000 the 70000-color coloring's copies fit
    # the budget with one step and not with two, and the kernel flips
    # exactly at the budget
    spec = ColoringSpec.parse("random:3:70000")
    bound = 2000
    colors = len(np.unique(spec.color_array(bound)[1:]))
    copies = 8 * (bound + 1) * colors
    assert copies <= arrays._BITS_BUDGET < 2 * copies
    assert _kernel(spec, bound, 1, 1) == "_bits_counter"
    assert _kernel(spec, bound, 1, -1) == "_slice_counter"
    assert _kernel(spec, bound, 1, 2) == "_slice_counter"
    monkeypatch.setattr(arrays, "_BITS_BUDGET", 2 * copies)
    assert _kernel(spec, bound, 1, 2) == "_bits_counter"
    monkeypatch.setattr(arrays, "_BITS_BUDGET", 2 * copies - 1)
    assert _kernel(spec, bound, 1, 2) == "_slice_counter"


def test_random_kernel_memory():
    # just past the budget (random:42:64 at 2^16 would take 32 MiB and
    # 512 bytes of copies) the kernel holds the 64 KiB color table and no
    # copies; under it, the copies and the chunked gathers keep a census
    # at 10^5 under 40 MB
    tracemalloc.start()
    try:
        kernel = _kernel(ColoringSpec.parse("random:42:64"), 2 ** 16, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel == "_slice_counter"
    assert peak < 2 ** 20, peak
    spec = ColoringSpec.parse("random:42:4")
    tracemalloc.start()
    try:
        census = profile_census(parse("x + y = z"), spec, 10 ** 5, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.counts
    assert peak < 40 * 2 ** 20, peak


@pytest.mark.parametrize("text, name, bound", [
    ("x + y + z + u = v", "mod:2", 40),
    ("x + 2y = 3z + w", "logband:2:3", 300),
])
def test_closed_form_census_memory(text, name, bound):
    # a census with two or three prefix variables fills whole blocks of
    # prefix points; their piece tables and kernel temporaries stay under
    # 16 MB
    tracemalloc.start()
    try:
        census = profile_census(parse(text), ColoringSpec.parse(name),
                                bound, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.counts
    assert peak < 16 * 2 ** 20, peak


def test_sixteen_variable_census_matches_scan():
    # a profile code of one base-16 digit per variable would pass 2^63.
    # At bound 2 only the constant solutions have valid profiles
    eq = parse("x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7"
               " = y0 + y1 + y2 + y3 + y4 + y5 + y6 + y7")
    specs = [ColoringSpec.parse(s) for s in ["mod:2", "random:3:3"]]
    for N in (2, 10):
        for spec, census in zip(specs, profile_census_many(eq, specs, 2, N)):
            assert (census.counts, census.total_solutions) == _scan_census(
                eq, spec, 2, N), (spec, N)
            assert census.counts == {OrderedPartition.of(range(16)): 2}
            assert census.total_solutions == 12870


def test_distinct_rank_rows_past_int64_codes():
    # rows of up to 40 columns of ranks below the width, as a base-width
    # code per row would need up to 40^40: equal rows and only equal rows
    # share a position, and the distinct rows come in ascending order
    from radolab.arrays import _distinct_rows
    rng = np.random.default_rng(5)
    for width in [1, 3, 16, 17, 40]:
        base = rng.integers(0, width, size=(12, width), dtype=np.uint8)
        # rows that differ in one column only, first and last included
        base[1], base[2] = base[0], base[0]
        base[1, 0] = (base[0, 0] + 1) % width
        base[2, -1] = (base[0, -1] + 1) % width
        ranks = base[rng.integers(0, 12, size=300)]
        distinct, which = _distinct_rows(ranks)
        assert (distinct[which] == ranks).all(), width
        assert len({row.tobytes() for row in distinct}) == len(distinct)
        assert [tuple(r) for r in distinct.tolist()] == sorted(
            tuple(r) for r in distinct.tolist()), width


def test_widest_closed_form_census():
    # 512 variables, the most whose piece-table row fits its budget: at
    # bound 1 the one solution has one class, and its prefix grid of 510
    # variables is built without a 510-dimensional array
    text = " + ".join(f"x{i}" for i in range(256)) + " = " + " + ".join(
        f"y{i}" for i in range(256))
    spec = ColoringSpec.parse("random:3:3")
    census = profile_census(parse(text), spec, 1, 2)
    assert census.counts == {OrderedPartition.of(range(512)): 1}
    assert census.total_solutions == 1


def test_closed_form_census_builds_no_color_table(monkeypatch):
    # mod, logband and digit censuses count in closed form and compare
    # prefix colors with the kernels' arithmetic, building no table of
    # bound + 1 colors, which at the bound cap has 2^25 entries
    def refuse(self, bound):
        raise AssertionError(f"{self.spec_string()} built a color table")

    specs = [ColoringSpec.parse(s)
             for s in ["mod:3", "mod:18446744073709551617", "logband:2:3",
                       "digit:10"]]
    for text, bound in [("x + y = z", 3000), ("x + y + z = w", 60)]:
        eq = parse(text)
        expected, _ = oracle_census_counts(eq, specs, bound, 10)
        with monkeypatch.context() as patch:
            patch.setattr(ColoringSpec, "_table", refuse)
            many = profile_census_many(eq, specs, bound, 10)
        assert [census.counts for census in many] == expected


def test_closed_form_census_matches_walk_on_constant_slope_shapes(
        monkeypatch):
    # every shape whose inner and solved values step by constants takes the
    # closed form: seeded linear equations of three to five variables with
    # constants of both signs and coefficients other than +-1, x^2 + y = z,
    # x*w + y = z, x + y + z = w^2 and x^3 + 2y = 2z, at bounds 1, 2, a
    # small and a larger one with N of 2, 3, 10 and past the bound, under
    # every coloring kind.  Each census equals the oracle's profiles of the
    # walk's monochromatic solutions.  Cx + y = z + C at bound 40 takes the
    # closed form at the int64 gate's largest C and the walk at C + 1, and
    # x*y + z = w (a factor on the inner term) and x^2 + y^2 + z = w (a
    # quadratic inner variable) stay on the walk
    calls = []
    closed = arrays._census_linear

    def counted(plan, *args):
        calls.append(plan)
        return closed(plan, *args)

    monkeypatch.setattr(arrays, "_census_linear", counted)
    specs = [ColoringSpec.parse(s) for s in
             ["mod:2", "mod:3", "mod:18446744073709551617", "logband:2:3",
              "digit:10", "random:11:3"]]
    rng = random.Random(2828)

    def spread(top):
        return 1, 2, rng.randint(3, top // 3), top

    cases = [("x^2 + y = z", spread(150)), ("x*w + y = z", spread(25)),
             ("x + y + z = w^2", spread(25)), ("x^3 + 2y = 2z", spread(150))]
    for k, n in enumerate([3, 3, 4, 4, 5, 5]):
        coeffs = [rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]) for _ in range(n)]
        coeffs[rng.randrange(n)] = rng.choice([-4, -2, 3, 5])
        if min(coeffs) > 0 or max(coeffs) < 0:
            coeffs[rng.randrange(n)] *= -1
        constant = (-1) ** k * rng.randint(1, 9)
        cases.append((" + ".join(f"{c}*x{i}" for i, c in enumerate(coeffs))
                      .replace("+ -", "- ") + f" = {constant}",
                      spread({3: 90, 4: 20, 5: 9}[n])))
    # at bound 40 the gate bounds num + den*(bound + 2) by 41C + 84
    edge = (2 ** 62 - 85) // 41
    cases.append((f"{edge}x + y = z + {edge}", (40,)))
    walked = [(f"{edge + 1}x + y = z + {edge + 1}", (40,)),
              ("x*y + z = w", spread(20)), ("x^2 + y^2 + z = w", spread(20))]
    Ns, signs, solved = set(), set(), set()
    for text, bounds in cases + walked:
        eq = parse(text)
        for bound in bounds:
            N = rng.choice([2, 3, 10, bound + rng.randint(1, 10 ** 6)])
            Ns.add(N if N in (2, 3, 10) else "past the bound")
            count = len(calls)
            many = profile_census_many(eq, specs, bound, N)
            closed_form = (text, bounds) in cases
            assert len(calls) == count + closed_form, (text, bound)
            if closed_form:
                constant = eq.poly.constant_term()
                signs.add((constant > 0) - (constant < 0))
                solved.add(abs(calls[-1].den_coeff) > 1)
            total = sum(1 for _ in enumerate_solutions(eq, bound))
            for spec, census in zip(specs, many):
                counts = {}
                for sol, _ in oracle_monochromatic(eq, spec, bound):
                    partition, valid = oracle_asymptotic_profile(sol, N)
                    if valid:
                        counts[partition] = counts.get(partition, 0) + 1
                assert census.counts == counts, (text, spec, bound, N)
                assert census.total_solutions == total, (text, bound)
    assert coloring._array_walk(parse(walked[0][0]).poly, 40) is None
    assert Ns == {2, 3, 10, "past the bound"}
    assert signs == {-1, 0, 1} and solved == {False, True}


class TestProfileCensus:
    def test_fast_matches_general(self):
        # includes a non-unit solved coefficient (2x+3y=5z), a negative
        # solved stride (z - 2x + 4y = 0 solves for z, decreasing in y) and
        # a modulus past 2^64 (every color is the value itself)
        for eqtext in ["x + y = z", "x + 2y = z", "3x - 2y + z = 0",
                       "2x + 3y = 5z", "x - 2y + 4z = 0", "z - 2x + 4y = 0"]:
            eq = parse(eqtext)
            for cname in ["mod:2", "mod:3", "random:5:3", "logband:2:2",
                          "mod:18446744073709551617"]:
                spec = ColoringSpec.parse(cname)
                census = profile_census(eq, spec, 240, 6)
                counts, total = _scan_census(eq, spec, 240, 6)
                assert census.counts == counts, (eqtext, cname)
                assert census.total_solutions == total
        # N past the bound (clamped on the fast path), coefficients above
        # 2^20, and the smallest bounds
        cases = [("x + y = z", 240, 10 ** 30), ("x - 2y + 4z = 0", 240, 10 ** 30),
                 ("x + y = 1048577z", 240, 6),
                 ("2097154x = 1048577y + 1048577z", 240, 6)]
        cases += [(text, bound, N) for text in ["x + y = z", "2x + 3y = 5z"]
                  for bound in (1, 2) for N in (2, 10 ** 30)]
        for eqtext, bound, N in cases:
            eq = parse(eqtext)
            for cname in ["mod:2", "random:5:3", "mod:18446744073709551617"]:
                spec = ColoringSpec.parse(cname)
                census = profile_census(eq, spec, bound, N)
                counts, total = _scan_census(eq, spec, bound, N)
                assert census.counts == counts, (eqtext, bound, N, cname)
                assert census.total_solutions == total

    def test_general_path_many_matches_per_spec_scans(self):
        # one solution pass serves the whole family, duplicates included;
        # x + y + z = w takes the closed form, the others the walk
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

    def test_general_path_matches_oracle_tally(self):
        # the first coloring's walk counts every solution: in closed form on
        # the affine branch with exponent 1, as it walks elsewhere, and past
        # prefixes it skips (two-value prefixes under mod:2, and under the
        # 2^64 + 1 modulus, where only equal values share a color).
        # x + y + z = w takes the closed-form census, which drops the same
        # prefixes before its piece table
        names = ["mod:2", "mod:3", "random:7:3", "digit:10", "logband:2:3",
                 "mod:18446744073709551617"]
        specs = [ColoringSpec.parse(s) for s in names]
        # the solutions at the large bounds, found by hand: (x - y)^2 = x + y
        # is x = d(d + 1)/2, y = d(d - 1)/2 for d = x - y, |d| >= 2
        known = {("x^2 = 4", 10 ** 5): [(2,)], ("3x = 7", 10 ** 5): [],
                 ("x^2 + x = 6", 10 ** 5): [(2,)],
                 ("x^2 - 2x*y + y^2 = x + y", 2000): sorted(
                     p for d in range(2, 63)
                     for p in [(d * (d + 1) // 2, d * (d - 1) // 2),
                               (d * (d - 1) // 2, d * (d + 1) // 2)])}
        for text, bound in [
                ("x + y + z = w", 40),           # closed form
                ("x + y + z = w + 1", 40),       # affine, two-value prefix
                ("x + y = z + 1", 120),          # affine, one-value prefix
                ("x*y + x*w + y*w = z^2", 30),   # affine, solved square
                ("x^2*y + y = z^2", 60),
                ("x^2 + y^2 - z^2 = w", 30),     # not affine
                ("x^2 - y^2 = z", 150),
                ("x + y = z^2", 80),
                ("y*z = x^2 + 1", 150),          # inner variable solved over
                ("x = y + 1", 300),              # no prefix
                ("x = 2y", 300),
                ("x^2 = 4", 5),                  # one variable
                ("x^2 = 4", 10 ** 5),
                ("3x = 7", 10 ** 5),
                ("x^2 - 2x*y + y^2 = x + y", 150),   # full grid
                ("x^2 - 2x*y + y^2 = x + y", 2000),
                ("x^2*y + y^2 = x*y*z + z^2", 30),
                ("x^2 + x = 6", 9),
                ("x^2 + x = 6", 10 ** 5)]:
            eq = parse(text)
            many = profile_census_many(eq, specs, bound, 10)
            total = sum(1 for _ in enumerate_solutions(eq, bound))
            if (text, bound) in known:
                assert (list(enumerate_solutions(eq, bound))
                        == known[text, bound]), text
            for spec, census in zip(specs, many):
                counts = {}
                for sol, _ in oracle_monochromatic(eq, spec, bound):
                    partition, valid = oracle_asymptotic_profile(sol, 10)
                    if valid:
                        counts[partition] = counts.get(partition, 0) + 1
                assert census.counts == counts, (text, spec)
                assert census.total_solutions == total, (text, spec)

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
        # bounds below 1 leave no solutions, and no blocks to build
        for text in ["x + y = z", "x + y + z = w", "x + y + z = w + 1"]:
            for bound in (0, -5):
                census = profile_census(parse(text),
                                        ColoringSpec.parse("mod:2"), bound, 3)
                assert (census.counts, census.total_solutions) == ({}, 0)

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
        # the linear homogeneous equations take the closed-form path, the
        # inhomogeneous one the general walk
        spec = ColoringSpec.parse("mod:2")
        for text in ["x + y = z", "x + y + z = w", "x + y + z = w + 1"]:
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
                    expected, total = oracle_head_bins(sols, base, bin_count)
                    census = head_census(eq, spec, bound, base, bin_count)
                    assert census.bins == expected, (eqtext, base, bin_count)
                    assert census.total_coordinates == total

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


class TestFilteredWalk:
    """The color-testing walk against the enumerate-then-filter oracles."""

    EQUATIONS = ["x + y = z", "x + 2y = 4z", "x + y + z = w", "x + y = z + 1",
                 "x = y + 1", "x = 2y", "x + y = z^2", "x^2*y + y = z^2",
                 "x*y + x*w + y*w = z^2", "x^2 - y^2 = z",
                 "x^2 + y^2 - z^2 = w", "x*y = z", "y*z = x^2 + 1",
                 "x^2 = 4", "3x = 7", "x^2 - 2x*y + y^2 = x + y",
                 "x^2*y + y^2 = x*y*z + z^2", "x^2 + x = 6",
                 "y^2 + w = x*y + z"]
    COLORINGS = ["mod:2", "mod:3", "mod:7", "digit:3", "digit:10",
                 "logband:2:1", "logband:2:3", "logband:3:2", "random:7:3",
                 "random:11:4", "mod:18446744073709551617"]
    # one more case each for the one-variable and two-variable full-grid
    # equations, whose roots are walked at a bound far past the window budget
    LARGE = {"x^2 = 4": 10 ** 6, "3x = 7": 10 ** 6, "x^2 + x = 6": 10 ** 6,
             "x^2 - 2x*y + y^2 = x + y": 2000}

    def corpus(self, seed, size):
        rng = random.Random(seed)
        for text in self.EQUATIONS:
            eq = parse(text)
            small = len(eq.poly.variables) > 3
            for _ in range(size):
                yield (eq, ColoringSpec.parse(rng.choice(self.COLORINGS)),
                       rng.choice([1, 2, 7, 24] if small else [1, 3, 40, 150]),
                       rng)
        for text, bound in self.LARGE.items():
            yield (parse(text), ColoringSpec.parse(rng.choice(self.COLORINGS)),
                   bound, rng)

    def test_solutions_in_order(self):
        for eq, spec, bound, _ in self.corpus(61, 4):
            assert (list(iter_monochromatic(eq, spec, bound))
                    == list(oracle_monochromatic(eq, spec, bound))), \
                (eq.poly, spec, bound)

    def test_head_bins(self):
        for eq, spec, bound, rng in self.corpus(62, 2):
            base, bin_count = rng.choice([2, 3, 10]), rng.choice([1, 5, 16])
            bins, total = oracle_head_bins(
                (sol for sol, _ in oracle_monochromatic(eq, spec, bound)),
                base, bin_count)
            census = head_census(eq, spec, bound, base, bin_count)
            assert census.bins == bins, (eq.poly, spec, bound, base)
            assert census.total_coordinates == total

    # shapes of the array head census beyond EQUATIONS: a denominator per
    # prefix point, with two and three prefix variables, an inner
    # coefficient that vanishes at x = 2, quadratics whose leading
    # coefficient vanishes or changes sign with the prefix
    HEAD_EQUATIONS = ["x*y = 2z", "x*y = z*w", "x*y*u = z*w",
                      "x*y - 2y = z", "x*y^2 - 2y^2 = z",
                      "x^2 + 3x*y - 2y^2 = 5z", "y^2 - 5y + 6 = z*x",
                      "2x^2 - 3y^2 + x*y = 6z*w"]
    # shapes whose int64 gate closes at a small bound: the largest bound
    # that takes the array step
    GATE = {"x^6*y = z": 463, "x^4*y^2 = z": 1289}

    def test_head_census_matches_oracle(self):
        # every coloring kind in turn, random ones with up to 2^64 colors;
        # bounds 1, 2 and a larger one, and both sides of each gate; bases
        # up to and past the bound and past 2^64, bin counts up to the cap
        rng = random.Random(65)
        colorings = self.COLORINGS + ["random:5:1000", "random:3:100000",
                                      "random:9:18446744073709551616"]
        cases = []
        for text in self.EQUATIONS + self.HEAD_EQUATIONS:
            eq = parse(text)
            small = len(eq.poly.variables) > 3
            cases += [(eq, bound) for bound in
                      [1, 2, rng.choice([7, 24] if small else [3, 40, 150])]]
        for text, edge in self.GATE.items():
            eq = parse(text)
            assert coloring._array_walk(eq.poly, edge) is not None
            assert coloring._array_walk(eq.poly, edge + 1) is None
            cases += [(eq, edge), (eq, edge + 1)]
        on_array = 0
        for k, (eq, bound) in enumerate(cases):
            spec = ColoringSpec.parse(colorings[k % len(colorings)])
            base = rng.choice([2, 3, 10, bound, bound + 1,
                               2 ** 64 + rng.randint(0, 9)])
            bin_count = rng.choice([1, 5, 16, 16, 16, coloring.BIN_CAP])
            bins, total = oracle_head_bins(
                (sol for sol, _ in oracle_monochromatic(eq, spec, bound)),
                max(base, 2), bin_count)
            census = head_census(eq, spec, bound, max(base, 2), bin_count)
            assert census.bins == bins, (eq.poly, spec, bound, base)
            assert census.total_coordinates == total
            on_array += coloring._array_walk(eq.poly, bound) is not None
        assert on_array > 50

    # shapes the array walk plans but the closed form refuses, so their
    # census walks: slopes per prefix point, quadratics with one and with
    # two windows per row, an inner coefficient that vanishes at x = 2,
    # den != 1, a denominator per prefix point and no prefix at all
    WALKED = ["x*y + z = w", "x^2 + y^2 + z = w", "y^2 + w = x*y + z",
              "x*y - 2y = z", "x^2 - y^2 = 2z", "x*y = z*w", "x = y + 1"]

    def test_walked_census_matches_oracle(self):
        # every coloring kind at once, the 2^64 + 1 modulus and random ones
        # included; bounds 1, 2 and a small one, both sides of each gate,
        # and N up to and past the bound; x*y^3 + z = w (cubic in its
        # inner variable) has no plan at all
        specs = [ColoringSpec.parse(s) for s in
                 self.COLORINGS + ["random:5:1000"]]
        rng = random.Random(66)
        cases = [(text, bound) for text in self.WALKED
                 for bound in [1, 2, rng.choice([7, 12, 24])]]
        cases += [(text, b) for text, edge in self.GATE.items()
                  for b in [edge, edge + 1]]
        cases += [("x*y^3 + z = w", 24)]
        for k, (text, bound) in enumerate(cases):
            eq = parse(text)
            N = [2, 3, bound + 1, 10 ** 30][k % 4]
            many = profile_census_many(eq, specs, bound, N)
            total = sum(1 for _ in enumerate_solutions(eq, bound))
            for spec, got in zip(specs, many):
                counts = {}
                for sol, _ in oracle_monochromatic(eq, spec, bound):
                    partition, valid = oracle_asymptotic_profile(sol, N)
                    if valid:
                        counts[partition] = counts.get(partition, 0) + 1
                assert got.counts == counts, (text, bound, N, spec)
                assert got.total_solutions == total, (text, bound, spec)

    def test_head_census_memory(self):
        # x = 1 of x*y = z alone has 10^6 terms: the array step takes them
        # a chunk at a time, with a 1-byte color table
        eq, spec = parse("x*y = z"), ColoringSpec.parse("logband:2:3")
        tracemalloc.start()
        try:
            census = head_census(eq, spec, 10 ** 6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000_000, peak
        bins, total = oracle_head_bins(
            coloring._walk(eq.poly, 10 ** 6, _color_lookup(spec, 10 ** 6)),
            2, 16)
        assert census.bins == bins and census.total_coordinates == total

    def test_skipped_prefixes_walk_nothing(self, monkeypatch):
        # under the 2^64 + 1 modulus only equal values share a color, so of
        # the prefixes (w, x) of x + y + z = w only those with w == x pass,
        # and none of them completes (z = -y).  Each prefix costs two color
        # lookups, and a skipped one none more: not in a search, and not in
        # the census of x*y + z = w (prefix (w, x), z = w - x*y), whose walk
        # counts its solutions in closed form.  The census of x + y + z = w
        # takes no lookup at all
        lookups = [0]

        class Counted(list):
            def __getitem__(self, x):
                lookups[0] += 1
                return list.__getitem__(self, x)

        build = coloring._color_lookup
        monkeypatch.setattr(coloring, "_color_lookup",
                            lambda spec, bound: Counted(build(spec, bound)))
        eq = parse("x + y + z = w")
        spec = ColoringSpec.parse("mod:18446744073709551617")
        assert list(iter_monochromatic(eq, spec, 30)) == []
        assert lookups[0] == 2 * 30 ** 2
        lookups[0] = 0
        census = profile_census(eq, spec, 30, 10)
        assert census.counts == {} and census.total_solutions == 4060
        assert lookups[0] == 0
        census = profile_census(parse("x*y + z = w"), spec, 30, 10)
        assert census.counts == {} and census.total_solutions == 1381
        assert lookups[0] == 2 * 30 ** 2

    def test_skipped_prefixes_take_no_step(self, monkeypatch):
        # a search drops a mixed prefix before its inner step restricts the
        # equation, in every shape: under the 2^64 + 1 modulus only the 30
        # prefixes of two equal values are stepped.  Each walk builds its
        # restriction once, and each step calls it once
        calls = [0]
        build = coloring._restrictor

        def counting(*args):
            restrict = build(*args)

            def counted(values):
                calls[0] += 1
                return restrict(values)

            return counted

        monkeypatch.setattr(coloring, "_restrictor", counting)
        spec = ColoringSpec.parse("mod:18446744073709551617")
        for text in ["x + y + z = w", "x^2 + y^2 - z^2 = w",
                     "x^2*y + y^2 = x*y*z + z^2"]:
            calls[0] = 0
            list(iter_monochromatic(parse(text), spec, 30))
            assert calls[0] == 30, text

    def test_witnesses(self):
        for eq, _, bound, rng in self.corpus(63, 4):
            family = [ColoringSpec.parse(rng.choice(self.COLORINGS))
                      for _ in range(rng.randint(1, 5))]
            assert (witness_search(eq, family, bound)
                    == oracle_witness_search(eq, family, bound)), \
                (eq.poly, family, bound)

    def test_solution_records(self, capsys, monkeypatch):
        # every coloring kind and a 2-byte color table (random:5:1000), N
        # from 2 to past the bound, with and without a base (one past 2^64
        # too): the stream's lines against records written by json.dumps.
        # Half the cases join 3 records at a time, so joins split the array
        # walk's chunks and the walk's batches
        def stream(eq, spec, bound, N, base):
            argv = ["search", pretty(eq), "--coloring", spec, "--bound",
                    str(bound), "--N", str(N), "--mode", "solutions"]
            if base is not None:
                argv += ["--base", str(base)]
            assert cli.main(argv) == 0, argv
            lines = list(oracle_record_lines(
                eq, ColoringSpec.parse(spec), bound, N, base))
            assert capsys.readouterr().out == "".join(
                line + "\n" for line in lines), argv
            return len(lines)

        records = 0
        colorings = self.COLORINGS + ["random:5:1000"]
        chunk = cli._CHUNK
        for k, (eq, _, bound, _) in enumerate(self.corpus(64, 3)):
            monkeypatch.setattr(cli, "_CHUNK", [chunk, 3][k // 20 % 2])
            records += stream(eq, colorings[k % len(colorings)], bound,
                              [2, 3, 10, 10 ** 30][k % 4],
                              [None, 2, 3, 10, 2 ** 64 + 1][k // 4 % 5])
        assert records > 1000
        # records under random:5:1000 (x = y = z), and none at bound 1
        monkeypatch.setattr(cli, "_CHUNK", 3)
        assert stream(parse("x + 2y = 3z"), "random:5:1000", 150, 3,
                      2 ** 64 + 1) >= 150
        assert stream(parse("x + y = z"), "mod:3", 1, 2, 2) == 0
        assert stream(parse("x^2*y + y = z^2"), "mod:2", 1, 10, None) == 0

    def test_records_of_two_window_rows_in_walk_order(self, capsys):
        # z = y^2 - x*y + w dips below 1 between two windows of y for many
        # prefixes (w, x): the array stream must still go prefix by prefix,
        # each prefix's windows in t order
        text = "y^2 + w = x*y + z"
        for spec in ["logband:2:1", "mod:2", "random:7:3"]:
            argv = ["search", text, "--coloring", spec, "--bound", "24",
                    "--N", "3", "--base", "2", "--mode", "solutions"]
            assert cli.main(argv) == 0
            lines = list(oracle_record_lines(
                parse(text), ColoringSpec.parse(spec), 24, 3, 2))
            assert len(lines) > 100
            assert capsys.readouterr().out == "".join(
                line + "\n" for line in lines), spec

    def test_records_in_walk_order_across_blocks_and_chunks(self, capsys,
                                                            monkeypatch):
        # blocks of 5 prefix points, chunks of 7 terms and joins of 3
        # records: a prefix's terms are split between chunks, a row of
        # prefixes between blocks and a chunk's records between joins, and
        # the records still come in the walk's order, with a base past 2^64
        # too, under a 2-byte color table, and none at bound 1
        monkeypatch.setattr(arrays, "_BLOCK", 5)
        monkeypatch.setattr(coloring, "_CHUNK", 7)
        monkeypatch.setattr(cli, "_CHUNK", 3)
        terms = arrays._array_terms
        chunks = [0]

        def counted(*args):
            for chunk in terms(*args):
                chunks[0] += 1
                yield chunk

        monkeypatch.setattr(arrays, "_array_terms", counted)
        for text, spec, bound, base in [
                ("y^2 + w = x*y + z", "mod:2", 24, 2),
                ("y^2 + w = x*y + z", "logband:2:1", 24, 2),
                ("x*y + z = w", "mod:2", 24, 2),
                ("x*y + z = w", "logband:2:1", 24, 2),
                ("y^2 + w = x*y + z", "mod:2", 24, 2 ** 64 + 1),
                ("x + 2y = 3z", "random:5:1000", 60, 2),  # x = y = z
                ("x*y + z = w", "mod:2", 1, 2)]:
            chunks[0] = 0
            argv = ["search", text, "--coloring", spec, "--bound", str(bound),
                    "--N", "3", "--base", str(base), "--mode", "solutions"]
            assert cli.main(argv) == 0
            lines = list(oracle_record_lines(
                parse(text), ColoringSpec.parse(spec), bound, 3, base))
            if bound == 1:
                assert lines == []
            else:
                assert chunks[0] > 5 and len(lines) > 50
            assert capsys.readouterr().out == "".join(
                line + "\n" for line in lines), (text, spec)


class TestRecords:
    # the solution records are written by `search --mode solutions`
    def test_record_invariants(self, capsys):
        eq = parse("x + y = z")
        spec = ColoringSpec.parse("mod:2")
        assert cli.main(["search", "x + y = z", "--coloring", "mod:2",
                         "--bound", "60", "--N", "10", "--mode",
                         "solutions", "--base", "10"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert records
        for rec in records:
            assignment = dict(zip(eq.poly.variables, rec["assignment"]))
            assert evaluate(eq.poly, assignment) == 0
            assert all(spec.color(v) == rec["color"]
                       for v in rec["assignment"])
            profile = rec["profile"]
            assert profile["N"] == 10
            assert sorted(sum(profile["classes"], [])) == [0, 1, 2]
            assert set(rec["heads"]) == {"10"}
            assert all(1 <= Fraction(h) < 10 for h in rec["heads"]["10"])

    def test_N_below_two_rejected_before_the_first_solution(self, capsys):
        # solutions exist up to 60, yet N is rejected before any is written
        assert cli.main(["search", "x + y = z", "--coloring", "mod:2",
                         "--bound", "60", "--N", "1", "--mode",
                         "solutions"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N must be at least 2\n"
