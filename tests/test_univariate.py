import random
from math import isqrt

from _oracles import oracle_forward_difference
from radolab.univariate import (
    _ceil_root,
    _forward_difference,
    _nonneg_windows,
    evaluate,
    normalize,
    positive_root_bound,
)


def _scan_windows(p, lo, hi):
    """Maximal runs of consecutive t in [lo, hi] with p(t) >= 0."""
    out = []
    for t in range(lo, hi + 1):
        if evaluate(p, t) >= 0:
            if out and out[-1][1] == t - 1:
                out[-1] = (out[-1][0], t)
            else:
                out.append((t, t))
    return out


def test_nonneg_windows_match_scan():
    # random coefficients, and products of integer linear factors, which put
    # sign changes (and double roots) at integers inside the range; the
    # ranges include empty and one-point ones
    rng = random.Random(17)
    for _ in range(4000):
        deg = rng.randint(0, 6)
        if rng.random() < 0.5:
            p = [rng.choice([-3, -2, -1, 1, 2, 3])]
            for _ in range(deg):
                r = rng.randint(-20, 70)
                p = [a - r * b for a, b in zip([0] + p, p + [0])]
        else:
            p = [rng.randint(-60, 60) for _ in range(deg + 1)]
        p = normalize(p)
        lo = rng.randint(-30, 60)
        hi = lo + rng.choice([-3, -1, 0, 1, rng.randint(2, 120)])
        assert _nonneg_windows(p, lo, hi) == _scan_windows(p, lo, hi), \
            (p, lo, hi)


def test_nonneg_windows_long_range():
    # (t - 10^6)(t - 10^6 - 5)(t - 3*10^9) changes sign three times; the
    # windows come from a few dozen evaluations, not a scan
    p = [1]
    for r in (10 ** 6, 10 ** 6 + 5, 3 * 10 ** 9):
        p = [a - r * b for a, b in zip([0] + p, p + [0])]
    assert _nonneg_windows(p, 1, 10 ** 10) == [(10 ** 6, 10 ** 6 + 5),
                                               (3 * 10 ** 9, 10 ** 10)]
    assert _nonneg_windows([-c for c in p], 1, 10 ** 10) == [
        (1, 10 ** 6), (10 ** 6 + 5, 3 * 10 ** 9)]


def test_quadratic_windows_match_scan():
    # coefficients up to 10^30 with either sign of the leading one; roots
    # planted as factors k(t - r1)(t - r2) at lo - 1, lo, hi and hi + 1 or
    # anywhere near the range (discriminant 0 when r1 == r2, a perfect
    # square otherwise); irrational roots from k(t - r)^2 +- m, whose
    # discriminant is not a square or is negative; and lo == hi
    rng = random.Random(24)
    kinds = {"negative": 0, "zero": 0, "square": 0, "other": 0}
    for _ in range(6000):
        lo = rng.randint(-10 ** 6, 10 ** 6)
        hi = lo + rng.choice([0, 0, 1, rng.randint(2, 199)])
        k = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(0, 12))
        shape = rng.random()
        if shape < 0.4:
            ends = [lo - 1, lo, hi, hi + 1]
            r1, r2 = (rng.choice(ends + [rng.randint(lo - 5, hi + 5)])
                      for _ in range(2))
            p = [k * r1 * r2, -k * (r1 + r2), k]
        elif shape < 0.7:
            r, m = rng.randint(lo - 5, hi + 5), rng.randint(1, 10 ** 6)
            p = [k * r * r + rng.choice([-1, 1]) * m, -2 * k * r, k]
        else:
            big = 10 ** rng.randint(0, 30)
            p = [rng.randint(-big, big) for _ in range(3)]
            p[2] = p[2] or rng.choice([-1, 1])
        c, b, a = p
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        kinds["negative" if disc < 0 else "zero" if disc == 0
              else "square" if root * root == disc else "other"] += 1
        assert _nonneg_windows(p, lo, hi) == _scan_windows(p, lo, hi), \
            (p, lo, hi)
    assert min(kinds.values()) > 200, kinds


def test_quadratic_windows_long_range():
    # over 10^12 integers the windows are checked at a few points each: p is
    # nonnegative at each end and negative one step past it, unless that
    # end is lo or hi
    rng = random.Random(25)
    lo = -rng.randint(0, 10 ** 6)
    hi = lo + 10 ** 12
    for _ in range(2000):
        k = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(0, 18))
        r1 = rng.randint(lo - 10 ** 9, hi + 10 ** 9)
        r2 = r1 + rng.choice([0, 1, 2, rng.randint(0, 10 ** 12)])
        p = [k * r1 * r2 + rng.randint(-10 ** 6, 10 ** 6), -k * (r1 + r2), k]
        windows = _nonneg_windows(p, lo, hi)
        assert all(a <= b for a, b in windows)
        assert all(b + 1 < c for (_, b), (c, _) in zip(windows, windows[1:]))
        for a, b in windows:
            assert evaluate(p, a) >= 0 and evaluate(p, b) >= 0, (p, a, b)
            assert a == lo or evaluate(p, a - 1) < 0, (p, a)
            assert b == hi or evaluate(p, b + 1) < 0, (p, b)
        # p is negative at both ends and the middle of every gap: before the
        # first window, between two and after the last (all of [lo, hi]
        # when there is no window)
        starts = [lo - 1] + [b for _, b in windows]
        stops = [a for a, _ in windows] + [hi + 1]
        for b, c in zip(starts, stops):
            if b + 1 < c:
                for t in (b + 1, (b + c) // 2, c - 1):
                    assert evaluate(p, t) < 0, (p, b, c, t)


def test_forward_difference_matches_binomial_expansion():
    rng = random.Random(17)
    cases = [[], [5], [0, 0, 0], [3, 0, 2, 0, 0]]
    for _ in range(2000):
        degree = rng.choice([rng.randrange(0, 12), rng.randrange(0, 70)])
        cases.append([rng.randint(-10 ** rng.randrange(1, 30), 10 ** 6)
                      for _ in range(degree + 1)])
    for p in cases:
        diff = _forward_difference(p)
        assert diff == oracle_forward_difference(p), p
        for t in (-3, 0, 1, 7):
            assert evaluate(diff, t) == evaluate(p, t + 1) - evaluate(p, t)


def _times(p, factor):
    out = [0] * (len(p) + len(factor) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


def test_ceil_root():
    for n in range(0, 3000):
        for k in range(1, 7):
            r = _ceil_root(n, k)
            assert r ** k >= n and (r == 0 or (r - 1) ** k < n), (n, k)
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.getrandbits(rng.randint(1, 5000))
        k = rng.randint(1, 300)
        r = _ceil_root(n, k)
        assert r ** k >= n and (r == 0 or (r - 1) ** k < n), (n, k)


def test_positive_root_bound_above_planted_roots():
    # positive rational roots p/q planted as factors (q t - p), among
    # negative roots, complex pairs and multiple roots; every planted root
    # lies strictly below the bound and p keeps its leading sign past it
    rng = random.Random(29)
    for _ in range(3000):
        poly = [rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(0, 6))]
        roots = []
        for _ in range(rng.randint(1, 5)):
            num = rng.randint(1, 10 ** rng.randint(1, 40))
            den = rng.randint(1, 10 ** rng.randint(0, 6))
            roots.append((num, den))
            poly = _times(poly, [-num, den])
            if rng.random() < 0.3:
                poly = _times(poly, [-num, den])
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                poly = _times(poly, [rng.randint(1, 10 ** 9), 1])
            else:
                a = rng.randint(0, 50)
                poly = _times(poly, [a * a + rng.randint(1, 10 ** 6), a, 1])
        poly = _times(poly, [0] * rng.randint(0, 2) + [1])
        bound = positive_root_bound(poly)
        assert all(bound * den > num for num, den in roots), (poly, bound)
        assert (evaluate(poly, bound) > 0) == (poly[-1] > 0)


def test_positive_root_bound_without_sign_change():
    # no coefficient opposite to the leading one: no positive root, bound 1
    assert positive_root_bound([3, 0, 2, 5]) == 1
    assert positive_root_bound([-1, -7]) == 1
    assert positive_root_bound([0, 0, 4]) == 1
    assert positive_root_bound([9]) == 1
    # x^2 - 10^100: the bound stays near the root 10^50, not near 10^100
    bound = positive_root_bound([-10 ** 100, 0, 1])
    assert 10 ** 50 < bound <= 2 * 10 ** 50 + 1
