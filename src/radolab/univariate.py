"""Univariate integer polynomials as coefficient lists, plus an exact
positive-real-root decision via Sturm chains and the exact integer windows
on which a polynomial is nonnegative.

A polynomial is a list of ints, lowest power first, with no trailing zeros;
the zero polynomial is the empty list.  All arithmetic is integer-exact, so
the root decision never sees a rounding error.
"""

from __future__ import annotations

from math import comb, gcd


def normalize(coeffs: list[int]) -> list[int]:
    """Strip trailing zero coefficients."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return list(coeffs[:n])


def evaluate(p: list[int], x) -> int:
    """Horner evaluation; exact for int or Fraction arguments."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def strip_zero_roots(p: list[int]) -> tuple[list[int], int]:
    """Factor p = x^v * q with q(0) != 0; returns (q, v)."""
    v = 0
    while v < len(p) and p[v] == 0:
        v += 1
    return p[v:], v


def content(p: list[int]) -> int:
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g or 1


def cauchy_bound(p: list[int]) -> int:
    """Integer B with every real root of p strictly less than B in absolute
    value.  Requires p nonzero and nonconstant."""
    lead = abs(p[-1])
    m = max(abs(c) for c in p[:-1]) if len(p) > 1 else 0
    # 1 + max|c_i|/|c_n|, rounded up to an integer
    return 1 + (m + lead - 1) // lead if m else 1


def _signed_prem(f: list[int], g: list[int]) -> list[int]:
    """Remainder of f by g scaled only by positive constants, so that the
    sign pattern of the Euclidean remainder is preserved.  Coefficients are
    divided by their content to keep growth in check."""
    r = list(f)
    lg = g[-1]
    dg = len(g) - 1
    while len(r) - 1 >= dg and r:
        lr = r[-1]
        shift = len(r) - 1 - dg
        # |lg| * r - sign(lg) * lr * x^shift * g  kills the leading term
        s = 1 if lg > 0 else -1
        r = [abs(lg) * c for c in r]
        for i, c in enumerate(g):
            r[shift + i] -= s * lr * c
        r = normalize(r)
    c = content(r)
    if c > 1:
        r = [x // c for x in r]
    return r


def sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of p (each element scaled by a positive constant only,
    which leaves sign variations unchanged)."""
    chain = [list(p), derivative(p)]
    while chain[-1]:
        nxt = [-c for c in _signed_prem(chain[-2], chain[-1])]
        chain.append(normalize(nxt))
    return chain[:-1]


def _sign_variations(values: list[int]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: list[int], a: int, b: int) -> int:
    """Number of distinct real roots of p in (a, b]; requires p(a), p(b) != 0.

    Valid for non-square-free p as well: the canonical chain ends at a
    multiple of gcd(p, p') and still counts distinct roots.
    """
    chain = sturm_chain(p)
    va = _sign_variations([evaluate(q, a) for q in chain])
    vb = _sign_variations([evaluate(q, b) for q in chain])
    return va - vb


def _forward_difference(p: list[int]) -> list[int]:
    """Coefficients of p(t + 1) - p(t), one degree lower than p."""
    out = [0] * len(p)
    for i, c in enumerate(p):
        for j in range(i):
            out[j] += c * comb(i, j)
    return normalize(out[:-1])


def _nonneg_windows(p: list[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """Maximal integer intervals (a, b), ascending, of [lo, hi] on which
    p(t) >= 0, exactly.

    Linear p is solved in closed form.  Otherwise the windows of the
    forward difference (one degree lower) split [lo, hi] into runs on which
    p is monotone on the integers, and each run is bisected for the end of
    its nonnegative part, so the cost is about deg(p)^2 * log2(hi - lo)
    evaluations.
    """
    if lo > hi:
        return []
    if len(p) <= 1:
        return [(lo, hi)] if not p or p[0] >= 0 else []
    if len(p) == 2:
        b, a = p
        if a > 0:
            lo = max(lo, -(b // a))
        else:
            hi = min(hi, b // -a)
        return [(lo, hi)] if lo <= hi else []
    if lo == hi:
        return [(lo, lo)] if evaluate(p, lo) >= 0 else []
    # p is nondecreasing on [a, b + 1] for each window (a, b) of the
    # difference, and strictly decreasing on [s, a] across each gap [s, a)
    runs = []
    start = lo
    for a, b in _nonneg_windows(_forward_difference(p), lo, hi - 1):
        if a > start:
            runs.append((start, a, False))
        runs.append((a, b + 1, True))
        start = b + 1
    if start < hi:
        runs.append((start, hi, False))
    out: list[tuple[int, int]] = []
    for a, b, rising in runs:
        if rising:
            # the nonnegative part is a suffix: bisect for its first point
            if evaluate(p, b) < 0:
                continue
            x, y = a, b
            if evaluate(p, a) >= 0:
                y = a
            while x < y:
                mid = (x + y) // 2
                if evaluate(p, mid) >= 0:
                    y = mid
                else:
                    x = mid + 1
            window = (x, b)
        else:
            # the nonnegative part is a prefix: bisect for its last point
            if evaluate(p, a) < 0:
                continue
            x, y = a, b
            if evaluate(p, b) >= 0:
                x = b
            while x < y:
                mid = (x + y + 1) // 2
                if evaluate(p, mid) >= 0:
                    x = mid
                else:
                    y = mid - 1
            window = (a, x)
        if out and window[0] <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], window[1]))
        else:
            out.append(window)
    return out


def has_positive_root(p: list[int]) -> bool:
    """True iff p has a real root in (0, +inf), decided exactly.

    The identically-zero polynomial counts as having a root (every point is
    one).  Roots at 0 do not count.
    """
    p = normalize(p)
    if not p:
        return True
    q, _ = strip_zero_roots(p)
    if len(q) == 1:
        return False
    bound = cauchy_bound(q)
    return count_roots_in(q, 0, bound) > 0
