"""Univariate integer polynomials as coefficient lists, plus an exact
positive-real-root decision via Sturm chains and the exact integer windows
on which a polynomial is nonnegative: in closed form up to degree 2, and
from the windows of its forward difference above that.

A polynomial is a list of ints, lowest power first, with no trailing zeros;
the zero polynomial is the empty list.  All arithmetic is integer-exact, so
the root decision never sees a rounding error.
"""

from __future__ import annotations

from math import gcd, isqrt


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


def _ceil_root(n: int, k: int) -> int:
    """Smallest integer r >= 0 with r**k >= n, for n >= 0 and k >= 1."""
    if n <= 1:
        return n
    # Newton's iteration from above lands on the floor of the k-th root
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == n else x + 1


def positive_root_bound(p: list[int]) -> int:
    """Integer B > 0 strictly above every positive real root of p: the
    Fujiwara-Kioustelidis bound 2 * max (|a_i| / |a_d|)^(1 / (d - i)) over
    the coefficients a_i whose sign is opposite to the leading a_d, with
    each root rounded up, plus 1 (1 when no sign is opposite, since then p
    has no positive root).  Requires p nonzero.

    Past that point a_d x^d outweighs the opposite-sign terms, each below
    |a_d| x^d / 2^(d - i).  The bound has about bit_length / (d - i) bits,
    so windows below it cost time with the bit length of the coefficients,
    not their size.
    """
    lead = p[-1]
    d = len(p) - 1
    top = 0
    for i, c in enumerate(p[:-1]):
        if c and (c < 0) != (lead < 0):
            top = max(top, _ceil_root(-(-abs(c) // abs(lead)), d - i))
    return 2 * top + 1


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


def _forward_difference(p: list[int]) -> list[int]:
    """Coefficients of p(t + 1) - p(t), one degree lower than p: p(t + 1)
    by a Taylor shift in additions only, then p subtracted."""
    a = list(p)
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    return normalize([x - c for x, c in zip(a[:-1], p)])


def _nonneg_windows(p: list[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """Maximal integer intervals (a, b), ascending, of [lo, hi] on which
    p(t) >= 0, exactly.

    Linear and quadratic p are solved in closed form, a quadratic with two
    evaluations (`_quadratic_windows`).  Above degree 2 the windows of the
    forward difference (one degree lower) split [lo, hi] into runs on which
    p is monotone on the integers, and each run is bisected for the end of
    its nonnegative part, so each degree k from 3 to deg(p) costs about
    k * log2(hi - lo) evaluations.
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
    if len(p) == 3:
        return _quadratic_windows(p, lo, hi)
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


def _quadratic_windows(p: list[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """`_nonneg_windows` of p = c + b*t + a*t^2, a != 0, in closed form.

    With s = isqrt(b^2 - 4ac), and a and b negated if a < 0, the real roots
    r1 <= r2 lie in ((-b - s - 1)/(2a), (-b - s)/(2a)] and
    [(-b + s)/(2a), (-b + s + 1)/(2a)).  So each window end next to a root
    is the floor of the first interval's top or the ceiling of the second's
    bottom, or that integer's neighbour.  The two candidates lie on either
    side of the vertex, where p is monotone, so p's sign at each picks.
    """
    c, b, a = p
    disc = b * b - 4 * a * c
    if disc < 0:
        return [(lo, hi)] if a > 0 else []
    up, s = (1 if a > 0 else -1), isqrt(disc)
    left = (-b * up - s) // (2 * a * up)
    right = -((b * up - s) // (2 * a * up))
    # a candidate at which p < 0 lies one step past its window's end
    if evaluate(p, left) < 0:
        left -= up
    if evaluate(p, right) < 0:
        right += up
    # p >= 0 on [ceil(r1), floor(r2)] if a < 0, else off (floor(r1), ceil(r2))
    spans = ([(left, right)] if up < 0 else [(lo, hi)] if left + 1 >= right
             else [(lo, left), (right, hi)])
    return [(max(lo, x), min(hi, y)) for x, y in spans
            if max(lo, x) <= min(hi, y)]


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
    # Sturm's theorem on (0, +inf): q(0) != 0, so the chain's signs at 0 are
    # its constant terms and at +inf its leading coefficients.  The count is
    # of distinct roots, for non-square-free q too: the chain ends at a
    # multiple of gcd(q, q'), which does not vanish at 0.
    chain = sturm_chain(q)
    return (_sign_variations([f[0] for f in chain])
            > _sign_variations([f[-1] for f in chain]))
