"""Empirical engine: solution enumeration under a bound, concrete colorings,
asymptotic profiles of solution tuples, and standard-head statistics.

A profile is extracted from a tuple by greedy descending grouping: repeatedly
take the largest unassigned value a and group with it every unassigned value
b with |a/b - 1| < 1/N (all comparisons exact integer arithmetic).  The
profile is valid when, in addition, every within-class pair meets the ratio
bound and every cross-class pair (i earlier, j later) satisfies N*a_j < a_i.
Only valid profiles of monochromatic solutions enter a census.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from . import univariate
from .model import Equation, Polynomial, ZeroPolynomialError
from .results import OrderedPartition

if TYPE_CHECKING:
    from array import array

    import numpy as np


# ---------------------------------------------------------------------------
# colorings


@dataclass(frozen=True)
class ColoringSpec:
    """One concrete finite coloring of the positive integers.

    kinds: mod(m) - residue classes; digit(p) - leading digit in base p;
    logband(p, r) - floor(log_p x) mod r; random(seed, colors) - keyed
    blake2b hash reduced mod colors (platform-independent and reproducible).
    """

    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        kind, p = self.kind, self.params
        if kind == "mod":
            if len(p) != 1 or p[0] < 2:
                raise ValueError("mod coloring needs a modulus >= 2")
        elif kind == "digit":
            if len(p) != 1 or p[0] < 2:
                raise ValueError("digit coloring needs a base >= 2")
            if p[0] == 2:
                raise ValueError(
                    "digit coloring rejects base 2: the leading binary digit "
                    "is always 1, a single color"
                )
        elif kind == "logband":
            if len(p) != 2 or p[0] < 2 or p[1] < 1:
                raise ValueError("logband coloring needs base >= 2 and period >= 1")
        elif kind == "random":
            if len(p) != 2 or p[1] < 2:
                raise ValueError("random coloring needs a seed and colors >= 2")
        else:
            raise ValueError(f"unknown coloring kind {kind!r}")

    @staticmethod
    def parse(text: str) -> "ColoringSpec":
        """Colon-delimited literals: mod:5, digit:10, logband:2:3,
        random:seed:colors."""
        parts = text.split(":")
        kind = parts[0]
        try:
            params = tuple(int(x) for x in parts[1:])
        except ValueError as exc:
            raise ValueError(f"bad coloring spec {text!r}: {exc}") from exc
        return ColoringSpec(kind, params)

    def spec_string(self) -> str:
        return ":".join([self.kind, *map(str, self.params)])

    def num_colors(self) -> int:
        if self.kind == "mod":
            return self.params[0]
        if self.kind == "digit":
            return self.params[0] - 1
        if self.kind == "logband":
            return self.params[1]
        return self.params[1]

    def color(self, x: int) -> int:
        if x < 1:
            raise ValueError("colorings are defined on positive integers")
        if self.kind == "mod":
            return x % self.params[0]
        if self.kind == "digit":
            p = self.params[0]
            while x >= p:
                x //= p
            return x
        if self.kind == "logband":
            p, r = self.params
            return _int_log(x, p) % r
        seed, colors = self.params
        data = x.to_bytes((x.bit_length() + 7) // 8 or 1, "little")
        digest = hashlib.blake2b(
            data, digest_size=8, key=str(seed).encode()
        ).digest()
        return int.from_bytes(digest, "little") % colors

    def _table(self, bound: int) -> array:
        """Colors of 0..bound (index 0 is padding) in the smallest unsigned
        typecode that holds every color: the one per-kind builder."""
        from array import array  # not loaded by import radolab

        kind, p = self.kind, self.params
        # mod, digit and logband colors never exceed x; a random color is
        # reduced from an 8-byte digest
        top = p[0] - 1 if kind == "digit" else self.num_colors() - 1
        top = min(top, 2 ** 64 - 1 if kind == "random" else bound)
        code = next(c for c in "BHIQ" if top < 1 << 8 * array(c).itemsize)
        if kind == "mod":
            # x % m == x for x <= bound < m, and m may not fit in 64 bits
            m = min(p[0], bound + 1)
            return (array(code, range(m)) * _ceil_div(bound + 1, m))[:bound + 1]
        out = array(code, [0])
        if kind == "random":
            return out + array(code, map(self.color, range(1, bound + 1)))
        # level L of base p covers [p^L, p^(L+1)): one logband color, or
        # leading digit d on [d*p^L, (d+1)*p^L)
        base, level, scale = p[0], 0, 1
        while scale <= bound:
            if kind == "logband":
                runs = [((base - 1) * scale, level % p[1])]
            else:
                runs = [(scale, d)
                        for d in range(1, min(base, bound // scale + 1))]
            for width, c in runs:
                out += array(code, [c]) * min(width, bound + 1 - len(out))
            level, scale = level + 1, scale * base
        return out

    def color_array(self, bound: int) -> np.ndarray:
        """Colors of 0..bound (index 0 is padding), a numpy view of the
        color table."""
        import numpy as np

        table = self._table(bound)
        return np.frombuffer(table, dtype=table.typecode)


class _HashedColors(dict):
    """A random coloring's table, each color hashed on first lookup, so a
    search that stops early pays only for the values it reached."""

    def __init__(self, spec: ColoringSpec):
        super().__init__()
        self._color = spec.color

    def __missing__(self, x: int) -> int:
        c = self[x] = self._color(x)
        return c


def _color_lookup(spec: ColoringSpec, bound: int):
    """One search's color table, indexed by value in [1, bound]."""
    if spec.kind == "random":
        return _HashedColors(spec)
    return spec._table(bound).tolist()


def _int_log(x: int, p: int) -> int:
    count = 0
    while x >= p:
        x //= p
        count += 1
    return count


def standard_head(x: int, p: int) -> Fraction:
    """x / p^floor(log_p x), the leading-digit mantissa in base p; in [1, p)."""
    if x < 1:
        raise ValueError("standard heads are defined for positive integers")
    if p < 2:
        raise ValueError("base must be at least 2")
    return Fraction(x, p ** _int_log(x, p))


# ---------------------------------------------------------------------------
# asymptotic profiles


def asymptotic_profile(values: Sequence[int], N: int) -> tuple[OrderedPartition, bool]:
    """Greedy descending grouping of a tuple, plus the validity flag."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if any(v < 1 for v in values):
        raise ValueError("tuple entries must be positive")
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    classes: list[list[int]] = []
    assigned = [False] * len(values)
    for anchor in order:
        if assigned[anchor]:
            continue
        amax = values[anchor]
        group = []
        for i in order:
            if not assigned[i] and N * (amax - values[i]) < values[i]:
                assigned[i] = True
                group.append(i)
        classes.append(group)
    partition = OrderedPartition(tuple(frozenset(c) for c in classes))
    valid = _profile_valid(values, classes, N)
    return partition, valid


def _profile_valid(values: Sequence[int], classes: list[list[int]], N: int) -> bool:
    for c in classes:
        for i, j in itertools.combinations(c, 2):
            hi, lo = max(values[i], values[j]), min(values[i], values[j])
            if N * (hi - lo) >= lo:
                return False
    for earlier, later in itertools.combinations(range(len(classes)), 2):
        for i in classes[earlier]:
            for j in classes[later]:
                if N * values[j] >= values[i]:
                    return False
    return True


# ---------------------------------------------------------------------------
# solution enumeration


def _pick_isolated(poly: Polynomial) -> Optional[tuple[int, int, int]]:
    """Variable occurring in exactly one monomial: (var index, exponent,
    monomial index).  Prefers exponent 1; ties go to the highest index."""
    n = len(poly.variables)
    occurrences = [[] for _ in range(n)]
    for mi, m in enumerate(poly.monomials):
        for v, e in m.exponents:
            occurrences[v].append((mi, e))
    best = None
    for v in range(n):
        if len(occurrences[v]) == 1:
            mi, e = occurrences[v][0]
            key = (e == 1, v)
            if best is None or key > (best[1] == 1, best[0]):
                best = (v, e, mi)
    return best


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _progression(alpha: int, beta: int, den: int, lo: int, hi: int,
                 bound: int) -> range:
    """The t in [1, bound] for which (alpha*t + beta)/den is an integer in
    [lo, hi], exactly.  Consecutive t differ by the range's step, so their
    quotients differ by alpha*step // den."""
    if den < 0:
        alpha, beta, den = -alpha, -beta, -den
    # alpha*t + beta == 0 (mod den) fixes t modulo den/g
    g = gcd(alpha, den)
    if beta % g:
        return range(0)
    step = den // g
    residue = -(beta // g) * pow(alpha // g, -1, step) % step
    # den*lo <= alpha*t + beta <= den*hi
    a, b = den * lo - beta, den * hi - beta
    if alpha == 0:
        t_lo, t_hi = (1, bound) if a <= 0 <= b else (1, 0)
    else:
        if alpha < 0:
            a, b = b, a
        t_lo, t_hi = max(_ceil_div(a, alpha), 1), min(b // alpha, bound)
    first = t_lo + (residue - t_lo) % step
    return range(first, t_hi + 1, step)


def enumerate_solutions(eq: Equation, bound: int) -> Iterator[tuple[int, ...]]:
    """All solutions with every coordinate in [1, bound]; complete and
    duplicate-free.

    A variable occurring in exactly one monomial is solved for exactly
    (divisibility, range and integer-root table checks); the grid runs over
    the remaining variables.  When the solved value is affine in the
    innermost variable, that variable walks the exact arithmetic progression
    of `_progression`, the engine the three-variable census shares;
    otherwise it walks only the exact integer windows on which the solved
    value lies in its range.  Without such a variable the full grid runs
    over all but the innermost variable, which walks the exact integer
    roots of its restriction.  Solutions come out in lexicographic order of
    the grid point, then of the innermost variable.
    """
    poly = eq.poly
    if poly.is_zero():
        raise ZeroPolynomialError("the zero polynomial is satisfied everywhere")
    if bound < 1 or not poly.variables:
        return
    n = len(poly.variables)
    iso = _pick_isolated(poly)

    if iso is not None:
        yield from _enumerate_isolated(poly, bound, iso)
        return

    # full grid; the innermost variable walks the roots of its restriction,
    # where p >= 0 and -p >= 0
    inner = n - 1
    budget = _window_budget(poly.monomials, inner, bound)
    for point in itertools.product(range(1, bound + 1), repeat=n - 1):
        inner_poly = _restrict(poly.monomials, point, inner)
        if not inner_poly:
            for t in range(1, bound + 1):
                yield (*point, t)
            continue
        cap = min(bound, univariate.cauchy_bound(inner_poly))
        walk = range(1, cap + 1)
        if cap > budget:
            walk = _windows_walk([inner_poly, [-c for c in inner_poly]],
                                 cap, budget)
        for t in walk:
            if univariate.evaluate(inner_poly, t) == 0:
                yield (*point, t)


def _window_budget(monomials, inner: int, bound: int) -> int:
    """Span length below which scanning beats exact windows.

    The windows of a degree-d restriction to `inner` cost about
    (d + 1)^2 * log2(bound) evaluations, each dearer than a scan step; the
    factor 2 keeps an equation whose windows prune nothing (such as
    x^2 + y^2 = z^4, where the solved range [1, bound^4] is loose) from
    paying more than about a sixth extra.
    """
    d = max((e for m in monomials for v, e in m.exponents if v == inner),
            default=0)
    return 2 * (d + 1) ** 2 * bound.bit_length()


def _windows_walk(polys: list[list[int]], hi: int,
                  budget: int) -> Iterable[int]:
    """The t in [1, hi], ascending, at which every polynomial is >= 0,
    narrowed one polynomial at a time to its exact windows.  A span no
    longer than the budget is walked whole, so callers check every t."""
    spans = [(1, hi)]
    for p in polys:
        spans = [w for a, b in spans
                 for w in ([(a, b)] if b - a < budget
                           else univariate._nonneg_windows(p, a, b))]
    return itertools.chain.from_iterable(range(a, b + 1) for a, b in spans)


def _restrict(monomials, values, inner: int) -> list[int]:
    """Coefficients of the sum of the monomials as a univariate polynomial in
    variable `inner`, every other variable v fixed to values[v]."""
    coeffs: dict[int, int] = {}
    for m in monomials:
        value = m.coeff
        e_inner = 0
        for v, e in m.exponents:
            if v == inner:
                e_inner = e
            else:
                value *= values[v] ** e
        coeffs[e_inner] = coeffs.get(e_inner, 0) + value
    return univariate.normalize(
        [coeffs.get(e, 0) for e in range(max(coeffs, default=-1) + 1)]
    )


def _plus_term(p: list[int], k: int, c: int) -> list[int]:
    """p(t) + c*t^k."""
    out = p + [0] * (k + 1 - len(p))
    out[k] += c
    return univariate.normalize(out)


def _enumerate_isolated(poly: Polynomial, bound: int,
                        iso: tuple[int, int, int]) -> Iterator[tuple[int, ...]]:
    sv, se, smono = iso
    n = len(poly.variables)
    others = [v for v in range(n) if v != sv]
    rest = [m for i, m in enumerate(poly.monomials) if i != smono]
    mono = poly.monomials[smono]
    mono_others = [(v, e) for v, e in mono.exponents if v != sv]
    # the solved variable takes the value v where its power q = v^se lies in
    # `powers`: v = q when se == 1, else v = powers[q]
    powers = (range(1, bound + 1) if se == 1
              else {t ** se: t for t in range(1, bound + 1)})

    if not others:
        q, r = divmod(-sum(m.coeff for m in rest), mono.coeff)
        if not r and q in powers:
            yield (q if se == 1 else powers[q],)
        return

    inner = others[-1]
    prefix_vars = others[:-1]
    den_has_inner = any(v == inner for v, _ in mono_others)
    inner_exp = next((e for w, e in mono_others if w == inner), 0)
    hi_q = bound if se == 1 else bound ** se
    budget = _window_budget(poly.monomials, inner, bound)

    values = [0] * n
    for point in itertools.product(range(1, bound + 1), repeat=len(prefix_vars)):
        for v, val in zip(prefix_vars, point):
            values[v] = val
        den_const = mono.coeff
        for v, e in mono_others:
            if v != inner:
                den_const *= values[v] ** e
        num = [-c for c in _restrict(rest, values, inner)]

        if not den_has_inner and len(num) <= 2:
            alpha = num[1] if len(num) == 2 else 0
            beta = num[0] if num else 0
            ts = _progression(alpha, beta, den_const, 1, hi_q, bound)
            # along ts the power (alpha*t + beta)/den_const is an integer in
            # [1, hi_q] that steps by alpha*step/den_const, exactly
            qs = itertools.count((alpha * ts.start + beta) // den_const,
                                 alpha * ts.step // den_const)
            for t, q in zip(ts, qs):
                if se == 1 or q in powers:
                    values[inner] = t
                    values[sv] = q if se == 1 else powers[q]
                    yield tuple(values)
            continue

        walk = range(1, bound + 1)
        if bound > budget:
            # 1 <= num(t) / (den_const * t^k) <= hi_q, both sides scaled by
            # |den_const| * t^k > 0
            d = abs(den_const)
            scaled = num if den_const > 0 else [-c for c in num]
            walk = _windows_walk(
                [_plus_term(scaled, inner_exp, -d),
                 _plus_term([-c for c in scaled], inner_exp, hi_q * d)],
                bound, budget)
        for t in walk:
            den = den_const * t ** inner_exp if den_has_inner else den_const
            q, r = divmod(univariate.evaluate(num, t), den)
            if not r and q in powers:
                values[inner] = t
                values[sv] = q if se == 1 else powers[q]
                yield tuple(values)


# ---------------------------------------------------------------------------
# monochromatic records and censuses


@dataclass
class SolutionRecord:
    assignment: tuple[int, ...]
    color: int
    profile: tuple[OrderedPartition, int, bool]
    heads: dict[int, list[Fraction]]


def _common_color(table, values: Sequence[int]) -> Optional[int]:
    """The color every value shares, or None; `table` is the search's
    color table from `_color_lookup`."""
    c = table[values[0]]
    for x in values:
        if table[x] != c:
            return None
    return c


def iter_monochromatic(eq: Equation, spec: ColoringSpec,
                       bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    table = _color_lookup(spec, bound)
    for assignment in enumerate_solutions(eq, bound):
        c = _common_color(table, assignment)
        if c is not None:
            yield assignment, c


def iter_records(eq: Equation, spec: ColoringSpec, bound: int, N: int,
                 bases: Sequence[int] = ()) -> Iterator[SolutionRecord]:
    """Monochromatic solutions annotated with profiles and standard heads."""
    for assignment, c in iter_monochromatic(eq, spec, bound):
        partition, valid = asymptotic_profile(assignment, N)
        heads = {
            p: [standard_head(x, p) for x in assignment] for p in bases
        }
        yield SolutionRecord(assignment, c, (partition, N, valid), heads)


@dataclass
class ProfileCensus:
    counts: dict[OrderedPartition, int]
    total_solutions: int
    params: dict

    def valid_total(self) -> int:
        return sum(self.counts.values())


def profile_census(eq: Equation, spec: ColoringSpec, bound: int,
                   N: int) -> ProfileCensus:
    """Counts of valid-at-N profiles over all monochromatic solutions with
    coordinates up to the bound."""
    return profile_census_many(eq, [spec], bound, N)[0]


def profile_census_many(eq: Equation, specs: Sequence[ColoringSpec],
                        bound: int, N: int) -> list[ProfileCensus]:
    """Censuses for several colorings in one pass over the solutions.

    Solution candidates and their profiles do not depend on the coloring, so
    they are found once for the whole family and only the color comparison
    runs per coloring: 3-variable linear homogeneous equations walk each
    inner progression in closed form, every other equation takes a single
    pass over `enumerate_solutions`.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if not specs:
        return []
    poly = eq.poly
    params = [{"bound": bound, "N": N, "coloring": s.spec_string()}
              for s in specs]
    # the closed-form path needs one color array per coloring; past ~10^7
    # entries the memory cost stops being a clear win
    if (poly.is_linear() and poly.constant_term() == 0
            and len(poly.variables) == 3 and bound <= 2 ** 25):
        per_spec, total = _census3_linear(
            poly.linear_coefficients(), specs, bound, N
        )
        return [ProfileCensus(counts, total, p)
                for counts, p in zip(per_spec, params)]
    per_spec = [{} for _ in specs]
    tables = [_color_lookup(s, bound) for s in specs]
    total = 0
    for assignment in enumerate_solutions(eq, bound):
        total += 1
        profile = None
        for table, counts in zip(tables, per_spec):
            if _common_color(table, assignment) is None:
                continue
            if profile is None:
                profile = asymptotic_profile(assignment, N)
            partition, valid = profile
            if valid:
                counts[partition] = counts.get(partition, 0) + 1
    return [ProfileCensus(counts, total, p)
            for counts, p in zip(per_spec, params)]


# vectorized census for 3-variable linear homogeneous equations -------------


def _lt_zero(cond: tuple[int, int], lo: int, hi: int) -> tuple[int, int]:
    """Integer subinterval of [lo, hi) where alpha*i + beta < 0."""
    alpha, beta = cond
    if alpha == 0:
        return (lo, hi) if beta < 0 else (lo, lo)
    if alpha > 0:
        return lo, min(hi, _ceil_div(-beta, alpha))
    return max(lo, (-beta) // alpha + 1), hi


def _ge_zero(cond: tuple[int, int], lo: int, hi: int) -> tuple[int, int]:
    """Integer subinterval of [lo, hi) where alpha*i + beta >= 0."""
    alpha, beta = cond
    if alpha == 0:
        return (lo, hi) if beta >= 0 else (lo, lo)
    if alpha > 0:
        return max(lo, _ceil_div(-beta, alpha)), hi
    return lo, min(hi, (-beta) // alpha + 1)


def _valid_pieces(items: list[tuple[int, int, int]], count: int,
                  N: int) -> list[tuple[int, int, int]]:
    """Exact decomposition of the index range into valid-profile pieces.

    items: three (slope, intercept, variable slot) affine values over the
    index i in [0, count).  Returns disjoint (start, stop, code) covering
    exactly the indices whose triple has a valid profile; code encodes the
    ordered partition of the slots (class(slot0)*9 + class(slot1)*3 +
    class(slot2)).

    Every profile condition is affine in i once the value ordering is fixed,
    so after splitting at the pairwise value crossings, each greedy-grouping
    case contributes one exactly-solved subinterval.
    """
    bounds = {0, count}
    for (s1, b1, _), (s2, b2, _) in itertools.combinations(items, 2):
        alpha, beta = s1 - s2, b1 - b2
        if alpha:
            f = (-beta) // alpha
            for c in (f, f + 1):
                if 0 < c < count:
                    bounds.add(c)
    pieces = []
    cuts = sorted(bounds)
    for a, b in zip(cuts, cuts[1:]):
        order = sorted(items, key=lambda it: (-(it[1] + it[0] * a), it[2]))
        (sh, bh, slot_h), (sm, bm, slot_m), (sl, bl, slot_l) = order
        hi_mid = (N * sh - (N + 1) * sm, N * bh - (N + 1) * bm)
        mid_lo = (N * sm - (N + 1) * sl, N * bm - (N + 1) * bl)
        hi_lo = (N * sh - (N + 1) * sl, N * bh - (N + 1) * bl)
        sep_hm = (N * sm - sh, N * bm - bh)
        sep_ml = (N * sl - sm, N * bl - bm)

        def emit(interval, classes):
            lo_, hi_ = interval
            if lo_ < hi_:
                cls = [0, 0, 0]
                cls[slot_h], cls[slot_m], cls[slot_l] = classes
                pieces.append((lo_, hi_, cls[0] * 9 + cls[1] * 3 + cls[2]))

        # one class: extremes within the ratio bound (forces the rest)
        emit(_lt_zero(hi_lo, a, b), (0, 0, 0))
        # two classes {hi, mid} >> {lo}
        span = _lt_zero(hi_mid, a, b)
        span = _ge_zero(hi_lo, *span)
        emit(_lt_zero(sep_ml, *span), (0, 0, 1))
        # two classes {hi} >> {mid, lo}
        span = _ge_zero(hi_mid, a, b)
        span = _lt_zero(mid_lo, *span)
        emit(_lt_zero(sep_hm, *span), (0, 1, 1))
        # three classes
        span = _ge_zero(hi_mid, a, b)
        span = _ge_zero(mid_lo, *span)
        span = _lt_zero(sep_hm, *span)
        emit(_lt_zero(sep_ml, *span), (0, 1, 2))
    return pieces


def _build_code_partitions() -> dict[int, OrderedPartition]:
    out = {}
    for ra in range(3):
        for rb in range(3):
            for rc in range(3):
                ranks = (ra, rb, rc)
                used = set(ranks)
                if sorted(used) != list(range(len(used))):
                    continue
                classes = tuple(
                    frozenset(i for i in range(3) if ranks[i] == lvl)
                    for lvl in range(len(used))
                )
                out[ra * 9 + rb * 3 + rc] = OrderedPartition(classes)
    return out


_CODE_PARTITIONS = _build_code_partitions()


def _census3_linear(coeffs: list[int], specs: Sequence[ColoringSpec],
                    bound: int, N: int) -> tuple[list, int]:
    """Censuses for c0*x0 + c1*x1 + c2*x2 = 0 without materializing the
    solution list.

    For each value u of the first free variable, the second free variable
    runs over the exact arithmetic progression of `_progression`
    (divisibility and the range of the solved variable settled in closed
    form), and the solved variable over the matching progression.
    Candidates that could never carry a valid profile are discarded by a
    sound value-only filter (a valid profile needs the extremes of the
    triple either within the 1/N ratio bound or separated by a factor N),
    profiles are classified once, and only then is each coloring compared
    on the small remainder.
    """
    import numpy as np

    solve = max(range(3), key=lambda i: (abs(coeffs[i]) == 1, i))
    free = [i for i in range(3) if i != solve]
    cu, cv, cs = coeffs[free[0]], coeffs[free[1]], coeffs[solve]
    colors2d = np.stack([s.color_array(bound) for s in specs])
    counts = np.zeros((len(specs), 27), dtype=np.int64)
    total = 0
    for u in range(1, bound + 1):
        vs = _progression(-cv, -cu * u, cs, 1, bound, bound)
        if not vs:
            continue
        v_first, count, vstep = vs.start, len(vs), vs.step
        wstep = -cv * vstep // cs
        total += count
        w_first = (-(cu * u) - cv * v_first) // cs
        items = [(0, u, free[0]), (vstep, v_first, free[1]),
                 (wstep, w_first, solve)]
        pieces = _valid_pieces(items, count, N)
        if not pieces:
            continue
        colors_u = colors2d[:, u][:, None]
        for a, b, code in pieces:
            length = b - a
            vs = v_first + vstep * a
            ws = w_first + wstep * a
            v_sl = colors2d[:, vs:vs + vstep * length:vstep]
            w_stop = ws + wstep * length
            w_sl = colors2d[:, ws:(w_stop if w_stop >= 0 else None):wstep]
            mono = (v_sl == colors_u) & (w_sl == colors_u)
            counts[:, code] += mono.sum(axis=1)
    per_spec = []
    for acc in counts:
        per_spec.append({
            _CODE_PARTITIONS[code]: int(n)
            for code, n in enumerate(acc) if n
        })
    return per_spec, total


# ---------------------------------------------------------------------------
# standard-head census and witness search


@dataclass
class HeadCensus:
    base: int
    bin_count: int
    bins: list[int]
    total_coordinates: int
    mass_near_one: float
    mass_near_base: float
    params: dict


def head_census(eq: Equation, spec: ColoringSpec, bound: int, base: int,
                bin_count: int = 16) -> HeadCensus:
    """Histogram over [1, base) of the standard heads of every coordinate of
    every monochromatic solution; the edge bins flag mass near 1 and near
    the base."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if bin_count < 1:
        raise ValueError("bin count must be positive")
    bins = [0] * bin_count
    bin_of: dict[int, int] = {}  # per value, filled on first sight
    total = 0
    for assignment, _ in iter_monochromatic(eq, spec, bound):
        for x in assignment:
            b = bin_of.get(x)
            if b is None:
                # head h = x / scale in [1, base) goes to bin
                # floor((h - 1) * bin_count / (base - 1)) < bin_count
                scale = base ** _int_log(x, base)
                b = bin_of[x] = (x - scale) * bin_count // ((base - 1) * scale)
            bins[b] += 1
        total += len(assignment)
    near_one = bins[0] / total if total else 0.0
    near_base = bins[-1] / total if total else 0.0
    return HeadCensus(base, bin_count, bins, total, near_one, near_base,
                      {"bound": bound, "coloring": spec.spec_string(),
                       "base": base, "bins": bin_count})


def witness_search(eq: Equation, family: Sequence[ColoringSpec],
                   bound: int) -> list[ColoringSpec]:
    """Colorings from the family with no monochromatic solution up to the
    bound.  A witness is empirical evidence against partition regularity,
    never a proof.

    One pass over the solutions serves the whole family; it stops once
    every coloring has a monochromatic solution.  Witnesses come back in
    family order."""
    pending = list(range(len(family)))
    if pending:
        tables = [_color_lookup(s, bound) for s in family]
        for assignment in enumerate_solutions(eq, bound):
            pending = [i for i in pending
                       if _common_color(tables[i], assignment) is None]
            if not pending:
                break
    return [family[i] for i in pending]
