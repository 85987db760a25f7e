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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import univariate
from .model import Equation, Polynomial, ZeroPolynomialError
from .results import OrderedPartition

if TYPE_CHECKING:
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

    def color_array(self, bound: int) -> np.ndarray:
        """Colors of 0..bound in the smallest unsigned dtype that holds every
        color (index 0 is padding)."""
        import numpy as np

        dtype = np.min_scalar_type(self.num_colors() - 1)
        if self.kind == "mod":
            return (np.arange(bound + 1, dtype=np.int64) % self.params[0]).astype(dtype)
        if self.kind == "logband":
            p, r = self.params
            out = np.zeros(bound + 1, dtype=dtype)
            level, lo = 0, 1
            while lo <= bound:
                hi = min(bound + 1, lo * p)
                out[lo:hi] = level % r
                level, lo = level + 1, lo * p
            return out
        out = np.zeros(bound + 1, dtype=dtype)
        for x in range(1, bound + 1):
            out[x] = self.color(x)
        return out


def _int_log(x: int, p: int) -> int:
    count = 0
    while x >= p:
        x //= p
        count += 1
    return count


def color(spec: ColoringSpec, x: int) -> int:
    return spec.color(x)


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


def _modular_first(alpha: int, beta: int, d: int) -> Optional[tuple[int, int]]:
    """Smallest t >= 1 with alpha*t + beta == 0 (mod d), plus the step;
    None when unsolvable."""
    d = abs(d)
    if d == 1:
        return 1, 1
    g = gcd(alpha, d)
    if beta % g:
        return None
    step = d // g
    if step == 1:
        return 1, 1
    inv = pow((alpha // g) % step, -1, step)
    r = (-(beta // g) * inv) % step
    return (r if r >= 1 else step), step


def _affine_candidates(alpha: int, beta: int, den: int, lo: int, hi: int,
                       bound: int) -> Iterator[tuple[int, int]]:
    """Yield (t, q) with q = (alpha*t + beta)/den an integer in [lo, hi] and
    t in [1, bound], exactly."""
    if alpha == 0:
        if beta % den == 0 and lo <= beta // den <= hi:
            q = beta // den
            for t in range(1, bound + 1):
                yield t, q
        return
    # den*lo <= alpha*t + beta <= den*hi, orientation by sign of den
    lo_n, hi_n = (den * lo, den * hi) if den > 0 else (den * hi, den * lo)
    # solve lo_n - beta <= alpha*t <= hi_n - beta
    if alpha > 0:
        t_lo = -((-(lo_n - beta)) // alpha)        # ceil
        t_hi = (hi_n - beta) // alpha              # floor
    else:
        t_lo = -((-(hi_n - beta)) // alpha)
        t_hi = (lo_n - beta) // alpha
    t_lo, t_hi = max(t_lo, 1), min(t_hi, bound)
    if t_lo > t_hi:
        return
    first_step = _modular_first(alpha, beta, den)
    if first_step is None:
        return
    first, step = first_step
    if first < t_lo:
        first += ((t_lo - first + step - 1) // step) * step
    for t in range(first, t_hi + 1, step):
        yield t, (alpha * t + beta) // den


def enumerate_solutions(eq: Equation, bound: int) -> Iterator[tuple[int, ...]]:
    """All solutions with every coordinate in [1, bound]; complete and
    duplicate-free.

    A variable occurring in exactly one monomial is solved for exactly
    (divisibility, range and integer-root table checks); the grid runs over
    the remaining variables, with the innermost loop reduced to an exact
    arithmetic-progression walk when the solved value is affine in it.
    Without such a variable the full grid is scanned, pruning the innermost
    variable beyond its real-root bound.
    """
    poly = eq.poly
    if poly.is_zero():
        raise ZeroPolynomialError("the zero polynomial is satisfied everywhere")
    if bound < 1 or not poly.variables:
        return
    names = poly.variables
    n = len(names)
    iso = _pick_isolated(poly)

    if iso is not None:
        yield from _enumerate_isolated(poly, bound, iso)
        return

    # full grid, innermost variable scanned up to its root bound
    outer = list(range(n - 1))
    inner = n - 1
    for point in itertools.product(range(1, bound + 1), repeat=len(outer)):
        inner_poly = _restrict_to_last(poly, point, inner)
        if not inner_poly:
            for t in range(1, bound + 1):
                yield (*point, t)
            continue
        cap = min(bound, univariate.cauchy_bound(inner_poly))
        for t in range(1, cap + 1):
            if univariate.evaluate(inner_poly, t) == 0:
                yield (*point, t)


def _restrict_to_last(poly: Polynomial, point: tuple[int, ...], inner: int) -> list[int]:
    """Coefficients of poly as a univariate polynomial in variable `inner`,
    the other variables fixed to `point` (by variable order)."""
    coeffs: dict[int, int] = {}
    for m in poly.monomials:
        value = m.coeff
        e_inner = 0
        for v, e in m.exponents:
            if v == inner:
                e_inner = e
            else:
                value *= point[v] ** e
        coeffs[e_inner] = coeffs.get(e_inner, 0) + value
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return univariate.normalize(out)


def _enumerate_isolated(poly: Polynomial, bound: int,
                        iso: tuple[int, int, int]) -> Iterator[tuple[int, ...]]:
    sv, se, smono = iso
    n = len(poly.variables)
    others = [v for v in range(n) if v != sv]
    rest = [m for i, m in enumerate(poly.monomials) if i != smono]
    mono = poly.monomials[smono]
    mono_others = [(v, e) for v, e in mono.exponents if v != sv]
    power_table: dict[int, int] = {}
    if se > 1:
        power_table = {t ** se: t for t in range(1, bound + 1)}

    def solved_value(q: int) -> Optional[int]:
        if se == 1:
            return q if 1 <= q <= bound else None
        return power_table.get(q) if q >= 1 else None

    if not others:
        num = -sum(m.coeff for m in rest) if rest else 0
        den = mono.coeff
        if num % den == 0:
            v = solved_value(num // den)
            if v is not None:
                yield (v,)
        return

    inner = others[-1]
    prefix_vars = others[:-1]
    den_has_inner = any(v == inner for v, _ in mono_others)
    hi_q = bound if se == 1 else bound ** se

    for point in itertools.product(range(1, bound + 1), repeat=len(prefix_vars)):
        values = {v: val for v, val in zip(prefix_vars, point)}
        den_const = mono.coeff
        for v, e in mono_others:
            if v != inner:
                den_const *= values[v] ** e
        # -rest as a polynomial in the inner variable
        num_coeffs: dict[int, int] = {}
        for m in rest:
            value = -m.coeff
            e_inner = 0
            for v, e in m.exponents:
                if v == inner:
                    e_inner = e
                else:
                    value *= values[v] ** e
            num_coeffs[e_inner] = num_coeffs.get(e_inner, 0) + value
        num = univariate.normalize(
            [num_coeffs.get(i, 0) for i in range(max(num_coeffs, default=0) + 1)]
        )

        def build(t: int, v: int) -> tuple[int, ...]:
            values[inner] = t
            values[sv] = v
            return tuple(values[i] for i in range(n))

        if not den_has_inner and len(num) <= 2:
            alpha = num[1] if len(num) == 2 else 0
            beta = num[0] if num else 0
            for t, q in _affine_candidates(alpha, beta, den_const, 1, hi_q, bound):
                v = solved_value(q)
                if v is not None:
                    yield build(t, v)
            continue

        inner_exp = next((e for w, e in mono_others if w == inner), 0)
        for t in range(1, bound + 1):
            den = den_const * t ** inner_exp if den_has_inner else den_const
            q_num = univariate.evaluate(num, t)
            if q_num % den:
                continue
            v = solved_value(q_num // den)
            if v is not None:
                yield build(t, v)


# ---------------------------------------------------------------------------
# monochromatic records and censuses


@dataclass
class SolutionRecord:
    assignment: tuple[int, ...]
    color: int
    profile: Optional[tuple[OrderedPartition, int, bool]] = None
    heads: dict[int, Fraction] = field(default_factory=dict)


def iter_monochromatic(eq: Equation, spec: ColoringSpec,
                       bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    for assignment in enumerate_solutions(eq, bound):
        c = spec.color(assignment[0])
        if all(spec.color(x) == c for x in assignment[1:]):
            yield assignment, c


def iter_records(eq: Equation, spec: ColoringSpec, bound: int,
                 N: Optional[int] = None,
                 bases: Sequence[int] = ()) -> Iterator[SolutionRecord]:
    """Monochromatic solutions annotated with profiles and standard heads."""
    for assignment, c in iter_monochromatic(eq, spec, bound):
        profile = None
        if N is not None:
            partition, valid = asymptotic_profile(assignment, N)
            profile = (partition, N, valid)
        heads = {
            p: [standard_head(x, p) for x in assignment] for p in bases
        }
        yield SolutionRecord(assignment, c, profile,
                             {p: hs for p, hs in heads.items()})


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
    """Censuses for several colorings in one pass.

    Solution candidates and their profiles do not depend on the coloring, so
    3-variable linear equations share that work across the family and only
    the color comparison runs per coloring.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    poly = eq.poly
    params = [{"bound": bound, "N": N, "coloring": s.spec_string()}
              for s in specs]
    # the closed-form path needs one color array per coloring; past ~10^7
    # entries the memory cost stops being a clear win
    if (poly.is_linear() and poly.constant_term() == 0
            and len(poly.variables) == 3 and bound <= 2 ** 25 and specs):
        per_spec, total = _census3_linear(
            poly.linear_coefficients(), specs, bound, N
        )
        return [ProfileCensus(counts, total, p)
                for counts, p in zip(per_spec, params)]
    out = []
    for spec, p in zip(specs, params):
        counts: dict[OrderedPartition, int] = {}
        total = 0
        for assignment in enumerate_solutions(eq, bound):
            total += 1
            c = spec.color(assignment[0])
            if any(spec.color(x) != c for x in assignment[1:]):
                continue
            partition, valid = asymptotic_profile(assignment, N)
            if valid:
                counts[partition] = counts.get(partition, 0) + 1
        out.append(ProfileCensus(counts, total, p))
    return out


# vectorized census for 3-variable linear homogeneous equations -------------


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


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

        def clip(interval, cond, test):
            lo_, hi_ = interval
            if lo_ >= hi_:
                return lo_, lo_
            lo2, hi2 = test(cond, lo_, hi_)
            return lo2, hi2

        def emit(interval, classes):
            lo_, hi_ = interval
            if lo_ < hi_:
                cls = [0, 0, 0]
                cls[slot_h], cls[slot_m], cls[slot_l] = classes
                pieces.append((lo_, hi_, cls[0] * 9 + cls[1] * 3 + cls[2]))

        # one class: extremes within the ratio bound (forces the rest)
        emit(clip((a, b), hi_lo, _lt_zero), (0, 0, 0))
        # two classes {hi, mid} >> {lo}
        span = clip((a, b), hi_mid, _lt_zero)
        span = clip(span, hi_lo, _ge_zero)
        emit(clip(span, sep_ml, _lt_zero), (0, 0, 1))
        # two classes {hi} >> {mid, lo}
        span = clip((a, b), hi_mid, _ge_zero)
        span = clip(span, mid_lo, _lt_zero)
        emit(clip(span, sep_hm, _lt_zero), (0, 1, 1))
        # three classes
        span = clip((a, b), hi_mid, _ge_zero)
        span = clip(span, mid_lo, _ge_zero)
        span = clip(span, sep_hm, _lt_zero)
        emit(clip(span, sep_ml, _lt_zero), (0, 1, 2))
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
    runs over an exact arithmetic progression (divisibility and the range of
    the solved variable settled in closed form).  Candidates that could
    never carry a valid profile are discarded by a sound value-only filter
    (a valid profile needs the extremes of the triple either within the 1/N
    ratio bound or separated by a factor N), profiles are classified once,
    and only then is each coloring compared on the small remainder.
    """
    import numpy as np

    solve = max(range(3), key=lambda i: (abs(coeffs[i]) == 1, i))
    free = [i for i in range(3) if i != solve]
    cu, cv, cs = coeffs[free[0]], coeffs[free[1]], coeffs[solve]
    colors2d = np.stack([s.color_array(bound) for s in specs])
    counts = np.zeros((len(specs), 27), dtype=np.int64)
    total = 0
    for u in range(1, bound + 1):
        first_step = _modular_first(cv, cu * u, cs)
        if first_step is None:
            continue
        v0, vstep = first_step
        span = _affine_candidates_range(-cv, -cu * u, cs, 1, bound, bound,
                                        v0, vstep)
        if not span:
            continue
        v_first, count, wstep = span
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


def _affine_candidates_range(alpha: int, beta: int, den: int, lo: int, hi: int,
                             bound: int, first: int, step: int):
    """(first v, count, per-step increment of q) for q = (alpha*v + beta)/den
    over v in the arithmetic progression, constrained to q in [lo, hi] and
    v in [1, bound].  Empty tuple when no candidate exists."""
    if alpha == 0:
        if beta % den or not lo <= beta // den <= hi:
            return ()
        count = (bound - first) // step + 1 if first <= bound else 0
        return (first, count, 0) if count > 0 else ()
    lo_n, hi_n = (den * lo, den * hi) if den > 0 else (den * hi, den * lo)
    if alpha > 0:
        v_lo = -((-(lo_n - beta)) // alpha)
        v_hi = (hi_n - beta) // alpha
    else:
        v_lo = -((-(hi_n - beta)) // alpha)
        v_hi = (lo_n - beta) // alpha
    v_lo, v_hi = max(v_lo, 1), min(v_hi, bound)
    if first < v_lo:
        first += ((v_lo - first + step - 1) // step) * step
    if first > v_hi:
        return ()
    count = (v_hi - first) // step + 1
    qstep = alpha * step // den
    return (first, count, qstep)


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
    total = 0
    for assignment, _ in iter_monochromatic(eq, spec, bound):
        for x in assignment:
            h = standard_head(x, base)
            idx = int((h - 1) * bin_count / (base - 1))
            bins[min(idx, bin_count - 1)] += 1
            total += 1
    near_one = bins[0] / total if total else 0.0
    near_base = bins[-1] / total if total else 0.0
    return HeadCensus(base, bin_count, bins, total, near_one, near_base,
                      {"bound": bound, "coloring": spec.spec_string(),
                       "base": base, "bins": bin_count})


def witness_search(eq: Equation, family: Sequence[ColoringSpec],
                   bound: int) -> list[ColoringSpec]:
    """Colorings from the family with no monochromatic solution up to the
    bound.  A witness is empirical evidence against partition regularity,
    never a proof."""
    witnesses = []
    for spec in family:
        if next(iter_monochromatic(eq, spec, bound), None) is None:
            witnesses.append(spec)
    return witnesses
