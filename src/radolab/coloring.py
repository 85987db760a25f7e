"""Empirical engine: solution enumeration under a bound, concrete colorings,
asymptotic profiles of solution tuples, and standard-head statistics.

A profile is extracted from a tuple by greedy descending grouping: repeatedly
take the largest unassigned value a and group with it every unassigned value
b with |a/b - 1| < 1/N (all comparisons exact integer arithmetic).  The
profile is valid when, in addition, every within-class pair meets the ratio
bound and every cross-class pair (i earlier, j later) satisfies N*a_j < a_i.
The classes are runs of the descending order, so one pass over it groups the
values and decides validity at the class cuts alone (`_profile`).
Only valid profiles of monochromatic solutions enter a census.

Every search walks the solutions with one walker, `_walk`: one loop over
the grid of prefix values for every shape of equation, with an inner step
chosen once per walk (an isolated variable solved for exactly, or the
integer roots of the innermost variable).  The step's restriction to the
innermost variable is split by monomial once per walk (`_restrictor`), so a
prefix point costs only its monomials' products.  Given a coloring's table it
skips each prefix whose values do not share a color and builds a tuple only
for a monochromatic solution.  The solutions stream (`iter_monochromatic`),
witness searches and the profile census of every equation but a linear
homogeneous one run it once per coloring; `enumerate_solutions` runs it
without a table.  A head census runs the array walk (`_array_walk`) instead
when the solved variable has exponent 1 and its value is affine or
quadratic in the inner one, and int64 holds every intermediate at the
bound: a block of prefix points at a time, each row's inner values and
solved values come as int64 arrays, from the row's progression or from its
exact quadratic windows, and a color array filters them.  A linear
homogeneous equation in three or more variables is censused in closed form:
one piece table splits every inner progression of a block of prefix
points, computed as the array walk computes them (`_progressions`), into
valid-profile pieces (`_piece_sweep`), and one kernel per coloring counts
their monochromatic terms: in closed form for mod, logband and digit, and
for random as popcounts of packed bits of its color table, or by slicing
the table when the packed copies would pass a byte budget.
Searches take bounds up to `BOUND_CAP`, past which a color table no longer
fits in reasonable memory.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from . import univariate
from .errors import CapExceededError
from .model import Equation, Polynomial, ZeroPolynomialError
from .results import OrderedPartition

if TYPE_CHECKING:
    from array import array

    import numpy as np


# ---------------------------------------------------------------------------
# colorings


# the largest bound a coloring search takes: its color table holds bound + 1
# entries, and the linear census's int64 arithmetic is exact up to it
BOUND_CAP = 2 ** 25


# entries of the largest temporary array `ColoringSpec._table` builds
_CHUNK = 2 ** 16


def _check_bound(bound: int) -> None:
    """Raise `CapExceededError` when the bound exceeds `BOUND_CAP`."""
    if bound > BOUND_CAP:
        raise CapExceededError(
            BOUND_CAP, f"bound {bound} exceeds the cap ({BOUND_CAP})")


def integer(text: str) -> int:
    """`int(text)` for `[+-]?[0-9]+` in ASCII only: `int` also takes "_",
    spaces and non-ASCII digits.  The type of the CLI's integer options."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


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
            # the seed's decimal form keys blake2b, which takes 64 bytes
            if len(str(p[0])) > 64:
                raise ValueError(
                    f"random coloring {self.spec_string()}: the seed's "
                    f"decimal form is longer than 64 bytes, the blake2b key "
                    f"limit")
        else:
            raise ValueError(f"unknown coloring kind {kind!r}")

    @staticmethod
    def parse(text: str) -> "ColoringSpec":
        """Colon-delimited literals: mod:5, digit:10, logband:2:3,
        random:seed:colors."""
        kind, *fields = text.split(":")
        try:
            params = tuple(map(integer, fields))
        except ValueError as exc:
            raise ValueError(f"bad coloring spec {text!r}: {exc}") from None
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
        return _random_color(*self.params)(x)

    def _table(self, bound: int) -> array:
        """Colors of 0..bound (index 0 is padding) in the smallest unsigned
        typecode that holds every color: the one per-kind builder."""
        from array import array  # not loaded by import radolab

        _check_bound(bound)
        kind, p = self.kind, self.params
        # mod, digit and logband colors never exceed x; a random color is
        # reduced from an 8-byte digest
        top = p[0] - 1 if kind == "digit" else self.num_colors() - 1
        top = min(top, 2 ** 64 - 1 if kind == "random" else bound)
        code = next(c for c in "BHIQ" if top < 1 << 8 * array(c).itemsize)
        if kind == "mod":
            # x % m == x for x <= bound < m, and m may not fit in 64 bits.
            # The table is allocated at its final length and filled in
            # place: the first period in chunks, the rest by doubling the
            # filled prefix
            m = min(p[0], bound + 1)
            out = array(code, [0]) * (bound + 1)
            with memoryview(out) as view:
                for lo in range(0, m, _CHUNK):
                    hi = min(lo + _CHUNK, m)
                    view[lo:hi] = array(code, range(lo, hi))
                filled = m
                while filled <= bound:
                    size = min(filled, bound + 1 - filled)
                    view[filled:filled + size] = view[:size]
                    filled += size
            return out
        out = array(code, [0])
        if kind == "random":
            out.extend(map(_random_color(*p), range(1, bound + 1)))
            return out
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


@functools.lru_cache(maxsize=64)
def _random_color(seed: int, colors: int):
    """A random coloring's color of x >= 1: the 8-byte blake2b digest of
    x's little-endian bytes, keyed by the seed's decimal form, mod colors.
    Each value hashes a copy of one keyed state, which skips hashing the
    key block again; `ColoringSpec.color` and `_table` both hash here."""
    import hashlib  # not loaded by import radolab

    copy = hashlib.blake2b(digest_size=8, key=str(seed).encode()).copy

    def color(x: int) -> int:
        h = copy()
        h.update(x.to_bytes((x.bit_length() + 7) // 8 or 1, "little"))
        return int.from_bytes(h.digest(), "little") % colors

    return color


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
    _check_bound(bound)
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
    ranks, valid = _profile(values, N)
    return _partition(ranks), valid


def _profile(values: Sequence[int], N: int, valid_only: bool = False
             ) -> tuple[tuple[int, ...] | None, bool]:
    """The greedy profile as ranks (ranks[i] is position i's class, 0 the
    top) and its validity, from one descending order.

    Walk the values in descending order.  A value v joins the open class,
    anchored at its first value, iff N*(anchor - v) < v, and this test only
    gets harder further down, so the greedy classes are runs of that order
    and equal values share a class.

    Every within-class pair meets the ratio bound by construction.  The
    cross-class condition N*a_j < a_i holds for all pairs iff it holds at
    each cut, between the last value of one class and the first of the
    next: min(C_t) > N*max(C_{t+1}) >= N*min(C_{t+1}) > N^2*max(C_{t+2}).
    `_piece_sweep` applies this rule, with the within-class bound of each
    run, to affine values.

    With `valid_only` an invalid profile returns (None, False) at its first
    failing cut, before any ranks are built.  A census keeps only valid
    profiles, and at N = 10 most walked tuples have none (61-89% of the
    monochromatic solutions of x*y = z, x^2 - y^2 = z and x + y = z + 1
    below 1000-2000), where stopping cuts the cost per tuple by 30-45%
    (BENCH_25.json `profile_early_exit`).
    """
    ordered = sorted(values, reverse=True)
    rank_of = {}
    rank = 0
    valid = True
    anchor = last = ordered[0] if ordered else 0
    for v in ordered:
        if N * (anchor - v) >= v:
            if N * v >= last:
                if valid_only:
                    return None, False
                valid = False
            rank += 1
            anchor = v
        rank_of[v] = rank
        last = v
    return tuple(map(rank_of.__getitem__, values)), valid


def _classes(ranks: Sequence[int]) -> list[list[int]]:
    """Class r's positions, ascending, for each rank r from 0."""
    classes: list[list[int]] = [[] for _ in range(max(ranks, default=-1) + 1)]
    for i, r in enumerate(ranks):
        classes[r].append(i)
    return classes


def _partition(ranks: Sequence[int]) -> OrderedPartition:
    """The ordered partition whose class r holds the positions of rank r."""
    return OrderedPartition(tuple(map(frozenset, _classes(ranks))))


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
    (divisibility, range and integer-root checks, by table up to `_POWERS`
    values and by exact roots past it).  The grid runs over
    the other variables but the innermost, which walks the exact arithmetic
    progression of `_progression` (whose terms `_progressions` computes as
    int64 arrays for the array walk and the linear census) when the solved
    value is affine in it, and
    otherwise only the exact integer windows on which the solved value lies
    in its range.
    Without such a variable, and in a one-variable equation, the innermost
    variable walks the exact integer roots of its restriction.  Solutions
    come out in lexicographic order of the grid point, then of the innermost
    variable.  This is `_walk` without a color table; the coloring searches
    run the same walk with one, in the same order.
    """
    yield from _walk(eq.poly, bound)


def _walk(poly: Polynomial, bound: int, table=None,
          tally: Optional[list[int]] = None) -> Iterator[tuple[int, ...]]:
    """The solution walker: every solution with coordinates in [1, bound],
    or with a color table from `_color_lookup` only the monochromatic ones.
    `tally`, a one-item list, gains the number of all solutions.

    One loop serves every shape: the prefix variables run over the grid, and
    the step `_inner_step` chose gives each point's (inner, solved) pairs.
    With a table a prefix whose values do not share a color is skipped, as
    no completion of it is monochromatic; a counting walk still takes its
    step for the tally, which the affine step gives in closed form.  An
    inner value's color is tested before the equation is evaluated there,
    the solved value's next, and only then is a tuple built.
    """
    if poly.is_zero():
        raise ZeroPolynomialError("the zero polynomial is satisfied everywhere")
    if bound < 1 or not poly.variables:
        return
    prefix, inner, solved, step = _inner_step(poly, bound)
    values = [0] * len(poly.variables)
    for point in _grid(bound, len(prefix)):
        c, mixed = None, False
        if table is not None and point:
            c = table[point[0]]
            for x in point[1:]:
                if table[x] != c:
                    mixed = True
                    break
            if mixed and tally is None:
                continue
        for v, x in zip(prefix, point):
            values[v] = x
        pairs, solve, count = step(values)
        if solve is not None:
            if c is not None and tally is None:
                # the inner value's color first, before evaluating there
                pairs = (t for t in pairs if table[t] == c)
            pairs = solve(pairs)
        if tally is not None:
            if count is None:
                pairs = list(pairs)
                count = len(pairs)
            tally[0] += count
        if mixed:
            continue
        if table is None:
            for t, s in pairs:
                values[inner] = t
                values[solved] = s
                yield tuple(values)
        elif c is None:
            # no prefix: the inner value sets the color
            for t, s in pairs:
                if table[t] == table[s]:
                    values[inner] = t
                    values[solved] = s
                    yield tuple(values)
        else:
            for t, s in pairs:
                if table[t] == c and table[s] == c:
                    values[inner] = t
                    values[solved] = s
                    yield tuple(values)


def _grid(bound: int, k: int) -> Iterator[tuple[int, ...]]:
    """The points of [1, bound]^k in lexicographic order.  Unlike
    `itertools.product`, it never copies the range into a tuple; the first
    k - 1 coordinates advance as an odometer over one list, so no frame is
    held per coordinate."""
    if not k:
        yield ()
        return
    if bound < 1:
        return
    head = [1] * (k - 1)
    xs = range(1, bound + 1)
    while True:
        point = tuple(head)
        for x in xs:
            yield (*point, x)
        i = k - 2
        while i >= 0 and head[i] == bound:
            head[i] = 1
            i -= 1
        if i < 0:
            return
        head[i] += 1


def _inner_step(poly: Polynomial, bound: int):
    """The walk's prefix variables, inner and solved variable, and the step
    for the shape of the equation, chosen once per walk.

    The step maps a prefix point's values to (pairs, solve, count): without
    `solve`, the (inner, solved) pairs and their number if known in closed
    form, else None; with it, the inner values to try, ascending, which
    `solve` turns into pairs by evaluating the equation at each.  An
    isolated variable (`_pick_isolated`) of an equation in two or more
    variables is solved for over the last other variable.  Otherwise the
    last variable is both inner and solved: it walks the integer roots of
    its restriction p, where p >= 0 and -p >= 0, below
    `positive_root_bound`, with pairs (t, t).  The restriction and the
    solved monomial's other factors are split out here, once per walk.
    """
    n = len(poly.variables)
    iso = _pick_isolated(poly) if n > 1 else None
    if iso is None:
        inner = n - 1
        budget = _window_budget(poly.monomials, inner, bound)
        restrict = _restrictor(poly.monomials, inner, 1)

        def roots(values):
            p = restrict(values)
            walk = range(1, bound + 1)
            if p:
                cap = min(bound, univariate.positive_root_bound(p))
                walk = range(1, cap + 1)
                if cap > budget:
                    walk = _windows_walk([p, [-a for a in p]], cap, budget)
            return walk, lambda walk: (
                (t, t) for t in walk if univariate.evaluate(p, t) == 0), None

        return list(range(n - 1)), inner, inner, roots

    sv, se, smono = iso
    others = [v for v in range(n) if v != sv]
    inner = others[-1]
    rest = [m for i, m in enumerate(poly.monomials) if i != smono]
    mono = poly.monomials[smono]
    mono_others = [(v, e) for v, e in mono.exponents if v != sv]
    den_factors = [(v, e) for v, e in mono_others if v != inner]
    # the solved variable takes the value v where its power q = v^se lies in
    # `powers`: v = q when se == 1, else v = powers[q]
    powers = (range(1, bound + 1) if se == 1
              else {t ** se: t for t in range(1, bound + 1)}
              if bound <= _POWERS else _Powers(se, bound))
    # the inner variable's exponent in the solved monomial, 0 if absent
    inner_exp = next((e for w, e in mono_others if w == inner), 0)
    hi_q = bound if se == 1 else bound ** se
    budget = _window_budget(poly.monomials, inner, bound)
    restrict = _restrictor(rest, inner, -1)

    def isolated(values):
        den_const = mono.coeff
        for v, e in den_factors:
            den_const *= values[v] ** e
        num = restrict(values)

        if not inner_exp and len(num) <= 2:
            alpha = num[1] if len(num) == 2 else 0
            beta = num[0] if num else 0
            ts = _progression(alpha, beta, den_const, 1, hi_q, bound)
            # along ts the power (alpha*t + beta)/den_const is an integer in
            # [1, hi_q] that steps by alpha*step/den_const, exactly
            qs = itertools.count((alpha * ts.start + beta) // den_const,
                                 alpha * ts.step // den_const)
            if se == 1:
                return zip(ts, qs), None, len(ts)
            return (((t, powers[q]) for t, q in zip(ts, qs) if q in powers),
                    None, None)

        walk = range(1, bound + 1)
        if bound > budget:
            # 1 <= num(t) / (den_const * t^k) <= hi_q, both sides scaled by
            # |den_const| * t^k > 0
            d = abs(den_const)
            scaled = num if den_const > 0 else [-a for a in num]
            walk = _windows_walk(
                [_plus_term(scaled, inner_exp, -d),
                 _plus_term([-a for a in scaled], inner_exp, hi_q * d)],
                bound, budget)

        def solve(walk):
            # the t for which num(t) / (den_const * t^inner_exp) is the
            # power v^se of a v in range
            for t in walk:
                den = den_const * t ** inner_exp if inner_exp else den_const
                q, r = divmod(univariate.evaluate(num, t), den)
                if not r and q in powers:
                    yield t, (q if se == 1 else powers[q])

        return walk, solve, None

    return others[:-1], inner, sv, isolated


# entries of the largest table of solved powers {v^se: v} a walk builds;
# past it each candidate power takes an exact integer root instead
_POWERS = 2 ** 16


class _Powers:
    """The powers v^se of v in [1, bound], se >= 2, as a mapping from each
    power to v, tested by exact integer roots in constant memory."""

    def __init__(self, se: int, bound: int):
        self.se, self.top = se, bound ** se

    def _root(self, q: int) -> int:
        """v if q == v^se for a v in [1, bound], else 0."""
        if not 1 <= q <= self.top:
            return 0
        # below 2^1000 the float root of v^se is within 10^-6 of v
        v = (isqrt(q) if self.se == 2
             else univariate._ceil_root(q, self.se) if q >> 1000
             else round(q ** (1 / self.se)))
        return v if v ** self.se == q else 0

    def __contains__(self, q: int) -> bool:
        return self._root(q) > 0

    def __getitem__(self, q: int) -> int:
        v = self._root(q)
        if not v:
            raise KeyError(q)
        return v


def _window_budget(monomials, inner: int, bound: int) -> int:
    """Span length below which scanning beats exact windows.

    2*(d + 1)^2*log2(bound) for a degree-d restriction to `inner`: above
    degree 2 its windows cost fewer evaluations than (d + 1)^2*log2(bound),
    and the factor 2 keeps an equation whose windows prune nothing (such as
    x^2 + y^2 = z^4, whose solved range [1, bound^4] is loose) from paying
    much extra.  Degrees 1 and 2 keep the formula, though their windows are
    closed form and cost a few evaluations: a budget of 4 to 32 there made
    the walks of x^2 - y^2 = z 15-30% faster but those of x*y^2 - 2y^2 = z
    35-50% slower (bound 500 to 2000, in-process, 2-core Xeon).  The head
    census of those shapes takes the array walk, which has no budget: its
    quadratic windows are closed form for every row (`_quadratic_runs`).
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


def _restrictor(monomials, inner: int, sign: int):
    """The sum of the monomials times sign as a univariate polynomial in
    variable `inner`: a function of values (indexed by variable) that fixes
    every other variable v to values[v] and returns the coefficients,
    trailing zeros trimmed.  The monomials are split (`_split`) once,
    here."""
    terms = _split(monomials, inner, sign)
    size = max((k for _, k, _ in terms), default=-1) + 1

    def restrict(values) -> list[int]:
        p = [0] * size
        for c, k, factors in terms:
            for v, e in factors:
                c *= values[v] ** e
            p[k] += c
        while p and not p[-1]:
            p.pop()
        return p

    return restrict


def _split(monomials, inner: int, sign: int):
    """Each monomial as (sign*coeff, exponent of variable `inner`, the
    (variable, exponent) factors of the other variables)."""
    return [(sign * m.coeff,
             next((e for v, e in m.exponents if v == inner), 0),
             [(v, e) for v, e in m.exponents if v != inner])
            for m in monomials]


def _plus_term(p: list[int], k: int, c: int) -> list[int]:
    """p(t) + c*t^k."""
    out = p + [0] * (k + 1 - len(p))
    out[k] += c
    return univariate.normalize(out)


# ---------------------------------------------------------------------------
# monochromatic solutions and censuses


def iter_monochromatic(eq: Equation, spec: ColoringSpec,
                       bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The monochromatic solutions in `enumerate_solutions` order, each with
    its color."""
    table = _color_lookup(spec, bound)
    for assignment in _walk(eq.poly, bound, table):
        yield assignment, table[assignment[0]]


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
    """Censuses for several colorings.

    Linear homogeneous equations in 3 to 512 variables with coefficients
    up to 2^20 split each inner progression into valid pieces in closed
    form, once for the whole family, and count each coloring's
    monochromatic terms with its own kernel (see `_census_linear`).  Every
    other equation takes one walk per coloring that builds only its
    monochromatic solutions (see `_walk`); the first walk also counts every
    solution.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if not specs:
        return []
    _check_bound(bound)
    poly = eq.poly
    params = [{"bound": bound, "N": N, "coloring": s.spec_string()}
              for s in specs]
    # with |c| <= 2^20, bound, N <= BOUND_CAP = 2^25 and n <= 512 variables
    # (so one row fits a piece table's `_CELLS`) the closed-form path's
    # largest int64 intermediates are the prefix sum, at most
    # (n - 2)*2^20*2^25 < 2^54, the piece table's
    # N*b + (N+1)*b' <= 2^25*2^25 + (2^25+1)*2^25 < 2^52 and the mod
    # kernel's CRT products, below (BOUND_CAP + 1)^2 < 2^51
    n = len(poly.variables)
    if (bound >= 1 and poly.is_linear() and poly.constant_term() == 0
            and 3 <= n and 4 * n * n <= _CELLS
            and max(map(abs, poly.linear_coefficients())) <= 2 ** 20):
        per_spec, total = _census_linear(
            poly.linear_coefficients(), specs, bound, N
        )
        return [ProfileCensus(counts, total, p)
                for counts, p in zip(per_spec, params)]
    per_spec = []
    tally = [0]
    for spec in specs:
        counts: dict[tuple[int, ...], int] = {}
        table = _color_lookup(spec, bound)
        for assignment in _walk(poly, bound, table,
                                None if per_spec else tally):
            ranks, valid = _profile(assignment, N, valid_only=True)
            if valid:
                counts[ranks] = counts.get(ranks, 0) + 1
        per_spec.append(counts)
    total = tally[0]
    # tallied by rank tuple; one partition per distinct profile
    return [ProfileCensus({_partition(r): n for r, n in counts.items()},
                          total, p) for counts, p in zip(per_spec, params)]


# vectorized census for linear homogeneous equations ----------------------


def _lt_zero(alpha, beta, lo, hi):
    """Row by row, the integer subinterval of [lo, hi) where
    alpha*i + beta < 0.  An empty result may have lo > hi."""
    import numpy as np

    div = np.where(alpha == 0, 1, alpha)
    # alpha > 0: i < ceil(-beta/alpha); alpha < 0: i > floor(-beta/alpha);
    # alpha == 0: every i or none, by the sign of beta
    new_lo = np.where(alpha < 0, np.maximum(lo, (-beta) // div + 1), lo)
    new_hi = np.where(alpha > 0, np.minimum(hi, -(beta // div)),
                      np.where((alpha < 0) | (beta < 0), hi, lo))
    return new_lo, new_hi


def _piece_sweep(slopes: Sequence[int], starts: np.ndarray,
                 count: np.ndarray, N: int):
    """Exact decomposition of every row's index range [0, count) into
    valid-profile pieces, all rows at once in int64.

    Row r carries one affine value slopes[j]*i + starts[j, r] over the
    index i per item j, the items in slot order; the slopes are shared by
    every row.  Returns arrays (row, lo, hi, ranks) of disjoint pieces
    [lo, hi) covering exactly the indices whose values have a valid
    profile, with ranks[p, j] the class of item j in piece p, 0 the top.

    Between the pairwise value crossings the (-value, slot) order of the
    items is fixed.  There, the profile is valid with exactly the runs of
    that order as classes iff N*first - (N+1)*last < 0 in each run and
    N*next - last < 0 at each cut, all affine in i.  One sweep down the
    sorted positions keeps the live (segment, interval, open run) entries:
    at each position an entry extends its run (near its first item) or
    cuts it (apart from the previous item).  The two exclude each other,
    so at most one entry holds each i, and empty ones are dropped.
    """
    import numpy as np

    n = len(slopes)
    # segment cuts: 0, count, and both sides of each crossing of two items
    # of different slopes; a cut outside (0, count) becomes 0 and only adds
    # an empty segment
    groups: dict[int, list[int]] = {}
    for j, s in enumerate(slopes):
        groups.setdefault(s, []).append(j)
    cuts = [np.zeros((1, len(count)), dtype=np.int64), count[None]]
    for (s, p), (t, q) in itertools.combinations(groups.items(), 2):
        f = ((starts[q][:, None] - starts[p]) // (s - t)).reshape(
            len(q) * len(p), len(count))
        cuts += [np.where((0 < f) & (f < count), f, 0),
                 np.where((0 <= f) & (f < count - 1), f + 1, 0)]
    cuts = np.concatenate(cuts).T
    cuts.sort(axis=1)
    row, seg = np.nonzero(cuts[:, :-1] < cuts[:, 1:])
    lo, hi = cuts[row, seg], cuts[row, seg + 1]
    del cuts, seg

    # the items in (-value at the segment start, slot) order: the stable
    # sort keeps equal values in slot order
    slope = np.asarray(slopes, dtype=np.int64)
    start = starts.T[row]
    order = np.argsort(-(slope * lo[:, None] + start), axis=1, kind="stable")
    sl = slope[order].T
    st = np.take_along_axis(start, order, axis=1).T
    del start

    # each condition is (alpha, beta) of alpha*i + beta < 0; `trail` keeps
    # each position's (parent entry, class) for the ranks
    seg = np.arange(len(row))
    first = np.zeros_like(seg)
    cls = np.zeros_like(seg)
    trail = []
    for pos in range(1, n):
        a, b = sl[pos][seg], st[pos][seg]
        # near: N*(first - x) < x; apart: N*x < previous
        near = _lt_zero(N * sl[first, seg] - (N + 1) * a,
                        N * st[first, seg] - (N + 1) * b, lo, hi)
        apart = _lt_zero(N * a - sl[pos - 1][seg], N * b - st[pos - 1][seg],
                         lo, hi)
        lo, hi = np.concatenate([near[0], apart[0]]), np.concatenate(
            [near[1], apart[1]])
        keep = np.flatnonzero(lo < hi)
        parent = keep % len(seg)
        first = np.concatenate([first, np.full_like(first, pos)])[keep]
        cls = np.concatenate([cls, cls + 1])[keep]
        seg, lo, hi = seg[parent], lo[keep], hi[keep]
        trail.append((parent, cls))
    ranks = np.zeros((len(seg), n), dtype=np.min_scalar_type(n))
    entry = np.arange(len(seg))
    for pos in range(n - 1, 0, -1):
        parent, cls = trail[pos - 1]
        ranks[:, pos] = cls[entry]
        entry = parent[entry]
    out = np.empty_like(ranks)
    np.put_along_axis(out, order[seg], ranks, axis=1)
    return row[seg], lo, hi, out


# prefix points per piece table.  Each block pays a fixed cost of about
# 0.3 ms (over a hundred array calls in `blocks`, `_piece_sweep`,
# `_lt_zero`, `_distinct_rows` and the kernels), and its temporaries grow
# with its pieces.  Against 1024, 4096 rows take 1.1-2.2x less CPU time
# for a raised tracemalloc peak (BENCH_25.json `block_size`, 2-core Xeon):
# x + y + z + u = v under mod:2 at bound 40, 27.6 -> 12.8 ms and
# 0.3 -> 0.7 MB; x + 2y = 3z + w under logband:2:3 at bound 300,
# 114.0 -> 88.2 ms and 1.1 -> 4.2 MB.  8192 rows save at most 24% more and
# double the peak
_BLOCK = 4096

# entries of a piece table's (segment, item) arrays per block.  A row of n
# items has at most min(4n, bound) segments, so one row fits if 4n^2 does
_CELLS = 2 ** 20


def _prefix_blocks(k: int, bound: int, rows: int) -> Iterator[np.ndarray]:
    """The points of [1, bound]^k, k >= 1, as int64 arrays of shape
    (k, r) with r <= rows.  The innermost variables whose grid fits in a
    block go whole into every block, the next one in chunks, and the outer
    ones one point at a time; no array holds a flat grid index, which can
    pass 2^63."""
    import numpy as np

    tail = np.empty((0, 1), dtype=np.int64)
    while len(tail) < k and tail.shape[1] * bound <= rows:
        tail = np.concatenate([
            np.repeat(np.arange(1, bound + 1), tail.shape[1])[None],
            np.tile(tail, bound)])
    inner, size = tail.shape
    if inner == k:
        yield tail
        return
    step = rows // size
    for head in _grid(bound, k - inner - 1):
        for lo in range(1, bound + 1, step):
            mid = np.arange(lo, min(lo + step, bound + 1))
            yield np.concatenate([
                np.broadcast_to(np.array(head, dtype=np.int64)[:, None],
                                (len(head), len(mid) * size)),
                np.repeat(mid, size)[None], np.tile(tail, len(mid))])


def _progressions(alpha, beta, den, g, step, inv, bound: int):
    """`_progression(alpha, beta, den, 1, bound, bound)` row by row in
    int64, as (first, count): the t in [1, bound] for which
    (alpha*t + beta)/den is an integer in [1, bound] are first + step*i for
    i in [0, count).  The caller gives den > 0, g = gcd(alpha, den),
    step = den/g and inv, the inverse of alpha/g mod step; each argument
    is a scalar or an int64 array, and the caller checks that
    |den|*bound + |beta| and step^2 fit in int64."""
    import numpy as np

    residue = (-(beta // g)) % step * inv % step
    # den*1 <= alpha*t + beta <= den*bound
    a, b = den - beta, den * bound - beta
    if np.any(alpha < 0):
        a, b = np.where(alpha < 0, b, a), np.where(alpha < 0, a, b)
    flat = alpha == 0
    t_lo = np.maximum(-(-a // (alpha + flat)), 1)
    t_hi = np.minimum(b // (alpha + flat), bound)
    if np.any(flat):
        # alpha == 0 takes every t or none
        t_lo = np.where(flat, 1, t_lo)
        t_hi = np.where(flat, np.where((a <= 0) & (0 <= b), bound, 0), t_hi)
    first = t_lo + (residue - t_lo) % step
    count = np.maximum((t_hi - first) // step + 1, 0)
    return first, np.where(beta % g == 0, count, 0)


def _inverse(a, m):
    """a^-1 mod m row by row, for int64 arrays with m >= 1 and
    gcd(a, m) == 1 (0 where m == 1): the extended Euclidean algorithm on
    every row at once, each remainder and coefficient below m."""
    import numpy as np

    r0, r1 = m, a % m
    s0, s1 = np.zeros_like(r0), np.ones_like(r0)
    while r1.any():
        live = r1 != 0
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)
    return s0 % m


def _linear_pieces(coeffs: list[int], bound: int, N: int):
    """The valid pieces of the solutions of c0*x0 + ... + c(n-1)*x(n-1) = 0,
    n >= 3, a block of prefix points at a time.

    One variable is solved for and one is inner; the other n - 2 are the
    prefix.  For each prefix point the inner variable runs over the exact
    arithmetic progression of `_progressions` and the solved variable over
    the matching one; both are closed-form in the prefix sum, so a block of
    points is handled with int64 array operations, and `_piece_sweep`
    splits each progression into the pieces whose profile is valid.

    Returns (vstep, wstep, blocks).  blocks(mono, tally) adds the number of
    solutions to `tally`, a one-item list, and yields per block with valid
    pieces (ranks, keep, x, v, w, n), per piece: its ranks (by variable),
    whether its prefix is monochromatic under each coloring, the first
    prefix value x, and the first values v, w and number n of its terms
    v + vstep*i, w + wstep*i for i in [0, n).  `mono` maps prefix values
    of shape (n - 2, rows) to a (rows, colorings) bool array, and rows
    with none are dropped before the piece table; with one prefix
    variable, keep is None, as a single value always shares its color.
    """
    import numpy as np

    n = len(coeffs)
    solve = max(range(n), key=lambda i: (abs(coeffs[i]) == 1, i))
    *prefix, inner = [i for i in range(n) if i != solve]
    cv, cs = coeffs[inner], coeffs[solve]
    # every coordinate lies in [1, bound], so each profile comparison
    # (N*(a - b) < b, N*b >= a) answers the same for every N >= bound
    N = min(N, bound)
    # the progressions of a block of prefix points: only beta depends on
    # them, so alpha, den, the gcd and the inverse are scalars
    sign = 1 if cs > 0 else -1
    alpha, den = -cv * sign, cs * sign
    g = gcd(alpha, den)
    vstep = den // g
    inv = pow(alpha // g, -1, vstep)
    wstep = -cv * vstep // cs
    slopes = [0] * n
    slopes[inner], slopes[solve] = vstep, wstep
    cu = np.array([coeffs[i] for i in prefix], dtype=np.int64)
    rows = min(_BLOCK, _CELLS // (n * min(4 * n, bound)))

    def blocks(mono, tally):
        for u in _prefix_blocks(len(prefix), bound, rows):
            beta = -sign * (cu @ u)
            v_first, count = _progressions(alpha, beta, den, g, vstep, inv,
                                           bound)
            tally[0] += int(count.sum())
            live = count > 0
            keep = mono(u) if len(prefix) > 1 else None
            if keep is not None:
                live &= keep.any(axis=1)
                keep = keep[live]
            u, v_first, count = u[:, live], v_first[live], count[live]
            if not len(count):
                continue
            starts = np.empty((n, len(count)), dtype=np.int64)
            starts[prefix] = u
            starts[inner] = v_first
            starts[solve] = (sign * beta[live] - cv * v_first) // cs
            row, lo, hi, ranks = _piece_sweep(slopes, starts, count, N)
            if len(row):
                yield (ranks, None if keep is None else keep[row], u[0, row],
                       v_first[row] + vstep * lo,
                       starts[solve, row] + wstep * lo, hi - lo)

    return vstep, wstep, blocks


def _census_linear(coeffs: list[int], specs: Sequence[ColoringSpec],
                   bound: int, N: int) -> tuple[list, int]:
    """Censuses for a linear homogeneous equation in n >= 3 variables
    without materializing the solution list.

    `_linear_pieces` gives the valid pieces of the rows whose prefix values
    share a color under some coloring, and each coloring's kernel
    (`_counter`) counts the monochromatic terms of every piece of a block
    at once, and gives the colors of the prefix values.
    """
    import numpy as np

    vstep, wstep, blocks = _linear_pieces(coeffs, bound, N)
    kernels = [_counter(s, bound, vstep, wstep) for s in specs]

    def mono(u):
        out = np.empty((u.shape[1], len(specs)), dtype=bool)
        for k, (colors, _) in enumerate(kernels):
            c = colors(u)
            out[:, k] = (c == c[0]).all(axis=0)
        return out

    counts: dict[tuple[int, ...], np.ndarray] = {}
    tally = [0]
    for ranks, keep, x, v, w, n in blocks(mono, tally):
        profiles, which = _distinct_rows(ranks)
        acc = np.zeros((len(profiles), len(specs)), dtype=np.int64)
        for k, (_, count) in enumerate(kernels):
            sel = slice(None) if keep is None else np.flatnonzero(keep[:, k])
            np.add.at(acc[:, k], which[sel],
                      count(x[sel], v[sel], w[sel], n[sel]))
        for key, row in zip(map(tuple, profiles.tolist()), acc):
            counts[key] = counts.get(key, 0) + row
    return [{_partition(key): int(row[k]) for key, row in counts.items()
             if row[k]} for k in range(len(specs))], tally[0]


def _distinct_rows(ranks: np.ndarray):
    """The distinct rows of a rank array, ascending, and each row's position
    among them.  Each row is coded as one base-n digit per column, and the
    codes are renumbered densely before one could pass 2^62, so no width
    overflows int64."""
    import numpy as np

    n = max(ranks.shape[1], 2)
    code, top = np.zeros(len(ranks), dtype=np.int64), 0
    for column in ranks.T:
        if (top + 1) * n > 2 ** 62:
            distinct, code = np.unique(code, return_inverse=True)
            top = len(distinct) - 1
        code, top = code * n + column, top * n + n - 1
    _, first, which = np.unique(code, return_index=True, return_inverse=True)
    return ranks[first], which


def _counter(spec: ColoringSpec, bound: int, vstep: int, wstep: int):
    """A coloring's census kernel, as (colors, count): colors maps an
    array of values to their colors, and count maps piece arrays
    (x, v, w, n) to the number of i in [0, n) at which x, v + vstep*i and
    w + wstep*i share a color, per piece.  vstep > 0 and wstep != 0; every
    value lies in [1, bound].  A random coloring counts packed bits
    (`_bits_counter`) when their copies fit `_BITS_BUDGET`, and slices its
    table (`_slice_counter`) otherwise."""
    if spec.kind == "mod":
        # x % m == x for x <= bound < m, as in `_table`
        return _mod_counter(min(spec.params[0], bound + 1), vstep, wstep)
    if spec.kind == "random":
        table = spec.color_array(bound)
        copies = 8 * len(table) * len({vstep, wstep})
        if _colors_within(table, _BITS_BUDGET // copies):
            return _bits_counter(table, vstep, wstep)
        return _slice_counter(table, vstep, wstep)
    return _run_counter(spec, bound, vstep, wstep)


def _mod_counter(m: int, vstep: int, wstep: int):
    """Residues mod m.  A piece is monochromatic at i iff
    vstep*i = x - v and wstep*i = x - w (mod m).  Each congruence holds on
    one class of i or none, and the two combine by the Chinese remainder
    theorem into one class r mod L, or none, so the count is the number of
    i = r (mod L) in [0, n).  The inverses are scalars; with m <= BOUND_CAP
    + 1, every product is below m^2 < 2^51."""
    import numpy as np

    def congruence(a):
        # a*i = b (mod m) iff g | b and i = (b/g)*inv (mod m/g)
        g = gcd(a % m, m)
        return g, m // g, pow(a % m // g, -1, m // g)

    (g1, m1, inv1), (g2, m2, inv2) = congruence(vstep), congruence(wstep)
    g = gcd(m1, m2)
    inv = pow(m1 // g, -1, m2 // g)
    period = m1 * (m2 // g)

    def count(x, v, w, n):
        b1, b2 = (x - v) % m, (x - w) % m
        r1, r2 = b1 // g1 * inv1 % m1, b2 // g2 * inv2 % m2
        r = r1 + m1 * ((r2 - r1) // g % (m2 // g) * inv % (m2 // g))
        ok = (b1 % g1 == 0) & (b2 % g2 == 0) & ((r2 - r1) % g == 0)
        return np.where(ok, np.maximum((n - 1 - r) // period + 1, 0), 0)

    return (lambda x: x % m), count


def _run_counter(spec: ColoringSpec, bound: int, vstep: int, wstep: int):
    """logband and digit.  A color is constant on runs of consecutive
    values: the levels [p^L, p^(L+1)) of logband, the values of leading
    digit d at each level of digit, so a color has at most one run per
    level.  v and w are monotone in i, so each run is one interval of i for
    v and one for w, and the count is the total overlap of the intervals of
    the runs of x's color: O(levels^2) array work per block."""
    import numpy as np

    p = spec.params[0]
    scales = [1]
    while scales[-1] * p <= bound:
        scales.append(scales[-1] * p)
    levels = len(scales)
    # level L is [edges[L], edges[L + 1]), and edges[levels] ends the range
    edges = np.array(scales + [bound + 1], dtype=np.int64)
    scale = edges[:-1]

    # level < levels, so clamping a logband period changes no color and
    # keeps it in int64
    period = min(spec.params[-1], levels)

    def colors(x):
        """logband: the level mod the period; digit: the leading digit."""
        level = np.searchsorted(edges, x, side="right") - 1
        if spec.kind == "logband":
            return level % period
        return x // scale[level]

    def runs(x):
        """The runs of each x's color, as (start, stop) arrays of one row
        per piece and one column per run, empty runs padded with
        start == stop."""
        c = colors(x)[:, None]
        if spec.kind == "logband":
            # levels c, c + period, ... of color c
            lv = np.minimum(c + period * np.arange(_ceil_div(levels, period)),
                            levels)
            return edges[lv], edges[np.minimum(lv + 1, levels)]
        # digit c covers [c*p^L, (c+1)*p^L) at each level L
        start = c * scale
        return np.minimum(start, bound + 1), np.minimum(start + scale,
                                                         bound + 1)

    def interval(first, step, start, stop, n):
        """The i in [0, n) with start <= first + step*i < stop, as
        [lo, hi), empty when lo >= hi."""
        if step > 0:
            lo, hi = start - first, stop - first
        else:
            lo, hi = first - stop + 1, first - start + 1
        size = abs(step)
        return np.clip(-(-lo // size), 0, n), np.clip(-(-hi // size), 0, n)

    def count(x, v, w, n):
        start, stop = runs(x)
        n = n[:, None]
        v_lo, v_hi = interval(v[:, None], vstep, start, stop, n)
        w_lo, w_hi = interval(w[:, None], wstep, start, stop, n)
        total = np.zeros(len(x), dtype=np.int64)
        for k in range(start.shape[1]):
            overlap = (np.minimum(v_hi[:, k:k + 1], w_hi)
                       - np.maximum(v_lo[:, k:k + 1], w_lo))
            total += np.maximum(overlap, 0).sum(axis=1)
        return total

    return colors, count


# bytes of a random kernel's pre-shifted bit copies: `_bits_counter` takes
# 8 per value, color and distinct step, and a table past it is sliced
_BITS_BUDGET = 2 ** 25

# words `_bits_counter` gathers at once, which bounds its temporaries
_WORDS = 2 ** 16


def _colors_within(table: np.ndarray, limit: int) -> bool:
    """Whether table[1:] holds at most `limit` distinct colors, read in
    chunks so that a table with more stops early."""
    import numpy as np

    seen = table[:0]
    for lo in range(1, len(table), _CHUNK):
        seen = np.union1d(seen, table[lo:lo + _CHUNK])
        if len(seen) > limit:
            return False
    return True


def _bits_counter(table: np.ndarray, vstep: int, wstep: int):
    """random, as popcounts of packed indicator bits.  With the colors
    renumbered densely, each color and step s keeps one bit stream of the
    values 1..bound: the lanes y = r (mod |s|), r ascending, each in the
    order of y + s*i, so the terms of a progression of step s are
    consecutive bits.  Each stream is kept as 64 pre-shifted copies, word j
    of copy h holding bits 64*j + h onwards, so a piece's n terms are
    ceil(n/64) consecutive words of one copy for v and one for w: one
    gather each, an AND, the last word masked to the piece's terms, and
    one popcount.  The copies take 8 bytes per value, color and distinct
    step (`_BITS_BUDGET`); pieces are counted `_WORDS` words at a time."""
    import numpy as np

    palette, dense = np.unique(table[1:], return_inverse=True)
    size = len(dense)
    width = -(-size // 64)
    steps = [vstep] if wstep == vstep else [vstep, wstep]
    copies = np.empty((len(palette), len(steps), 64, width), dtype=np.uint64)

    def lanes(s):
        """The stream position of each value y in [1, bound] under step s."""
        a = abs(s)
        length = (size - 1 - np.arange(min(a, size))) // a + 1
        first = np.cumsum(length) - length

        def position(y):
            q, lane = np.divmod(y - 1, a)
            return first[lane] + (q if s > 0 else length[lane] - 1 - q)

        return position

    positions = [lanes(s) for s in steps]
    for k, position in enumerate(positions):
        bits = np.zeros((len(palette), 64 * (width + 1)), dtype=bool)
        bits[dense, position(np.arange(1, size + 1))] = True
        words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        del bits
        copies[:, k, 0] = words[:, :-1]
        for h in range(1, 64):
            np.bitwise_or(words[:, :-1] >> np.uint64(h),
                          words[:, 1:] << np.uint64(64 - h),
                          out=copies[:, k, h])
    flat = copies.reshape(-1)
    ones = np.uint64(2 ** 64 - 1)

    def base(c, k, p):
        """The flat index of the word holding bits p onwards of stream
        (color c, step k)."""
        return ((c * len(steps) + k) * 64 + p % 64) * width + p // 64

    def count(x, v, w, n):
        out = np.empty(len(x), dtype=np.int64)
        if not len(x):
            return out
        c = dense[x - 1]
        bv = base(c, 0, positions[0](v))
        bw = base(c, len(steps) - 1, positions[-1](w))
        k = (n + 63) // 64
        mask = ones >> (64 * k - n).astype(np.uint64)
        ends = np.cumsum(k)
        cuts = (np.flatnonzero(np.diff((ends - 1) // _WORDS)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(x)]):
            kk = k[lo:hi]
            start = ends[lo:hi] - kk
            start -= start[0]
            index = np.arange(start[-1] + kk[-1])
            got = flat[np.repeat(bv[lo:hi] - start, kk) + index]
            got &= flat[np.repeat(bw[lo:hi] - start, kk) + index]
            got[start + kk - 1] &= mask[lo:hi]
            out[lo:hi] = np.add.reduceat(np.bitwise_count(got), start,
                                         dtype=np.int64)
        return out

    return (lambda x: table[x]), count


def _slice_counter(table: np.ndarray, vstep: int, wstep: int):
    """random past the copy budget: each piece slices the coloring's table
    once for v and once for w."""
    import numpy as np

    def count(x, v, w, n):
        out = []
        for color, b, c, size in zip(table[x], v.tolist(), w.tolist(),
                                     n.tolist()):
            stop = c + wstep * size
            mono = table[b:b + vstep * size:vstep] == color
            mono &= table[c:(stop if stop >= 0 else None):wstep] == color
            out.append(np.count_nonzero(mono))
        return np.array(out, dtype=np.int64)

    return (lambda x: table[x]), count


# ---------------------------------------------------------------------------
# array walk


# terms of one chunk of the array walk, which bounds its temporaries: a
# single row can hold `bound` terms (x = 1 of x*y = z)
_TERMS = 2 ** 16

# magnitude every int64 intermediate of the array walk stays below
_INT64 = 2 ** 62


def _array_walk(poly: Polynomial, bound: int):
    """The walk's affine and quadratic inner steps as int64 arrays, a block
    of prefix points at a time; None for a shape it does not take.

    It takes an isolated variable (`_pick_isolated`) of exponent 1 whose
    monomial holds no inner variable, so the solved value is
    num(t)/den with num the restriction of the other monomials to the
    inner variable, of degree <= 2, and den a monomial in the prefix
    values.  Per row, an affine num walks its progression
    (`_progressions`, with a per-row gcd and `_inverse`), and a quadratic
    one its exact windows 1 <= num(t)/den <= bound (`_at_most`), each term
    then tested for divisibility.  It also requires that every
    intermediate fits in int64 at this bound, decided once from the
    coefficients: num and the windows' polynomials at t in
    [-1, bound + 2], den*bound, den^2 and the discriminant.

    Returns terms(colors): given a color array from
    `ColoringSpec.color_array`, it yields per chunk of at most `_TERMS`
    terms (u, row, t, s): the prefix values u of shape (len(prefix), rows),
    and for every monochromatic solution the index of its prefix in u, its
    inner value t and its solved value s.  The prefix values are the
    variables other than the solved one but the last (`_inner_step`).
    A row whose prefix values do not share a color is dropped before any
    term is built, and a term whose inner value does not share it before
    num is evaluated there.
    """
    n = len(poly.variables)
    iso = _pick_isolated(poly) if n > 1 else None
    if iso is None or iso[1] != 1 or not 1 <= bound <= BOUND_CAP:
        return None
    sv, _, smono = iso
    *prefix, inner = [v for v in range(n) if v != sv]
    mono = poly.monomials[smono]
    den_factors = [(v, e) for v, e in mono.exponents if v != sv]
    if any(v == inner for v, _ in den_factors):
        return None
    terms = _split([m for i, m in enumerate(poly.monomials) if i != smono],
                   inner, -1)
    quadratic = max(k for _, k, _ in terms) == 2
    size = [0, 0, 0]
    for c, k, factors in terms:
        if k > 2:
            return None
        size[k] += abs(c) * bound ** sum(e for _, e in factors)
    d = abs(mono.coeff) * bound ** sum(e for _, e in den_factors)
    top = bound + 2
    disc = size[1] ** 2 + 4 * size[2] * (size[0] + d * top) if quadratic else 0
    if max(size[2] * top ** 2 + size[1] * top + size[0] + d * top, d * d,
           disc) >= _INT64:
        return None

    def walk(colors):
        import numpy as np

        blocks = (_prefix_blocks(len(prefix), bound, _BLOCK) if prefix
                  else [np.ones((0, 1), dtype=np.int64)])
        for u in blocks:
            c0 = None
            if prefix:
                c0 = colors[u[0]]
                if len(prefix) > 1:
                    keep = (colors[u[1:]] == c0).all(axis=0)
                    u, c0 = u[:, keep], c0[keep]
            rows = u.shape[1]
            if not rows:
                continue
            values = dict(zip(prefix, u))
            coef = np.zeros((3, rows), dtype=np.int64)
            for coeff, k, factors in terms:
                x = np.full(rows, coeff, dtype=np.int64)
                for v, e in factors:
                    x *= values[v] ** e
                coef[k] += x
            den = np.full(rows, mono.coeff, dtype=np.int64)
            for v, e in den_factors:
                den *= values[v] ** e
            coef *= np.where(den < 0, -1, 1)
            den = np.abs(den)
            a, b, c = coef[2], coef[1], coef[0]
            # affine rows: the progression of t with (b*t + c)/den in range
            row = np.flatnonzero(a == 0)
            alpha, beta, dr = b[row], c[row], den[row]
            g = np.gcd(alpha, dr)
            step = dr // g
            first, count = _progressions(alpha, beta, dr, g, step,
                                         _inverse(alpha // g, step), bound)
            runs = [(row, first, step, count)]
            if quadratic:
                row = np.flatnonzero(a)
                runs += [(row, lo, 1, np.maximum(hi - lo + 1, 0))
                         for lo, hi in _quadratic_runs(
                             a[row], b[row], c[row], den[row], bound)]
            row, first, step, count = (
                np.concatenate([np.broadcast_to(r[j], r[0].shape)
                                for r in runs]) for j in range(4))
            live = count > 0
            row, first, step, count = (x[live] for x in (row, first, step,
                                                         count))
            for run, i in _chunks(count, _TERMS):
                r = row[run]
                t = first[run] + step[run] * i
                if c0 is None:
                    ct = colors[t]
                else:
                    ct = c0[r]
                    hit = colors[t] == ct
                    r, t, ct = r[hit], t[hit], ct[hit]
                num = b[r] * t + c[r]
                if quadratic:
                    num += a[r] * t * t
                dt = den[r]
                s = num // dt
                hit = colors[s] == ct
                if quadratic:
                    hit &= s * dt == num
                yield u, r[hit], t[hit], s[hit]

    return walk


def _quadratic_runs(a, b, c, den, bound: int):
    """Row by row, the two windows [lo, hi] of the t in [1, bound] with
    den <= a*t^2 + b*t + c <= den*bound, a != 0, den > 0, as
    ((lo1, hi1), (lo2, hi2)): the t with the polynomial at most the top,
    less the t with it below the bottom, which lie inside them."""
    import numpy as np

    up = np.where(a > 0, 1, -1)
    a, b, c = a * up, b * up, c * up
    # with a > 0 now: bottom <= a*t^2 + b*t + c <= top
    bottom = np.where(up > 0, den, -den * bound)
    top = np.where(up > 0, den * bound, -den)
    lo, hi = _at_most(a, b, c - top, bound)
    cut_lo, cut_hi = _at_most(a, b, c - bottom + 1, bound)
    cut = cut_lo <= cut_hi
    return ((np.maximum(lo, 1), np.minimum(np.where(cut, cut_lo - 1, hi),
                                           bound)),
            (np.where(cut, np.maximum(cut_hi + 1, 1), bound + 1),
             np.minimum(hi, bound)))


def _at_most(a, b, c, bound: int):
    """Row by row, the integer interval [lo, hi] of the t with
    a*t^2 + b*t + c <= 0, for a > 0: empty (lo > hi) when it holds no
    integer, and exact where it meets [0, bound + 1].

    Each end starts within one of itself (`_root_starts`), and one exact
    evaluation on each side of the start corrects it: the polynomial is
    monotone between its roots and the vertex, and every candidate lies in
    [-1, bound + 2]."""
    import numpy as np

    disc = b * b - 4 * a * c
    lo, hi = _root_starts(a, b, disc, bound)

    def p(t):
        return (a * t + b) * t + c

    lo = np.where(p(lo - 1) <= 0, lo - 1, np.where(p(lo) > 0, lo + 1, lo))
    hi = np.where(p(hi + 1) <= 0, hi + 1, np.where(p(hi) > 0, hi - 1, hi))
    return np.where(disc < 0, 1, lo), np.where(disc < 0, 0, hi)


def _root_starts(a, b, disc, bound: int):
    """The ceiling and the floor of the float roots
    (-b -+ sqrt(disc))/(2a), clipped to [0, bound + 1].  With b^2 and
    disc below 2^62 the float error is far below 1, so each is within one
    of the integer end it estimates."""
    import numpy as np

    root = np.sqrt(np.maximum(disc, 0).astype(np.float64))
    lo = np.clip(np.ceil((-b - root) / (2 * a)), 0, bound + 1)
    hi = np.clip(np.floor((-b + root) / (2 * a)), 0, bound + 1)
    return lo.astype(np.int64), hi.astype(np.int64)


def _chunks(count, size: int):
    """The terms of runs of count[j] terms each, in order, at most `size`
    at a time: per chunk (run, i), term i of run `run`."""
    import numpy as np

    ends = np.cumsum(count)
    starts = ends - count
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        take = (np.minimum(ends[first:last], hi)
                - np.maximum(starts[first:last], lo))
        run = np.repeat(np.arange(first, last), take)
        yield run, np.arange(lo, hi) - starts[run]


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


# the most bins a head census takes: its histogram and report hold one
# entry per bin
BIN_CAP = 2 ** 20


def head_census(eq: Equation, spec: ColoringSpec, bound: int, base: int,
                bin_count: int = 16) -> HeadCensus:
    """Histogram over [1, base) of the standard heads of every coordinate of
    every monochromatic solution; the edge bins flag mass near 1 and near
    the base.

    A shape that `_array_walk` takes is counted from its int64 terms and
    the coloring's color array, its coordinates binned by array
    (`_array_heads`), which loads numpy; every other shape walks its
    monochromatic solutions one at a time (`_walk`) in pure Python."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if bin_count < 1:
        raise ValueError("bin count must be positive")
    if bin_count > BIN_CAP:
        raise CapExceededError(
            BIN_CAP, f"bin count {bin_count} exceeds the cap ({BIN_CAP})")
    walk = _array_walk(eq.poly, bound)
    if walk is None:
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
                    b = bin_of[x] = ((x - scale) * bin_count
                                     // ((base - 1) * scale))
                bins[b] += 1
            total += len(assignment)
    else:
        bins, total = _array_heads(walk, len(eq.poly.variables),
                                   spec.color_array(bound), bound, base,
                                   bin_count)
    near_one = bins[0] / total if total else 0.0
    near_base = bins[-1] / total if total else 0.0
    return HeadCensus(base, bin_count, bins, total, near_one, near_base,
                      {"bound": bound, "coloring": spec.spec_string(),
                       "base": base, "bins": bin_count})


def _array_heads(walk, n: int, colors, bound: int, base: int,
                 bin_count: int) -> tuple[list[int], int]:
    """`head_census`'s bins and total over the terms of an `_array_walk`
    of an equation in n variables.  Each coordinate x finds its level
    scale = base^L <= x < base^(L+1) by a search over the base's powers and
    goes to bin (x - scale)*bin_count // ((base - 1)*scale); a prefix value
    is binned once per row, weighted by the row's solutions."""
    import numpy as np

    scales = [1]
    while scales[-1] * base <= bound:
        scales.append(scales[-1] * base)
    edges = np.array(scales, dtype=np.int64)
    # every numerator is below bound*bin_count, where any divisor gives bin
    # 0, so capping the exact divisor there keeps it in int64 for a base up
    # to and past 2^64
    dens = np.array([min((base - 1) * s, bound * bin_count) for s in scales],
                    dtype=np.int64)
    acc = np.zeros(bin_count, dtype=np.int64)

    def add(x, weights=None):
        level = np.searchsorted(edges, x, side="right") - 1
        # weighted counts come as float64, exact below 2^53
        got = np.bincount((x - edges[level]) * bin_count // dens[level],
                          weights)
        acc[:len(got)] += got.astype(np.int64)

    solutions = 0
    for u, row, t, s in walk(colors):
        add(t)
        add(s)
        if len(u):
            per_row = np.bincount(row, minlength=u.shape[1])
            for x in u:
                add(x, per_row)
        solutions += len(t)
    return acc.tolist(), n * solutions


def witness_search(eq: Equation, family: Sequence[ColoringSpec],
                   bound: int) -> list[ColoringSpec]:
    """Colorings from the family with no monochromatic solution up to the
    bound.  A witness is empirical evidence against partition regularity,
    never a proof.

    Each coloring walks only its monochromatic solutions and stops at the
    first.  Witnesses come back in family order."""
    return [spec for spec in family
            if next(_walk(eq.poly, bound, _color_lookup(spec, bound)),
                    None) is None]
