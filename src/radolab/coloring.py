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
for a monochromatic solution.  Witness searches, the profile census of an
equation without a closed form, and the stream of an unplanned equation
(`iter_monochromatic`) run it once per coloring; `enumerate_solutions` runs
it without a table.

Three paths run on numpy arrays instead, in the module `arrays`, imported
only where each starts, fed by one pure-Python plan (`_array_walk`): the
array walk of a head census and of the solutions stream (the latter from
`cli`) and, for a plan whose inner and solved values step by constants (a
linear equation in three or more variables, say), the closed-form census
(in `profile_census_many`).  So `import radolab` and every other search
load neither numpy nor `arrays`.  Searches take bounds up to `BOUND_CAP`,
past which a color table no longer fits in memory.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
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


# ---------------------------------------------------------------------------
# colorings


# the largest bound a search takes, whose color table holds bound + 1 entries
BOUND_CAP = 2 ** 25


# entries of the largest temporary array a chunked loop builds: a slice of
# `ColoringSpec._table`, and in `arrays` a slice `_colors_within` reads, the
# words `_bits_counter` gathers at once and the terms of one array-walk
# chunk (a single row can hold `bound` terms, as x = 1 of x*y = z)
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
        h = _keyed(self.params[0])()
        h.update(x.to_bytes((x.bit_length() + 7) // 8 or 1, "little"))
        return int.from_bytes(h.digest(), "little") % self.params[1]

    def _table(self, bound: int) -> array:
        """Colors of 0..bound (index 0 is padding) of a mod, digit or
        logband coloring in the smallest unsigned typecode that holds every
        color; a color never exceeds x."""
        from array import array  # not loaded by import radolab

        _check_bound(bound)
        kind, p = self.kind, self.params
        top = min(p[0] - 1 if kind == "digit" else self.num_colors() - 1, bound)
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

    def color_array(self, bound: int):
        """Colors of 0..bound (index 0 is padding) as a numpy array: a view
        of `_table`, or a random coloring's 8-byte digests of `_CHUNK` values
        of one byte length at a time, joined, each chunk reduced in place by
        one `%` (none past 2^64 colors, as every digest is below)."""
        import numpy as np

        if self.kind != "random":
            table = self._table(bound)
            return np.frombuffer(table, dtype=table.typecode)
        _check_bound(bound)
        copy, colors = _keyed(self.params[0]), self.params[1]
        out = np.zeros(bound + 1, np.min_scalar_type(min(colors, 2 ** 64) - 1))
        lo = 1
        while lo <= bound:
            size = (lo.bit_length() + 7) // 8
            hi = min(lo + _CHUNK, 256 ** size, bound + 1)
            digests = bytearray()
            for x in range(lo, hi):
                h = copy()
                h.update(x.to_bytes(size, "little"))
                digests += h.digest()
            w = np.frombuffer(digests, dtype="<u8")
            out[lo:hi] = w if colors >> 64 else np.remainder(w, colors, out=w)
            lo = hi
        return out


@functools.lru_cache(maxsize=64)
def _keyed(seed: int):
    """The copier of the blake2b state (digest size 8) keyed by the seed's
    decimal form.  A random color of x >= 1 is the digest of x's bytes,
    little-endian, hashed on a copy (not the key block again), mod colors."""
    import hashlib  # not loaded by import radolab

    return hashlib.blake2b(digest_size=8, key=str(seed).encode()).copy


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
    `arrays._piece_sweep` applies this rule, with the within-class bound of
    each run, to affine values.

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
    progression of `_progression` (whose terms `arrays._progressions`
    computes as int64 arrays on both paths `_array_walk` plans) when
    the solved value is affine in it, and otherwise only the exact integer
    windows on which the solved value lies in its range.
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
    census and the solutions stream of those shapes take the array walk,
    which has no budget: its quadratic windows are closed form for every
    row (`arrays._quadratic_runs`).
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
    its color; the stream of a planned shape takes `arrays` instead."""
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


# entries of a piece table's (segment, item) arrays per block of the
# closed-form census.  A row of n items has at most min(4n, bound)
# segments, so one row fits if 4n^2 does
_CELLS = 2 ** 20


def profile_census_many(eq: Equation, specs: Sequence[ColoringSpec],
                        bound: int, N: int) -> list[ProfileCensus]:
    """Censuses for several colorings.

    An equation of n <= 512 variables (a row fits `_CELLS`) whose plan
    (`_array_walk`) has a prefix and a constant den, and holds the inner
    variable only in factorless terms of degree 1, splits each inner
    progression into valid pieces in closed form, once for the whole
    family, and counts each coloring's monochromatic terms with its own
    kernel (see `arrays._census_linear`, which loads numpy).  Every other
    equation takes one walk per coloring that builds only its monochromatic
    solutions (see `_walk`); the first walk also counts every solution.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if not specs:
        return []
    _check_bound(bound)
    poly = eq.poly
    params = [{"bound": bound, "N": N, "coloring": s.spec_string()}
              for s in specs]
    plan = _array_walk(poly, bound)
    if (plan is not None and plan.prefix and not plan.den_factors
            and not plan.quadratic and 4 * len(poly.variables) ** 2 <= _CELLS
            and not any(f for _, k, f in plan.terms if k == 1)):
        from . import arrays

        per_spec, total = arrays._census_linear(plan, specs, bound, N)
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


# ---------------------------------------------------------------------------
# array walk gate


# magnitude every int64 intermediate of the numpy paths stays below
_INT64 = 2 ** 62


_Plan = namedtuple("_Plan", "prefix inner solved terms den_coeff den_factors "
                              "quadratic")


def _array_walk(poly: Polynomial, bound: int) -> Optional[_Plan]:
    """The plan of the array walk (`arrays._array_terms`) of a head census
    and of the solutions stream, and of the closed-form census
    (`arrays._linear_pieces`), or None for a shape it does not take; pure
    Python, so a refused shape loads no numpy.  The stream writes its
    records in the order the walk finds them, so the plan must choose the
    prefix, inner and solved variables as `_inner_step` does.

    It takes an isolated variable (`_pick_isolated`) of exponent 1 whose
    monomial holds no inner variable, so the solved value is num(t)/den with
    num (`terms`, by `_split`) the restriction of the other monomials to the
    inner variable, of degree <= 2, and den a monomial in the prefix values
    (all but the solved and inner ones, as in `_inner_step`).  Every int64
    intermediate of both paths stays below 2^62 at this bound, as checked
    once from the coefficients: num and the windows' polynomials at t in
    [-1, bound + 2] (so den*bound - beta), den^2 and the discriminant.  Of
    these, d*top + size[1]*top bounds (bound + 1)*(den + |alpha|), alpha
    num's coefficient of t, and so the piece sweep's N*slope terms; the
    census kernels see only values up to the bound, or steps within it."""
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
    return _Plan(prefix, inner, sv, terms, mono.coeff, den_factors, quadratic)


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
    (`arrays._array_heads`), which loads numpy; every other shape walks its
    monochromatic solutions one at a time (`_walk`) in pure Python."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if bin_count < 1:
        raise ValueError("bin count must be positive")
    if bin_count > BIN_CAP:
        raise CapExceededError(
            BIN_CAP, f"bin count {bin_count} exceeds the cap ({BIN_CAP})")
    plan = _array_walk(eq.poly, bound)
    if plan is None:
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
        from . import arrays

        bins, total = arrays._array_heads(plan, spec.color_array(bound),
                                          bound, base, bin_count)
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

    Each coloring walks only its monochromatic solutions and stops at the
    first.  Witnesses come back in family order."""
    return [spec for spec in family
            if next(_walk(eq.poly, bound, _color_lookup(spec, bound)),
                    None) is None]
