"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's algorithms: root existence is decided
numerically (derivative recursion, dense sampling, sign changes, bisection),
solution sets by full-grid evaluation, and profiles by grouping with one
rescan of the descending order per class and re-testing the defining
inequalities pair by pair.  Forward differences come from the binomial
expansion, and the scalar valid-piece decomposition
(`_valid_pieces`) is the one-progression-at-a-time reference for the array
piece table of the linear census, as is the three-item table with one
hand-written case per profile shape that the n-item sweep replaced.  The
maximal-root filter's reference
tries every monomial subset, and reports are checked against the standard
library's indented JSON dump.  Asymptotic candidates are built the way
they once were: each zero-sum mask picked bit by bit, wrapped in an
`OrderedPartition` and named.  The Hindman-Leader matrix is built row by
row, with its weights validated before the first row.  The columns condition is decided by the
memoized depth-first search over ordered column partitions that the greedy
decision replaced.  Equations are parsed by the recursive-descent class
with one-token lookahead and no end token that the stateless grammar
functions replaced, and monomials are ordered by dense exponent vectors.
The linear census's counting kernels are checked against the loop
they replaced, which sliced every valid piece out of one stacked 2-D color
array.  Coloring searches are checked against the enumerate-then-filter
loop that the color-testing walk replaced: every solution is built as a
tuple, then the scalar colors of its coordinates are compared, and a
witness search serves the whole family from one shared pass over the
solutions.  The walk's restriction of an equation to its innermost
variable, split per monomial once per search, is checked against the
dict-keyed sum by exponent that it replaced.  The
solutions stream is checked against records built as objects, with heads as
`Fraction`s found by repeated multiplication, and written by `json.dumps`.
Head censuses are checked against histograms of those heads over the
enumerate-then-filter solutions.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np

from radolab import coloring
from radolab.arrays import _linear_pieces
from radolab.arrays import _lt_zero as _rows_lt_zero
from radolab.coloring import _fits, _plan, enumerate_solutions
from radolab.linalg import (
    ColumnsCertificate,
    QMatrix,
    _Basis,
    _pick,
    _zero_sum_masks,
)
from radolab.linear import hl_slack_pairs
from radolab.model import Equation, Polynomial, collapse_to_univariate
from radolab.parser import ParseError
from radolab.results import OrderedPartition
from radolab.univariate import has_positive_root, normalize


# ---------------------------------------------------------------------------
# numeric positive-root oracle


def _feval(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fderiv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _bisect_root(coeffs, lo: float, hi: float) -> float:
    flo = _feval(coeffs, lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fmid = _feval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _positive_roots_numeric(coeffs) -> list[float]:
    """Approximate positive real roots via derivative recursion."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        r = -coeffs[0] / coeffs[1]
        return [r] if r > 0 else []
    crits = _positive_roots_numeric(_fderiv(coeffs))
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    points = [1e-9] + sorted(c for c in crits if 1e-9 < c < bound) + [bound]
    scale = sum(abs(c) for c in coeffs) * max(1.0, bound) + 1.0
    roots = []
    for a, b in zip(points, points[1:]):
        fa, fb = _feval(coeffs, a), _feval(coeffs, b)
        if abs(fa) <= 1e-12 * scale:
            roots.append(a)
            continue
        if (fa < 0) != (fb < 0):
            roots.append(_bisect_root(coeffs, a, b))
    fb = _feval(coeffs, points[-1])
    if abs(fb) <= 1e-12 * scale:
        roots.append(points[-1])
    return roots


def oracle_positive_root(coeffs: list[int]) -> bool:
    """Numeric decision: does the integer polynomial have a root in
    (0, inf)?  Dense sampling backs up the derivative recursion."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return True
    v = 0
    while coeffs[v] == 0:
        v += 1
    coeffs = coeffs[v:]
    if len(coeffs) == 1:
        return False
    if _positive_roots_numeric(coeffs):
        return True
    # dense sampling for sign changes the recursion might have missed
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    xs = [bound * k / 512.0 for k in range(1, 513)]
    signs = [_feval(coeffs, x) for x in xs]
    return any(a == 0.0 or (a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# forward difference by binomial expansion


def oracle_forward_difference(p: list[int]) -> list[int]:
    """Coefficients of p(t + 1) - p(t) from the binomial expansion of each
    (t + 1)^i, trailing zeros stripped."""
    out = [0] * len(p)
    for i, c in enumerate(p):
        for j in range(i):
            out[j] += c * comb(i, j)
    out = out[:-1]
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# restriction to one variable


def oracle_restrict(monomials, values, inner: int) -> list[int]:
    """Coefficients of the sum of the monomials as a univariate polynomial in
    variable `inner`, every other variable v fixed to values[v], keyed by
    the inner exponent in a dict and trimmed by `normalize`."""
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
    return normalize(
        [coeffs.get(e, 0) for e in range(max(coeffs, default=-1) + 1)])


# ---------------------------------------------------------------------------
# full-grid solution oracle


def oracle_solution_grid(poly_terms, nvars: int, bound: int) -> set[tuple[int, ...]]:
    """All grid points with P = 0, by direct numpy evaluation.

    poly_terms: iterable of (coeff, ((var, exp), ...)).
    """
    axes = np.meshgrid(
        *(np.arange(1, bound + 1, dtype=np.int64) for _ in range(nvars)),
        indexing="ij", sparse=True,
    )
    shape = (bound,) * nvars
    total = np.zeros((1,) * nvars, dtype=np.int64)
    for coeff, exps in poly_terms:
        term = np.array(coeff, dtype=np.int64)
        for v, e in exps:
            term = term * axes[v] ** e
        total = total + term
    total = np.broadcast_to(total, shape)
    hits = np.argwhere(total == 0)
    return {tuple(int(x) + 1 for x in hit) for hit in hits}


# ---------------------------------------------------------------------------
# profile re-verification straight from the defining inequalities


def oracle_asymptotic_profile(values, N: int):
    """Greedy descending grouping by rescans: each class takes every
    unassigned value within the ratio bound of the largest unassigned one,
    scanning the whole order again.  The flag is `oracle_profile_valid`."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    classes = []
    assigned = [False] * len(values)
    for anchor in order:
        if assigned[anchor]:
            continue
        group = []
        for i in order:
            if not assigned[i] and N * (values[anchor] - values[i]) < values[i]:
                assigned[i] = True
                group.append(i)
        classes.append(group)
    return (OrderedPartition.of(*classes),
            oracle_profile_valid(values, classes, N))


def oracle_profile_valid(values, classes, N: int) -> bool:
    """Re-check both profile conditions for every pair, exactly."""
    for cls in classes:
        for i, j in itertools.combinations(sorted(cls), 2):
            if abs(Fraction(values[i], values[j]) - 1) >= Fraction(1, N):
                return False
            if abs(Fraction(values[j], values[i]) - 1) >= Fraction(1, N):
                return False
    for r, earlier in enumerate(classes):
        for later in classes[r + 1:]:
            for i in earlier:
                for j in later:
                    if N * values[j] >= values[i]:
                        return False
    return True


# ---------------------------------------------------------------------------
# scalar valid-piece decomposition of one inner progression


def _ceil_div(a: int, b: int) -> int:
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


# ---------------------------------------------------------------------------
# the maximal-root filter by exhaustive subset scan


def oracle_maximal_root(poly) -> tuple[bool, dict]:
    """(fired, evidence) of the maximal-root filter from every nonempty
    monomial subset in ascending bitmask order: the first subset whose
    univariate collapse is zero or has a positive root keeps it quiet."""
    t = len(poly.monomials)
    for mask in range(1, 1 << t):
        subset = [i for i in range(t) if mask >> i & 1]
        q = collapse_to_univariate(poly, subset)
        if not q or has_positive_root(q):
            return False, {"rootful_subset": subset, "collapse": q}
    return True, {"monomial_count": t, "subsets_checked": (1 << t) - 1}


# ---------------------------------------------------------------------------
# report text from the standard library


def _oracle_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def oracle_emit(payload) -> str:
    """The report text, without its final newline, from the standard
    library's (pure-Python) indented encoder."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=_oracle_default)


# ---------------------------------------------------------------------------
# asymptotic candidates through OrderedPartition


def oracle_pick(mask: int, items) -> tuple:
    """The items whose positions are set in mask, bit by bit."""
    return tuple(x for j, x in enumerate(items) if mask >> j & 1)


def oracle_candidate_names(coeffs, variables) -> list[list[list[str]]]:
    """The asymptotic candidates' classes as sorted name lists: one
    `OrderedPartition` per zero-sum mask, (J,) when J is every index and
    (J, rest) otherwise, each turned back into names."""
    n = len(coeffs)
    everything = frozenset(range(n))
    out = []
    for mask in _zero_sum_masks([(c,) for c in coeffs]):
        chosen = frozenset(oracle_pick(mask, range(n)))
        classes = (chosen,) if chosen == everything else (chosen, everything - chosen)
        out.append(OrderedPartition(classes).named(variables))
    return out


# ---------------------------------------------------------------------------
# the Hindman-Leader matrix row by row


def oracle_hl_matrix(coeffs, k: int, N: int, weights) -> QMatrix:
    """`hl_matrix` as it was built before its one pass over the slack
    pairs: every weight validated first, then the ratio rows from two loops
    that restate the pair order, each slack column looked up by pair, and
    the separation row appended on its own."""
    n = len(coeffs)
    if not all(isinstance(x, int) for x in (*coeffs, N, *weights.values())):
        raise ValueError("coefficients, N and weights must be integers")
    if any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if N < 2:
        raise ValueError("N must be at least 2")
    pairs = hl_slack_pairs(k, n)
    slack_col = {pair: n + idx for idx, pair in enumerate(pairs)}
    for pair in pairs:
        q = weights.get(pair)
        if q is None:
            raise ValueError(f"missing slack weight for {pair}")
        if q <= 0:
            raise ValueError(f"slack weight for {pair} must be positive")
    ncols = n + len(pairs)
    rows = [list(coeffs) + [0] * len(pairs)]

    def ratio_row(big: int, small: int):
        row = [0] * ncols
        row[big - 1] = N
        row[small - 1] = -1
        row[slack_col[(big, small)]] = -weights[(big, small)]
        rows.append(row)

    for i in range(2, k + 1):
        ratio_row(1, i)
        ratio_row(i, 1)
    for j in range(k + 2, n + 1):
        ratio_row(k + 1, j)
        ratio_row(j, k + 1)
    sep = [0] * ncols
    sep[0] = 1
    sep[k] = -1
    sep[slack_col[(1, k + 1)]] = -weights[(1, k + 1)]
    rows.append(sep)
    return QMatrix(len(rows), ncols, tuple(x for row in rows for x in row))


# ---------------------------------------------------------------------------
# the columns condition by backtracking search


def oracle_columns_condition(matrix):
    """The first certificate of a depth-first search over ordered column
    partitions, or None.

    Candidate first blocks are nonempty zero-sum column subsets (ascending
    bitmask order); the search then recurses on the remaining columns, each
    next block's sum having to lie in the span of everything consumed so
    far, that is, the block's reduced columns (see _Basis.reduce) having to
    sum to zero.  Dead ends are memoized by consumed-column bitmask, which
    is sound because that span depends only on the consumed set.
    """
    n = matrix.cols
    cols = matrix.columns()
    full = (1 << n) - 1
    failed: set[int] = set()
    blocks: list[tuple[int, ...]] = []

    def extend(consumed: int, basis: _Basis) -> bool:
        if consumed == full:
            return True
        if consumed in failed:
            return False
        rem = [i for i in range(n) if not consumed >> i & 1]
        # an empty basis reduces nothing, which makes the first block's
        # condition a plain zero sum
        for local in _zero_sum_masks([basis.reduce(cols[i]) for i in rem]):
            block = _pick(local, rem)
            nxt = _Basis()
            nxt.rows = [row[:] for row in basis.rows]
            nxt.pivots = basis.pivots[:]
            for i in block:
                nxt.add(cols[i])
            blocks.append(block)
            if extend(consumed | sum(1 << i for i in block), nxt):
                return True
            blocks.pop()
        failed.add(consumed)
        return False

    if extend(0, _Basis()):
        return ColumnsCertificate(tuple(blocks))
    return None


# ---------------------------------------------------------------------------
# the equation parser as a class with one-token lookahead


def _oracle_digit_limit() -> int:
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^=":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            limit = _oracle_digit_limit()
            if limit and j - i > limit:
                raise ParseError(i, f"integer literal has {j - i} digits",
                                 f"at most {limit} digits")
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(i, f"unexpected character {ch!r}", "token")
    return tokens


class _OracleParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _oracle_tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input", "token")
        self.pos += 1
        return tok

    def _expect(self, kind: str):
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input", kind)
        if tok[0] != kind:
            raise ParseError(tok[2], f"unexpected {tok[1]!r}", kind)
        return self._take()

    def parse_equation(self) -> Equation:
        lhs_terms, lhs_text, lhs_at = self.parse_expr()
        self._expect("=")
        rhs_terms, rhs_text, rhs_at = self.parse_expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok[2], f"unexpected {tok[1]!r} after equation", "end of input")
        terms = dict(lhs_terms)
        for key, c in rhs_terms.items():
            terms[key] = terms.get(key, 0) - c
        limit = _oracle_digit_limit()
        for key, c in terms.items():
            if limit and c.bit_length() > 3 * limit and abs(c) >= 10 ** limit:
                raise ParseError(lhs_at.get(key, rhs_at.get(key)),
                                 f"coefficient has more than {limit} digits",
                                 f"at most {limit} digits")
        return Equation.from_polynomial(
            Polynomial.from_terms(terms), lhs_text.strip(), rhs_text.strip()
        )

    def parse_expr(self) -> tuple[dict, str, dict]:
        start = self._peek()[2] if self._peek() else len(self.text)
        sign = 1
        if self._peek() and self._peek()[0] == "-":
            self._take()
            sign = -1
        terms: dict[tuple, int] = {}
        first_at: dict[tuple, int] = {}

        def add(sign):
            at = self._peek()[2] if self._peek() else len(self.text)
            key, coeff = self.parse_term()
            terms[key] = terms.get(key, 0) + sign * coeff
            first_at.setdefault(key, at)

        add(sign)
        while self._peek() and self._peek()[0] in ("+", "-"):
            add(1 if self._take()[0] == "+" else -1)
        end = self._peek()[2] if self._peek() else len(self.text)
        return terms, self.text[start:end], first_at

    def parse_term(self) -> tuple[tuple, int]:
        coeff, exps = self.parse_factor()
        while True:
            tok = self._peek()
            if tok and tok[0] == "*":
                self._take()
                c, e = self.parse_factor()
            elif tok and tok[0] in ("int", "name"):
                c, e = self.parse_factor()
            else:
                break
            coeff *= c
            for v, k in e.items():
                exps[v] = exps.get(v, 0) + k
        key = tuple(sorted((v, k) for v, k in exps.items() if k))
        return key, coeff

    def parse_factor(self) -> tuple[int, dict]:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input", "integer or variable")
        kind, value, pos = tok
        if kind == "int":
            self._take()
            return int(value), {}
        if kind == "name":
            self._take()
            exp = 1
            nxt = self._peek()
            if nxt and nxt[0] == "^":
                self._take()
                etok = self._expect("int")
                exp = int(etok[1])
                if exp < 1:
                    raise ParseError(etok[2], "written exponents must be >= 1", "integer >= 1")
            return 1, {value: exp}
        raise ParseError(pos, f"unexpected {value!r}", "integer or variable")


def oracle_parse(text: str) -> Equation:
    """One equation by recursive descent over a token list without an end
    token; the combined coefficients are checked once, after both sides."""
    if not text.strip():
        raise ParseError(0, "empty input", "equation")
    return _OracleParser(text).parse_equation()


# ---------------------------------------------------------------------------
# graded-lex order by dense exponent vectors


def oracle_grlex_key(mono, nvars: int):
    """(degree, exponent of every variable by index): the graded-lex key."""
    dense = [0] * nvars
    for i, e in mono.exponents:
        dense[i] = e
    return (mono.degree(), tuple(dense))


def terms_by_name(poly: Polynomial) -> dict[tuple[tuple[str, int], ...], int]:
    """The polynomial's terms as `Polynomial.from_terms` takes them: each
    monomial's sorted (name, exponent) pairs mapped to its coefficient."""
    return {tuple(sorted((poly.variables[i], e) for i, e in m.exponents)):
            m.coeff for m in poly.monomials}


# ---------------------------------------------------------------------------
# coloring searches by enumerate-then-filter


def _rows_ge_zero(alpha, beta, lo, hi):
    """Row by row, the integer subinterval of [lo, hi) where
    alpha*i + beta >= 0, that is -alpha*i - beta - 1 < 0."""
    return _rows_lt_zero(-alpha, -beta - 1, lo, hi)


def oracle_piece_table3(slopes, slots, starts, count, N):
    """The three-item piece table with one hand-written case per shape of
    profile: (row, lo, hi, code) arrays of the disjoint pieces [lo, hi) of
    every row's range [0, count) whose triple has a valid profile, with
    code = class(slot0)*9 + class(slot1)*3 + class(slot2).

    Row r carries three affine values slopes[k]*i + starts[k, r] of the
    variables in slots[k].  After splitting at the pairwise value
    crossings, the value ordering is fixed, and each greedy-grouping case
    contributes one exactly-solved subinterval per segment.
    """
    # segment cuts: 0, count, and both sides of each pairwise crossing;
    # a cut outside (0, count) becomes 0 and only adds an empty segment
    pairs = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2))
             if slopes[p] != slopes[q]]
    cuts = np.zeros((len(count), 2 + 2 * len(pairs)), dtype=np.int64)
    cuts[:, 1] = count
    for k, (p, q) in enumerate(pairs):
        f = (starts[q] - starts[p]) // (slopes[p] - slopes[q])
        for c, col in ((f, 2 + 2 * k), (f + 1, 3 + 2 * k)):
            np.copyto(cuts[:, col], c, where=(0 < c) & (c < count))
    cuts.sort(axis=1)
    row, seg = np.nonzero(cuts[:, :-1] < cuts[:, 1:])
    a, b = cuts[row, seg], cuts[row, seg + 1]
    starts = starts[:, row]

    # rank the items by (-value at the segment start, slot)
    value = [slopes[k] * a + starts[k] for k in range(3)]

    def precedes(p, q):
        if slots[p] < slots[q]:
            return value[p] >= value[q]
        return value[p] > value[q]

    b01, b02, b12 = precedes(0, 1), precedes(0, 2), precedes(1, 2)
    top = np.where(b01 & b02, 0, np.where(b12 & ~b01, 1, 2))
    low = np.where(b02 & b12, 2, np.where(b01 & ~b12, 1, 0))
    mid = 3 - top - low
    slope = np.asarray(slopes, dtype=np.int64)
    weight = np.asarray([(9, 3, 1)[s] for s in slots], dtype=np.int64)
    hi, md, lo = ((slope[k], np.choose(k, starts)) for k in (top, mid, low))
    wm, wl = weight[mid], weight[low]

    # each condition is (alpha, beta) of alpha*i + beta < 0
    def near(p, q):
        """p within the ratio bound of q: N*(p - q) < q."""
        return N * p[0] - (N + 1) * q[0], N * p[1] - (N + 1) * q[1]

    def apart(p, q):
        """p separated from q by a factor N: N*q < p."""
        return N * q[0] - p[0], N * q[1] - p[1]

    out = []

    def emit(span, code):
        keep = span[0] < span[1]
        out.append((row[keep], span[0][keep], span[1][keep],
                    np.broadcast_to(code, keep.shape)[keep]))

    # one class: extremes within the ratio bound (forces the rest)
    emit(_rows_lt_zero(*near(hi, lo), a, b), 0)
    # two classes {hi, mid} >> {lo}
    span = _rows_ge_zero(*near(hi, lo), *_rows_lt_zero(*near(hi, md), a, b))
    emit(_rows_lt_zero(*apart(md, lo), *span), wl)
    # two classes {hi} >> {mid, lo}
    split = _rows_ge_zero(*near(hi, md), a, b)
    span = _rows_lt_zero(*near(md, lo), *split)
    emit(_rows_lt_zero(*apart(hi, md), *span), wm + wl)
    # three classes
    span = _rows_lt_zero(*apart(hi, md), *_rows_ge_zero(*near(md, lo), *split))
    emit(_rows_lt_zero(*apart(md, lo), *span), wm + 2 * wl)
    return tuple(np.concatenate(col) for col in zip(*out))


def census_plan(eq: Equation, bound: int):
    """The plan the closed-form census takes for an equation at a bound
    (`coloring._plan`, passing `coloring._fits`), checked to step its inner
    and solved values by constants."""
    plan = _plan(eq.poly)
    assert _fits(plan, bound) and plan.prefix, eq
    assert not plan.den_factors, eq
    assert all(k < 2 for _, k, _ in plan.terms), eq
    assert not any(f for _, k, f in plan.terms if k == 1), eq
    return plan


def oracle_census_counts(eq: Equation, specs, bound: int, N: int):
    """The closed-form census the way the three-variable one once counted:
    every valid piece of `_linear_pieces` is sliced out of one stacked 2-D
    color array, a row per coloring from `color_array`, and compared
    element by element with the color of its first value.  A piece counts
    for a coloring only if its prefix values share a color there, read
    from the same array.  Returns the profile counts per coloring and the
    number of solutions, as `_census_linear` does."""
    vstep, wstep, blocks = _linear_pieces(census_plan(eq, bound), bound, N)
    colors2d = np.stack([s.color_array(bound) for s in specs])

    def mono(u):
        colors = colors2d[:, u]
        return (colors == colors[:, :1]).all(axis=1).T

    counts: dict = {}
    tally = [0]
    for ranks, keep, x, v, w, n in blocks(mono, tally):
        for k, (a, b, c, size) in enumerate(zip(
                x.tolist(), v.tolist(), w.tolist(), n.tolist())):
            color = colors2d[:, a:a + 1]
            stop = c + wstep * size
            mono_terms = ((colors2d[:, b:b + vstep * size:vstep] == color)
                          & (colors2d[:, c:(stop if stop >= 0 else None):wstep]
                             == color))
            sums = mono_terms.sum(axis=1)
            if keep is not None:
                sums = sums * keep[k]
            key = tuple(ranks[k].tolist())
            counts[key] = counts.get(key, 0) + sums
    out = []
    for col in range(len(specs)):
        census = {}
        for ranks, sums in counts.items():
            if sums[col]:
                census[OrderedPartition.of(*(
                    [i for i in range(len(ranks)) if ranks[i] == r]
                    for r in range(max(ranks) + 1)))] = int(sums[col])
        out.append(census)
    return out, tally[0]


def oracle_monochromatic(eq: Equation, spec, bound: int):
    """The monochromatic solutions with their colors, in
    `enumerate_solutions` order: each solution is built first, then the
    scalar colors of its coordinates are compared."""
    colors: dict[int, int] = {}
    for assignment in enumerate_solutions(eq, bound):
        for x in assignment:
            if x not in colors:
                colors[x] = spec.color(x)
        c = colors[assignment[0]]
        if all(colors[x] == c for x in assignment):
            yield assignment, c


class _Listed:
    """A stand-in for `cli._Record` whose walked records come back as they
    are given, (assignment, color) each, instead of as text columns."""
    walked = staticmethod(list)


def walk_monochromatic(eq: Equation, spec, bound: int):
    """The monochromatic solutions, each with its color, from the solutions
    stream's walked branch (`coloring._stream_columns`), taken for every
    plan: `coloring._fits` is held false, so that a plan the array walk
    would take is walked too.  Not an oracle: the stream itself, for the
    tests that check it and count its work."""
    with mock.patch.object(coloring, "_fits", lambda plan, bound: False):
        return coloring._stream_columns(eq, spec, bound, _Listed())


def oracle_head_bins(solutions, base: int, bin_count: int):
    """The standard-head histogram of every coordinate of the solutions
    and the number of coordinates: each distinct value's head is a
    `Fraction` found by repeated multiplication, in bin
    floor((head - 1) * bin_count / (base - 1))."""
    counts = Counter(x for solution in solutions for x in solution)
    bins = [0] * bin_count
    for x, count in counts.items():
        scale = 1
        while scale * base <= x:
            scale *= base
        head = Fraction(x, scale)
        bins[min(int((head - 1) * bin_count / (base - 1)),
                 bin_count - 1)] += count
    return bins, sum(counts.values())


def oracle_witness_search(eq: Equation, family, bound: int) -> list:
    """The family's colorings without a monochromatic solution, from one
    pass over the solutions that stops once every coloring has one."""
    pending = list(range(len(family)))
    if pending:
        for assignment in enumerate_solutions(eq, bound):
            pending = [i for i in pending
                       if len({family[i].color(x) for x in assignment}) > 1]
            if not pending:
                break
    return [family[i] for i in pending]


def oracle_record_lines(eq: Equation, spec, bound: int, N: int, base=None):
    """The lines of `search --mode solutions`, without their newlines, the
    way they were once built: one record object per monochromatic solution
    (its profile from `oracle_asymptotic_profile`, each head a `Fraction`),
    turned into a dict and written by `json.dumps(sort_keys=True)`."""
    for assignment, color in oracle_monochromatic(eq, spec, bound):
        partition, valid = oracle_asymptotic_profile(assignment, N)
        record = {
            "assignment": list(assignment),
            "color": color,
            "profile": {"classes": [sorted(c) for c in partition.classes],
                        "N": N, "valid": valid},
        }
        if base is not None:
            heads = []
            for x in assignment:
                scale = 1
                while scale * base <= x:
                    scale *= base
                heads.append(str(Fraction(x, scale)))
            record["heads"] = {str(base): heads}
        yield json.dumps(record, sort_keys=True)
