"""Exact integer linear algebra and the columns-condition decision.

A matrix satisfies the columns condition when its columns admit an ordered
partition D_1, ..., D_r such that the columns of D_1 sum to zero and every
later block's sum lies in the rational span of all earlier columns.  This is
the classical criterion governing partition regularity of linear systems.
The decision here is greedy and exact: consuming more columns never
removes a completion, so the first valid block at each step will do (see
columns_condition).

Rows are scaled to integers once, on input.  Scaling a row changes neither
which column sets sum to zero nor span membership, so everything after that
is integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Iterator, Optional, Sequence

from .errors import CapExceededError

Vector = tuple[int, ...]

COLUMN_CAP = 22


def _int_row(row: Sequence) -> Vector:
    """The row scaled to integers by the lcm of its entries' denominators."""
    if all(isinstance(x, int) for x in row):
        # integer rows (every HL matrix) skip building Fractions
        return tuple(row)
    vals = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in vals))
    return tuple(x.numerator * (scale // x.denominator) for x in vals)


@dataclass(frozen=True)
class QMatrix:
    """A rational matrix held as integer rows (each row scaled to clear its
    denominators, which preserves the columns condition)."""

    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the declared shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QMatrix":
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        entries = tuple(x for r in rows for x in _int_row(r))
        return QMatrix(len(rows), ncols, entries)

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return self.entries[j::self.cols]

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]


@dataclass(frozen=True)
class ColumnsCertificate:
    """Ordered blocks of column indices (0-based, each block sorted)."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("certificate blocks must be nonempty")
            if seen & set(block):
                raise ValueError("certificate blocks must be disjoint")
            seen.update(block)


_ENTRY = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _entry(tok: str) -> Fraction:
    # Fraction also takes decimals, exponents (at unbounded cost), "_" and
    # non-ASCII digits
    if not _ENTRY.fullmatch(tok):
        raise ValueError(f"{tok!r} is not an integer or p/q")
    return Fraction(tok)


def parse_matrix_text(text: str) -> QMatrix:
    """One row per line, whitespace-separated entries, each an ASCII integer
    or p/q with an optional sign."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append([_entry(tok) for tok in line.split()])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad matrix entry on line {lineno}: {exc}") from exc
    return QMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# span


class _Basis:
    """Incremental fraction-free echelon basis of integer vectors.

    Row t has pivot column pivots[t], a positive pivot entry, and zeros in
    the pivot columns of every earlier row.
    """

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def reduce(self, v: Sequence[int]) -> list[int]:
        """Apply v -> row[p]*v - v[p]*row for every basis row in order.

        The step runs even where v[p] == 0 (there it is a plain scaling by
        row[p]), so the whole map is linear; its kernel is exactly the span.
        A sum of vectors therefore lies in the span iff their reductions sum
        to zero.
        """
        for row, p in zip(self.rows, self.pivots):
            a, b = row[p], v[p]
            if b:
                v = [a * x - b * y for x, y in zip(v, row)]
            elif a != 1:
                v = [a * x for x in v]
        return list(v)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec if independent; returns True when the rank grew."""
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        g = gcd(*v)
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = [x // g for x in v]
        self.rows.append(v)
        self.pivots.append(pivot)
        return True


def in_span(generators: Sequence[Sequence], vector: Sequence) -> bool:
    """True iff vector is a rational combination of the generators.

    The empty generator set spans only the zero vector.
    """
    vec = _int_row(vector)
    basis = _Basis()
    for g in generators:
        if len(g) != len(vec):
            raise ValueError(
                f"dimension mismatch: generator has {len(g)} entries, vector {len(vec)}"
            )
        basis.add(_int_row(g))
    return basis.contains(vec)


# ---------------------------------------------------------------------------
# zero-sum subsets


def _subset_sums(vectors: Sequence[Sequence[int]], dim: int) -> list[Vector]:
    """Sums of every subset of vectors, indexed by mask (bit i = vectors[i])."""
    sums = [(0,) * dim]
    for v in vectors:
        sums += [tuple(map(add, s, v)) for s in sums]
    return sums


def _zero_sum_masks(vectors: Sequence[Sequence[int]]) -> Iterator[int]:
    """Masks of the nonempty zero-sum subsets of equal-length integer
    vectors (bit i = vectors[i]), in ascending order.

    Meet in the middle (Horowitz-Sahni): the subset sums of the low half are
    tabled once, then the high-half masks are walked in ascending order and
    each one looks up the low masks whose sums cancel its own.  A mask is
    high << h | low, so this order is already ascending.  More than
    COLUMN_CAP vectors raise CapExceededError.
    """
    if len(vectors) > COLUMN_CAP:
        raise CapExceededError(COLUMN_CAP)
    h = len(vectors) // 2
    dim = len(vectors[0])
    lows: dict[Vector, list[int]] = {}
    for low, s in enumerate(_subset_sums(vectors[:h], dim)):
        lows.setdefault(s, []).append(low)
    negated = [[-x for x in v] for v in vectors[h:]]
    for high, s in enumerate(_subset_sums(negated, dim)):
        for low in lows.get(s, ()):
            if high or low:
                yield high << h | low


def _pick(mask: int, items: Sequence[int]) -> tuple[int, ...]:
    """The items whose positions are set in mask."""
    return tuple([x for j, x in enumerate(items) if mask >> j & 1])


def _subset_tuples(items: Sequence) -> list[tuple]:
    """The items of every subset, indexed by mask (bit i = items[i])."""
    tuples: list[tuple] = [()]
    for x in items:
        tuples += [t + (x,) for t in tuples]
    return tuples


def _picker(items: Sequence) -> Callable[[int], tuple]:
    """`_pick` over fixed items for many masks: the mask is split at the
    same h as in _zero_sum_masks, and each half's tuple is read from a
    table of 2^h or 2^(n-h) entries, so a pick is one concatenation."""
    items = tuple(items)
    h = len(items) // 2
    lows, highs = _subset_tuples(items[:h]), _subset_tuples(items[h:])
    low_bits = (1 << h) - 1
    return lambda mask: lows[mask & low_bits] + highs[mask >> h]


def zero_sum_subsets(coeffs: Sequence) -> list[tuple[int, ...]]:
    """All nonempty index subsets whose coefficients sum to zero, in
    ascending bitmask order.  Subsets are 0-based index tuples."""
    if not coeffs:
        raise ValueError("coefficient list must be nonempty")
    if any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero")
    # the masks first: the enumerator checks the column cap
    masks = list(_zero_sum_masks([(c,) for c in _int_row(coeffs)]))
    return list(map(_picker(range(len(coeffs))), masks))


def first_zero_sum_subset(coeffs: Sequence) -> Optional[tuple[int, ...]]:
    """Smallest (ascending bitmask order) nonempty zero-sum index subset."""
    if not coeffs:
        raise ValueError("coefficient list must be nonempty")
    mask = next(_zero_sum_masks([(c,) for c in _int_row(coeffs)]), None)
    return None if mask is None else _pick(mask, range(len(coeffs)))


# ---------------------------------------------------------------------------
# columns condition


def columns_condition(matrix: QMatrix) -> Optional[ColumnsCertificate]:
    """The certificate whose every block is the first (ascending bitmask
    order) valid block of the remaining columns, or None if none exists.

    A block is valid when its sum lies in the span of the consumed columns,
    that is, when its reduced columns (see _Basis.reduce) sum to zero.  Not
    backtracking is exact: if a completion exists from a consumed set S,
    one also exists from every S' containing S (drop S' from each later
    block: each block sum changes only by columns of S', which lie in the
    span).  So a valid block never loses a completion, and a step with no
    valid block means there is none.  More than COLUMN_CAP columns raise
    CapExceededError.
    """
    if matrix.rows > matrix.cols:
        # an echelon basis of the rows keeps every linear relation among the
        # columns and at most `cols` rows, which bounds the subset-sum tables
        echelon = _Basis()
        for r in range(matrix.rows):
            echelon.add(matrix.row(r))
        matrix = QMatrix.from_rows(echelon.rows or [[0] * matrix.cols])
    cols = matrix.columns()
    basis = _Basis()
    rem = list(range(matrix.cols))
    blocks: list[tuple[int, ...]] = []
    while rem:
        mask = next(_zero_sum_masks([basis.reduce(cols[i]) for i in rem]), None)
        if mask is None:
            return None
        block = _pick(mask, rem)
        for i in block:
            basis.add(cols[i])
        blocks.append(block)
        rem = [i for j, i in enumerate(rem) if not mask >> j & 1]
    return ColumnsCertificate(tuple(blocks))


def verify_certificate(matrix: QMatrix, cert: ColumnsCertificate) -> bool:
    """Independent exact re-check of a certificate against its matrix: each
    block's column sum must lie in the span of the columns before it (the
    first block's in the empty span, so it must be zero)."""
    n = matrix.cols
    covered = [i for block in cert.blocks for i in block]
    if sorted(covered) != list(range(n)):
        return False
    cols = matrix.columns()
    basis = _Basis()
    previous: tuple[int, ...] = ()
    for block in cert.blocks:
        for i in previous:
            basis.add(cols[i])
        total = [sum(entries) for entries in zip(*(cols[i] for i in block))]
        if not basis.contains(total):
            return False
        previous = block
    return True
