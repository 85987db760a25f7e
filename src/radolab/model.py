"""Data model: multivariate integer polynomials and the equations P = 0.

Polynomials are kept in a canonical form at all times:

  * variables are exactly the names that occur, sorted;
  * monomials are combined (no duplicate exponent maps, no zero
    coefficients) and listed in graded-lex order, largest first;
  * exponent maps never store a zero exponent.

Coefficients are Python ints, so every computation downstream is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from . import univariate


class ZeroPolynomialError(ValueError):
    """Raised by analyses that are meaningless for the zero polynomial."""


class MissingVariableError(KeyError):
    """An evaluation assignment does not cover every variable."""


@dataclass(frozen=True)
class Monomial:
    """coefficient * prod(x_i ** e_i); exponents keyed by variable index."""

    coeff: int
    exponents: tuple[tuple[int, int], ...]  # (var index, exponent > 0), index-sorted

    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def is_constant(self) -> bool:
        return not self.exponents

    def is_univariate(self) -> bool:
        return len(self.exponents) <= 1


def _grlex_key(mono: Monomial):
    """Graded-lex key without dense exponent vectors: at the first variable
    where two monomials of one degree differ, the one that has it, or has it
    to the higher power, is larger, and (-index, exponent) pairs in index
    order compare exactly so."""
    return (mono.degree(), tuple((-i, e) for i, e in mono.exponents))


@dataclass(frozen=True)
class Polynomial:
    """Normalized multivariate integer polynomial."""

    variables: tuple[str, ...]
    monomials: tuple[Monomial, ...]

    @staticmethod
    def from_terms(terms: Mapping[tuple[tuple[str, int], ...], int]) -> "Polynomial":
        """Build the canonical polynomial from {((name, exp), ...): coeff}.

        Like terms are combined, zero terms dropped, unused variables pruned
        and the rest sorted by name.
        """
        combined: dict[frozenset, int] = {}
        for key, coeff in terms.items():
            cleaned = frozenset((v, e) for v, e in key if e != 0)
            combined[cleaned] = combined.get(cleaned, 0) + coeff
        combined = {k: c for k, c in combined.items() if c != 0}
        names = sorted({v for key in combined for v, _ in key})
        index = {v: i for i, v in enumerate(names)}
        monos = [
            Monomial(coeff, tuple(sorted((index[v], e) for v, e in key)))
            for key, coeff in combined.items()
        ]
        monos.sort(key=_grlex_key, reverse=True)
        return Polynomial(tuple(names), tuple(monos))

    def is_zero(self) -> bool:
        return not self.monomials

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        return max((m.degree() for m in self.monomials), default=-1)

    def constant_term(self) -> int:
        for m in self.monomials:
            if m.is_constant():
                return m.coeff
        return 0

    def is_linear(self) -> bool:
        """Total degree 1; a constant term is permitted."""
        return self.total_degree() == 1

    def linear_coefficients(self) -> list[int]:
        """Per-variable coefficients of a linear polynomial."""
        if not self.is_linear():
            raise ValueError("polynomial is not linear")
        coeffs = [0] * len(self.variables)
        for m in self.monomials:
            if m.exponents:
                (i, _e), = m.exponents
                coeffs[i] = m.coeff
        return coeffs

    def sign_canonical(self) -> "Polynomial":
        """Flip the global sign so the leading monomial is positive."""
        if self.monomials and self.monomials[0].coeff < 0:
            return Polynomial(
                self.variables,
                tuple(Monomial(-m.coeff, m.exponents) for m in self.monomials),
            )
        return self


@dataclass(frozen=True)
class Equation:
    """poly = 0, with the global sign normalized; source text kept as metadata."""

    poly: Polynomial
    source_lhs: Optional[str] = field(default=None, compare=False)
    source_rhs: Optional[str] = field(default=None, compare=False)

    @staticmethod
    def from_polynomial(poly: Polynomial, lhs: str | None = None,
                        rhs: str | None = None) -> "Equation":
        return Equation(poly.sign_canonical(), lhs, rhs)


# ---------------------------------------------------------------------------
# operations


def evaluate(poly: Polynomial, assignment: Mapping[str, int]) -> int:
    """Exact value of poly at a point given by variable name."""
    missing = [v for v in poly.variables if v not in assignment]
    if missing:
        raise MissingVariableError(f"assignment missing variables: {missing}")
    total = 0
    for m in poly.monomials:
        term = m.coeff
        for i, e in m.exponents:
            term *= assignment[poly.variables[i]] ** e
        total += term
    return total


def is_homogeneous(poly: Polynomial) -> bool:
    """True iff all monomials share one total degree."""
    if poly.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no degree")
    degrees = {m.degree() for m in poly.monomials}
    return len(degrees) == 1


def collapse_to_univariate(poly: Polynomial, subset: Iterable[int]) -> list[int]:
    """Substitute a single variable x for every variable in the chosen
    monomials and combine like powers:  sum_i coeff_i * x^deg(M_i).

    Returns univariate coefficients, lowest power first (may be empty,
    meaning identically zero).
    """
    indices = sorted(set(subset))
    if not indices:
        raise ValueError("monomial subset must be nonempty")
    if indices[0] < 0 or indices[-1] >= len(poly.monomials):
        raise IndexError(f"monomial index out of range: {indices}")
    out = [0] * (max(poly.monomials[i].degree() for i in indices) + 1)
    for i in indices:
        m = poly.monomials[i]
        out[m.degree()] += m.coeff
    return univariate.normalize(out)


def trivial_constant_solution(poly: Polynomial) -> Optional[int]:
    """Smallest positive integer k with P(k, ..., k) = 0, if any.

    The constant diagonal values are exactly the univariate collapse q over
    all monomials, so the search reduces to the smallest positive integer
    root of q.  Every positive root lies below the positive-root bound, and
    the roots are where the exact integer windows of q >= 0 and -q >= 0
    meet, so the cost grows with the bit length of the coefficients, not
    their size.
    """
    if poly.is_zero():
        raise ZeroPolynomialError("the zero polynomial is uninteresting here")
    q = collapse_to_univariate(poly, range(len(poly.monomials)))
    if not q:
        return 1  # collapse vanishes identically: every constant works
    q, _ = univariate.strip_zero_roots(q)
    if len(q) == 1:
        return None
    negated = [-c for c in q]
    bound = univariate.positive_root_bound(q)
    for a, b in univariate._nonneg_windows(q, 1, bound):
        roots = univariate._nonneg_windows(negated, a, b)
        if roots:
            return roots[0][0]
    return None
