"""Partition-regularity decisions for linear equations, and certification of
two-class asymptotic structures.

The homogeneous decision is Rado's criterion (a nonempty zero-sum subset of
coefficients).  The asymptotic certification builds, for a coefficient
arrangement whose length-k prefix sums to zero and a closeness parameter N,
the augmented matrix of the Hindman-Leader inequality criterion: the original
equation, a pair of ratio rows (N*x_a - x_b > 0 in slack form) tying each
class to its anchor variable, and one separation row forcing the first class
above the second.  The equation is asymptotically PR in (prefix, suffix)
exactly when some positive slack weights make this matrix satisfy the
columns condition; the weight choice q = N-1 everywhere except q = 1 on the
separation row is certified here by exhibiting the certificate.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .linalg import (
    ColumnsCertificate,
    QMatrix,
    _picker,
    _zero_sum_masks,
    columns_condition,
    first_zero_sum_subset,
    verify_certificate,
)
from .model import Equation, trivial_constant_solution
from .results import FilterResult, OrderedPartition, Status, Verdict


class NotLinearError(ValueError):
    pass


class NotPRError(ValueError):
    pass


RADO_CITATION = (
    "Rado: a linear homogeneous equation is partition regular over the "
    "positive integers iff some nonempty subset of its coefficients sums to zero"
)

INHOMOGENEOUS_NOTE = (
    "inhomogeneous rule: PR iff a positive constant solution exists and the "
    "homogeneous part satisfies the Rado condition; this conjunction is "
    "applied as stated even when a constant solution alone would give "
    "monochromatic points"
)


def rado_condition(coeffs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Smallest (bitmask order) nonempty zero-sum subset of coefficients."""
    if any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero")
    return first_zero_sum_subset(coeffs)


def linear_pr_verdict(eq: Equation) -> Verdict:
    """Full PR decision for a linear equation (constant term permitted)."""
    poly = eq.poly
    if not poly.is_linear():
        raise NotLinearError("equation is not linear")
    coeffs = poly.linear_coefficients()
    c0 = poly.constant_term()
    subset = rado_condition(coeffs)
    names = lambda J: [poly.variables[i] for i in J]

    if c0 == 0:
        if subset is not None:
            return Verdict(
                Status.PR,
                certificate={"kind": "rado_subset", "variables": names(subset)},
            )
        reason = FilterResult(
            "linear-rado", fired=True, applicable=True,
            evidence={"coefficients": coeffs},
            citation=RADO_CITATION,
        )
        return Verdict(Status.NOT_PR, reasons=[reason])

    constant = trivial_constant_solution(poly)
    if constant is not None and subset is not None:
        return Verdict(
            Status.PR,
            certificate={
                "kind": "constant_and_rado",
                "constant": constant,
                "variables": names(subset),
            },
            notes=[INHOMOGENEOUS_NOTE],
        )
    evidence = {
        "coefficients": coeffs,
        "constant_term": c0,
        "has_constant_solution": constant is not None,
        "homogeneous_part_rado": subset is not None,
    }
    reason = FilterResult(
        "linear-inhomogeneous", fired=True, applicable=True,
        evidence=evidence, citation=RADO_CITATION,
    )
    notes = [INHOMOGENEOUS_NOTE]
    if constant is not None and subset is None:
        notes.append(
            f"constant solution k={constant} exists but the homogeneous part "
            "fails the Rado condition; the conjunctive rule wins"
        )
    return Verdict(Status.NOT_PR, reasons=[reason], notes=notes)


def asymptotic_candidates_linear(eq: Equation) -> list[OrderedPartition]:
    """Candidate asymptotic structures of a PR linear homogeneous equation,
    one per nonempty zero-sum subset J of the coefficients in ascending
    bitmask order: the two-class partition (I1 = J, I2 = rest) for a
    proper J, the single-class partition (J,) when J is every variable."""
    coeffs = _pr_linear_coefficients(eq)
    pick = _picker(range(len(coeffs)))
    full = (1 << len(coeffs)) - 1
    return [OrderedPartition((frozenset(pick(mask)),) if mask == full else
                             (frozenset(pick(mask)), frozenset(pick(full ^ mask))))
            for mask in _zero_sum_masks([(c,) for c in coeffs])]


def _pr_linear_coefficients(eq: Equation) -> list[int]:
    """The coefficients of a PR linear homogeneous equation; NotLinearError
    or NotPRError for any other equation."""
    poly = eq.poly
    if not poly.is_linear() or poly.constant_term() != 0:
        raise NotLinearError("equation is not linear homogeneous")
    coeffs = poly.linear_coefficients()
    if rado_condition(coeffs) is None:
        raise NotPRError("equation is not partition regular")
    return coeffs


# ---------------------------------------------------------------------------
# augmented-matrix construction


def hl_slack_pairs(k: int, n: int) -> list[tuple[int, int]]:
    """Slack labels in construction order (1-based variable positions)."""
    pairs = []
    for i in range(2, k + 1):
        pairs.extend([(1, i), (i, 1)])
    for j in range(k + 2, n + 1):
        pairs.extend([(k + 1, j), (j, k + 1)])
    pairs.append((1, k + 1))
    return pairs


def default_hl_weights(k: int, n: int, N: int) -> dict[tuple[int, int], int]:
    """The certified weight choice: 1 on the separation slack, N-1 elsewhere."""
    weights = {pair: N - 1 for pair in hl_slack_pairs(k, n)}
    weights[(1, k + 1)] = 1
    return weights


def hl_matrix(coeffs: Sequence[int], k: int, N: int,
              weights: Mapping[tuple[int, int], int]) -> QMatrix:
    """Augmented matrix for the two-class inequality system.

    Row 0 is the equation.  For each prefix variable i in 2..k a pair of
    ratio rows anchored at x_1 (N*x_1 - x_i - q*z and -x_1 + N*x_i - q*z'),
    the same for each suffix variable j in k+2..n anchored at x_{k+1}, and a
    final separation row x_1 - x_{k+1} - q*z''.  Every slack variable gets a
    fresh column, in the order of `hl_slack_pairs`.  Coefficients, N and
    weights are integers, so the rows are integer rows as they stand.
    """
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
    ncols = n + len(pairs)
    entries = [0] * ((len(pairs) + 1) * ncols)
    entries[:n] = coeffs
    last = len(pairs) - 1
    for t, pair in enumerate(pairs):
        q = weights.get(pair)
        if q is None:
            raise ValueError(f"missing slack weight for {pair}")
        if q <= 0:
            raise ValueError(f"slack weight for {pair} must be positive")
        # slack t is column n + t of row t + 1: N*x_a - x_b - q*z, or the
        # separation row x_1 - x_{k+1} - q*z'' for the last pair
        a, b = pair
        row = (t + 1) * ncols
        entries[row + a - 1] = 1 if t == last else N
        entries[row + b - 1] = -1
        entries[row + n + t] = -q
    return QMatrix(len(pairs) + 1, ncols, tuple(entries))


def hl_shape(n: int) -> tuple[int, int]:
    """Shape of the constructed matrix: (2n-2) x (3n-3)."""
    return 2 * n - 2, 3 * n - 3


def hl_conventional_shape(n: int) -> tuple[int, int]:
    """The 2n x (3n-1) count that presentations quoting the construction
    use; it pads the built matrix with redundant rows and slack columns."""
    return 2 * n, 3 * n - 1


def _fast_path_blocks(k: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Predicted certificate: the first class's variable columns, their
    ratio slacks, and the separation slack sum to zero; everything else is
    one further block (0-based columns)."""
    suffix = n + 2 * (k - 1)  # the first suffix ratio slack
    separation = 3 * n - 4
    return ((*range(k), *range(n, suffix), separation),
            (*range(k, n), *range(suffix, separation)))


def verify_hl_choice(coeffs: Sequence[int], k: int, N: int) -> Optional[ColumnsCertificate]:
    """Build the augmented matrix with the standard weight choice and return
    a columns-condition certificate.

    The predicted two-block certificate of `_fast_path_blocks` holds for
    every valid input.  Its first block D1 (x_1..x_k, their ratio slacks
    and the separation slack) sums to zero: to the prefix sum in row 0, to
    N - 1 - (N - 1) in each ratio row and to 1 - 1 in the separation row.
    The second block sums to (c_{k+1} + ... + c_n)*e_0 - e_sep, and
    span(D1) holds e_sep (the separation slack), each prefix ratio row's
    unit vector (its slack, as N - 1 != 0) and so e_0 (x_1's column less
    those, as c_1 != 0).  The prediction is still checked, and the
    exhaustive search runs if it fails.
    """
    n = len(coeffs)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    prefix_sum = sum(coeffs[:k])
    if prefix_sum != 0:
        raise ValueError(f"prefix of length {k} sums to {prefix_sum}, not zero")
    matrix = hl_matrix(coeffs, k, N, default_hl_weights(k, n, N))
    predicted = ColumnsCertificate(_fast_path_blocks(k, n))
    if verify_certificate(matrix, predicted):
        return predicted
    return columns_condition(matrix)
