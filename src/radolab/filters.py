"""Necessary conditions for partition regularity of nonlinear equations.

Every filter here is sound for NOT-PR only: when it fires, some finite
coloring admits no nonconstant monochromatic solution; when it stays quiet,
nothing is concluded.  The pipeline combines them into a single verdict,
with a small table of equations whose partition regularity is a known
classical result used to annotate UNKNOWN outcomes.

Verdicts for nonlinear equations address nonconstant solutions: an equation
that vanishes on the diagonal (constant solutions) has monochromatic points
for free, and the interesting question, which these criteria answer, is
whether anything else is forced.  A constant solution, when present, is
reported in the verdict notes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import univariate
from .errors import CapExceededError
from .linalg import first_zero_sum_subset
from .linear import RADO_CITATION, linear_pr_verdict, rado_condition
from .model import (
    Equation,
    Polynomial,
    ZeroPolynomialError,
    collapse_to_univariate,
    is_homogeneous,
    trivial_constant_solution,
)
from .parser import pretty
from .results import FilterResult, Status, Verdict

MONOMIAL_CAP = 20
# with a large constant term, the constant search takes the forward
# difference at every degree below the total degree d, each a Taylor shift
# of about d^2/2 additions, and bisects each level's windows: at d = 128
# it took 2 ms with an 11-digit constant and 37 ms with a 301-digit one
# (2-core Xeon, Python 3.11)
DEGREE_CAP = 128

CITATIONS = {
    "homogeneous-rado": (
        "a partition regular homogeneous polynomial equation must have a "
        "nonempty zero-sum subset of coefficients"
    ),
    "single-variable-leading": (
        "when the top-degree part consists of single-variable terms "
        "a_i*x_i^d_i, partition regularity forces a nonempty equal-degree "
        "subset of them with zero coefficient sum"
    ),
    "exponent-rado": (
        "partition regularity forces some pair of monomials whose exponent "
        "multisets admit equal nonempty subset sums"
    ),
    "maximal-root": (
        "partition regularity forces some subset of monomials whose "
        "one-variable collapse has a positive real root"
    ),
    "fc-degree": (
        "a*x^n + b*y^n = P(z) with n >= 2 is not partition regular unless "
        "deg P is n or n-1 or a constant solution exists"
    ),
    "fc-same-power": (
        "a*x^n - a*y^n = c*z^n with n > 3 has finitely many coprime "
        "solutions (Darmon-Granville), hence is not partition regular"
    ),
    "fc-poly-sum": (
        "a*x^n - a*y^n = P_1(z_1) + ... + P_m(z_m) is not partition regular "
        "when no deg P_i is n or n-1"
    ),
    "fc-power-product": (
        "a*x^n - a*y^n = c*z_1^k_1*...*z_m^k_m is not partition regular "
        "when no subset of the k_i sums to n or n-1"
    ),
    "fc-mixed-linear": (
        "a*x + b*y = c*w^m*z^n with a+b != 0 and m, n > 1 is not "
        "partition regular"
    ),
}

OPEN_POWER_FAMILY_NOTE = (
    "matches the open family x^n - y^n = z^(n-1) with n >= 3: "
    "no implemented criterion decides its partition regularity"
)


@dataclass(frozen=True)
class FermatCatalanShape:
    """Bound pattern a*x^n + b*y^n = RHS, for the rule battery below."""

    a: int
    b: int
    n: int
    x: str
    y: str
    c: int
    k: int


def _inapplicable(name: str) -> FilterResult:
    return FilterResult(name, fired=False, applicable=False,
                        citation=CITATIONS[name])


def _result(name: str, fired: bool, **evidence) -> FilterResult:
    return FilterResult(name, fired=fired, applicable=True,
                        evidence=evidence, citation=CITATIONS[name])


# ---------------------------------------------------------------------------
# generic coefficient/degree filters


def filter_homogeneous_rado(eq: Equation) -> FilterResult:
    """Zero-sum subset of coefficients, for homogeneous equations."""
    poly = eq.poly
    if not is_homogeneous(poly):
        return _inapplicable("homogeneous-rado")
    coeffs = [m.coeff for m in poly.monomials]
    subset = rado_condition(coeffs)
    if subset is None:
        return _result("homogeneous-rado", True, coefficients=coeffs)
    return _result("homogeneous-rado", False, zero_sum_subset=list(subset))


def _leading_terms(poly: Polynomial) -> Optional[dict[int, tuple[int, int]]]:
    """Bind the single-variable leading pattern.

    Returns {var index: (degree, coefficient)} when the equation is a sum of
    single-variable polynomials, or has per-variable leading pure powers
    whose degrees all exceed the total degree of the remaining part; None
    when neither pattern matches.
    """
    if not poly.variables:
        return None
    # the highest pure power of each variable, with its coefficient
    leading: dict[int, tuple[int, int]] = {}
    for m in poly.monomials:
        if len(m.exponents) == 1:
            (i, e), = m.exponents
            if i not in leading or e > leading[i][0]:
                leading[i] = (e, m.coeff)
    if all(m.is_univariate() for m in poly.monomials):
        return leading or None
    if len(leading) != len(poly.variables):
        return None
    rest_degree = -1
    for m in poly.monomials:
        if len(m.exponents) == 1:
            (i, e), = m.exponents
            if e == leading[i][0]:
                continue
        rest_degree = max(rest_degree, m.degree())
    if rest_degree >= min(d for d, _ in leading.values()):
        return None
    return leading


def filter_single_variable_leading(eq: Equation) -> FilterResult:
    """Equal-degree zero-sum requirement on per-variable leading terms."""
    leading = _leading_terms(eq.poly)
    if leading is None:
        return _inapplicable("single-variable-leading")
    by_degree: dict[int, list[int]] = {}
    for d, a in leading.values():
        by_degree.setdefault(d, []).append(a)
    witness = None
    for d, coeffs in sorted(by_degree.items()):
        if rado_condition(coeffs) is not None:
            witness = d
            break
    info = {
        eq.poly.variables[i]: {"degree": d, "coefficient": a}
        for i, (d, a) in sorted(leading.items())
    }
    if witness is None:
        return _result("single-variable-leading", True, leading_terms=info)
    return _result("single-variable-leading", False, leading_terms=info,
                   cancelling_degree=witness)


def _subset_sums(values: list[int]) -> set[int]:
    sums: set[int] = set()
    for v in values:
        sums |= {s + v for s in sums} | {v}
    return sums


def filter_exponent_rado(eq: Equation) -> FilterResult:
    """Every pair of monomials must have exponent multisets with matching
    nonempty subset sums; fires when no pair does."""
    monos = eq.poly.monomials
    if len(monos) < 2:
        return _inapplicable("exponent-rado")
    sums = [_subset_sums([e for _, e in m.exponents]) for m in monos]
    for i in range(len(monos)):
        for j in range(i + 1, len(monos)):
            if sums[i] & sums[j]:
                return _result("exponent-rado", False, matching_pair=[i, j],
                               common_sums=sorted(sums[i] & sums[j]))
    return _result("exponent-rado", True,
                   exponent_sums=[sorted(s) for s in sums])


def sturm_positive_root(p: list[int]) -> bool:
    """Exact test for a real root in (0, +inf); the identically-zero
    polynomial counts as having one."""
    return univariate.has_positive_root(p)


def filter_maximal_root(eq: Equation) -> FilterResult:
    """For a PR equation, the monomials of the dominating scale, collapsed
    to one variable, must vanish somewhere on the positive axis.  Every
    nonempty subset is tried since the dominating set is not known; an
    identically-zero collapse counts as vanishing.  The evidence of a quiet
    filter is the first rootful subset in ascending bitmask order.

    That subset is the earlier of (a) the first pair i < j (by j, then i)
    with opposite signs and different total degrees and (b) the first
    zero-sum subset inside one total degree; the filter fires when neither
    exists.  Mapping a degree's own first zero-sum subset to monomial
    positions keeps the bitmask order, so (b) is the least of those.
    - A pair as in (a) collapses to a binomial with one sign change, so it
      has a positive root (Descartes).
    - A subset of one sign collapses to a nonzero polynomial without sign
      changes, so it has no positive root.
    - A subset of both signs below (a) holds no pair as in (a), whose mask
      would be at most the subset's and so below (a).  So any two of its
      members of opposite signs share one degree d, and every other
      member, having the opposite sign to one of them, has degree d too.
      The subset collapses to (sum c) x^d, which is rootful iff sum c = 0:
      it is at or above (b).
    """
    poly = eq.poly
    t = len(poly.monomials)
    if t > MONOMIAL_CAP:
        raise CapExceededError(
            MONOMIAL_CAP, f"{t} monomials exceed the cap ({MONOMIAL_CAP})")
    coeffs = [m.coeff for m in poly.monomials]
    degrees = [m.degree() for m in poly.monomials]
    pair = next((1 << i | 1 << j for j in range(t) for i in range(j)
                 if (coeffs[i] > 0) != (coeffs[j] > 0)
                 and degrees[i] != degrees[j]), None)
    masks = [] if pair is None else [pair]
    by_degree: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    for members in by_degree.values():
        subset = first_zero_sum_subset([coeffs[i] for i in members])
        if subset is not None:
            masks.append(sum(1 << members[k] for k in subset))
    if not masks:
        return _result("maximal-root", True, monomial_count=t,
                       subsets_checked=(1 << t) - 1)
    mask = min(masks)
    subset = [i for i in range(t) if mask >> i & 1]
    return _result("maximal-root", False, rootful_subset=subset,
                   collapse=collapse_to_univariate(poly, subset))


# ---------------------------------------------------------------------------
# Fermat-Catalan shapes


def _pure_power(mono) -> Optional[tuple[int, int]]:
    """(variable index, exponent) when the monomial is c * x^e."""
    if len(mono.exponents) == 1:
        return mono.exponents[0]
    return None


def _power_pair_splits(poly: Polynomial):
    """Yield (shape fragment, rest indices) for every pair of monomials that
    are pure powers of two distinct variables with one common exponent."""
    monos = poly.monomials
    for i in range(len(monos)):
        pi = _pure_power(monos[i])
        if pi is None:
            continue
        for j in range(i + 1, len(monos)):
            pj = _pure_power(monos[j])
            if pj is None or pj[1] != pi[1] or pj[0] == pi[0]:
                continue
            rest = [r for r in range(len(monos)) if r not in (i, j)]
            yield (i, pi, j, pj), rest


def _rest_as_univariate_groups(poly: Polynomial, rest: list[int],
                               excluded: set[int]) -> Optional[dict[int, int]]:
    """When every rest monomial is univariate (or constant) in variables
    outside `excluded`, return {var index: degree of its polynomial}."""
    degrees: dict[int, int] = {}
    for r in rest:
        m = poly.monomials[r]
        if m.is_constant():
            continue
        pp = _pure_power(m)
        if pp is None or pp[0] in excluded:
            return None
        v, e = pp
        degrees[v] = max(degrees.get(v, 0), e)
    return degrees


_FC_RULES = ("fc-degree", "fc-same-power", "fc-poly-sum", "fc-power-product",
             "fc-mixed-linear")


def filter_fermat_catalan(eq: Equation) -> list[FilterResult]:
    """The rule battery for two-pure-powers shapes; each rule reports
    independently (inapplicable when its shape is absent)."""
    return _fermat_catalan(eq, trivial_constant_solution(eq.poly))[0]


def _fermat_catalan(eq: Equation, constant: Optional[int]) -> tuple[
        list[FilterResult], Optional[FermatCatalanShape]]:
    """`filter_fermat_catalan`, given the equation's constant solution, and
    `match_power_difference` of its polynomial, from one scan of the pairs."""
    poly = eq.poly
    names = poly.variables
    results = {name: _inapplicable(name) for name in _FC_RULES}
    shape = None

    def record(name: str, fired: bool, **evidence):
        # a fired rule wins over quiet, quiet over inapplicable
        current = results[name]
        if (fired, True) > (current.fired, current.applicable):
            results[name] = _result(name, fired, **evidence)

    for (i, (xi, n), j, (yj, _n), ), rest in _power_pair_splits(poly):
        a, b = poly.monomials[i].coeff, poly.monomials[j].coeff
        x, y = names[xi], names[yj]
        shape_base = dict(a=a, b=b, n=n, x=x, y=y)

        # the rest as univariate polynomials, for R1 and R3
        groups = (_rest_as_univariate_groups(poly, rest, {xi, yj})
                  if n >= 2 and rest else None)

        # R1: a*x^n + b*y^n = P(z), single z (P may be constant: no z at all)
        if groups is not None and len(groups) <= 1:
            zname, k = next(((names[v], d) for v, d in groups.items()),
                            (None, 0))
            record("fc-degree", k not in (n, n - 1) and constant is None,
                   **shape_base, z=zname, rhs_degree=k,
                   constant_solution=constant)

        # R2: a*x^n - a*y^n = c*z^n, n > 3; the first a*x^n - a*y^n = c*z^k
        # is the power difference
        if len(rest) == 1:
            pp = _pure_power(poly.monomials[rest[0]])
            if pp is not None and pp[0] not in (xi, yj):
                c = -poly.monomials[rest[0]].coeff
                if pp[1] == n:
                    record("fc-same-power", a + b == 0 and n > 3,
                           **shape_base, c=c, z=names[pp[0]])
                if shape is None and a + b == 0:
                    pos, neg = (x, y) if a > 0 else (y, x)
                    if c < 0:
                        pos, neg, c = neg, pos, -c
                    shape = FermatCatalanShape(a=abs(a), b=-abs(a), n=n,
                                               x=pos, y=neg, c=c, k=pp[1])

        # R3: a*x^n - a*y^n = sum of P_i(z_i) over >= 2 variables
        if a + b == 0 and groups is not None and len(groups) >= 2:
            record("fc-poly-sum",
                   all(d not in (n, n - 1) for d in groups.values()),
                   a=a, n=n, x=x, y=y,
                   rhs_degrees={names[v]: d for v, d in sorted(groups.items())})

        # R4: a*x^n - a*y^n = c * product of z_i^k_i (one monomial, >= 2 vars)
        if n >= 2 and a + b == 0 and len(rest) == 1:
            m = poly.monomials[rest[0]]
            if len(m.exponents) >= 2 and all(v not in (xi, yj) for v, _ in m.exponents):
                exps = [e for _, e in m.exponents]
                achievable = _subset_sums(exps)
                fired = not achievable & {n, n - 1}
                # only a firing rule lists the subset sums it ruled out
                record("fc-power-product", fired, a=a, n=n, x=x, y=y,
                       c=-m.coeff, product_exponents=sorted(exps),
                       **({"subset_sums": sorted(achievable)} if fired else {}))

        # R5: a*x + b*y = c*w^m*z^n with m, n > 1
        if n == 1 and len(rest) == 1:
            m = poly.monomials[rest[0]]
            if (len(m.exponents) == 2
                    and all(v not in (xi, yj) for v, _ in m.exponents)
                    and all(e > 1 for _, e in m.exponents)):
                (wv, me), (zv, ne) = m.exponents
                record("fc-mixed-linear", a + b != 0, a=a, b=b, x=x, y=y,
                       c=-m.coeff, w=names[wv], m=me, z=names[zv], n=ne)

    return [results[name] for name in _FC_RULES], shape


def match_power_difference(poly: Polynomial) -> Optional[FermatCatalanShape]:
    """Bind a*x^n - a*y^n = c*z^k (all three monomials pure powers)."""
    if len(poly.monomials) != 3:
        return None
    return _fermat_catalan(Equation(poly), None)[1]


def normalize_fermat_catalan(eq: Equation) -> Optional[Equation]:
    """Reduce a*x^n - a*y^n = c*z^(n-1) (a, c > 0) to the coefficient-free
    x^n - y^n = z^(n-1); the two are PR-equivalent."""
    return _reduce(eq, match_power_difference(eq.poly))


def _reduce(eq: Equation, shape: Optional[FermatCatalanShape]
            ) -> Optional[Equation]:
    """`normalize_fermat_catalan` of eq, whose match is `shape`."""
    if shape is None or shape.k != shape.n - 1 or shape.n < 2:
        return None
    zname = next(v for v in eq.poly.variables if v not in (shape.x, shape.y))
    reduced = Polynomial.from_terms({
        ((shape.x, shape.n),): 1,
        ((shape.y, shape.n),): -1,
        ((zname, shape.n - 1),): -1,
    })
    return Equation.from_polynomial(reduced)


# ---------------------------------------------------------------------------
# pipeline


def _known_pr_annotation(poly: Polynomial,
                         shape: Optional[FermatCatalanShape]) -> Optional[str]:
    """Classical positive results used to annotate UNKNOWN verdicts, given
    the polynomial's `match_power_difference`."""
    monos = poly.monomials
    if len(monos) == 2 and len(poly.variables) == 3:
        prod = next((m for m in monos if len(m.exponents) == 2), None)
        single = next((m for m in monos if len(m.exponents) == 1), None)
        if (prod is not None and single is not None
                and all(e == 1 for _, e in prod.exponents)
                and single.exponents[0][1] == 1
                and single.exponents[0][0] not in {v for v, _ in prod.exponents}
                and prod.coeff == 1):
            if single.coeff == -1:
                return "known partition regular (multiplicative Schur: x*y = z)"
            if single.coeff == -2:
                return "known partition regular (x*y = 2z)"
    if shape is not None and shape.a == 1 and shape.c == 1:
        if shape.n == 1:
            return ("known partition regular (polynomial van der Waerden: "
                    "x - y = z^k for every k)")
        if shape.n == 2 and shape.k == 1:
            return "known partition regular (x^2 - y^2 = z, Moreira)"
        if shape.n == 2 and shape.k == 2:
            return "partition regularity of the Pythagorean equation is open"
    return None


def filter_battery(eq: Equation) -> list[FilterResult]:
    """Every nonlinear filter's outcome, fired or not."""
    return _battery(eq, trivial_constant_solution(eq.poly))[0]


def _battery(eq: Equation, constant: Optional[int]
             ) -> tuple[list[FilterResult], Optional[FermatCatalanShape]]:
    """`filter_battery`, given the equation's constant solution, and the
    polynomial's `match_power_difference` (`_fermat_catalan`).  The capped
    filters run first, so an over-cap equation fails before the pair scan."""
    results = [
        filter_homogeneous_rado(eq),
        filter_single_variable_leading(eq),
        filter_exponent_rado(eq),
        filter_maximal_root(eq),
    ]
    fermat_catalan, shape = _fermat_catalan(eq, constant)
    return results + fermat_catalan, shape


def run_all_filters(eq: Equation) -> Verdict:
    """Decision pipeline.

    Linear equations get the full Rado decision (with a constant-solution
    certificate when one exists).  Nonlinear equations run every applicable
    filter: any firing filter settles NOT_PR, otherwise the verdict is
    UNKNOWN, annotated from the known-results table.
    """
    return decide(eq)[0]


def check_degree_cap(poly: Polynomial) -> None:
    """Raise `CapExceededError` when the total degree exceeds `DEGREE_CAP`."""
    degree = poly.total_degree()
    if degree > DEGREE_CAP:
        try:
            shown = f"total degree {degree}"
        except ValueError:  # more digits than the interpreter will print
            shown = "total degree"
        raise CapExceededError(DEGREE_CAP, f"{shown} exceeds the cap ({DEGREE_CAP})")


def decide(eq: Equation) -> tuple[Verdict, list[FilterResult]]:
    """The `run_all_filters` verdict together with the filter results it was
    decided from: the linear decision's reasons for a linear equation, the
    whole nonlinear battery otherwise.  The constant-solution search runs
    once."""
    poly = eq.poly
    if poly.is_zero():
        raise ZeroPolynomialError("the zero polynomial is trivially satisfied")

    if poly.is_linear():
        verdict = linear_pr_verdict(eq)
        if verdict.status is Status.PR:
            # an inhomogeneous PR certificate already carries the constant
            constant = (verdict.certificate["constant"] if poly.constant_term()
                        else trivial_constant_solution(poly))
            if constant is not None:
                notes = verdict.notes + [
                    f"constant solution: every variable equal to {constant}"
                ]
                verdict = Verdict(Status.PR,
                                  certificate={"kind": "constant",
                                               "value": constant},
                                  notes=notes)
        return verdict, verdict.reasons

    check_degree_cap(poly)
    constant = trivial_constant_solution(poly)
    # one match serves the reduction, the annotations and the open family
    results, shape = _battery(eq, constant)
    notes = []
    if constant is not None:
        notes.append(
            f"admits the constant solution k={constant}; nonlinear verdicts "
            "address nonconstant solutions"
        )
    reduced = _reduce(eq, shape)
    if reduced is not None and reduced.poly != poly:
        notes.append(f"coefficient-equivalent to {pretty(reduced)}")

    fired = [r for r in results if r.fired]
    if fired:
        return Verdict(Status.NOT_PR, reasons=fired, notes=notes), results

    if reduced is not None:
        # the reduced equation's match: the same powers, coefficients 1.  A
        # power difference has three monomials, so the product rule of
        # `_known_pr_annotation` matches neither it nor its reduction
        shape = replace(shape, a=1, b=-1, c=1)
    annotation = _known_pr_annotation(poly, shape)
    if annotation:
        notes.append(annotation)
    if (shape is not None and shape.a == 1 and shape.c == 1
            and shape.n >= 3 and shape.k == shape.n - 1):
        notes.append(OPEN_POWER_FAMILY_NOTE)
    return Verdict(Status.UNKNOWN, notes=notes), results


# machine-readable catalogue backing the CLI reports
FILTER_CATALOGUE: list[dict[str, str]] = [
    {"name": "linear-rado", "citation": RADO_CITATION,
     "applicability": "linear homogeneous equations"},
    {"name": "linear-inhomogeneous", "citation": RADO_CITATION,
     "applicability": "linear equations with a constant term"},
    {"name": "homogeneous-rado", "citation": CITATIONS["homogeneous-rado"],
     "applicability": "homogeneous equations"},
    {"name": "single-variable-leading",
     "citation": CITATIONS["single-variable-leading"],
     "applicability": "sums of single-variable polynomials, or per-variable "
                      "leading pure powers dominating the rest"},
    {"name": "exponent-rado", "citation": CITATIONS["exponent-rado"],
     "applicability": "any equation with at least two monomials"},
    {"name": "maximal-root", "citation": CITATIONS["maximal-root"],
     "applicability": "any equation (monomial count within cap)"},
    {"name": "fc-degree", "citation": CITATIONS["fc-degree"],
     "applicability": "a*x^n + b*y^n = P(z)"},
    {"name": "fc-same-power", "citation": CITATIONS["fc-same-power"],
     "applicability": "a*x^n + b*y^n = c*z^n"},
    {"name": "fc-poly-sum", "citation": CITATIONS["fc-poly-sum"],
     "applicability": "a*x^n - a*y^n = sum of single-variable polynomials"},
    {"name": "fc-power-product", "citation": CITATIONS["fc-power-product"],
     "applicability": "a*x^n - a*y^n = c * product of powers"},
    {"name": "fc-mixed-linear", "citation": CITATIONS["fc-mixed-linear"],
     "applicability": "a*x + b*y = c*w^m*z^n"},
]
