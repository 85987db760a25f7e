"""radolab: partition-regularity analysis of Diophantine equations.

Decides and bounds partition regularity with exact arithmetic (Rado
condition, columns condition, degree and root obstructions for nonlinear
equations), enumerates asymptotic class structures of linear equations, and
corroborates verdicts empirically by brute-force coloring search.
"""

__version__ = "0.1.0"

from .coloring import (
    ColoringSpec,
    HeadCensus,
    ProfileCensus,
    SolutionRecord,
    asymptotic_profile,
    enumerate_solutions,
    head_census,
    profile_census,
    standard_head,
    witness_search,
)
from .errors import CapExceededError
from .filters import (
    FILTER_CATALOGUE,
    FermatCatalanShape,
    filter_exponent_rado,
    filter_fermat_catalan,
    filter_homogeneous_rado,
    filter_maximal_root,
    filter_single_variable_leading,
    normalize_fermat_catalan,
    run_all_filters,
    sturm_positive_root,
)
from .linalg import (
    ColumnsCertificate,
    QMatrix,
    columns_condition,
    in_span,
    parse_matrix_text,
    verify_certificate,
    zero_sum_subsets,
)
from .linear import (
    NotLinearError,
    NotPRError,
    asymptotic_candidates_linear,
    default_hl_weights,
    hl_matrix,
    linear_pr_verdict,
    rado_condition,
    verify_hl_choice,
)
from .model import (
    Equation,
    MissingVariableError,
    Monomial,
    Polynomial,
    ZeroPolynomialError,
    collapse_to_univariate,
    evaluate,
    is_homogeneous,
    trivial_constant_solution,
)
from .parser import ParseError, parse, pretty
from .results import FilterResult, OrderedPartition, Status, Verdict

__all__ = [
    "CapExceededError", "ColoringSpec", "ColumnsCertificate", "Equation",
    "FILTER_CATALOGUE", "FermatCatalanShape", "FilterResult", "HeadCensus",
    "MissingVariableError", "Monomial", "NotLinearError", "NotPRError",
    "OrderedPartition", "ParseError", "Polynomial", "ProfileCensus",
    "QMatrix", "SolutionRecord", "Status", "Verdict", "ZeroPolynomialError",
    "asymptotic_candidates_linear", "asymptotic_profile",
    "collapse_to_univariate", "columns_condition",
    "default_hl_weights", "enumerate_solutions", "evaluate",
    "filter_exponent_rado", "filter_fermat_catalan",
    "filter_homogeneous_rado", "filter_maximal_root",
    "filter_single_variable_leading", "head_census", "hl_matrix",
    "in_span", "is_homogeneous", "linear_pr_verdict",
    "normalize_fermat_catalan", "parse", "parse_matrix_text", "pretty",
    "profile_census", "rado_condition", "run_all_filters",
    "standard_head", "sturm_positive_root", "trivial_constant_solution",
    "verify_certificate", "verify_hl_choice", "witness_search",
    "zero_sum_subsets",
]
