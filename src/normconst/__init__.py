"""Geometric constants of finite-dimensional real normed spaces.

The package measures how far a space sits from being an inner-product
space, using quantities built from the norms of sums and differences of
unit vectors and from pairs that are isosceles-orthogonal (equal norms of
sum and difference).  Estimates come from deterministic search engines and
are cross-checked against each other and against closed forms by the
verification suite.
"""

from .constants import (
    CONSTANT_IDS,
    cinj_iso,
    cinj_via_gamma,
    cnj_modified_p,
    cnj_p,
    gamma_objective,
    gamma_p,
    james,
    jxp,
    nu_p,
    omega_prime,
    resolve_strategy,
    rho,
    schaffer,
    smoothness_quotient,
)
from .orthogonality import iso_defect
from .search import (
    Estimate,
    ExactStrategy,
    Grid2DStrategy,
    MultiStartStrategy,
    Objective,
    parse_strategy,
    strategy_descriptor,
    sup_pairs_2d,
    sup_pairs_nd,
    sup_vertex_pairs,
    t_sweep,
)
from .spaces import (
    NormedSpace,
    Region,
    SpaceError,
    descriptor,
    extreme_points,
    lp_space,
    make_polyhedral_2d,
    norm,
    parse_space,
    regular_polygon_space,
    supports_extreme_points,
    unit_vector,
    weighted_lp_space,
)
from .verify import (
    CheckResult,
    PROFILES,
    SuiteReport,
    default_suite_spaces,
    report_json,
    run_check,
    run_suite,
    to_jsonable,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANT_IDS",
    "CheckResult",
    "Estimate",
    "ExactStrategy",
    "Grid2DStrategy",
    "MultiStartStrategy",
    "NormedSpace",
    "Objective",
    "PROFILES",
    "Region",
    "SpaceError",
    "SuiteReport",
    "cinj_iso",
    "cinj_via_gamma",
    "cnj_modified_p",
    "cnj_p",
    "default_suite_spaces",
    "descriptor",
    "extreme_points",
    "gamma_objective",
    "gamma_p",
    "iso_defect",
    "james",
    "jxp",
    "lp_space",
    "make_polyhedral_2d",
    "norm",
    "nu_p",
    "omega_prime",
    "parse_space",
    "parse_strategy",
    "regular_polygon_space",
    "report_json",
    "resolve_strategy",
    "rho",
    "run_check",
    "run_suite",
    "schaffer",
    "smoothness_quotient",
    "strategy_descriptor",
    "sup_pairs_2d",
    "sup_pairs_nd",
    "sup_vertex_pairs",
    "supports_extreme_points",
    "t_sweep",
    "to_jsonable",
    "unit_vector",
    "weighted_lp_space",
    "__version__",
]
