"""Adapted (bicausal) optimal transport between non-degenerate Gaussian laws.

Closed-form distances, optimal couplings, transport maps and interpolation
curves, together with independent verification oracles (discrete dynamic
programming, Monte Carlo, grid search) that everything is tested against.
"""

from .couplings import (
    AdaptedMapResult,
    AffineTransportMap,
    JointGaussianCoupling,
    SignSelection,
    aw_map,
    brenier_map,
    condition_coupling,
    coupling_cost,
    coupling_pi_p,
    kr_map,
    optimal_sign,
)
from .distances import (
    DistanceReport,
    abw_distance,
    aw2,
    bures_wasserstein,
    incompleteness_limit,
    incompleteness_member,
    kr2,
    kr_distance,
    wasserstein2,
    weighted_bicausal_value,
)
from .errors import (
    AwGaussError,
    BadAngle,
    BadCorrelation,
    BadParameter,
    BadSplit,
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveWeight,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalInconsistency,
    TooLarge,
    UnsupportedDimension,
)
from .geodesics import (
    GEODESIC_KINDS,
    GeodesicCheckReport,
    GeodesicPoint,
    geodesic_check,
    geodesic_point,
)
from .linalg import (
    GaussianSpec,
    cholesky,
    conditional,
    random_gaussian,
    random_spd,
    sample,
)
from .problems import Problem, ProblemFormatError, load_problem, parse_problem

__version__ = "0.1.0"

# the oracle layer, and with it scipy, loads on first use (PEP 562): the
# closed forms, maps and curves need numpy alone
_ORACLE_NAMES = frozenset({
    "MonteCarloEstimate",
    "RecursionCheckReport",
    "RhoGridResult",
    "ValueFunctionEval",
    "dpp_recursion_check",
    "dpp_solve_discrete",
    "monte_carlo_cost",
    "rho_grid_search",
    "value_function",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)

__all__ = [
    "AdaptedMapResult",
    "AffineTransportMap",
    "AwGaussError",
    "BadAngle",
    "BadCorrelation",
    "BadParameter",
    "BadSplit",
    "DimensionMismatch",
    "DistanceReport",
    "GEODESIC_KINDS",
    "GaussianSpec",
    "GeodesicCheckReport",
    "GeodesicPoint",
    "JointGaussianCoupling",
    "MonteCarloEstimate",
    "NonFiniteValue",
    "NonPositiveWeight",
    "NotPositiveDefinite",
    "NotSymmetric",
    "NumericalInconsistency",
    "Problem",
    "ProblemFormatError",
    "RecursionCheckReport",
    "RhoGridResult",
    "SignSelection",
    "TooLarge",
    "UnsupportedDimension",
    "ValueFunctionEval",
    "abw_distance",
    "aw2",
    "aw_map",
    "brenier_map",
    "bures_wasserstein",
    "cholesky",
    "condition_coupling",
    "conditional",
    "coupling_cost",
    "coupling_pi_p",
    "dpp_recursion_check",
    "dpp_solve_discrete",
    "geodesic_check",
    "geodesic_point",
    "incompleteness_limit",
    "incompleteness_member",
    "kr2",
    "kr_distance",
    "kr_map",
    "load_problem",
    "monte_carlo_cost",
    "optimal_sign",
    "parse_problem",
    "random_gaussian",
    "random_spd",
    "rho_grid_search",
    "sample",
    "value_function",
    "wasserstein2",
    "weighted_bicausal_value",
]
