"""Adapted (bicausal) optimal transport between non-degenerate Gaussian laws.

Closed-form distances, optimal couplings, transport maps and interpolation
curves, together with independent verification oracles (discrete dynamic
programming, Monte Carlo, grid search) that everything is tested against.
"""

from types import ModuleType as _ModuleType

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


# every public name bound above, and the oracle names: the submodules that the
# imports bind on the package are not part of its surface
__all__ = sorted(
    {name for name, value in list(globals().items())
     if not name.startswith("_") and not isinstance(value, _ModuleType)}
    | _ORACLE_NAMES
)
