"""Interpolation curves between Gaussian laws under the three transport geometries.

All three curves share the displacement form: means interpolate linearly and
``cov_t = T_t A0 T_t^T`` with ``T_t = (1 - t) I + t T``, where ``T`` is the
linear part of the matching transport map (unconstrained, synchronous, or
adapted).  Each map is ``T = M Q L^{-1}`` on the Cholesky factors ``L`` of
``A0`` and ``M`` of ``A1``, so ``T_t L = F_t = (1 - t) L + t M Q`` and
``cov_t = F_t F_t^T`` needs no inverse; the endpoints are the two laws'
covariances themselves.  Intermediate covariances may degenerate when the
adapted map reflects a coordinate; such points are representable (flagged,
PSD) but are excluded from distance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import (  # the kinds are re-exported
    ADAPTED, KNOTHE_ROSENBLATT, WASSERSTEIN, _GEOMETRIES, _frobenius_sq, _process, _squared_distance,
)
from .errors import BadParameter
from .linalg import GaussianSpec, _degenerate, check_same_dim

GEODESIC_KINDS = tuple(_GEOMETRIES)


@dataclass(frozen=True, eq=False)
class GeodesicPoint:
    """State of an interpolation curve at parameter ``t``.

    ``cov`` is symmetric positive semidefinite; ``degenerate`` is true iff its
    smallest eigenvalue is at or below ``PD_TOL`` times the largest diagonal
    entry.  ``min_eigenvalue`` gives the severity of the degeneracy.
    """

    t: float
    mean: np.ndarray
    cov: np.ndarray
    degenerate: bool
    min_eigenvalue: float


def _geometry(kind: str):
    try:
        return _GEOMETRIES[kind]
    except KeyError:
        raise BadParameter(
            f"unknown geodesic kind {kind!r}; expected one of {GEODESIC_KINDS}"
        ) from None


def geodesic_point(
    mu0: GaussianSpec, mu1: GaussianSpec, t: float, kind: str
) -> GeodesicPoint:
    """Point of the ``kind`` interpolation curve at parameter ``t`` in [0, 1].

    At ``t = 0`` and ``t = 1`` the point's covariance is the law's own
    (read-only) ``cov``.
    """
    check_same_dim(mu0, mu1)
    t = _unit_parameter(t)
    product = _geometry(kind)[1]
    return _curve_point(mu0, mu1, product(mu0.chol, mu1.chol), t)


def _unit_parameter(t) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise BadParameter(f"interpolation parameter t={t!r} outside [0, 1]")
    return t


def _curve_point(mu0: GaussianSpec, mu1: GaussianSpec, MQ: np.ndarray, t: float) -> GeodesicPoint:
    """Point at ``t`` of the curve whose map has the factor product ``MQ = T L``."""
    if t == 0.0 or t == 1.0:
        cov = (mu0 if t == 0.0 else mu1).cov
    else:
        F = (1.0 - t) * mu0.chol + t * MQ
        cov = F @ F.T  # exactly symmetric: numpy takes an array times its own transpose by syrk
    mean = (1.0 - t) * mu0.mean + t * mu1.mean
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    return GeodesicPoint(
        t=t, mean=mean, cov=cov, degenerate=_degenerate(min_eig, cov), min_eigenvalue=min_eig
    )


def _law(mu0: GaussianSpec, mu1: GaussianSpec, p: GeodesicPoint) -> GaussianSpec:
    """The law at curve point ``p``: at ``t = 0`` or ``1`` the endpoint law
    itself, whose factor is cached, else a law built from the point."""
    if p.t == 0.0:
        return mu0
    if p.t == 1.0:
        return mu1
    return GaussianSpec(p.mean, p.cov)


OK = "ok"
SKIPPED = "skipped"


@dataclass(frozen=True, eq=False)
class GeodesicCheckReport:
    """Constant-speed check ``dist(p_s, p_t) == |s - t| * dist(p_0, p_1)``.

    ``status`` is ``"skipped"`` when an intermediate point is degenerate (the
    closed-form distances require non-degenerate laws); otherwise the two
    sides and their absolute difference are reported.
    """

    status: str
    kind: str
    s: float
    t: float
    point_distance: float | None
    scaled_endpoint_distance: float | None
    abs_difference: float | None


def geodesic_check(
    mu0: GaussianSpec, mu1: GaussianSpec, kind: str, s: float, t: float
) -> GeodesicCheckReport:
    """Compare the distance between two curve points with the scaled endpoint
    distance under the metric matching ``kind``."""
    product = _geometry(kind)[1]
    check_same_dim(mu0, mu1)
    s, t = _unit_parameter(s), _unit_parameter(t)
    MQ = product(mu0.chol, mu1.chol)  # one map for both points
    ps, pt = _curve_point(mu0, mu1, MQ, s), _curve_point(mu0, mu1, MQ, t)
    status, lhs, rhs, diff = SKIPPED, None, None, None
    if not (ps.degenerate or pt.degenerate):
        # the endpoint distance from the product the points were built from
        mean_term = _squared_distance(mu0.mean, mu1.mean)
        rhs = abs(ps.t - pt.t) * math.sqrt(mean_term + _frobenius_sq(mu0.chol - MQ))
        lhs = _process(_law(mu0, mu1, ps), _law(mu0, mu1, pt), kind).value
        status, diff = OK, abs(lhs - rhs)
    return GeodesicCheckReport(
        status=status, kind=kind, s=ps.t, t=pt.t, point_distance=lhs,
        scaled_endpoint_distance=rhs, abs_difference=diff,
    )
