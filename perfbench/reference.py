"""The benchmark's own reference values, computed from the generated arrays.

Nothing here calls the library or reads its output: every reference starts
from the means, covariances and factors the workload generated, and uses
``numpy.linalg`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Law:
    """A generated law as the benchmark knows it: mean, covariance and factor."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray

    @classmethod
    def from_cov(cls, mean, cov) -> "Law":
        return cls(mean, cov, np.linalg.cholesky(cov))

    @classmethod
    def from_factor(cls, mean, factor) -> "Law":
        return cls(mean, factor @ factor.T, factor)


def factor_diag(x: Law, y: Law) -> np.ndarray:
    """diag(L^T M)."""
    return np.sum(x.chol * y.chol, axis=0)


def mean_sq(x: Law, y: Law) -> float:
    d = x.mean - y.mean
    return float(d @ d)


def aw2_sq(x: Law, y: Law) -> float:
    """Trace form ``|a-b|^2 + Tr A + Tr B - 2 ||diag(L^T M)||_1``."""
    return mean_sq(x, y) + float(np.trace(x.cov) + np.trace(y.cov)) - 2.0 * float(
        np.sum(np.abs(factor_diag(x, y)))
    )


def kr2_sq(x: Law, y: Law) -> float:
    """``|a-b|^2 + ||L - M||_F^2``."""
    return mean_sq(x, y) + float(np.sum((x.chol - y.chol) ** 2))


def weighted_value(x: Law, y: Law, w: np.ndarray) -> float:
    """``(a-b)^T W (a-b) + Tr(L^T W L) + Tr(M^T W M) - 2 ||diag(L^T W M)||_1``."""
    d = x.mean - y.mean
    L, M = x.chol, y.chol
    wd = np.sum(w[:, None] * L * M, axis=0)
    return float(
        d @ (w * d)
        + np.sum(w[:, None] * L * L)
        + np.sum(w[:, None] * M * M)
        - 2.0 * np.sum(np.abs(wd))
    )


def adapted_matrix(x: Law, y: Law, rho: np.ndarray) -> np.ndarray:
    """Linear part ``M diag(rho) L^{-1}`` of the adapted map."""
    return np.linalg.solve(x.chol.T, (y.chol * rho[None, :]).T).T


def expect_close(what: str, got: float, want: float, rtol: float):
    if not abs(got - want) <= rtol * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r} (rtol {rtol:g})")


def expect_close_array(what: str, got, want, rtol: float):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.linalg.norm(want)), 1.0)
    err = float(np.linalg.norm(got - want))
    if not err <= rtol * scale:
        raise CheckFailed(f"{what}: relative error {err / scale:.3e} above {rtol:g}")


def expect(what: str, condition: bool):
    if not condition:
        raise CheckFailed(what)
