"""Couplings and transport maps between non-degenerate Gaussian laws.

The central object is the correlated-noise family ``pi^P``: drive both laws
through their Cholesky factors with standard normal noises whose per-time
correlations are ``rho_t in [-1, 1]``.  Every such coupling respects the flow
of information in both directions, its quadratic cost is available in closed
form, and choosing ``rho_t = sign(diag(L^T M)_t)`` attains the bicausal
optimum.  ``rho = 1`` recovers the synchronous (Knothe-Rosenblatt) coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import (
    ADAPTED, KNOTHE_ROSENBLATT, WASSERSTEIN, _GEOMETRIES, _derived, _sign_rule, _squared_distance,
    _weighted, as_weights,
)
from .errors import BadCorrelation, DimensionMismatch, NumericalInconsistency
from .linalg import GaussianSpec, as_cholesky_factor, as_vector, check_same_dim, check_split, conditional

def as_correlations(rho, *, dim: int | None = None) -> np.ndarray:
    """Validate a per-time correlation vector with entries in [-1, 1]."""
    r = np.asarray(rho, dtype=float)
    if r.ndim == 1 and (dim is None or r.shape[0] == dim) and (np.abs(r) <= 1.0).all():
        return r  # one reduction: the range test also fails NaN and inf
    r = as_vector(rho, dim=dim, name="rho")
    if (np.abs(r) > 1.0).any():
        raise BadCorrelation("correlations must lie in [-1, 1]")
    return r


@dataclass(frozen=True, eq=False)
class SignSelection:
    """Optimal per-time correlation signs for a pair of Cholesky factors.

    ``rho[t] = sign(diag(L^T M)_t)`` wherever that diagonal entry is nonzero;
    entries within ``distances.FREE_TOL * ||L||_F ||M||_F`` of zero leave the cost
    unchanged in that direction, default to +1 (the synchronous choice), and
    are reported in ``free_indices`` (1-based time indices).  ``unique`` is
    true iff there are no free indices.  The last entry is always +1 since
    ``diag(L^T M)_N = L_NN M_NN > 0``.  The same rule, with the same band,
    gives the values of ``aw2``, ``abw_distance`` and
    ``weighted_bicausal_value``.  ``rho`` and ``diag`` are read-only, like a
    law's ``mean``, ``cov`` and ``chol``: the results of one factor pair share
    them.
    """

    rho: np.ndarray
    free_indices: tuple[int, ...]
    unique: bool
    diag: np.ndarray  # diag(L^T M), the quantity the rule reads


def optimal_sign(L, M, *, weights=None) -> SignSelection:
    """Sign rule selecting the cost-minimizing correlations.

    Parameters
    ----------
    L, M : array-like, shape (N, N)
        Lower-triangular Cholesky factors of the two covariances, validated
        by :func:`~awgauss.linalg.as_cholesky_factor` (finite, zero strict
        upper triangle, strictly positive diagonal).
    weights : array-like, shape (N,), optional
        Strictly positive per-time cost weights; the rule then reads
        ``diag(L^T W M)`` instead of ``diag(L^T M)``, i.e. the plain rule on
        the factors ``W^{1/2} L`` and ``W^{1/2} M``.  Rescaling all weights
        by a positive constant leaves the selection unchanged.
    """
    L = as_cholesky_factor(L, name="L")
    M = as_cholesky_factor(M, name="M")
    if L.shape != M.shape:
        raise DimensionMismatch(f"factor shapes differ: {L.shape} vs {M.shape}")
    if weights is not None:
        L, M = _weighted(as_weights(weights, dim=L.shape[0]), L, M)
    return _derived(L, M, _sign_selection)


def _sign_selection(L: np.ndarray, M: np.ndarray) -> SignSelection:
    """:class:`SignSelection` of two factors already known to be valid:
    :func:`optimal_sign` and :func:`aw_map` of a pair share one."""
    d, rho, free = _derived(L, M, _sign_rule)
    free_indices = tuple(int(i) + 1 for i in free.nonzero()[0])
    return SignSelection(
        rho=rho, free_indices=free_indices, unique=not free_indices, diag=d
    )


@dataclass(frozen=True, eq=False)
class JointGaussianCoupling:
    """Joint Gaussian law of a correlated pair ``(X, Y)`` on R^{2N}.

    Covariance has block form ``[[A, L P M^T], [M P L^T, B]]``; the marginal
    blocks equal the input covariances exactly.  The joint matrix is positive
    semidefinite, and definite iff every ``|rho_t| < 1``, so it is stored as a
    plain (mean, cov) pair rather than a GaussianSpec.
    """

    mean: np.ndarray
    cov: np.ndarray
    rho: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0] // 2

    @property
    def cross_block(self) -> np.ndarray:
        n = self.dim
        return self.cov[:n, n:]

    def marginal_x(self) -> GaussianSpec:
        n = self.dim
        return GaussianSpec(self.mean[:n], self.cov[:n, :n])

    def marginal_y(self) -> GaussianSpec:
        n = self.dim
        return GaussianSpec(self.mean[n:], self.cov[n:, n:])


def coupling_pi_p(mu: GaussianSpec, nu: GaussianSpec, rho) -> JointGaussianCoupling:
    """Correlated bicausal coupling of ``(mu, nu)`` with correlations ``rho``.

    The joint law of ``(a + L eps^X, b + M eps^Y)`` where the standard normal
    noises satisfy ``Corr(eps^X_t, eps^Y_t) = rho_t`` and are independent
    across times.

    The assembled ``2N x 2N`` covariance ``C`` is PSD by construction, and is
    checked anyway: :class:`NumericalInconsistency` is raised when its least
    eigenvalue is below ``-1e-9`` times its largest.  A Cholesky of
    ``C + delta I`` with ``delta = 1e-9 / 2 * max(diag C) <= 1e-9 / 2 * lambda_max``
    proves the pass: if it completes, ``C + delta I + dC`` is positive
    definite with ``||dC||_2 <= n gamma_{n+1} ||C + delta I||_2``, ``n = 2N``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, §10.1),
    so ``lambda_min(C) >= -delta - ||dC||_2 >= -1e-9 lambda_max`` whenever
    ``n (n + 1) eps <= 5e-10`` (``eps = 2u``, which leaves room for the
    second-order terms), i.e. up to ``n = 1500``.  Only when the
    factorization fails, or ``n`` is larger, is the spectrum computed and the
    test made on it; it alone decides the raise.
    """
    check_same_dim(mu, nu)
    r = np.array(as_correlations(rho, dim=mu.dim))  # not the caller's array
    r.setflags(write=False)
    L, M = mu.chol, nu.chol
    cross = (L * r[None, :]) @ M.T
    # exactly symmetric: both laws store (S + S^T) / 2, and cross.T is exact
    cov = np.block([[mu.cov, cross], [cross.T, nu.cov]])
    if not _psd_certified(cov):
        w = np.linalg.eigvalsh(cov)
        if w[0] < -1e-9 * w[-1]:
            raise NumericalInconsistency(
                f"joint covariance not PSD: min eigenvalue {w[0]:.3e}"
            )
    mean = np.concatenate([mu.mean, nu.mean])
    return JointGaussianCoupling(mean=mean, cov=cov, rho=r)


def _psd_certified(C: np.ndarray) -> bool:
    """Whether a Cholesky of ``C + 1e-9 / 2 * max(diag C) * I`` completes,
    proving ``lambda_min(C) >= -1e-9 lambda_max(C)`` (see :func:`coupling_pi_p`).

    The diagonal is shifted in place, not on a copy of ``C``, and written back
    bit for bit.  Above the size where rounding alone could reach that bound,
    nothing is proved and the answer is false.
    """
    n = C.shape[0]
    if n * (n + 1) * np.finfo(float).eps > 5e-10:
        return False
    d = C.diagonal().copy()
    C.flat[:: n + 1] += 0.5e-9 * d.max()
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return False
    finally:
        C.flat[:: n + 1] = d
    return True


def coupling_cost(mu: GaussianSpec, nu: GaussianSpec, rho) -> float:
    """Expected squared distance ``E ||X - Y||^2`` under the correlated coupling.

    Closed form ``||a-b||^2 + Tr A + Tr B - 2 sum_t rho_t diag(L^T M)_t``;
    minimized over ``rho`` by :func:`optimal_sign`, where it equals the
    squared adapted distance.
    """
    check_same_dim(mu, nu)
    return float(_coupling_cost(mu, nu, as_correlations(rho, dim=mu.dim)))


def _coupling_cost(mu: GaussianSpec, nu: GaussianSpec, R: np.ndarray):
    """:func:`coupling_cost` of each row of a validated ``(..., N)`` correlation stack."""
    d = _derived(mu.chol, nu.chol, _sign_rule)[0]
    return _squared_distance(mu.mean, nu.mean) + mu._cov_trace + nu._cov_trace - 2.0 * (R @ d)


@dataclass(frozen=True, eq=False)
class AffineTransportMap:
    """Affine map ``x -> offset + matrix @ x`` pushing one Gaussian to another."""

    offset: np.ndarray
    matrix: np.ndarray
    kind: str

    def __call__(self, x) -> np.ndarray:
        return self.offset + np.asarray(x, dtype=float) @ self.matrix.T

    def push(self, mu: GaussianSpec) -> GaussianSpec:
        """Pushforward of ``mu`` under the map."""
        T = self.matrix
        return GaussianSpec(self.offset + T @ mu.mean, T @ mu.cov @ T.T)


def _transport(mu: GaussianSpec, nu: GaussianSpec, kind: str) -> AffineTransportMap:
    """Transport map ``x -> b + T (x - a)``, ``T = M Q L^{-1}``, of geometry
    ``kind``, with ``T`` from its row of ``distances._GEOMETRIES``."""
    check_same_dim(mu, nu)
    _, _, map_kind, matrix = _GEOMETRIES[kind]
    T = matrix(mu.chol, nu.chol)
    return AffineTransportMap(offset=nu.mean - T @ mu.mean, matrix=T, kind=map_kind)


def brenier_map(mu: GaussianSpec, nu: GaussianSpec) -> AffineTransportMap:
    """Optimal unconstrained transport map between Gaussian laws.

    ``x -> b + T (x - a)`` with ``T = M Q L^{-1}`` and ``Q = V U^T`` from the
    polar factorization ``L^T M = U S V^T`` of the cached factors: ``Q``
    minimizes ``||L - M Q||_F`` over orthogonal matrices, and ``T`` equals
    ``A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}``, symmetric positive
    definite (a convex gradient).  Since ``M V = L^{-T} U S``, ``T = G G^T``
    with ``G = M V S^{-1/2}``: no solve, and ``(M V, S)`` is the polar entry
    :func:`~awgauss.distances.wasserstein2` reads for the same pair, by
    either route of README's "The three geometries".  Bitwise equal factors
    give exactly ``T = I``.  Each output coordinate generally reads the whole
    input path, which is exactly what the bicausal constraint forbids.
    """
    return _transport(mu, nu, WASSERSTEIN)


def kr_map(mu: GaussianSpec, nu: GaussianSpec) -> AffineTransportMap:
    """Synchronous (Knothe-Rosenblatt) transport map ``x -> b + M L^{-1} (x - a)``.

    The matrix is lower triangular with positive diagonal: each output
    coordinate depends on the input only through its past.
    """
    return _transport(mu, nu, KNOTHE_ROSENBLATT)


@dataclass(frozen=True, eq=False)
class AdaptedMapResult:
    """Adapted-optimal transport map plus the sign selection that produced it.

    When ``sign.unique`` is false the optimal coupling is not unique; ``map``
    is then the canonical representative with +1 on the free indices (the
    synchronous tie-break), and ``sign.free_indices`` says which times are
    unconstrained.
    """

    map: AffineTransportMap
    sign: SignSelection

    @property
    def unique(self) -> bool:
        return self.sign.unique


def aw_map(mu: GaussianSpec, nu: GaussianSpec) -> AdaptedMapResult:
    """Adapted-optimal transport map ``x -> b + M P L^{-1} (x - a)``.

    ``P = diag(rho)`` from :func:`optimal_sign`; the matrix is lower
    triangular with diagonal signs ``rho_t``.  The map realizes the optimal
    bicausal coupling, and is the unique one iff no diagonal entry of
    ``L^T M`` vanishes.
    """
    return AdaptedMapResult(map=_transport(mu, nu, ADAPTED), sign=_derived(mu.chol, nu.chol, _sign_selection))


def condition_coupling(
    mu: GaussianSpec, nu: GaussianSpec, rho, t: int, x_past, y_past
) -> JointGaussianCoupling:
    """Conditional coupling of the futures given both pasts.

    Conditioning the correlated coupling ``pi^P`` on ``X_{1:t} = x`` and
    ``Y_{1:t} = y`` yields the correlated coupling of the two conditional
    laws with the trailing correlations ``rho[t:]``: future noises are
    independent of past noises, so the blocks are read off the factor
    representation instead of inverting the (possibly singular) joint
    covariance.
    """
    check_same_dim(mu, nu)
    r = as_correlations(rho, dim=mu.dim)
    t = check_split(t, mu.dim)
    cond_mu = conditional(mu, t, x_past)
    cond_nu = conditional(nu, t, y_past)
    return coupling_pi_p(cond_mu, cond_nu, r[t:])
