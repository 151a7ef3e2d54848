"""Closed-form transport distances between non-degenerate Gaussian laws.

Three covariance metrics and their process versions:

* ``bures_wasserstein`` / ``wasserstein2``  -- the classical unconstrained
  optimum;
* ``kr_distance`` / ``kr2``  -- cost of the synchronous (common-noise)
  coupling, Euclidean in the Cholesky coordinate;
* ``abw_distance`` / ``aw2``  -- the optimum over information-respecting
  (bicausal) couplings, ``sqrt(Tr A + Tr B - 2 ||diag(L^T M)||_1)`` on the
  covariance side.

Every process distance splits as mean term plus covariance term; the split is
exposed through :class:`DistanceReport` so each piece can be checked
independently.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadAngle, BadParameter, DimensionMismatch, NonPositiveWeight
from .linalg import GaussianSpec, _is_law_factor, _lower, _rdiv, as_vector, check_same_dim, cholesky

#: |diag(L^T M)_t| at or below FREE_TOL * ||L||_F * ||M||_F counts as zero,
#: i.e. the correlation at time t is a free (non-unique) direction
FREE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """A squared process distance split into mean and covariance parts.

    Invariants: ``squared_value == mean_term + cov_term`` and
    ``value == sqrt(squared_value)``.
    """

    squared_value: float
    value: float
    mean_term: float
    cov_term: float


def _report(mean_term: float, cov_term: float) -> DistanceReport:
    sq = mean_term + cov_term
    return DistanceReport(
        squared_value=sq, value=math.sqrt(sq), mean_term=mean_term, cov_term=cov_term
    )


def _squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(d @ d)


def _factor_pair(A, B):
    """Validated Cholesky factors of two SPD matrices of the same shape; a
    stack of matrices is refused."""
    for X in (A, B):
        if np.ndim(X) != 2:
            raise DimensionMismatch(f"matrix must be two-dimensional, got shape {np.shape(X)}")
    L, M = cholesky(A), cholesky(B)
    if L.shape != M.shape:
        raise DimensionMismatch(f"matrix shapes differ: {L.shape} vs {M.shape}")
    return L, M


def _frobenius_sq(X: np.ndarray):
    """Squared Frobenius norm of each matrix of a ``(..., N, N)`` stack.

    A single matrix gives a float.  Each matrix of a stack is summed by the
    same dot product, so its value equals bitwise the single-matrix one.
    """
    if X.ndim == 2:
        x = X.ravel()
        return float(x @ x)
    x = X.reshape(*X.shape[:-2], 1, -1)
    return (x @ np.swapaxes(x, -1, -2))[..., 0, 0]


# Every covariance term reads only the Cholesky factors L, M: it is
# ||L - M Q||_F^2 over one orthogonal Q, Q = I (KR), diag(rho) from the sign
# rule (AW) or the polar factor V U^T of X = L^T M = U S V^T (W), and equals
# Tr A + Tr B - 2 r(L^T M) with r the trace, the l1 norm of the diagonal or
# the nuclear norm.  A sum of squares cancels nothing: equal factors give 0.
#
# W's factorization comes from one symmetric eigh of X X^T = U S^2 U^T, with
# V = X^T U S^{-1}, when that is accurate, and from the SVD of X otherwise.
# Forming X X^T squares the condition number.  By Weyl's bound every computed
# eigenvalue is within ||dH||_2 of the exact one, where dH (the rounding of the
# product and eigh's backward error) is a modest multiple of u * S_max^2, with
# u = 2^-53.  So S_min^2 carries a relative error of that multiple times
# u * S_max^2 / S_min^2, and the columns of V lose orthogonality by as much.
# The guard S_min^2 >= _POLAR_GUARD * S_max^2 caps u * S_max^2 / S_min^2 at
# 1.1e-13, the 1e-13 floor verify holds every identity to, and is tested
# before any square root, so only positive eigenvalues reach one.  Past it,
# the SVD of X, whose error grows with S_max / S_min alone, is taken.  Below
# _POLAR_MIN_DIM the SVD is taken at once: there each LAPACK call costs about
# its fixed overhead, so the eigh saves nothing and a pair past the guard
# would pay for both.

#: the eigh route runs when the least eigenvalue of X X^T is at least this
#: fraction of the largest: u / 1e-13 with u = 2^-53, rounded
_POLAR_GUARD = 1e-3
#: the least size that tries the eigh route
_POLAR_MIN_DIM = 16


def _sign_rule(L: np.ndarray, M: np.ndarray):
    """The sign rule on factor pairs: ``(d, rho, free)`` with ``d = diag(L^T M)``.

    ``L`` and ``M`` are ``(..., N, N)`` (stacks broadcast against each other)
    and ``d``, ``rho``, ``free`` are ``(..., N)``, one row per pair.
    ``rho_t = sign(d_t)``, except that ``|d_t| <= FREE_TOL * ||L||_F ||M||_F``
    (the norms of that pair's own factors) is a free index (the cost does not
    depend on ``rho_t``) and takes +1; so ``rho_t = -1`` exactly when ``d_t``
    is below the band.  The three arrays are read-only: the pair record
    shares them between the results of one pair.
    """
    d = (L * M).sum(axis=-2)
    # each norm apart: the product of the squared norms overflows from
    # covariances of about 1e154 on
    if d.ndim == 1:  # one pair: a Python float band
        band = FREE_TOL * math.sqrt(_frobenius_sq(L)) * math.sqrt(_frobenius_sq(M))
    else:
        band = (FREE_TOL * np.sqrt(_frobenius_sq(L)) * np.sqrt(_frobenius_sq(M)))[..., None]
    free = np.abs(d) <= band
    rho = np.where(d < -band, -1.0, 1.0)
    for x in (d, rho, free):
        x.setflags(write=False)
    return d, rho, free


#: (weak L, weak M, {compute: compute(L, M)}) of the last pair of laws'
#: factors, filled on first use; another pair replaces it in one assignment
_last_pair = (None, None, None)


def _derived(L: np.ndarray, M: np.ndarray, compute):
    """``compute(L, M)``, read from the last-pair record when ``L`` and ``M``
    are the very factors it holds.

    Only laws' factors are recorded, by the rule that lets them skip the
    factor gate (:func:`~awgauss.linalg._is_law_factor`): any other array (a
    writable one, a read-only copy, a block of a law's factor) is computed
    afresh and leaves the laws' record in place.  The record holds weak
    references, so it keeps no factor, and no law, alive.  Threads on one
    pair may each fill a missing entry; they compute the same bits.
    """
    global _last_pair
    ref_l, ref_m, data = _last_pair
    if ref_l is None or ref_l() is not L or ref_m() is not M:
        if not (_is_law_factor(L) and _is_law_factor(M)):
            return compute(L, M)
        data = {}
        _last_pair = (weakref.ref(L), weakref.ref(M), data)
    if compute not in data:
        data[compute] = compute(L, M)
    return data[compute]


def _polar(L: np.ndarray, M: np.ndarray):
    """The polar factorization ``(M V, U, S)`` of ``X = L^T M = U S V^T``: W2,
    the Brenier map and the W curve of a pair read one.

    From ``_POLAR_MIN_DIM`` on, ``X`` is scaled by ``2^-k``, ``k`` the
    exponent of ``max|X|``, so the eigenvalues of ``X_s X_s^T`` are those of
    ``X X^T`` times the even power ``2^-2k``: nothing overflows or falls to
    subnormals, and ``S`` is their square root times ``2^k`` exactly.  Below
    that size, or past the guard (see ``_POLAR_GUARD``), the factorization is
    ``np.linalg.svd(X)``'s.  The order of ``S`` is the route's own; every
    reader is invariant to it.
    """
    X = L.T @ M
    if X.shape[0] >= _POLAR_MIN_DIM:
        k = math.frexp(np.abs(X).max())[1]
        Xs = np.ldexp(X, -k)
        lam, U = np.linalg.eigh(Xs @ Xs.T)
        if lam[0] >= _POLAR_GUARD * lam[-1]:
            root = np.sqrt(lam)
            return M @ ((Xs.T @ U) / root), U, np.ldexp(root, k)
    U, S, Vt = np.linalg.svd(X)
    return M @ Vt.T, U, S


def _signed_product(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M diag(rho)`` with ``rho`` from the sign rule, read-only: AW2, the AW
    map and the AW curve of a pair read one array."""
    P = M * _derived(L, M, _sign_rule)[1][..., None, :]
    P.setflags(write=False)
    return P


def _same_factors(L: np.ndarray, M: np.ndarray) -> bool:
    # bitwise equality, last pivots first: distinct laws almost always differ there already
    return L is M or (L[-1, -1] == M[-1, -1] and np.array_equal(L, M))


def _brenier_product(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M Q = (M V) U^T`` with ``Q = V U^T`` the polar factor of
    ``L^T M = U S V^T``, the orthogonal ``Q`` that minimizes
    ``||L - M Q||_F``: one product on the pair's entry from :func:`_polar`.

    Bitwise equal factors give ``M`` itself: ``Q = I`` is the exact polar
    factor of the positive definite ``L^T L``.
    """
    if _same_factors(L, M):
        return M
    MV, U, _ = _derived(L, M, _polar)
    return MV @ U.T


def _brenier_matrix(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The matrix ``G G^T``, ``G = M V S^{-1/2}``, of
    :func:`~awgauss.couplings.brenier_map`, on the pair's entry from
    :func:`_polar`; exactly ``I`` for bitwise equal factors."""
    if _same_factors(L, M):
        return np.eye(L.shape[0])  # Q = I, as in W2's product
    MV, _, S = _derived(L, M, _polar)
    G = MV / np.sqrt(S)
    # exactly symmetric: numpy takes an array times its own transpose by syrk
    return G @ G.T


WASSERSTEIN = "wasserstein"
KNOTHE_ROSENBLATT = "knothe_rosenblatt"
ADAPTED = "adapted"

#: kind -> (short name, factor product M Q from the factors (L, M), kind of its
#: transport map, that map's matrix T = M Q L^{-1} from (L, M)).  KR and AW solve
#: for their lower-triangular T.  The columns call through the module attributes,
#: so a function rebound there (a test double) is used; AW takes +1 on free
#: indices (canonical).
_GEOMETRIES = {
    WASSERSTEIN: (  # Q = V U^T
        "w", lambda L, M: _brenier_product(L, M), "brenier", lambda L, M: _brenier_matrix(L, M),
    ),
    KNOTHE_ROSENBLATT: (  # Q = I
        "kr", lambda L, M: M, "knothe_rosenblatt", lambda L, M: _lower(_rdiv(M, L)),
    ),
    ADAPTED: (
        "aw", lambda L, M: _derived(L, M, _signed_product), "adapted_wasserstein",
        lambda L, M: _lower(_rdiv(_derived(L, M, _signed_product), L)),
    ),
}


def _cov_sq(kind: str, L: np.ndarray, M: np.ndarray):
    """``||L - M Q||_F^2`` with the ``Q`` of geometry ``kind``.

    A float for one factor pair; for ``(..., N, N)`` stacks (KR and AW) one
    value per pair, each bitwise equal to that pair's single-pair value.
    """
    return _frobenius_sq(L - _GEOMETRIES[kind][1](L, M))


def _process(mu: GaussianSpec, nu: GaussianSpec, kind: str) -> DistanceReport:
    """Mean/covariance split of the process distance of ``kind``, on the cached factors."""
    check_same_dim(mu, nu)
    return _report(_squared_distance(mu.mean, nu.mean), _cov_sq(kind, mu.chol, nu.chol))


def bures_wasserstein(A, B) -> float:
    """Bures-Wasserstein distance between SPD matrices.

    ``sqrt(Tr A + Tr B - 2 Tr (A^{1/2} B A^{1/2})^{1/2})``, the covariance
    part of the unconstrained quadratic transport between centered Gaussians.
    Computed as ``||L - M V U^T||_F`` from the Cholesky factors ``L, M`` and
    the polar factorization ``L^T M = U S V^T``: ``V U^T`` minimizes
    ``||L - M Q||_F`` over orthogonal ``Q``, and the minimum squared is the
    trace expression, as the singular values of ``L^T M`` are the square
    roots of the eigenvalues of ``A^{1/2} B A^{1/2}``; README's "The three
    geometries" gives the two routes to the factorization.  A sum of squares,
    it has no cancellation: identical inputs give exactly zero.
    """
    return math.sqrt(_cov_sq(WASSERSTEIN, *_factor_pair(A, B)))


def wasserstein2(mu: GaussianSpec, nu: GaussianSpec) -> DistanceReport:
    """Quadratic Wasserstein distance between Gaussian laws (mean/cov split).

    The covariance term is ``||L - M V U^T||_F^2`` on the factors ``L, M``
    cached on the specs, with ``L^T M = U S V^T`` (see
    :func:`bures_wasserstein`); the factorization is shared with
    :func:`~awgauss.couplings.brenier_map` and the Wasserstein curve of the
    same pair.
    """
    return _process(mu, nu, WASSERSTEIN)


def kr_distance(A, B) -> float:
    """Frobenius distance between the Cholesky factors of ``A`` and ``B``.

    Equals ``sqrt(Tr A + Tr B - 2 Tr(L^T M))``; the Cholesky map is an
    isometry onto lower-triangular matrices under the Frobenius norm.
    """
    return math.sqrt(_cov_sq(KNOTHE_ROSENBLATT, *_factor_pair(A, B)))


def kr2(mu: GaussianSpec, nu: GaussianSpec) -> DistanceReport:
    """Cost of the synchronous coupling between Gaussian laws (mean/cov split)."""
    return _process(mu, nu, KNOTHE_ROSENBLATT)


def abw_distance(A, B) -> float:
    """Adapted Bures-Wasserstein distance between SPD matrices.

    Parameters
    ----------
    A, B : array-like, shape (N, N)
        Symmetric positive definite.

    Returns
    -------
    float
        ``sqrt(Tr A + Tr B - 2 ||diag(L^T M)||_1)`` where ``L, M`` are the
        Cholesky factors.  Differs from :func:`kr_distance` exactly by
        ``4 * sum of |d_t|`` under the square root, over the entries ``d_t``
        of ``diag(L^T M)`` below the tie band ``-FREE_TOL * ||L||_F ||M||_F``,
        and coincides with it when no entry is below the band.

    Notes
    -----
    Computed as ``||L - M P||_F`` with ``P = diag(rho)`` from the sign rule
    shared with :func:`~awgauss.couplings.optimal_sign` (entries inside the
    tie band take +1), which equals the trace expression up to that band but,
    being a sum of squares, has no cancellation: identical inputs give exactly
    zero.
    """
    return math.sqrt(_cov_sq(ADAPTED, *_factor_pair(A, B)))


def aw2(mu: GaussianSpec, nu: GaussianSpec) -> DistanceReport:
    """Adapted (bicausal) quadratic transport distance between Gaussian laws.

    ``aw2(mu, nu)^2 = ||a - b||^2 + abw_distance(A, B)^2``.
    """
    return _process(mu, nu, ADAPTED)


def as_weights(w, *, dim: int | None = None) -> np.ndarray:
    """Validate a strictly positive per-time weight vector."""
    v = np.asarray(w, dtype=float)
    if v.ndim == 1 and (dim is None or v.shape[0] == dim) and ((v > 0.0) & (v < math.inf)).all():
        return v  # one reduction: the range test also fails NaN
    v = as_vector(w, dim=dim, name="weights")
    if (v <= 0.0).any():
        raise NonPositiveWeight("all cost weights must be strictly positive")
    return v


def weighted_bicausal_value(mu: GaussianSpec, nu: GaussianSpec, weights) -> float:
    """Optimal bicausal value for the weighted square cost sum_t w_t (x_t - y_t)^2.

    Returns the squared optimal value

    ``(a-b)^T W (a-b) + Tr(L^T W L) + Tr(M^T W M) - 2 ||diag(L^T W M)||_1``

    with ``W = diag(w)``.  Reduces to ``aw2(mu, nu).squared_value`` at
    ``w = 1``.  The optimal per-time correlations are the signs of
    ``diag(L^T W M)``.
    """
    check_same_dim(mu, nu)
    w = as_weights(weights, dim=mu.dim)
    d = mu.mean - nu.mean
    return float(d @ (w * d)) + _cov_sq(ADAPTED, *_weighted(w, mu.chol, nu.chol))


def _weighted(w: np.ndarray, L: np.ndarray, M: np.ndarray):
    """The factors ``W^{1/2} L``, ``W^{1/2} M`` that absorb validated weights
    ``w``: the plain sign rule and AW cost on them are the weighted ones."""
    root_w = np.sqrt(w)[:, None]
    return root_w * L, root_w * M


def _check_angle(theta: float, name: str) -> float:
    theta = float(theta)
    if not 0.0 < theta < math.pi:
        raise BadAngle(f"{name} = {theta!r} must lie strictly inside (0, pi)")
    return theta


def incompleteness_member(theta: float, n: int) -> GaussianSpec:
    """n-th element of the non-convergent Cauchy sequence at angle ``theta``.

    Centered 2-d Gaussian with Cholesky factor
    ``[[1/n, 0], [cos(theta), sin(theta) + 1/n]]``: a positive definite
    perturbation of the rank-one covariance ``[[0, 0], [0, 1]]`` whose factor
    direction is controlled by ``theta``.
    """
    theta = _check_angle(theta, "theta")
    n = int(n)
    if n < 1:
        raise BadParameter(f"sequence index n must be >= 1, got {n}")
    L = np.array(
        [[1.0 / n, 0.0], [math.cos(theta), math.sin(theta) + 1.0 / n]]
    )
    return GaussianSpec.from_cholesky(np.zeros(2), L)


class IncompletenessValue(NamedTuple):
    finite_n_value: float
    limit_value: float


def incompleteness_limit(theta: float, theta_prime: float, n: int) -> IncompletenessValue:
    """Squared adapted distance between the two angle sequences at index ``n``,
    together with its analytic large-``n`` limit
    ``2 - 2 (|cos t cos t'| + sin t sin t')``.

    The limit is nonzero for distinct angles even though both sequences are
    Cauchy and converge weakly to the same degenerate law: the metric space
    of Gaussian laws is incomplete under the adapted distance.
    """
    theta = _check_angle(theta, "theta")
    theta_prime = _check_angle(theta_prime, "theta_prime")
    mu_n = incompleteness_member(theta, n)
    nu_n = incompleteness_member(theta_prime, n)
    finite = aw2(mu_n, nu_n).squared_value
    limit = 2.0 - 2.0 * (
        abs(math.cos(theta) * math.cos(theta_prime))
        + math.sin(theta) * math.sin(theta_prime)
    )
    return IncompletenessValue(finite_n_value=finite, limit_value=limit)
