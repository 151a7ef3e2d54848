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
from .linalg import GaussianSpec, as_vector, check_same_dim, cholesky

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


def _mean_term(mu: GaussianSpec, nu: GaussianSpec) -> float:
    """``||a - b||^2``, once per pair through the record of the laws' factors:
    a law's factor is its own, so the factors name the means too."""
    return _derived(mu.chol, nu.chol, "mean", lambda L, M: _squared_distance(mu.mean, nu.mean))


def _squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(d @ d)


def _factor_pair(A, B):
    """Validated Cholesky factors of two SPD matrices of the same shape."""
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
# rule (AW) or V U^T from the SVD L^T M = U S V^T (W), and equals
# Tr A + Tr B - 2 r(L^T M) with r the trace, the l1 norm of the diagonal or
# the nuclear norm.  A sum of squares cancels nothing: equal factors give 0.


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
    if d.ndim == 1:  # one pair: a Python float band
        band = FREE_TOL * math.sqrt(_frobenius_sq(L) * _frobenius_sq(M))
    else:
        band = (FREE_TOL * np.sqrt(_frobenius_sq(L) * _frobenius_sq(M)))[..., None]
    free = np.abs(d) <= band
    rho = np.where(d < -band, -1.0, 1.0)
    for x in (d, rho, free):
        x.setflags(write=False)
    return d, rho, free


#: (weak L, weak M, {name: derived data}) of the last pair of read-only
#: factors that own their data, the data being the sign triple ``"signs"``,
#: the ``"svd"`` of ``L^T M``, the adapted product ``"aw"``, the laws' mean
#: term ``"mean"`` and the ``"selection"`` of
#: :func:`~awgauss.couplings.optimal_sign`, each filled on first use; one
#: tuple, which another pair replaces by one assignment
_last_pair = (None, None, None)


def _derived(L: np.ndarray, M: np.ndarray, name: str, compute):
    """``compute(L, M)``, read from the last-pair record under ``name`` when
    ``L`` and ``M`` are the very factors it holds.

    Only read-only factors that own their data (the laws' cached ones) are
    recorded: a writable array could change under its key, and a view (a
    block of a law's factor) would replace the laws' record with keys that
    die at once.  The record holds weak references, so it keeps no factor,
    and no law, alive.  Threads on one pair may each fill a missing entry;
    they compute the same bits.
    """
    global _last_pair
    ref_l, ref_m, data = _last_pair
    if ref_l is None or ref_l() is not L or ref_m() is not M:
        if L.flags.writeable or M.flags.writeable or not (L.flags.owndata and M.flags.owndata):
            return compute(L, M)
        data = {}
        _last_pair = (weakref.ref(L), weakref.ref(M), data)
    if name not in data:
        data[name] = compute(L, M)
    return data[name]


def _pair_signs(L: np.ndarray, M: np.ndarray):
    """:func:`_sign_rule` of a factor pair, through the pair record."""
    return _derived(L, M, "signs", _sign_rule)


def _pair_svd(L: np.ndarray, M: np.ndarray):
    """``np.linalg.svd(L.T @ M)`` as ``(U, S, Vt)``, through the pair record."""
    return _derived(L, M, "svd", lambda L, M: np.linalg.svd(L.T @ M))


def _adapted_product(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M diag(rho)`` with ``rho`` from the sign rule, read-only, through the
    pair record: AW2, the AW map and the AW curve of a pair read one array."""
    return _derived(L, M, "aw", _signed_product)


def _signed_product(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    P = M * _pair_signs(L, M)[1][..., None, :]
    P.setflags(write=False)
    return P


def _same_factors(L: np.ndarray, M: np.ndarray) -> bool:
    # bitwise equality, last pivots first: distinct laws almost always differ there already
    return L is M or (L[-1, -1] == M[-1, -1] and np.array_equal(L, M))


def _brenier_product(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M Q`` with ``Q = V U^T`` from the SVD ``L^T M = U S V^T``, the
    orthogonal ``Q`` that minimizes ``||L - M Q||_F``.

    Bitwise equal factors give ``M`` itself: ``Q = I`` is the exact polar
    factor of the positive definite ``L^T L``.
    """
    if _same_factors(L, M):
        return M
    U, _, Vt = _pair_svd(L, M)
    return M @ (Vt.T @ U.T)


WASSERSTEIN = "wasserstein"
KNOTHE_ROSENBLATT = "knothe_rosenblatt"
ADAPTED = "adapted"

#: kind -> (short name, factor product M Q from the factors (L, M), kind of its
#: transport map).  The products call through the module attributes, so a function
#: rebound there (a test double) is used; AW takes +1 on free indices (canonical).
_GEOMETRIES = {
    WASSERSTEIN: ("w", lambda L, M: _brenier_product(L, M), "brenier"),  # Q = V U^T
    KNOTHE_ROSENBLATT: ("kr", lambda L, M: M, "knothe_rosenblatt"),  # Q = I
    ADAPTED: ("aw", lambda L, M: _adapted_product(L, M), "adapted_wasserstein"),
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
    return _report(_mean_term(mu, nu), _cov_sq(kind, mu.chol, nu.chol))


def bures_wasserstein(A, B) -> float:
    """Bures-Wasserstein distance between SPD matrices.

    ``sqrt(Tr A + Tr B - 2 Tr (A^{1/2} B A^{1/2})^{1/2})``, the covariance
    part of the unconstrained quadratic transport between centered Gaussians.
    Computed as ``||L - M V U^T||_F`` from the Cholesky factors ``L, M`` and
    the SVD ``L^T M = U S V^T``: ``V U^T`` minimizes ``||L - M Q||_F`` over
    orthogonal ``Q``, and the minimum squared is the trace expression, as the
    singular values of ``L^T M`` are the square roots of the eigenvalues of
    ``A^{1/2} B A^{1/2}``.  A sum of squares, it has no cancellation:
    identical inputs give exactly zero.
    """
    return math.sqrt(_cov_sq(WASSERSTEIN, *_factor_pair(A, B)))


def wasserstein2(mu: GaussianSpec, nu: GaussianSpec) -> DistanceReport:
    """Quadratic Wasserstein distance between Gaussian laws (mean/cov split).

    The covariance term is ``||L - M V U^T||_F^2`` on the factors ``L, M``
    cached on the specs, with ``L^T M = U S V^T``; the SVD is shared with
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
    # absorb the weights into the factors; the same cancellation-free
    # sum-of-squares form as abw_distance then applies.  The weighted factors
    # are fresh arrays, so the sign rule runs on them directly, not through
    # the pair record
    root_w = np.sqrt(w)[:, None]
    L, M = root_w * mu.chol, root_w * nu.chol
    return float(d @ (w * d)) + _frobenius_sq(L - M * _sign_rule(L, M)[1])


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
