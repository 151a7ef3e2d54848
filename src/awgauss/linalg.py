"""Gaussian-law primitives and dense small-matrix SPD linear algebra.

Matrices are plain float64 ndarrays throughout; nothing here is meant for
dimensions beyond a few hundred.  All functions are pure and all returned
values can be shared freely across threads.  Sampling takes an explicit seed
(NumPy ``default_rng``, i.e. PCG64), so there is no hidden global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadSplit,
    DimensionMismatch,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSymmetric,
)

#: relative symmetry tolerance: asymmetry up to SYM_TOL * max|A| is absorbed
SYM_TOL = 1e-12
#: Cholesky pivots must exceed PD_TOL * max(diag A); relative so the gate is
#: invariant under rescaling of the covariance
PD_TOL = 1e-12


def as_vector(x, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, optionally of length ``dim``."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue(f"{name} contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


def _raise_first(bad, error, message) -> None:
    """Raise ``error`` with ``message(idx)`` for the first matrix ``idx`` that
    ``bad`` (the stack's leading shape; ``()`` for one matrix) flags."""
    if np.any(bad):
        idx = tuple(np.argwhere(bad)[0])
        raise error(_stack_index(idx) + message(idx))


def _stack_index(idx: tuple) -> str:
    return f"stack index {[int(i) for i in idx]}: " if idx else ""


def _first_unfactorable(S: np.ndarray) -> tuple:
    """Index of the first matrix of a stack that numpy cannot factor alone."""
    for idx in np.ndindex(S.shape[:-2]):
        try:
            np.linalg.cholesky(S[idx])
        except np.linalg.LinAlgError:
            return idx
    return ()


def _symmetrized(M: np.ndarray, name: str) -> np.ndarray:
    """Shape, finiteness and symmetry gates on each matrix of a ``(..., N, N)``
    stack; returns the stack symmetrized (see :func:`as_spd`)."""
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    if M.shape[-1] < 1:
        raise DimensionMismatch(f"{name} must have dimension >= 1")
    _raise_first(
        ~np.isfinite(M).all(axis=(-2, -1)), NonFiniteValue,
        lambda idx: f"{name} contains non-finite entries",
    )
    Mt = np.swapaxes(M, -1, -2)
    scale = np.max(np.abs(M), axis=(-2, -1))
    asym = np.max(np.abs(M - Mt), axis=(-2, -1))
    _raise_first(
        asym > SYM_TOL * np.maximum(scale, np.finfo(float).tiny), NotSymmetric,
        lambda idx: (
            f"{name} is not symmetric: max|A - A^T| = {asym[idx]:.3e} "
            f"exceeds {SYM_TOL:.0e} * max|A| = {SYM_TOL * scale[idx]:.3e}"
        ),
    )
    return (M + Mt) / 2.0


def as_spd(A, *, name: str = "matrix") -> np.ndarray:
    """Validate shape, finiteness and symmetry of ``A``; return it symmetrized.

    Asymmetry up to ``SYM_TOL`` relative to the largest entry is treated as
    float noise from upstream products and absorbed by averaging with the
    transpose; anything larger raises :class:`NotSymmetric`.  Positive
    definiteness is *not* checked here (see :func:`cholesky`).
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    return _symmetrized(M, name)


def cholesky(A) -> np.ndarray:
    """Lower-triangular Cholesky factor of each positive definite matrix.

    Parameters
    ----------
    A : array-like, shape (..., N, N)
        A symmetric positive definite matrix or a stack of them.  Every
        matrix passes the gates of a single call on its own, with its own
        scale: finite entries, asymmetry at most ``SYM_TOL * max|A|``
        (absorbed, as in :func:`as_spd`), ``max(diag A) > 0`` and every
        pivot above ``PD_TOL * max(diag A)``.

    Returns
    -------
    L : ndarray, shape (..., N, N)
        Lower triangular with strictly positive diagonal and exact zeros in
        the strict upper triangle, satisfying ``L @ L.T == A`` up to
        reconstruction noise.  Unique for positive definite input.  Each
        factor of a stack is bitwise the factor of its matrix alone; the
        whole stack is factored in one numpy call.

    Raises
    ------
    NonFiniteValue, NotSymmetric
        If a matrix has a non-finite entry or exceeds the symmetry tolerance.
    NotPositiveDefinite
        If factorization fails or any pivot is at or below
        ``PD_TOL * max(diag A)``; degenerate covariances are rejected.

    A stack runs each gate over all its matrices, in the order above; the
    first gate that some matrix fails raises the error of the first such
    matrix (C order) with its message prefixed by ``stack index [i, ...]:``.
    """
    return _factor(_symmetrized(np.asarray(A, dtype=float), "matrix"))


def _factor(S: np.ndarray) -> np.ndarray:
    """The pivot-checked step of :func:`cholesky`, on an already gated stack."""
    max_diag = np.max(np.diagonal(S, axis1=-2, axis2=-1), axis=-1)
    _raise_first(
        max_diag <= 0.0, NotPositiveDefinite, lambda idx: "matrix has non-positive diagonal"
    )
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        # numpy does not say which matrix of a stack failed
        raise NotPositiveDefinite(
            _stack_index(_first_unfactorable(S)) + f"Cholesky factorization failed: {exc}"
        ) from exc
    pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    min_pivot = np.min(pivots, axis=-1)
    _raise_first(
        min_pivot <= PD_TOL * max_diag, NotPositiveDefinite,
        lambda idx: (
            f"smallest Cholesky pivot {min_pivot[idx]:.3e} is at or below "
            f"{PD_TOL:.0e} * max diag = {PD_TOL * max_diag[idx]:.3e}"
        ),
    )
    return np.tril(L)


def _degenerate(min_eig: float, cov: np.ndarray) -> bool:
    """Degeneracy of a PSD ``cov`` with least eigenvalue ``min_eig``, on the pivot gate's scale."""
    return bool(min_eig <= PD_TOL * max(float(np.max(np.diag(cov))), np.finfo(float).tiny))


@lru_cache(maxsize=64)
def _strict_upper(n: int) -> np.ndarray:
    mask = ~np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


def as_cholesky_factor(L, *, name: str = "cholesky factor") -> np.ndarray:
    """Validate a user-supplied lower-triangular factor with positive diagonal."""
    M = np.asarray(L, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteValue(f"{name} contains non-finite entries")
    # a cached mask: np.triu would rebuild it on every call of optimal_sign
    if M[_strict_upper(M.shape[0])].any():
        raise NotSymmetric(f"{name} must be lower triangular (strict upper part zero)")
    if (M.diagonal() <= 0.0).any():
        raise NotPositiveDefinite(f"{name} must have strictly positive diagonal")
    return M


def sqrtm(A) -> np.ndarray:
    """Unique symmetric positive definite square root of an SPD matrix.

    Uses a symmetric eigendecomposition; at the small horizons this library
    targets, exactness beats iterative schemes.
    """
    S = as_spd(A)
    _factor(S)  # positive-definiteness gate, same tolerance policy everywhere
    w, V = np.linalg.eigh(S)
    R = (V * np.sqrt(w)) @ V.T
    return (R + R.T) / 2.0


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """A non-degenerate Gaussian law on R^N.

    Attributes
    ----------
    mean : ndarray, shape (N,)
    cov : ndarray, shape (N, N)
        Symmetric positive definite (validated and symmetrized on
        construction).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = as_vector(self.mean, name="mean")
        cov = as_spd(self.cov, name="covariance")
        if mean.shape[0] != cov.shape[0]:
            raise DimensionMismatch(
                f"mean has length {mean.shape[0]} but covariance is "
                f"{cov.shape[0]}x{cov.shape[0]}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of the covariance (cached)."""
        L = _factor(self.cov)  # cov is gated and symmetrized on construction
        L.setflags(write=False)
        return L

    @classmethod
    def from_cholesky(cls, mean, factor) -> "GaussianSpec":
        """Build the law N(mean, L L^T) from a lower-triangular factor ``L``.

        The factor is validated and cached, so no refactorization noise is
        introduced downstream.
        """
        L = as_cholesky_factor(factor)
        spec = cls(mean, L @ L.T)
        L = np.tril(L)
        L.setflags(write=False)
        spec.__dict__["chol"] = L
        return spec


def check_same_dim(mu: GaussianSpec, nu: GaussianSpec) -> None:
    """Raise :class:`DimensionMismatch` unless the two laws share a dimension."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"laws have dimensions {mu.dim} and {nu.dim}")


def check_split(t: int, dim: int, *, allow_ends: bool = False) -> int:
    """Validate a past/future split point ``t`` against dimension ``dim``."""
    t = int(t)
    lo, hi = (0, dim) if allow_ends else (1, dim - 1)
    if not lo <= t <= hi:
        raise BadSplit(f"split t={t} outside [{lo}, {hi}] for dimension {dim}")
    return t


def conditional(mu: GaussianSpec, t: int, x_past) -> GaussianSpec:
    """Law of the future coordinates given the first ``t`` coordinates.

    For ``X ~ N(a, L L^T)`` the conditional law of ``X_{t+1:N}`` given
    ``X_{1:t} = x`` is Gaussian with mean
    ``a_fut + L_fp @ inv(L_pp) @ (x - a_past)`` and covariance
    ``L_ff @ L_ff.T`` built from the trailing Cholesky block, which does not
    depend on ``x``.

    Parameters
    ----------
    mu : GaussianSpec
    t : int
        Number of conditioning coordinates, strictly between 0 and N.
    x_past : array-like, shape (t,)

    Returns
    -------
    GaussianSpec of dimension N - t.
    """
    t = check_split(t, mu.dim)
    x = as_vector(x_past, dim=t, name="x_past")
    L, a = mu.chol, mu.mean
    mean = a[t:] + _rdiv(L[t:, :t], L[:t, :t]) @ (x - a[:t])
    return GaussianSpec.from_cholesky(mean, L[t:, t:])


def _rdiv(X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Right division ``X @ inv(L)`` by a validated lower-triangular factor.

    The one solve behind every map ``M Q L^{-1}`` and every conditional-mean
    gain ``L_fp @ inv(L_pp)``; empty when ``L`` is ``0 x 0``.
    """
    return np.linalg.solve(L.T, X.T).T


def sample(mu: GaussianSpec, n: int, seed) -> np.ndarray:
    """Draw ``n`` samples ``a + L eps`` with a seeded PCG64 generator.

    Identical ``seed`` gives bitwise-identical output.  Parallel callers
    should use disjoint seeds (or ``numpy.random.SeedSequence`` spawning).

    Returns
    -------
    ndarray, shape (n, N)
    """
    n = int(n)
    if n < 1:
        raise DimensionMismatch(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, mu.dim))
    return mu.mean + eps @ mu.chol.T


def random_spd(dim: int, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Random SPD matrix ``G G^T + 1e-3 * I`` with standard normal ``G``.

    With a leading ``shape`` the result is a ``shape + (dim, dim)`` stack.
    The generator is consumed exactly as by ``prod(shape)`` single draws in
    C order, and each matrix equals bitwise the one that draw returns.
    """
    G = rng.standard_normal((*shape, dim, dim))
    return G @ np.swapaxes(G, -1, -2) + 1e-3 * np.eye(dim)


def random_gaussian(dim: int, rng: np.random.Generator) -> GaussianSpec:
    """Random law: standard normal mean, then a :func:`random_spd` covariance."""
    return GaussianSpec(rng.standard_normal(dim), random_spd(dim, rng))
