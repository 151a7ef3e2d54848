"""Gaussian-law primitives and dense small-matrix SPD linear algebra.

Matrices are plain float64 ndarrays throughout; nothing here is meant for
dimensions beyond a few hundred.  All functions are pure and all returned
values can be shared freely across threads.  Sampling takes an explicit seed
(NumPy ``default_rng``, i.e. PCG64), so there is no hidden global state.
"""

from __future__ import annotations

import math
import weakref
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
#: smallest positive normal float, the floor of every relative scale
_TINY = float(np.finfo(float).tiny)
#: above this magnitude the sum of two entries can overflow
_HALF_MAX = float(np.finfo(float).max) / 2.0


def as_vector(x, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, optionally of length ``dim``."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteValue(f"{name} contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


def _raise_first(bad, error, message) -> None:
    """Raise ``error`` with ``message(idx)`` for the first matrix ``idx`` that
    ``bad`` flags: an array of the stack's leading shape, or one (numpy or
    Python) bool for one matrix, whose index is ``()``."""
    if not isinstance(bad, np.ndarray):
        if bad:
            raise error(message(()))
    elif bad.any():
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
    stack; returns the stack symmetrized.

    Asymmetry up to ``SYM_TOL`` relative to the largest entry is treated as
    float noise from upstream products and absorbed by averaging with the
    transpose; anything larger raises :class:`NotSymmetric`.  Where the sum
    of two mirrored entries would overflow, the average is taken from their
    halves, exact at that scale.  Positive definiteness is *not* checked here
    (see :func:`cholesky`).
    """
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    if M.shape[-1] < 1:
        raise DimensionMismatch(f"{name} must have dimension >= 1")
    # max|M| is NaN or inf exactly when some entry is, so the scale pass is
    # also the finiteness gate; asym comes after it, as inf - inf would warn.
    # One matrix gives numpy scalars, tested as Python floats.
    one = M.ndim == 2
    scale = np.abs(M).max(axis=(-2, -1))
    _raise_first(
        not math.isfinite(scale) if one else ~np.isfinite(scale), NonFiniteValue,
        lambda idx: f"{name} contains non-finite entries",
    )
    Mt = np.swapaxes(M, -1, -2)
    asym = np.abs(M - Mt).max(axis=(-2, -1))
    _raise_first(
        asym > SYM_TOL * (max(scale, _TINY) if one else np.maximum(scale, _TINY)), NotSymmetric,
        lambda idx: (
            f"{name} is not symmetric: max|A - A^T| = {asym[idx]:.3e} "
            f"exceeds {SYM_TOL:.0e} * max|A| = {SYM_TOL * scale[idx]:.3e}"
        ),
    )
    if (scale if one else scale.max()) <= _HALF_MAX:
        return (M + Mt) / 2.0
    with np.errstate(over="ignore"):
        S = (M + Mt) / 2.0
    return np.where(np.isinf(S), M / 2.0 + Mt / 2.0, S)


def cholesky(A) -> np.ndarray:
    """Lower-triangular Cholesky factor of each positive definite matrix.

    Parameters
    ----------
    A : array-like, shape (..., N, N)
        A symmetric positive definite matrix or a stack of them.  Every
        matrix passes the gates of a single call on its own, with its own
        scale: finite entries, asymmetry at most ``SYM_TOL * max|A|``
        (absorbed by averaging with the transpose), ``max(diag A) > 0`` and
        every pivot above ``PD_TOL * max(diag A)``.

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
    max_diag = S.diagonal(0, -2, -1).max(axis=-1)
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
    _check_pivots(L, max_diag)
    return L  # numpy writes exact +0.0 above the diagonal


def _check_pivots(L: np.ndarray, max_diag) -> None:
    """The pivot gate of every law: each pivot ``L_tt^2`` of a factor stack must
    exceed ``PD_TOL * max_diag``, the largest diagonal entry of its ``L L^T``."""
    min_pivot = (L.diagonal(0, -2, -1) ** 2).min(axis=-1)
    _raise_first(
        min_pivot <= PD_TOL * max_diag, NotPositiveDefinite,
        lambda idx: (
            f"smallest Cholesky pivot {min_pivot[idx]:.3e} is at or below "
            f"{PD_TOL:.0e} * max diag = {PD_TOL * max_diag[idx]:.3e}"
        ),
    )


def _degenerate(min_eig: float, cov: np.ndarray) -> bool:
    """Degeneracy of a PSD ``cov`` with least eigenvalue ``min_eig``, on the pivot gate's scale."""
    return bool(min_eig <= PD_TOL * max(float(cov.diagonal().max()), _TINY))


@lru_cache(maxsize=64)
def _strict_upper(n: int) -> np.ndarray:
    mask = ~np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


#: id -> the read-only factor of a law, which passed the factor gates when the
#: law made it (the pivot gate of :func:`cholesky`, or
#: :func:`as_cholesky_factor` in :meth:`GaussianSpec.from_cholesky`); weak, so
#: it keeps no factor alive, and an entry leaves with its factor
_GATED_FACTORS = weakref.WeakValueDictionary()


def _gated(L: np.ndarray) -> np.ndarray:
    """Make a law's checked factor read-only and record it as gated."""
    L.setflags(write=False)
    _GATED_FACTORS[id(L)] = L
    return L


def as_cholesky_factor(L, *, name: str = "cholesky factor") -> np.ndarray:
    """Validate a user-supplied lower-triangular factor with positive diagonal.

    A law's own factor (``GaussianSpec.chol``) passed these gates when the law
    made it, so while it is read-only it is returned at once, without a second
    scan; any other array, a law's factor made writable included, runs every
    gate, with the same messages.  A caller that makes a law's factor writable
    and read-only again has changed what the law's caches rest on.
    """
    if _GATED_FACTORS.get(id(L)) is L and not L.flags.writeable:
        return L
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


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """A non-degenerate Gaussian law on R^N.

    Attributes
    ----------
    mean : ndarray, shape (N,)
        A read-only copy of the given mean; the caller's array is untouched.
    cov : ndarray, shape (N, N)
        Symmetric positive definite.  Construction runs the shape, finiteness
        and symmetry gates and stores ``(S + S^T) / 2``; positive definiteness
        is the pivot gate of :func:`cholesky`, which runs at the first
        :attr:`chol` (raising :class:`NotPositiveDefinite` there), except in
        :meth:`from_cholesky`, which runs it on construction.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = as_vector(self.mean, name="mean").copy()  # not the caller's array
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2:
            raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
        cov = _symmetrized(cov, "covariance")
        if mean.shape[0] != cov.shape[0]:
            raise DimensionMismatch(
                f"mean has length {mean.shape[0]} but covariance is "
                f"{cov.shape[0]}x{cov.shape[0]}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @cached_property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of the covariance (cached)."""
        return _gated(_factor(self.cov))  # cov is gated and symmetrized on construction

    @cached_property
    def _cov_trace(self):
        """``Tr cov``, which every coupling cost of the law reads (cached)."""
        return self.cov.trace()

    @classmethod
    def from_cholesky(cls, mean, factor) -> "GaussianSpec":
        """Build the law N(mean, L L^T) from a lower-triangular factor ``L``.

        The factor is validated, held to the pivot gate of :func:`cholesky`
        (so the law's echoed covariance parses back) and cached, so no
        refactorization noise is introduced downstream.
        """
        L = as_cholesky_factor(factor)
        spec = cls(mean, L @ L.T)
        _check_pivots(L, spec.cov.diagonal().max())
        spec.__dict__["chol"] = _gated(np.tril(L))
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

    The one solve behind the triangular maps ``M L^{-1}`` and
    ``M diag(rho) L^{-1}`` and every conditional-mean gain
    ``L_fp @ inv(L_pp)``; empty when ``L`` is ``0 x 0``.
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
