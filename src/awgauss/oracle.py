"""Independent verification engines for the closed-form adapted transport.

Nothing in this module trusts the sign-rule formula it is meant to check:

* ``dpp_solve_discrete`` runs a full backward induction on quantile
  discretizations of both laws, solving each one-step problem by enumeration
  over couplings of the node measures (sorted pairings plus a linear
  assignment safety net).  Conditional node laws are derived from covariance
  Schur complements, not from the Cholesky coordinate.
* ``monte_carlo_cost`` estimates coupling costs by simulating the correlated
  noise construction directly.
* ``rho_grid_search`` brute-forces the correlation box.
* ``value_function`` / ``dpp_recursion_check`` evaluate the closed-form value
  function and confirm its one-step recursion by numerical integration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import ndtri, roots_hermitenorm

from .couplings import _coupling_cost, as_correlations, coupling_cost
from .distances import ADAPTED, _cov_sq, as_weights
from .errors import BadParameter, BadSplit, TooLarge
from .linalg import GaussianSpec, _rdiv, as_vector, check_same_dim, check_split

#: hard cap on the number of past paths per marginal in the discrete solver;
#: the value-function table has the square of this many entries
MAX_PAST_PATHS = 4096

#: fewest samples :func:`monte_carlo_cost` accepts, and fewest nodes per time
#: step :func:`dpp_solve_discrete` accepts
MIN_MC_SAMPLES = 1000
MIN_POINTS_PER_DIM = 2

#: path entries per sample block of :func:`monte_carlo_cost` (128 KiB per
#: array).  Swept over 4,096-262,144 on full verification (N = 2 and 3,
#: n = 1e5, 2-vCPU x86_64): up to 65,536 the op times were alike, 262,144 was
#: as slow as whole-sample arrays, and only up to 16,384 did the blocks take
#: no page faults after the first call
_BLOCK_ENTRIES = 16_384

#: states per step of :func:`dpp_solve_discrete` that also get an exact
#: assignment solve, beside the one at the root
_ASSIGNMENT_SAMPLES = 8


def _value_fn(mu: GaussianSpec, nu: GaussianSpec, t: int):
    """Closed-form value function at split ``t``, as a function of batched pasts
    ``(X, Y)`` of shape (n, t); its gains and trailing cost are computed once."""
    L, M = mu.chol, nu.chol
    a, b = mu.mean, nu.mean
    # conditional means; at t = 0 the gains are empty and these are the means,
    # at t = N they and the tail are empty and the value is the past cost
    gx = _rdiv(L[t:, :t], L[:t, :t]).T
    gy = _rdiv(M[t:, :t], M[:t, :t]).T
    tail = _cov_sq(ADAPTED, L[t:, t:], M[t:, t:])

    def value(X, Y):
        past = np.sum((X - Y) ** 2, axis=1)
        cmx = a[t:] + (X - a[:t]) @ gx
        cmy = b[t:] + (Y - b[:t]) @ gy
        cross = np.sum((cmx - cmy) ** 2, axis=1)
        return past + cross + tail

    return value


@dataclass(frozen=True, eq=False)
class ValueFunctionEval:
    """Closed-form dynamic-programming value at a split point.

    ``value`` is the optimal remaining bicausal cost given the two pasts, plus
    the squared distance already accumulated between them; it equals the full
    squared adapted distance at ``t = 0`` and ``||x - y||^2`` at ``t = N``.
    ``alpha_next`` is the cross-term coefficient of the next one-step problem,
    ``diag(L^T M)_{t+1} / (L_{t+1,t+1} M_{t+1,t+1})``; its sign decides
    whether the next conditional coupling is comonotone or counter-monotone
    (``None`` at ``t = N``).
    """

    t: int
    x_past: np.ndarray
    y_past: np.ndarray
    value: float
    alpha_next: float | None


def value_function(
    mu: GaussianSpec, nu: GaussianSpec, t: int, x_past, y_past
) -> ValueFunctionEval:
    """Evaluate the closed-form value function at split ``t`` and given pasts.

    The formula is the past cost plus the squared distance of the conditional
    means plus the adapted covariance distance of the trailing Cholesky
    blocks; means are handled by recentring, so at ``t = 0`` this is exactly
    the squared adapted distance between ``mu`` and ``nu``.
    """
    check_same_dim(mu, nu)
    t = check_split(t, mu.dim, allow_ends=True)
    x = as_vector(x_past, dim=t, name="x_past")
    y = as_vector(y_past, dim=t, name="y_past")
    value = float(_value_fn(mu, nu, t)(x[None, :], y[None, :])[0])
    if t == mu.dim:
        alpha = None
    else:
        L, M = mu.chol, nu.chol
        alpha = float(L[:, t] @ M[:, t]) / float(L[t, t] * M[t, t])
    return ValueFunctionEval(t=t, x_past=x, y_past=y, value=value, alpha_next=alpha)


@dataclass(frozen=True, eq=False)
class RecursionCheckReport:
    """One-step recursion check of the value function at split ``t``.

    ``one_step_value`` integrates the closed-form value at ``t + 1`` against
    the quantile coupling of the two conditional marginals selected by the
    sign of ``alpha_next`` (Gauss-Hermite nodes, exact for the quadratic
    integrand); it should reproduce ``value`` up to quadrature roundoff.
    Both pairings are reported so the case analysis can be inspected.
    """

    t: int
    value: float
    one_step_value: float
    comonotone_value: float
    countermonotone_value: float
    alpha_next: float
    abs_error: float


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only 64-node Gauss-Hermite nodes and weights normalized to sum 1."""
    z, w = roots_hermitenorm(64)
    w = w / w.sum()
    z.flags.writeable = w.flags.writeable = False
    return z, w


def dpp_recursion_check(
    mu: GaussianSpec, nu: GaussianSpec, t: int, x_past, y_past
) -> RecursionCheckReport:
    """Numerically verify one step of the dynamic-programming recursion.

    The integrand is a quadratic polynomial of the shared standard normal
    driver, so the 64-node Gauss-Hermite rule is exact up to roundoff.
    """
    evaluation = value_function(mu, nu, t, x_past, y_past)
    t, x, y = evaluation.t, evaluation.x_past, evaluation.y_past
    if t >= mu.dim:
        raise BadSplit(f"recursion step needs t < N, got t={t}, N={mu.dim}")
    L, M = mu.chol, nu.chol
    a, b = mu.mean, nu.mean
    # one-row divisions, not rows of the full gain: those differ from these in
    # the last bits (at t = 0 they are empty and the conditional means are a[0], b[0])
    rx = _rdiv(L[t:t + 1, :t], L[:t, :t])[0]
    ry = _rdiv(M[t:t + 1, :t], M[:t, :t])[0]
    mx = float(a[t] + rx @ (x - a[:t]))
    my = float(b[t] + ry @ (y - b[:t]))
    sx, sy = float(L[t, t]), float(M[t, t])

    z, w = _hermite_rule()
    x_nodes = mx + sx * z
    X_next = np.column_stack([np.repeat(x[None, :], z.shape[0], axis=0), x_nodes])

    value_next = _value_fn(mu, nu, t + 1)

    def one_step(y_nodes):
        Y_next = np.column_stack([np.repeat(y[None, :], z.shape[0], axis=0), y_nodes])
        return float(w @ value_next(X_next, Y_next))

    como = one_step(my + sy * z)
    counter = one_step(my - sy * z)
    chosen = como if evaluation.alpha_next >= 0.0 else counter
    return RecursionCheckReport(
        t=t,
        value=evaluation.value,
        one_step_value=chosen,
        comonotone_value=como,
        countermonotone_value=counter,
        alpha_next=evaluation.alpha_next,
        abs_error=abs(evaluation.value - chosen),
    )


def _quantile_tree(spec: GaussianSpec, z: np.ndarray):
    """Forward quantile discretization of a Gaussian path law.

    Returns the array of past paths at the final level (``m^(N-1)`` rows) and,
    per level, the ``m`` conditional nodes of the next coordinate for each
    path.  Conditional means and variances come from covariance Schur
    complements, keeping this solver independent of the Cholesky coordinate
    used by the closed forms.
    """
    a, S = spec.mean, spec.cov
    m = z.shape[0]
    paths = np.zeros((1, 0))
    children = []
    for s in range(spec.dim):
        # at s = 0 the solve is empty: the root node law is a[0], S[0, 0]
        gain = np.linalg.solve(S[:s, :s], S[:s, s])
        var = float(S[s, s] - S[s, :s] @ gain)
        cm = a[s] + (paths - a[:s]) @ gain
        sd = math.sqrt(max(var, 0.0))
        ch = cm[:, None] + sd * z[None, :]
        children.append(ch)
        if s < spec.dim - 1:
            paths = np.column_stack([np.repeat(paths, m, axis=0), ch.reshape(-1)])
    return paths, children


def _assignment_value(cost: np.ndarray) -> float:
    """Mean cost of the optimal assignment between two uniform node measures."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _refine(V: np.ndarray, rng, value) -> None:
    """Lower ``V[i, j]`` to ``value(i, j)`` at the root of a 1x1 table, else on
    ``_ASSIGNMENT_SAMPLES`` drawn states (all ``i`` drawn first, then all ``j``)."""
    n, samples = V.shape[0], _ASSIGNMENT_SAMPLES
    if n == 1:
        V[0, 0] = min(V[0, 0], value(0, 0))
    else:
        for i, j in zip(rng.integers(0, n, samples), rng.integers(0, n, samples)):
            V[i, j] = min(V[i, j], value(i, j))


def _discrete_size_error(dim: int, m: int) -> str | None:
    """Why :func:`dpp_solve_discrete` refuses ``m`` nodes at dimension ``dim``, or ``None``."""
    if dim > 3:
        return f"discrete solver supports N <= 3, got N={dim}"
    if m ** (dim - 1) > MAX_PAST_PATHS:
        return (
            f"{m} nodes over horizon {dim} needs {m ** (dim - 1)} past paths per "
            f"marginal (max {MAX_PAST_PATHS})"
        )
    return None


def dpp_solve_discrete(
    mu: GaussianSpec,
    nu: GaussianSpec,
    points_per_dim: int,
    *,
    seed: int = 0,
) -> float:
    """Discrete backward-induction estimate of the squared adapted distance.

    Each conditional one-dimensional Gaussian is discretized onto
    ``points_per_dim`` mid-quantile nodes (levels ``(k + 0.5)/m``) with equal
    weights.  The backward recursion solves every one-step problem by taking
    the better of the sorted (comonotone) and reverse-sorted
    (counter-monotone) pairings; on ``_ASSIGNMENT_SAMPLES`` (8) randomly
    chosen states per step -- and always on the final step at the root -- a
    full m-by-m optimal assignment is solved as well, so no third coupling
    structure can win unnoticed.  The estimate refines toward the closed form
    as ``points_per_dim`` grows.

    Only short horizons are supported: the table of value-function states
    grows as ``m^(2(N-1))``.

    Parameters
    ----------
    points_per_dim : int
        Nodes per time step, >= 2.
    seed : int
        Seed for the assignment subsampling; the result is deterministic for
        a fixed seed.
    """
    check_same_dim(mu, nu)
    N = mu.dim
    m = int(points_per_dim)
    if m < MIN_POINTS_PER_DIM:
        raise BadParameter(f"points_per_dim must be >= {MIN_POINTS_PER_DIM}, got {m}")
    if (too_large := _discrete_size_error(N, m)) is not None:
        raise TooLarge(too_large)

    z = ndtri((np.arange(m) + 0.5) / m)
    x_paths, x_children = _quantile_tree(mu, z)
    y_paths, y_children = _quantile_tree(nu, z)
    rng = np.random.default_rng(seed)

    past2 = cdist(x_paths, y_paths, "sqeuclidean")  # [[0.]] for the empty pasts at N = 1

    # final step: tail cost is (x_N - y_N)^2 over the children nodes
    Xc, Yc = x_children[-1], y_children[-1]
    ax = np.mean(Xc**2, axis=1)
    ay = np.mean(Yc**2, axis=1)
    como = ax[:, None] + ay[None, :] - 2.0 * (Xc @ Yc.T) / m
    counter = ax[:, None] + ay[None, :] - 2.0 * (Xc @ Yc[:, ::-1].T) / m
    V = past2 + np.minimum(como, counter)
    _refine(
        V, rng, lambda i, j: past2[i, j] + _assignment_value((Xc[i][:, None] - Yc[j][None, :]) ** 2)
    )

    # interior steps: couple children through the stored value table
    for s in range(N - 2, -1, -1):
        ns = m**s
        V4 = V.reshape(ns, m, ns, m)
        como = np.einsum("ikjk->ij", V4) / m
        counter = np.einsum("ikjk->ij", V4[:, :, :, ::-1]) / m
        Vnew = np.minimum(como, counter)
        _refine(Vnew, rng, lambda i, j: _assignment_value(np.ascontiguousarray(V4[i, :, j, :])))
        V = Vnew
    return float(V[0, 0])


class MonteCarloEstimate(NamedTuple):
    estimate: float
    standard_error: float


def monte_carlo_cost(
    mu: GaussianSpec, nu: GaussianSpec, rho, n: int, seed, *, weights=None
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the correlated-coupling cost.

    Simulates the construction directly: draw ``eps^X`` standard normal, set
    ``eps^Y_t = rho_t eps^X_t + sqrt(1 - rho_t^2) xi_t`` with independent
    ``xi``, and push both noises through the Cholesky factors.  ``eps^X`` is
    the generator's first draw; ``xi`` is drawn second, and only when some
    ``|rho_t| < 1``: with every ``rho_t = +-1`` the coupling is a deterministic
    map and ``xi`` would be multiplied by zero.  Returns the empirical mean of
    ``||X - Y||^2`` (or the weighted square cost when ``weights``, strictly
    positive as for :func:`~awgauss.distances.weighted_bicausal_value`, are given)
    and its standard error.  Deterministic for a fixed seed.

    The samples run in blocks of at most ``_BLOCK_ENTRIES`` path entries, so
    a block's arrays stay in cache and come back from the heap instead of
    being faulted in at every call.  Row blocks of a draw continue the
    generator's stream, so with every ``|rho_t| = 1`` ``eps^X`` is drawn block
    by block; otherwise ``eps^X`` is drawn whole, since ``xi`` follows all of
    it, and ``xi`` block by block.  Within a block the paths are time-major, one
    contiguous row of samples per time, so every elementwise step runs along
    the long axis.  Weighted calls scale each row of squared gaps by its
    ``w_t``; then every block is reduced the same way: at ``N < 8`` summed
    over the rows, the left-to-right order numpy uses for a sum of fewer than
    8 terms, at larger ``N`` a sample-major copy summed with
    ``sq.sum(axis=1)``.  Mean and standard error are taken over the whole
    cost vector, so the result is bitwise that of the whole-sample form
    ``(sq * w).sum(axis=1)`` (``sq.sum(axis=1)`` unweighted).
    """
    check_same_dim(mu, nu)
    r = as_correlations(rho, dim=mu.dim)
    # time-major like the paths: one weight per row of a block
    w = None if weights is None else as_weights(weights, dim=mu.dim)[:, None]
    n = int(n)
    if n < MIN_MC_SAMPLES:
        raise BadParameter(f"Monte Carlo needs n >= {MIN_MC_SAMPLES} samples, got {n}")
    N = mu.dim
    rows = max(1, _BLOCK_ENTRIES // N)
    rng = np.random.default_rng(seed)
    L, a, b = mu.chol, mu.mean[:, None], nu.mean[:, None]
    unit = np.all(np.abs(r) == 1.0)
    if unit:
        # rho_t = +-1 is exact in any product: (rho_t eps) M equals eps (M rho_t)
        M = nu.chol * r
    else:
        M = nu.chol
        eps_x = rng.standard_normal((n, N))
        # the mix factors tiled to a block, so each mixing step is one
        # contiguous pass; a broadcast over (rows, N) runs its inner loop over N
        S = np.tile(np.sqrt(1.0 - r**2), (rows, 1))
        R = np.tile(r, (rows, 1))
    cost = np.empty(n)
    for i in range(0, n, rows):
        j = min(i + rows, n)
        if unit:
            ex = ey = rng.standard_normal((j - i, N))
        else:
            ex = eps_x[i:j]
            ey = rng.standard_normal((j - i, N))
            ey *= S[: j - i]
            ey += R[: j - i] * ex
        # L @ eps.T is the transpose of eps @ L.T bit for bit, and a column
        # block of it the same columns of the whole product
        X = L @ ex.T
        Y = M @ ey.T
        X += a
        Y += b
        X -= Y
        X *= X
        if w is not None:
            X *= w
        if N < 8:
            X.sum(axis=0, out=cost[i:j])
        else:
            np.ascontiguousarray(X.T).sum(axis=1, out=cost[i:j])
    estimate = float(cost.mean())
    # the spread taken on the costs scaled in place by one power of two: exact,
    # so the standard error keeps its bits, and its squares stay finite above
    # costs of 1e154
    k = math.frexp(float(cost.max()))[1]
    np.ldexp(cost, -k, out=cost)
    return MonteCarloEstimate(
        estimate=estimate,
        standard_error=math.ldexp(float(cost.std(ddof=1)), k) / math.sqrt(n),
    )


class RhoGridResult(NamedTuple):
    best_rho: np.ndarray
    best_cost: float


def rho_grid_search(mu: GaussianSpec, nu: GaussianSpec, steps: int) -> RhoGridResult:
    """Exhaustive search of the correlation box on a uniform per-axis grid.

    Enumerates ``steps**N`` candidate correlation vectors (endpoints included)
    and returns the first minimizer in lexicographic order together with its
    closed-form cost.  Off the free indices the optimum sits at the box
    endpoints, so the grid recovers the sign rule exactly.
    """
    check_same_dim(mu, nu)
    steps = int(steps)
    if steps < 3:
        raise BadParameter(f"grid needs at least 3 steps per axis, got {steps}")
    N = mu.dim
    if N * math.log2(steps) > 30.0:
        raise TooLarge(f"{steps}^{N} grid points exceed the 2^30 enumeration guard")

    grid = np.linspace(-1.0, 1.0, steps)
    best_rho = None
    best_cost = math.inf
    candidates = itertools.product(grid, repeat=N)
    while True:
        chunk = np.array(list(itertools.islice(candidates, 65536)))
        if chunk.size == 0:
            break
        costs = _coupling_cost(mu, nu, chunk)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_rho = chunk[k].copy()
    # re-evaluate through the closed-form cost so the reported value is exact
    return RhoGridResult(best_rho=best_rho, best_cost=coupling_cost(mu, nu, best_rho))
