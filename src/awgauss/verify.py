"""Named verification checks wiring the closed forms against the oracles.

Used by the CLI ``verify`` subcommand and by the acceptance tests.  Each check
returns a :class:`CheckResult` with the observed discrepancy and the bound it
was held to, so reports are machine readable and failures are diagnosable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .couplings import _coupling_cost, _sign_selection, aw_map, brenier_map, coupling_cost, kr_map
from .distances import ADAPTED, _cov_sq, _derived, _frobenius_sq, aw2, kr2, wasserstein2
from .errors import BadParameter, NonFiniteValue
from .linalg import GaussianSpec, cholesky, random_gaussian, random_spd

#: float floor of every comparison, relative to the pair's S = |a|^2 + |b|^2 + Tr A + Tr B:
#: each value compared is a coupling cost E|X - Y|^2 <= 2S, rounded relative to S; an
#: identity of the covariances alone is held to their own part Tr A + Tr B instead
REL_TOL = 1e-13

FAST = "fast"
FULL = "full"
LEVELS = (FAST, FULL)


@dataclass(frozen=True, eq=False)
class CheckResult:
    name: str
    pair: int  # index of the problem pair the check ran on; -1 for global checks
    passed: bool
    observed: float
    bound: float
    note: str = ""

    def as_doc(self) -> dict:
        return asdict(self)


def _result(name, pair, observed, bound, note="") -> CheckResult:
    return CheckResult(name, pair, bool(observed <= bound), float(observed), float(bound), note)


class _Pair:
    """One pair's laws, float floors and closed forms, each computed once for its checks."""

    def __init__(self, mu: GaussianSpec, nu: GaussianSpec, pair: int, rng, grid_m: int, mc_samples: int):
        with np.errstate(over="ignore"):
            S = float(mu.mean @ mu.mean + nu.mean @ nu.mean + np.trace(mu.cov) + np.trace(nu.cov))
        if not math.isfinite(S):
            # an infinite floor would pass every check
            raise NonFiniteValue(f"pair {pair}: second moment |a|^2 + |b|^2 + Tr A + Tr B overflows")
        self.mu, self.nu, self.rng, self.grid_m, self.mc_samples = mu, nu, rng, grid_m, mc_samples
        self.S, self.tol, self.traces = S, REL_TOL * S, mu.cov.trace() + nu.cov.trace()
        self.cov_tol = REL_TOL * self.traces  # <= tol, so large means cannot hide a covariance error
        self.w2 = wasserstein2(mu, nu)
        self.brenier = brenier_map(mu, nu)  # W2's polar entry: abw_symmetry's reversed pair replaces it
        self.k2, self.a2 = kr2(mu, nu), aw2(mu, nu)
        self.L, self.M = L, M = mu.chol, nu.chol
        self.sign = _derived(L, M, _sign_selection)
        # square roots as in abw_distance/kr_distance, so observed values match them
        self.abw, self.kr_sq = math.sqrt(self.a2.cov_term), math.sqrt(self.k2.cov_term) ** 2
        self.abw_reversed = math.sqrt(_cov_sq(ADAPTED, M, L))
        self.ones = np.ones(mu.dim)
        self.sign_cost, self.sync_cost = coupling_cost(mu, nu, self.sign.rho), coupling_cost(mu, nu, self.ones)

    @cached_property
    def oracle(self):  # it loads scipy, so it is imported only when an oracle runs
        from . import oracle
        return oracle

    @cached_property
    def monte_carlo(self):  # (rho, cost) of each Monte Carlo row
        rho = self.rng.uniform(-1.0, 1.0, self.mu.dim)  # the one draw outside a row, before their seeds
        fixed = (self.sign.rho, self.sign_cost), (self.ones, self.sync_cost)
        return (*fixed, (rho, coupling_cost(self.mu, self.nu, rho)))

    def push_error(self, T):
        img = T.push(self.mu)
        # both norms on the covariances scaled by one power of two: exact, so the
        # ratio keeps its bits, and the squares stay finite above entries of 1e154
        k = -math.frexp(float(np.max(np.abs(self.nu.cov))))[1]
        err = np.linalg.norm(np.ldexp(img.cov - self.nu.cov, k)) / np.linalg.norm(np.ldexp(self.nu.cov, k))
        # the mean is held 100x tighter, in the distance unit sqrt(S)
        return max(err, 100.0 * float(np.linalg.norm(img.mean - self.nu.mean)) / math.sqrt(self.S)), 1e-8

    def block_gap(self):
        worst, diag = 0.0, self.sign.diag
        for t in range(1, self.mu.dim):
            tail = np.sum(self.L[t:, t:] * self.M[t:, t:], axis=0)
            worst = max(worst, float(np.max(np.abs(diag[t:] - tail))))
        return worst, REL_TOL * float(np.max(np.abs(diag)))

    def discrete_gap(self):
        m = self.grid_m
        if self.oracle._discrete_size_error(self.mu.dim, m) is not None:
            return None
        discrete = self.oracle.dpp_solve_discrete(self.mu, self.nu, m, seed=int(self.rng.integers(2**32)))
        return abs(discrete - self.a2.squared_value), 0.05 * self.a2.squared_value + self.tol, f"m={m}"

    def monte_carlo_gap(self, rho, cost):
        mc = self.oracle.monte_carlo_cost(self.mu, self.nu, rho, self.mc_samples, int(self.rng.integers(2**32)))
        return abs(mc.estimate - cost), max(4.0 * mc.standard_error, self.tol)

    def recursion_gap(self):
        worst = 0.0
        for t in range(self.mu.dim):
            x, y = self.rng.standard_normal((2, t))  # two pasts, drawn as two rows of t
            rep = self.oracle.dpp_recursion_check(self.mu, self.nu, t, x, y)
            worst = max(worst, rep.abs_error / (rep.value + self.S))
        return worst, REL_TOL


#: the per-pair checks, ``(name, level, check)``: ``check(c)`` gives ``(observed, bound[, note])``,
#: or None where it cannot run.  Table order is the report order and the order of the draws from
#: the run's generator; a check added later draws from its own ``default_rng([seed, pair, k])``.
CHECKS = (
    # squared, so coincident laws compare W2's float noise with S, not its square root
    ("ordering_w2_le_aw2", FAST, lambda c: (c.w2.squared_value - c.a2.squared_value, c.tol)),
    ("ordering_aw2_le_kr2", FAST, lambda c: (c.a2.squared_value - c.k2.squared_value, c.tol)),
    # adapted vs synchronous covariance identity through the factor diagonal
    ("factor_diagonal_identity", FAST, lambda c: (abs(
        c.abw**2 - (c.kr_sq - 4.0 * float(np.sum(np.abs(c.sign.diag[c.sign.diag < 0.0]))))), c.cov_tol)),
    ("kr_trace_identity", FAST, lambda c: (
        abs(c.kr_sq - float(c.traces - 2.0 * np.trace(c.L.T @ c.M))), c.cov_tol)),
    ("abw_symmetry", FAST, lambda c: (abs(c.abw - c.abw_reversed), REL_TOL * math.sqrt(c.S))),  # distance units
    ("sign_rule_attains_aw2", FAST, lambda c: (abs(c.sign_cost - c.a2.squared_value), c.tol)),
    ("synchronous_cost_is_kr2", FAST, lambda c: (abs(c.sync_cost - c.k2.squared_value), c.tol)),
    # one draw of all 32 rows (the generator advances as by 32 single draws)
    ("random_rho_never_beats_sign_rule", FAST, lambda c: (np.max(
        c.a2.squared_value - _coupling_cost(c.mu, c.nu, c.rng.uniform(-1.0, 1.0, (32, c.mu.dim))),
        initial=0.0), c.tol)),
    ("brenier_pushforward", FAST, lambda c: c.push_error(c.brenier)),
    ("kr_pushforward", FAST, lambda c: c.push_error(kr_map(c.mu, c.nu))),
    ("aw_pushforward", FAST, lambda c: c.push_error(aw_map(c.mu, c.nu).map)),
    # a symmetric positive definite T pushing mu to nu (checked just above) is
    # the optimal map, so its cost E|X - TX|^2 = ||(I - T) L||_F^2 pins W2
    ("w2_is_brenier_cost", FAST, lambda c: (
        abs(c.w2.cov_term - _frobenius_sq(c.L - c.brenier.matrix @ c.L)), c.cov_tol)),
    # block identity behind time consistency of the optimal coupling
    ("conditional_block_identity", FAST, lambda c: c.block_gap() if c.mu.dim > 1 else None),
    ("oracle_dpp_agreement", FULL, _Pair.discrete_gap),
    ("monte_carlo_optimal_rho", FULL, lambda c: c.monte_carlo_gap(*c.monte_carlo[0])),
    ("monte_carlo_synchronous", FULL, lambda c: c.monte_carlo_gap(*c.monte_carlo[1])),
    ("monte_carlo_random_rho", FULL, lambda c: c.monte_carlo_gap(*c.monte_carlo[2])),
    ("value_function_recursion", FULL, _Pair.recursion_gap),
)


def _pair_checks(mu: GaussianSpec, nu: GaussianSpec, pair: int, rng, level=FAST, grid_m=100, mc_samples=100_000):
    """The :data:`CHECKS` rows of ``level`` and the levels before it, on one pair."""
    c, depth = _Pair(mu, nu, pair, rng, grid_m, mc_samples), LEVELS.index(level)
    checked = ((name, check(c)) for name, row_level, check in CHECKS if LEVELS.index(row_level) <= depth)
    return [_result(name, pair, *out) for name, out in checked if out is not None]


#: matrix entries the triangle check draws and factors at once, so its memory
#: does not grow with the dimension; at N <= 40 all 200 triples are one chunk
_CHUNK_ENTRIES = 1_000_000


def _global_checks(dim: int, rng, triples: int = 200):
    # chunked draws of the triples' A, B, C (the generator advances as by
    # 3 * triples single draws), each a stacked, per-matrix-gated factorization
    per = max(1, _CHUNK_ENTRIES // (3 * dim * dim))
    worst = 0.0
    for start in range(0, triples, per):
        chunk = random_spd(dim, rng, (min(per, triples - start), 3))
        LA, LB, LC = np.moveaxis(cholesky(chunk), 1, 0)
        ac, ab, bc = (np.sqrt(_cov_sq(ADAPTED, L, M)) for L, M in ((LA, LC), (LA, LB), (LB, LC)))
        worst = np.maximum(worst, np.max(ac - ab - bc))  # NaN propagates, as a failure
    return [_result("abw_triangle_inequality", -1, worst, 1e-9)]


def _generator(seed: int):
    # numpy refuses a negative seed with a ValueError, outside AwGaussError
    if seed < 0:
        raise BadParameter(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def run_verification(
    pairs: list[tuple[GaussianSpec, GaussianSpec]],
    *,
    level: str = FAST,
    seed: int = 0,
    grid_m: int = 100,
    mc_samples: int = 100_000,
) -> list[CheckResult]:
    """Run the named check suite over the given problem pairs."""
    if level not in LEVELS:
        raise BadParameter(f"unknown verification level {level!r}; expected one of {LEVELS}")
    rng = _generator(seed)
    results: list[CheckResult] = []
    for idx, (mu, nu) in enumerate(pairs):
        results.extend(_pair_checks(mu, nu, idx, rng, level, grid_m, mc_samples))
    if pairs:
        results.extend(_global_checks(pairs[0][0].dim, rng))
    return results


def random_pairs(count: int, seed: int, dim: int = 2):
    """Seeded random non-degenerate pairs for the ``--random`` verify mode."""
    rng = _generator(seed)
    return [
        (random_gaussian(dim, rng), random_gaussian(dim, rng)) for _ in range(count)
    ]
