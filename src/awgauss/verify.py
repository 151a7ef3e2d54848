"""Named verification checks wiring the closed forms against the oracles.

Used by the CLI ``verify`` subcommand and by the acceptance tests.  Each check
returns a :class:`CheckResult` with the observed discrepancy and the bound it
was held to, so reports are machine readable and failures are diagnosable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
    return CheckResult(
        name=name, pair=pair, passed=bool(observed <= bound), observed=float(observed),
        bound=float(bound), note=note,
    )


def _pair_checks(mu: GaussianSpec, nu: GaussianSpec, pair: int, rng, oracles=None):
    """Checks of one pair; with ``oracles=(grid_m, mc_samples)`` also the oracle checks,
    which read the closed-form values computed here."""
    with np.errstate(over="ignore"):
        S = float(mu.mean @ mu.mean + nu.mean @ nu.mean + np.trace(mu.cov) + np.trace(nu.cov))
    if not math.isfinite(S):
        # an infinite floor would pass every check
        raise NonFiniteValue(f"pair {pair}: second moment |a|^2 + |b|^2 + Tr A + Tr B overflows")
    tol = REL_TOL * S
    traces = mu.cov.trace() + nu.cov.trace()
    cov_tol = REL_TOL * traces  # <= tol, so large means cannot hide a covariance error
    results = []
    w2 = wasserstein2(mu, nu)
    brenier = brenier_map(mu, nu)  # W2's polar entry: abw_symmetry's reversed pair replaces it
    k2 = kr2(mu, nu)
    a2 = aw2(mu, nu)

    # squared, so coincident laws compare W2's float noise with S, not its square root
    results.append(_result("ordering_w2_le_aw2", pair, w2.squared_value - a2.squared_value, tol))
    results.append(_result("ordering_aw2_le_kr2", pair, a2.squared_value - k2.squared_value, tol))

    # adapted vs synchronous covariance identity through the factor diagonal
    L, M = mu.chol, nu.chol
    sign = _derived(L, M, _sign_selection)
    diag = sign.diag
    neg = float(np.sum(np.abs(diag[diag < 0.0])))
    # square roots as in abw_distance/kr_distance, so observed values match them
    abw = math.sqrt(a2.cov_term)
    abw_sq = abw**2
    kr_sq = math.sqrt(k2.cov_term) ** 2
    results.append(_result("factor_diagonal_identity", pair, abs(abw_sq - (kr_sq - 4.0 * neg)), cov_tol))
    trace_form = float(traces - 2.0 * np.trace(L.T @ M))
    results.append(_result("kr_trace_identity", pair, abs(kr_sq - trace_form), cov_tol))

    sym = abs(abw - math.sqrt(_cov_sq(ADAPTED, M, L)))
    results.append(_result("abw_symmetry", pair, sym, REL_TOL * math.sqrt(S)))  # distance units

    ones = np.ones(mu.dim)
    sign_cost, sync_cost = coupling_cost(mu, nu, sign.rho), coupling_cost(mu, nu, ones)
    results.append(_result("sign_rule_attains_aw2", pair, abs(sign_cost - a2.squared_value), tol))
    results.append(_result("synchronous_cost_is_kr2", pair, abs(sync_cost - k2.squared_value), tol))
    # one draw of all 32 rows (the generator advances as by 32 single draws)
    costs = _coupling_cost(mu, nu, rng.uniform(-1.0, 1.0, (32, mu.dim)))
    worst = np.max(a2.squared_value - costs, initial=0.0)
    results.append(_result("random_rho_never_beats_sign_rule", pair, worst, tol))

    for name, T in (
        ("brenier_pushforward", brenier),
        ("kr_pushforward", kr_map(mu, nu)),
        ("aw_pushforward", aw_map(mu, nu).map),
    ):
        img = T.push(mu)
        # both norms on the covariances scaled by one power of two: exact, so the
        # ratio keeps its bits, and the squares stay finite above entries of 1e154
        k = -math.frexp(float(np.max(np.abs(nu.cov))))[1]
        err = np.linalg.norm(np.ldexp(img.cov - nu.cov, k)) / np.linalg.norm(np.ldexp(nu.cov, k))
        # the mean is held 100x tighter, in the distance unit sqrt(S)
        err = max(err, 100.0 * float(np.linalg.norm(img.mean - nu.mean)) / math.sqrt(S))
        results.append(_result(name, pair, err, 1e-8))
    # a symmetric positive definite T pushing mu to nu (checked just above) is
    # the optimal map, so its cost E|X - TX|^2 = ||(I - T) L||_F^2 pins W2
    brenier_cost = _frobenius_sq(L - brenier.matrix @ L)
    results.append(_result("w2_is_brenier_cost", pair, abs(w2.cov_term - brenier_cost), cov_tol))

    # block identity behind time consistency of the optimal coupling
    worst = 0.0
    for t in range(1, mu.dim):
        tail = np.sum(L[t:, t:] * M[t:, t:], axis=0)
        worst = max(worst, float(np.max(np.abs(diag[t:] - tail))))
    if mu.dim > 1:
        results.append(_result("conditional_block_identity", pair, worst, REL_TOL * float(np.max(np.abs(diag)))))
    if oracles is None:
        return results

    # the oracle layer loads scipy, so it is imported only when an oracle runs
    from .oracle import _discrete_size_error, dpp_recursion_check, dpp_solve_discrete, monte_carlo_cost

    grid_m, mc_samples = oracles
    if _discrete_size_error(mu.dim, grid_m) is None:
        discrete = dpp_solve_discrete(mu, nu, grid_m, seed=int(rng.integers(2**32)))
        results.append(
            _result(
                "oracle_dpp_agreement",
                pair,
                abs(discrete - a2.squared_value),
                0.05 * a2.squared_value + tol,
                note=f"m={grid_m}",
            )
        )

    # draw order: discrete seed, random rho, the three Monte Carlo seeds, recursion pasts
    random_rho = rng.uniform(-1.0, 1.0, mu.dim)
    for name, rho, cost in (
        ("monte_carlo_optimal_rho", sign.rho, sign_cost),
        ("monte_carlo_synchronous", ones, sync_cost),
        ("monte_carlo_random_rho", random_rho, coupling_cost(mu, nu, random_rho)),
    ):
        mc = monte_carlo_cost(mu, nu, rho, mc_samples, int(rng.integers(2**32)))
        results.append(_result(name, pair, abs(mc.estimate - cost), max(4.0 * mc.standard_error, tol)))

    worst = 0.0
    for t in range(mu.dim):
        x = rng.standard_normal(t)
        y = rng.standard_normal(t)
        rep = dpp_recursion_check(mu, nu, t, x, y)
        worst = max(worst, rep.abs_error / (rep.value + S))
    results.append(_result("value_function_recursion", pair, worst, REL_TOL))
    return results


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
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    oracles = (grid_m, mc_samples) if level == FULL else None
    for idx, (mu, nu) in enumerate(pairs):
        results.extend(_pair_checks(mu, nu, idx, rng, oracles))
    if pairs:
        results.extend(_global_checks(pairs[0][0].dim, rng))
    return results


def random_pairs(count: int, seed: int, dim: int = 2):
    """Seeded random non-degenerate pairs for the ``--random`` verify mode."""
    rng = np.random.default_rng(seed)
    return [
        (random_gaussian(dim, rng), random_gaussian(dim, rng)) for _ in range(count)
    ]
