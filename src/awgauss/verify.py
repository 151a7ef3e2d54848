"""Named verification checks wiring the closed forms against the oracles.

Used by the CLI ``verify`` subcommand and by the acceptance tests.  Each check
returns a :class:`CheckResult` with the observed discrepancy and the bound it
was held to, so reports are machine readable and failures are diagnosable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplings import _coupling_cost, _sign_selection, aw_map, brenier_map, coupling_cost, kr_map
from .distances import _abw_sq, aw2, kr2, wasserstein2
from .linalg import GaussianSpec, cholesky, random_gaussian, random_spd
from .oracle import _discrete_size_error, dpp_recursion_check, dpp_solve_discrete, monte_carlo_cost

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
        return {
            "name": self.name,
            "pair": self.pair,
            "passed": bool(self.passed),
            "observed": self.observed,
            "bound": self.bound,
            "note": self.note,
        }


def _result(name, pair, observed, bound, note="") -> CheckResult:
    return CheckResult(
        name=name, pair=pair, passed=bool(observed <= bound), observed=float(observed),
        bound=float(bound), note=note,
    )


def _pair_checks(mu: GaussianSpec, nu: GaussianSpec, pair: int, scale: float, rng):
    results = []
    w2 = wasserstein2(mu, nu)
    k2 = kr2(mu, nu)
    a2 = aw2(mu, nu)
    tol = 1e-9 * scale

    results.append(_result("ordering_w2_le_aw2", pair, w2.value - a2.value, tol))
    results.append(_result("ordering_aw2_le_kr2", pair, a2.value - k2.value, tol))

    # adapted vs synchronous covariance identity through the factor diagonal
    L, M = mu.chol, nu.chol
    sign = _sign_selection(L, M)
    diag = sign.diag
    neg = float(np.sum(np.abs(diag[diag < 0.0])))
    # square roots as in abw_distance/kr_distance, so observed values match them
    abw = math.sqrt(a2.cov_term)
    abw_sq = abw**2
    kr_sq = math.sqrt(k2.cov_term) ** 2
    results.append(_result("factor_diagonal_identity", pair, abs(abw_sq - (kr_sq - 4.0 * neg)), tol))
    trace_form = float(np.trace(mu.cov) + np.trace(nu.cov) - 2.0 * np.trace(L.T @ M))
    results.append(_result("kr_trace_identity", pair, abs(kr_sq - trace_form), tol))

    results.append(_result("abw_symmetry", pair, abs(abw - math.sqrt(_abw_sq(M, L))), tol))

    results.append(
        _result("sign_rule_attains_aw2", pair, abs(coupling_cost(mu, nu, sign.rho) - a2.squared_value), tol)
    )
    results.append(
        _result(
            "synchronous_cost_is_kr2",
            pair,
            abs(coupling_cost(mu, nu, np.ones(mu.dim)) - k2.squared_value),
            tol,
        )
    )
    # one draw of all 32 rows (the generator advances as by 32 single draws)
    costs = _coupling_cost(mu, nu, rng.uniform(-1.0, 1.0, (32, mu.dim)))
    worst = np.max(a2.squared_value - costs, initial=0.0)
    results.append(_result("random_rho_never_beats_sign_rule", pair, worst, tol))

    push_tol = 1e-8 * scale
    for name, T in (
        ("brenier_pushforward", brenier_map(mu, nu)),
        ("kr_pushforward", kr_map(mu, nu)),
        ("aw_pushforward", aw_map(mu, nu).map),
    ):
        img = T.push(mu)
        err = np.linalg.norm(img.cov - nu.cov) / max(np.linalg.norm(nu.cov), 1e-300)
        err = max(err, float(np.linalg.norm(img.mean - nu.mean)))
        results.append(_result(name, pair, err, push_tol))

    # block identity behind time consistency of the optimal coupling
    worst = 0.0
    for t in range(1, mu.dim):
        tail = np.sum(L[t:, t:] * M[t:, t:], axis=0)
        worst = max(worst, float(np.max(np.abs(diag[t:] - tail))))
    if mu.dim > 1:
        results.append(
            _result("conditional_block_identity", pair, worst, 1e-12 * scale * max(1.0, float(np.max(np.abs(diag)))))
        )
    return results


def _global_checks(dim: int, scale: float, rng, triples: int = 200):
    # one draw of every triple's A, B, C (the generator advances as by
    # 3 * triples single draws) and one stacked, per-matrix-gated factorization
    LA, LB, LC = np.moveaxis(cholesky(random_spd(dim, rng, (triples, 3))), 1, 0)
    ac, ab, bc = (np.sqrt(_abw_sq(L, M)) for L, M in ((LA, LC), (LA, LB), (LB, LC)))
    worst = np.max(ac - ab - bc, initial=0.0)
    return [_result("abw_triangle_inequality", -1, worst, 1e-9 * scale)]


def _oracle_checks(mu, nu, pair, scale, rng, grid_m, mc_samples):
    results = []
    a2 = aw2(mu, nu)
    if _discrete_size_error(mu.dim, grid_m) is None:
        discrete = dpp_solve_discrete(mu, nu, grid_m, seed=int(rng.integers(2**32)))
        results.append(
            _result(
                "oracle_dpp_agreement",
                pair,
                abs(discrete - a2.squared_value),
                0.05 * (1.0 + a2.squared_value) * scale,
                note=f"m={grid_m}",
            )
        )

    sign = _sign_selection(mu.chol, nu.chol)
    for name, rho in (
        ("monte_carlo_optimal_rho", sign.rho),
        ("monte_carlo_synchronous", np.ones(mu.dim)),
        ("monte_carlo_random_rho", rng.uniform(-1.0, 1.0, mu.dim)),
    ):
        mc = monte_carlo_cost(mu, nu, rho, mc_samples, int(rng.integers(2**32)))
        bound = 4.0 * mc.standard_error * scale
        results.append(
            _result(name, pair, abs(mc.estimate - coupling_cost(mu, nu, rho)), max(bound, 1e-12))
        )

    worst = 0.0
    for t in range(mu.dim):
        x = rng.standard_normal(t)
        y = rng.standard_normal(t)
        rep = dpp_recursion_check(mu, nu, t, x, y, quad=64)
        worst = max(worst, rep.abs_error / (1.0 + rep.value))
    results.append(_result("value_function_recursion", pair, worst, 1e-8 * scale))
    return results


def run_verification(
    pairs: list[tuple[GaussianSpec, GaussianSpec]],
    *,
    level: str = FAST,
    seed: int = 0,
    tolerance_scale: float = 1.0,
    grid_m: int = 100,
    mc_samples: int = 100_000,
) -> list[CheckResult]:
    """Run the named check suite over the given problem pairs."""
    if level not in LEVELS:
        raise ValueError(f"unknown verification level {level!r}; expected one of {LEVELS}")
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for idx, (mu, nu) in enumerate(pairs):
        results.extend(_pair_checks(mu, nu, idx, tolerance_scale, rng))
        if level == FULL:
            results.extend(
                _oracle_checks(mu, nu, idx, tolerance_scale, rng, grid_m, mc_samples)
            )
    if pairs:
        results.extend(_global_checks(pairs[0][0].dim, tolerance_scale, rng))
    return results


def random_pairs(count: int, seed: int, dim: int = 2):
    """Seeded random non-degenerate pairs for the ``--random`` verify mode."""
    rng = np.random.default_rng(seed)
    return [
        (random_gaussian(dim, rng), random_gaussian(dim, rng)) for _ in range(count)
    ]
