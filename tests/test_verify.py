import math

import numpy as np
import pytest

from awgauss import (
    AwGaussError, BadParameter, GaussianSpec, NonFiniteValue, TooLarge, abw_distance, distances,
    dpp_solve_discrete, kr_distance, random_gaussian, random_spd, verify,
)
from awgauss.oracle import _discrete_size_error
from awgauss.verify import _global_checks, _pair_checks, random_pairs, run_verification


@pytest.fixture
def factored(monkeypatch):
    """Matrices factored per ``np.linalg.cholesky`` call (a stacked call factors several)."""
    counts = []
    original = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return counts


@pytest.mark.parametrize("dim, triples", [(2, 5), (3, 7)])
def test_global_checks_factor_each_matrix_once(factored, dim, triples):
    (result,) = _global_checks(dim, np.random.default_rng(0), triples=triples)
    assert result.name == "abw_triangle_inequality" and result.passed
    assert sum(factored) == 3 * triples


@pytest.mark.parametrize("dim", [2, 3, 64])
def test_global_checks_chunks_are_the_one_stack(factored, dim):
    # the chunked draws and factorizations give the one-stack result bitwise,
    # leave the generator where the one stack does, and hold at most ~1e6 entries
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    (result,) = _global_checks(dim, rng)
    LA, LB, LC = np.moveaxis(np.linalg.cholesky(random_spd(dim, ref_rng, (200, 3))), 1, 0)
    ac, ab, bc = (np.sqrt(distances._cov_sq(distances.ADAPTED, L, M)) for L, M in ((LA, LC), (LA, LB), (LB, LC)))
    assert result.observed == float(np.max(ac - ab - bc, initial=0.0))
    assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()
    chunks = factored[:-1]  # the last call is the reference stack
    assert sum(chunks) == 600 and max(chunks) * dim * dim <= 1_000_000
    assert len(chunks) == (1 if dim <= 3 else 3)


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_checks_read_cached_factors(factored, dim):
    rng = np.random.default_rng(30 + dim)
    mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
    # the values the checks had when computed from the covariances
    L, M = mu.chol, nu.chol
    diag = np.sum(L * M, axis=0)
    abw_sq = abw_distance(mu.cov, nu.cov) ** 2
    kr_sq = kr_distance(mu.cov, nu.cov) ** 2
    trace_form = float(np.trace(mu.cov) + np.trace(nu.cov) - 2.0 * np.trace(L.T @ M))
    expected = {
        "factor_diagonal_identity": abs(abw_sq - (kr_sq - 4.0 * float(np.sum(np.abs(diag[diag < 0.0]))))),
        "kr_trace_identity": abs(kr_sq - trace_form),
        "abw_symmetry": abs(abw_distance(mu.cov, nu.cov) - abw_distance(nu.cov, mu.cov)),
    }

    factored.clear()  # the reference values above factor the covariances
    results = _pair_checks(mu, nu, 0, np.random.default_rng(0))
    assert sum(factored) == 0
    observed = {r.name: r.observed for r in results if r.name in expected}
    assert observed == expected
    assert all(r.passed for r in results)


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_checks_reuse_what_they_computed(monkeypatch, dim):
    calls = {"coupling_cost": 0, "_sign_rule": 0}

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(verify, "coupling_cost")
    count(distances, "_sign_rule")
    rng = np.random.default_rng(40 + dim)
    mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
    results = _pair_checks(mu, nu, 0, np.random.default_rng(5))
    assert all(r.passed for r in results)
    # the two fixed correlations; the 32 random ones are one stacked evaluation.
    # One sign rule per pair record: (mu, nu), the reversed pair of abw_symmetry,
    # and (mu, nu) again after it
    assert calls == {"coupling_cost": 2, "_sign_rule": 3}


@pytest.mark.parametrize("dim", [2, 3])
def test_full_level_pair_computes_each_closed_form_once(monkeypatch, dim):
    calls = {"aw2": 0, "_sign_selection": 0, "coupling_cost": 0}

    def count(name):
        original = getattr(verify, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)

    for name in calls:
        count(name)
    rng = np.random.default_rng(80 + dim)
    results = run_verification(
        [(random_gaussian(dim, rng), random_gaussian(dim, rng))], level="full", seed=4, mc_samples=1000
    )
    assert all(r.passed for r in results)
    assert sum(r.name.startswith("monte_carlo_") for r in results) == 3
    # the sign-rule and synchronous costs are shared with the oracle checks;
    # only the random rho is a fresh closed-form evaluation
    assert calls == {"aw2": 1, "_sign_selection": 1, "coupling_cost": 3}


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_random_rho_draw_is_the_stream_of_single_draws(dim):
    rng = np.random.default_rng(70 + dim)
    mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
    drawn = np.random.default_rng(5)
    _pair_checks(mu, nu, 0, drawn)
    reference = np.random.default_rng(5)
    singles = [reference.uniform(-1.0, 1.0, dim) for _ in range(32)]
    assert drawn.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(np.random.default_rng(5).uniform(-1.0, 1.0, (32, dim)), singles)


@pytest.mark.parametrize("dim, grid_m", [(2, 100), (2, 5000), (3, 16), (3, 100), (4, 3)])
def test_discrete_oracle_runs_exactly_when_the_solver_accepts_the_size(dim, grid_m):
    rng = np.random.default_rng(50 + dim)
    mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
    try:
        dpp_solve_discrete(mu, nu, grid_m)
        accepted = True
    except TooLarge as exc:
        accepted = False
        assert str(exc) == _discrete_size_error(dim, grid_m)
    assert accepted == (_discrete_size_error(dim, grid_m) is None)
    results = _pair_checks(mu, nu, 0, np.random.default_rng(0), (grid_m, 1000))
    assert [r.name for r in results].count("oracle_dpp_agreement") == int(accepted)


@pytest.mark.parametrize("dim", [2, 3])
def test_full_report_unchanged_against_the_out_of_place_monte_carlo(
    monkeypatch, out_of_place_monte_carlo, dim
):
    pairs = random_pairs(2, 60 + dim, dim=dim)
    got = [r.as_doc() for r in run_verification(pairs, level="full", seed=9)]
    monkeypatch.setattr("awgauss.oracle.monte_carlo_cost", out_of_place_monte_carlo)
    expected = [r.as_doc() for r in run_verification(pairs, level="full", seed=9)]
    assert got == expected
    assert sum(d["name"].startswith("monte_carlo_") for d in got) == 3 * len(pairs)


def test_unknown_level_is_a_domain_error():
    with pytest.raises(BadParameter) as info:
        run_verification(random_pairs(1, 0), level="bogus")
    assert isinstance(info.value, AwGaussError)
    assert str(info.value) == "unknown verification level 'bogus'; expected one of ('fast', 'full')"


def _scaled(pairs, mean_factor, cov_factor):
    return [tuple(GaussianSpec(law.mean * mean_factor, law.cov * cov_factor) for law in pair) for pair in pairs]


@pytest.mark.parametrize("level", ["fast", "full"])
@pytest.mark.parametrize(
    "mean_factor, cov_factor",
    [(1e9, 1.0), (1.0, 1e8), (1e-6, 1e-12), (1e-8, 1e-16)],
    ids=["means-1e9", "covs-1e8", "covs-1e-12", "covs-1e-16"],
)
def test_correct_results_pass_at_every_magnitude(level, mean_factor, cov_factor):
    # every bound is relative to the pair's own S = |a|^2 + |b|^2 + Tr A + Tr B
    pairs = _scaled(random_pairs(3, 5, dim=3), mean_factor, cov_factor)
    results = run_verification(pairs, level=level, seed=2)
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("cov_factor", [1.0, 1e-12, 1e-16])
def test_corrupted_aw2_is_caught_at_every_magnitude(monkeypatch, cov_factor):
    exact = verify.aw2

    def corrupted(mu, nu):
        value = exact(mu, nu)
        return distances._report(value.mean_term, 0.99 * value.cov_term)

    monkeypatch.setattr(verify, "aw2", corrupted)
    pairs = _scaled(random_pairs(3, 5, dim=3), math.sqrt(cov_factor), cov_factor)
    failed = {(r.pair, r.name) for r in run_verification(pairs) if not r.passed}
    for pair in range(3):
        assert {(pair, "factor_diagonal_identity"), (pair, "sign_rule_attains_aw2")} <= failed


@pytest.mark.parametrize("factor", [0.99, 1.0 - 1e-6])
@pytest.mark.parametrize("mean_factor", [1e6, 1e9])
def test_corrupted_aw2_is_caught_behind_large_means(monkeypatch, mean_factor, factor):
    # the covariance-only identities are held to Tr A + Tr B, which the means do not inflate
    exact = verify.aw2

    def corrupted(mu, nu):
        value = exact(mu, nu)
        return distances._report(value.mean_term, factor * value.cov_term)

    monkeypatch.setattr(verify, "aw2", corrupted)
    pairs = _scaled(random_pairs(3, 5, dim=3), mean_factor, 1.0)
    failed = {(r.pair, r.name) for r in run_verification(pairs) if not r.passed}
    for pair in range(3):
        assert (pair, "factor_diagonal_identity") in failed


_SCALES = pytest.mark.parametrize(
    "mean_factor, cov_factor", [(m, c) for m in (1.0, 1e6, 1e9) for c in (1e-12, 1.0, 1e8)]
)


@_SCALES
def test_w2_is_brenier_cost_passes_at_every_magnitude(mean_factor, cov_factor):
    pairs = _scaled(random_pairs(3, 5, dim=3), mean_factor, cov_factor)
    checks = [r for r in run_verification(pairs, seed=1) if r.name == "w2_is_brenier_cost"]
    assert len(checks) == 3 and all(r.passed for r in checks)


@_SCALES
@pytest.mark.parametrize("mutant", ["x0.99", "x1.01", "x(1-1e-6)", "kr"])
def test_wrong_w2_is_caught_at_every_magnitude(monkeypatch, mutant, mean_factor, cov_factor):
    # apart from this check only ordering_w2_le_aw2 reads W2, and a smaller
    # W2 still passes it; each mutant scales or replaces W2's covariance term
    exact = distances.wasserstein2
    factor = {"x0.99": 0.99, "x1.01": 1.01, "x(1-1e-6)": 1.0 - 1e-6}.get(mutant)

    def wrong(mu, nu):
        if factor is None:
            return distances.kr2(mu, nu)
        w2 = exact(mu, nu)
        return distances._report(w2.mean_term, factor * w2.cov_term)

    monkeypatch.setattr(verify, "wasserstein2", wrong)
    pairs = _scaled(random_pairs(3, 5, dim=3), mean_factor, cov_factor)
    failed = {(r.pair, r.name) for r in run_verification(pairs, seed=1) if not r.passed}
    assert {(pair, "w2_is_brenier_cost") for pair in range(3)} <= failed


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_identical_laws_pass(dim):
    # coincident laws: every distance is exactly 0, and the Brenier map exactly
    # the identity, so it pushes mu to itself and costs W2 exactly
    for seed in range(20):
        mu = random_pairs(1, seed, dim=dim)[0][0]
        results = run_verification([(mu, mu)], seed=seed)
        assert [r.name for r in results if not r.passed] == [], seed
        observed = {r.name: r.observed for r in results}
        assert observed["brenier_pushforward"] == observed["w2_is_brenier_cost"] == 0.0, seed


def test_overflowing_second_moment_is_refused():
    # an infinite S would make every bound infinite
    mu, nu = random_pairs(1, 0)[0]
    with pytest.raises(NonFiniteValue) as info:
        run_verification([(mu, GaussianSpec(nu.mean * 1e200, nu.cov))])
    assert str(info.value) == "pair 0: second moment |a|^2 + |b|^2 + Tr A + Tr B overflows"
