import numpy as np
import pytest

from awgauss import (
    TooLarge, abw_distance, couplings, distances, dpp_solve_discrete, kr_distance, random_gaussian, verify,
)
from awgauss.oracle import _discrete_size_error
from awgauss.verify import _global_checks, _oracle_checks, _pair_checks, random_pairs, run_verification


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
    (result,) = _global_checks(dim, 1.0, np.random.default_rng(0), triples=triples)
    assert result.name == "abw_triangle_inequality" and result.passed
    assert sum(factored) == 3 * triples


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
    results = _pair_checks(mu, nu, 0, 1.0, np.random.default_rng(0))
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
    count(couplings, "_sign_rule")
    rng = np.random.default_rng(40 + dim)
    mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
    results = _pair_checks(mu, nu, 0, 1.0, np.random.default_rng(5))
    assert all(r.passed for r in results)
    # the two fixed correlations; the 32 random ones are one stacked evaluation
    assert calls == {"coupling_cost": 2, "_sign_rule": 4}


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_random_rho_draw_is_the_stream_of_single_draws(dim):
    rng = np.random.default_rng(70 + dim)
    mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
    drawn = np.random.default_rng(5)
    _pair_checks(mu, nu, 0, 1.0, drawn)
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
    results = _oracle_checks(mu, nu, 0, 1.0, np.random.default_rng(0), grid_m, 1000)
    assert [r.name for r in results].count("oracle_dpp_agreement") == int(accepted)


@pytest.mark.parametrize("dim", [2, 3])
def test_full_report_unchanged_against_the_out_of_place_monte_carlo(
    monkeypatch, out_of_place_monte_carlo, dim
):
    pairs = random_pairs(2, 60 + dim, dim=dim)
    got = [r.as_doc() for r in run_verification(pairs, level="full", seed=9)]
    monkeypatch.setattr(verify, "monte_carlo_cost", out_of_place_monte_carlo)
    expected = [r.as_doc() for r in run_verification(pairs, level="full", seed=9)]
    assert got == expected
    assert sum(d["name"].startswith("monte_carlo_") for d in got) == 3 * len(pairs)
