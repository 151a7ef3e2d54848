import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import ndtri, roots_hermitenorm

from awgauss import (
    BadParameter,
    BadSplit,
    GaussianSpec,
    NonPositiveWeight,
    TooLarge,
    aw2,
    conditional,
    coupling_cost,
    dpp_recursion_check,
    dpp_solve_discrete,
    monte_carlo_cost,
    optimal_sign,
    random_gaussian,
    rho_grid_search,
    value_function,
    weighted_bicausal_value,
)
from awgauss.distances import _abw_sq
from awgauss.oracle import _hermite_rule


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return random_gaussian(dim, rng), random_gaussian(dim, rng)


class TestValueFunction:
    def test_terminal_value(self):
        mu, nu = _random_pair(3, 1)
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([0.0, 2.0, 5.0])
        ev = value_function(mu, nu, 3, x, y)
        assert ev.value == pytest.approx(float(np.sum((x - y) ** 2)), abs=1e-12)
        assert ev.alpha_next is None

    def test_root_value_is_squared_adapted_distance(self, reflected_pair):
        mu, nu = reflected_pair
        ev = value_function(mu, nu, 0, [], [])
        assert ev.value == pytest.approx(4.0, abs=1e-12)
        assert ev.alpha_next == pytest.approx(-3.0, abs=1e-12)

    def test_root_value_with_means(self):
        mu, nu = _random_pair(4, 2)
        ev = value_function(mu, nu, 0, [], [])
        assert ev.value == pytest.approx(aw2(mu, nu).squared_value, rel=1e-12)

    def test_midpath_composes_conditionals(self):
        # independent route: past cost plus the adapted distance of the
        # conditional laws, assembled from separate library calls
        for seed in range(10):
            mu, nu = _random_pair(4, 100 + seed)
            rng = np.random.default_rng(seed)
            for t in (1, 2, 3):
                x = rng.standard_normal(t)
                y = rng.standard_normal(t)
                ev = value_function(mu, nu, t, x, y)
                expected = float(np.sum((x - y) ** 2)) + aw2(
                    conditional(mu, t, x), conditional(nu, t, y)
                ).squared_value
                assert ev.value == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_value_dominates_past_cost(self):
        mu, nu = _random_pair(3, 3)
        x, y = np.array([0.5, -1.0]), np.array([1.5, 2.0])
        ev = value_function(mu, nu, 2, x, y)
        assert ev.value >= float(np.sum((x - y) ** 2))

    def test_alpha_sign_matches_factor_diagonal(self):
        for seed in range(20):
            mu, nu = _random_pair(3, 200 + seed)
            d = np.sum(mu.chol * nu.chol, axis=0)
            for t in range(3):
                ev = value_function(mu, nu, t, np.zeros(t), np.zeros(t))
                assert np.sign(ev.alpha_next) == np.sign(d[t])

    def test_split_bounds(self):
        mu, nu = _random_pair(2, 4)
        with pytest.raises(BadSplit):
            value_function(mu, nu, 3, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


class TestRecursionCheck:
    def test_reflected_pair_root_step(self, reflected_pair):
        mu, nu = reflected_pair
        rep = dpp_recursion_check(mu, nu, 0, [], [], quad=512)
        assert abs(rep.one_step_value - 4.0) <= 1e-3
        assert rep.abs_error <= 1e-9

    def test_negative_alpha_prefers_countermonotone(self, reflected_pair):
        mu, nu = reflected_pair
        rep = dpp_recursion_check(mu, nu, 0, [], [], quad=64)
        assert rep.alpha_next < 0.0
        assert rep.countermonotone_value < rep.comonotone_value - 1e-6
        assert rep.one_step_value == rep.countermonotone_value

    def test_positive_alpha_prefers_comonotone(self, reflected_pair):
        mu, nu = reflected_pair
        rep = dpp_recursion_check(mu, nu, 1, [0.5], [-0.4], quad=64)
        assert rep.alpha_next > 0.0
        assert rep.comonotone_value < rep.countermonotone_value - 1e-6
        assert rep.one_step_value == rep.comonotone_value

    def test_equal_laws_equal_pasts_vanish(self):
        mu, _ = _random_pair(3, 5)
        for t in range(3):
            x = np.full(t, 0.3)
            rep = dpp_recursion_check(mu, mu, t, x, x, quad=32)
            assert rep.value == pytest.approx(0.0, abs=1e-12)
            assert rep.one_step_value == pytest.approx(0.0, abs=1e-10)

    def test_fixpoint_over_random_instances(self):
        for seed in range(10):
            mu, nu = _random_pair(4, 300 + seed)
            rng = np.random.default_rng(seed)
            for t in range(4):
                x = rng.standard_normal(t)
                y = rng.standard_normal(t)
                rep = dpp_recursion_check(mu, nu, t, x, y, quad=48)
                assert rep.abs_error <= 1e-9 * (1.0 + rep.value)

    def test_quadrature_rule_is_cached_read_only_and_unchanged(self):
        z, w = roots_hermitenorm(64)
        w = w / w.sum()
        cached = _hermite_rule(64)
        assert _hermite_rule(64) is cached
        assert np.array_equal(cached[0], z) and np.array_equal(cached[1], w)
        assert not cached[0].flags.writeable and not cached[1].flags.writeable

    def test_parameter_validation(self, reflected_pair):
        mu, nu = reflected_pair
        with pytest.raises(BadSplit):
            dpp_recursion_check(mu, nu, 2, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(BadParameter):
            dpp_recursion_check(mu, nu, 0, [], [], quad=8)


class TestDiscreteSolver:
    def test_scalar_horizon(self):
        mu = GaussianSpec([1.0], [[4.0]])
        nu = GaussianSpec([0.0], [[9.0]])
        truth = 1.0 + (2.0 - 3.0) ** 2  # mean shift plus quantile-map cost
        got = dpp_solve_discrete(mu, nu, 200)
        assert abs(got - truth) <= 0.01 * (1.0 + truth)

    def test_reflected_pair_refinement(self, reflected_pair):
        mu, nu = reflected_pair
        values = {m: dpp_solve_discrete(mu, nu, m) for m in (50, 100, 200)}
        errors = {m: abs(v - 4.0) for m, v in values.items()}
        assert errors[200] <= 0.05
        assert errors[100] <= errors[50] + 1e-3
        assert errors[200] <= errors[100] + 1e-3

    def test_diagonal_pair_matches_derived_node_value(self):
        # independent coordinates: per-axis quantile couplings are optimal, so
        # the discrete value is exactly sum_i (sqrt(a_i) - sqrt(b_i))^2 times
        # the node-sample second moment
        mu = GaussianSpec(np.zeros(2), np.diag([1.0, 4.0]))
        nu = GaussianSpec(np.zeros(2), np.diag([9.0, 16.0]))
        m = 200
        z = ndtri((np.arange(m) + 0.5) / m)
        derived = 8.0 * float(np.mean(z**2))
        got = dpp_solve_discrete(mu, nu, m)
        assert got == pytest.approx(derived, abs=1e-8)
        assert abs(got - 8.0) <= 0.06

    def test_agreement_with_closed_form_n3(self):
        mu, nu = _random_pair(3, 8)
        closed = aw2(mu, nu).squared_value
        got = dpp_solve_discrete(mu, nu, 40)
        assert abs(got - closed) <= 0.1 * (1.0 + closed)

    def test_assignment_never_improves_on_pairings(self):
        for seed in range(5):
            mu, nu = _random_pair(2, 400 + seed)
            v_plain = dpp_solve_discrete(mu, nu, 60, assignment_samples=0)
            v_checked = dpp_solve_discrete(mu, nu, 60, assignment_samples=64, seed=seed)
            assert v_plain >= v_checked - 1e-12  # assignment can only refine
            assert abs(v_plain - v_checked) <= 1e-9

    def test_deterministic_for_fixed_seed(self, reflected_pair):
        mu, nu = reflected_pair
        a = dpp_solve_discrete(mu, nu, 80, seed=5)
        b = dpp_solve_discrete(mu, nu, 80, seed=5)
        assert a == b

    def test_size_guards(self):
        mu, nu = _random_pair(4, 9)
        with pytest.raises(TooLarge):
            dpp_solve_discrete(mu, nu, 10)
        mu3, nu3 = _random_pair(3, 10)
        with pytest.raises(TooLarge):
            dpp_solve_discrete(mu3, nu3, 200)
        mu2, nu2 = _random_pair(2, 11)
        with pytest.raises(BadParameter):
            dpp_solve_discrete(mu2, nu2, 1)


class TestMonteCarlo:
    def test_self_coupling_is_exactly_zero(self):
        mu, _ = _random_pair(3, 12)
        mc = monte_carlo_cost(mu, mu, np.ones(3), 10_000, seed=0)
        assert mc.estimate == 0.0
        assert mc.standard_error == 0.0

    def test_reflected_pair_optimal(self, reflected_pair):
        mu, nu = reflected_pair
        mc = monte_carlo_cost(mu, nu, [-1.0, 1.0], 1_000_000, seed=1)
        assert abs(mc.estimate - 4.0) <= 4.0 * mc.standard_error

    def test_reflected_pair_synchronous(self, reflected_pair):
        mu, nu = reflected_pair
        mc = monte_carlo_cost(mu, nu, [1.0, 1.0], 1_000_000, seed=2)
        assert abs(mc.estimate - 16.0) <= 4.0 * mc.standard_error

    def test_seed_determinism(self, reflected_pair):
        mu, nu = reflected_pair
        a = monte_carlo_cost(mu, nu, [0.3, -0.2], 50_000, seed=3)
        b = monte_carlo_cost(mu, nu, [0.3, -0.2], 50_000, seed=3)
        assert a == b

    def test_weighted_cost(self, reflected_pair):
        mu, nu = reflected_pair
        w = [2.0, 1.0]
        mc = monte_carlo_cost(mu, nu, [-1.0, 1.0], 500_000, seed=4, weights=w)
        assert abs(mc.estimate - weighted_bicausal_value(mu, nu, w)) <= 4.0 * mc.standard_error

    @pytest.mark.parametrize("weights", [[-1.0, 1.0], [0.0, 1.0]])
    def test_rejects_nonpositive_weights(self, reflected_pair, weights):
        # the rule of weighted_bicausal_value and optimal_sign
        mu, nu = reflected_pair
        with pytest.raises(NonPositiveWeight):
            monte_carlo_cost(mu, nu, [-1.0, 1.0], 10_000, seed=5, weights=weights)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_equal_to_out_of_place_form(self, dim, weighted):
        rng = np.random.default_rng(70 + dim)
        mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
        rho = rng.uniform(-1.0, 1.0, dim)
        w = rng.uniform(0.5, 2.0, dim) if weighted else None
        n = 5_000
        got = monte_carlo_cost(mu, nu, rho, n, seed=11, weights=w)
        # the construction written out with temporaries
        draws = np.random.default_rng(11)
        eps_x = draws.standard_normal((n, dim))
        xi = draws.standard_normal((n, dim))
        eps_y = rho * eps_x + np.sqrt(1.0 - rho**2) * xi
        X = mu.mean + eps_x @ mu.chol.T
        Y = nu.mean + eps_y @ nu.chol.T
        sq = (X - Y) ** 2
        cost = sq @ w if weighted else sq.sum(axis=1)
        assert got.estimate == float(cost.mean())
        assert got.standard_error == float(cost.std(ddof=1) / math.sqrt(n))

    @pytest.mark.parametrize("kind", ["sign_rule", "ones", "minus_ones", "mixed_signs", "one_interior"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [5_000, 100_000])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_unit_correlations_bitwise_equal_to_drawing_xi(
        self, out_of_place_monte_carlo, kind, dim, n, weighted
    ):
        rng = np.random.default_rng(80 + dim)
        mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
        signs = np.where(np.arange(dim) % 2, 1.0, -1.0)
        rho = {
            "sign_rule": optimal_sign(mu.chol, nu.chol).rho,
            "ones": np.ones(dim),
            "minus_ones": -np.ones(dim),
            "mixed_signs": signs,
            # a single |rho_t| < 1 needs xi again
            "one_interior": np.where(np.arange(dim) == dim // 2, 0.3, signs),
        }[kind]
        w = rng.uniform(0.5, 2.0, dim) if weighted else None
        got = monte_carlo_cost(mu, nu, rho, n, seed=13, weights=w)
        assert got == out_of_place_monte_carlo(mu, nu, rho, n, 13, weights=w)

    @pytest.mark.parametrize("rho, draws", [([1.0, -1.0], 1), ([1.0, 0.5], 2)])
    def test_noise_is_drawn_only_for_interior_correlations(
        self, reflected_pair, monkeypatch, rho, draws
    ):
        shapes = []
        make = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self._rng = make(seed)

            def standard_normal(self, shape):
                shapes.append(shape)
                return self._rng.standard_normal(shape)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        monte_carlo_cost(*reflected_pair, rho, 2_000, seed=0)
        assert shapes == [(2_000, 2)] * draws

    def test_sample_size_floor(self, reflected_pair):
        with pytest.raises(BadParameter):
            monte_carlo_cost(*reflected_pair, [0.0, 0.0], 100, seed=0)


class TestRhoGridSearch:
    def test_reflected_pair(self, reflected_pair):
        mu, nu = reflected_pair
        result = rho_grid_search(mu, nu, 21)
        np.testing.assert_array_equal(result.best_rho, [-1.0, 1.0])
        assert result.best_cost == pytest.approx(4.0, abs=1e-12)

    def test_tied_pair_flat_direction(self, tied_pair):
        mu, nu = tied_pair
        result = rho_grid_search(mu, nu, 21)
        assert result.best_cost == pytest.approx(aw2(mu, nu).squared_value, abs=1e-9)
        # the cost does not move along the free coordinate
        costs = [coupling_cost(mu, nu, [r1, 1.0]) for r1 in np.linspace(-1, 1, 21)]
        assert max(costs) - min(costs) <= 1e-12

    def test_self_pair(self):
        mu, _ = _random_pair(3, 13)
        result = rho_grid_search(mu, mu, 5)
        np.testing.assert_array_equal(result.best_rho, np.ones(3))
        assert result.best_cost == pytest.approx(0.0, abs=1e-12)

    def test_matches_sign_rule_on_random_pairs(self):
        for seed in range(5):
            mu, nu = _random_pair(3, 500 + seed)
            result = rho_grid_search(mu, nu, 9)
            assert result.best_cost == pytest.approx(aw2(mu, nu).squared_value, abs=1e-9)
            assert np.all(np.abs(result.best_rho) == 1.0)

    def test_guards(self, reflected_pair):
        mu, nu = reflected_pair
        with pytest.raises(BadParameter):
            rho_grid_search(mu, nu, 2)
        with pytest.raises(TooLarge):
            rho_grid_search(mu, nu, 1 << 16)


class TestOracleAgreement:
    def test_closed_form_matches_dpp_on_random_pairs(self):
        for seed in range(5):
            mu, nu = _random_pair(2, 600 + seed)
            closed = aw2(mu, nu).squared_value
            got = dpp_solve_discrete(mu, nu, 100)
            assert abs(got - closed) <= 0.05 * (1.0 + closed)


def _scipy_value(mu, nu, t, x, y):
    """Closed-form value at split ``t`` with the gains from scipy's triangular solve."""
    L, M, a, b = mu.chol, nu.chol, mu.mean, nu.mean
    value = float(np.sum((x - y) ** 2))
    if t == mu.dim:
        return value
    cmx, cmy = a[t:], b[t:]
    if t > 0:
        cmx = cmx + solve_triangular(L[:t, :t], L[t:, :t].T, lower=True, trans="T").T @ (x - a[:t])
        cmy = cmy + solve_triangular(M[:t, :t], M[t:, :t].T, lower=True, trans="T").T @ (y - b[:t])
    return value + float(np.sum((cmx - cmy) ** 2)) + _abw_sq(L[t:, t:], M[t:, t:])


class TestTriangularSolvesMatchScipy:
    """The value function and its recursion check solve on numpy's LAPACK;
    scipy's triangular solve is the reference they must agree with."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_value_function(self, dim):
        mu, nu = _random_pair(dim, 900 + dim)
        rng = np.random.default_rng(dim)
        for t in range(dim + 1):
            x, y = rng.standard_normal(t), rng.standard_normal(t)
            expected = _scipy_value(mu, nu, t, x, y)
            assert value_function(mu, nu, t, x, y).value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_recursion_check(self, dim):
        mu, nu = _random_pair(dim, 950 + dim)
        L, M, a, b = mu.chol, nu.chol, mu.mean, nu.mean
        rng = np.random.default_rng(dim)
        z, w = roots_hermitenorm(64)
        w = w / w.sum()
        for t in range(dim):
            x, y = rng.standard_normal(t), rng.standard_normal(t)
            mx, my = a[t], b[t]
            if t > 0:
                mx += solve_triangular(L[:t, :t], L[t, :t], lower=True, trans="T") @ (x - a[:t])
                my += solve_triangular(M[:t, :t], M[t, :t], lower=True, trans="T") @ (y - b[:t])

            def one_step(sign):
                return float(w @ [
                    _scipy_value(mu, nu, t + 1, np.append(x, mx + L[t, t] * zk),
                                 np.append(y, my + sign * M[t, t] * zk))
                    for zk in z
                ])

            rep = dpp_recursion_check(mu, nu, t, x, y, quad=64)
            assert rep.value == pytest.approx(_scipy_value(mu, nu, t, x, y), rel=1e-13)
            assert rep.comonotone_value == pytest.approx(one_step(1.0), rel=1e-13)
            assert rep.countermonotone_value == pytest.approx(one_step(-1.0), rel=1e-13)
