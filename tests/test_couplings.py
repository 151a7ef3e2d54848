import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import awgauss
from awgauss import (
    BadCorrelation,
    GaussianSpec,
    NonFiniteValue,
    NonPositiveWeight,
    NotPositiveDefinite,
    NotSymmetric,
    aw2,
    aw_map,
    brenier_map,
    condition_coupling,
    conditional,
    coupling_cost,
    coupling_pi_p,
    geodesic_point,
    kr2,
    kr_map,
    monte_carlo_cost,
    optimal_sign,
    random_gaussian,
)
from awgauss import couplings


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return random_gaussian(dim, rng), random_gaussian(dim, rng)


def _law_with_spectrum(dim, rng, smallest):
    """Law with a random eigenbasis and spectrum log-spaced from 1 to ``smallest``."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spec = GaussianSpec(rng.standard_normal(dim), (Q * np.geomspace(1.0, smallest, dim)) @ Q.T)
    spec.chol  # admissible: passes the pivot gate
    return spec


def seed_brenier_matrix(A, B):
    """Reference: A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2} by eigendecompositions."""
    w, V = np.linalg.eigh(A)
    S = (V * np.sqrt(w)) @ V.T
    S = (S + S.T) / 2.0
    Sinv = (V / np.sqrt(w)) @ V.T
    inner = S @ B @ S
    ev, W = np.linalg.eigh((inner + inner.T) / 2.0)
    T = Sinv @ ((W * np.sqrt(ev)) @ W.T) @ Sinv
    return (T + T.T) / 2.0


class TestOptimalSign:
    def test_reflected_pair(self, reflected_pair):
        mu, nu = reflected_pair
        sign = optimal_sign(mu.chol, nu.chol)
        np.testing.assert_array_equal(sign.diag, [-3.0, 1.0])
        np.testing.assert_array_equal(sign.rho, [-1.0, 1.0])
        assert sign.unique
        assert sign.free_indices == ()

    def test_tied_pair(self, tied_pair):
        mu, nu = tied_pair
        sign = optimal_sign(mu.chol, nu.chol)
        np.testing.assert_array_equal(sign.diag, [0.0, 1.0])
        assert not sign.unique
        assert sign.free_indices == (1,)
        np.testing.assert_array_equal(sign.rho, [1.0, 1.0])  # canonical tie-break

    def test_equal_factors_all_positive(self):
        L = np.array([[2.0, 0.0], [1.0, 1.5]])
        sign = optimal_sign(L, L)
        np.testing.assert_array_equal(sign.rho, [1.0, 1.0])
        assert sign.unique

    def test_last_entry_always_positive(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 5):
            for _ in range(30):
                mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
                sign = optimal_sign(mu.chol, nu.chol)
                assert sign.rho[-1] == 1.0
                assert sign.diag[-1] > 0.0

    def test_weighted_sign_pattern_scale_invariant(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            mu, nu = random_gaussian(4, rng), random_gaussian(4, rng)
            w = rng.uniform(0.1, 3.0, 4)
            s1 = optimal_sign(mu.chol, nu.chol, weights=w)
            s2 = optimal_sign(mu.chol, nu.chol, weights=7.5 * w)
            np.testing.assert_array_equal(s1.rho, s2.rho)
            assert s1.free_indices == s2.free_indices

    @pytest.mark.parametrize("weights", [[-1.0, 1.0], [0.0, 1.0]])
    def test_rejects_nonpositive_weights(self, reflected_pair, weights):
        mu, nu = reflected_pair
        with pytest.raises(NonPositiveWeight):
            optimal_sign(mu.chol, nu.chol, weights=weights)

    @pytest.mark.parametrize(
        "factor, error",
        [
            ([[1.0, 0.0], [np.nan, 1.0]], NonFiniteValue),
            ([[1.0, 0.0], [np.inf, 1.0]], NonFiniteValue),
            ([[1.0, 0.0], [0.5, -1.0]], NotPositiveDefinite),
            ([[1.0, 0.5], [0.0, 1.0]], NotSymmetric),  # not lower triangular
        ],
    )
    def test_rejects_invalid_factor(self, factor, error):
        for L, M in ((factor, np.eye(2)), (np.eye(2), factor)):
            with pytest.raises(error):
                optimal_sign(L, M)

    def test_aw_map_reads_spec_factors_without_revalidation(self, monkeypatch, reflected_pair):
        calls = []
        original = couplings.as_cholesky_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(couplings, "as_cholesky_factor", counting)
        result = aw_map(*reflected_pair)
        np.testing.assert_array_equal(result.sign.rho, [-1.0, 1.0])
        assert calls == []


class TestCouplingPiP:
    def test_synchronous_cross_block(self, reflected_pair):
        mu, nu = reflected_pair
        joint = coupling_pi_p(mu, nu, [1.0, 1.0])
        np.testing.assert_allclose(joint.cross_block, mu.chol @ nu.chol.T, atol=1e-14)

    def test_independent_cross_block(self, reflected_pair):
        joint = coupling_pi_p(*reflected_pair, [0.0, 0.0])
        np.testing.assert_array_equal(joint.cross_block, np.zeros((2, 2)))

    def test_marginals_exact(self):
        mu, nu = _random_pair(3, 77)
        joint = coupling_pi_p(mu, nu, [0.3, -0.8, 1.0])
        np.testing.assert_array_equal(joint.marginal_x().cov, mu.cov)
        np.testing.assert_array_equal(joint.marginal_y().cov, nu.cov)
        np.testing.assert_array_equal(joint.mean[:3], mu.mean)
        np.testing.assert_array_equal(joint.mean[3:], nu.mean)

    def test_cross_block_matches_simulation(self, reflected_pair):
        # estimate Cov(X, Y) from the correlated-noise construction first,
        # then pin the closed-form block it supports
        mu, nu = reflected_pair
        rho = np.array([-1.0, 1.0])
        rng = np.random.default_rng(123)
        n = 400_000
        eps_x = rng.standard_normal((n, 2))
        xi = rng.standard_normal((n, 2))
        eps_y = rho * eps_x + np.sqrt(1.0 - rho**2) * xi
        X = eps_x @ mu.chol.T
        Y = eps_y @ nu.chol.T
        empirical = X.T @ Y / n
        joint = coupling_pi_p(mu, nu, rho)
        np.testing.assert_allclose(joint.cross_block, empirical, atol=0.05)
        np.testing.assert_allclose(
            joint.cross_block, [[-1.0, 2.0], [-2.0, 5.0]], atol=1e-14
        )

    def test_rejects_bad_correlation(self, reflected_pair):
        with pytest.raises(BadCorrelation):
            coupling_pi_p(*reflected_pair, [1.5, 0.0])

    def test_joint_is_psd_and_definite_iff_correlations_interior(self):
        mu, nu = _random_pair(3, 55)
        interior = coupling_pi_p(mu, nu, [0.5, -0.3, 0.9])
        assert np.linalg.eigvalsh(interior.cov)[0] > 0.0
        boundary = coupling_pi_p(mu, nu, [1.0, -1.0, 1.0])
        w = np.linalg.eigvalsh(boundary.cov)
        assert w[0] >= -1e-9 * w[-1]  # PSD
        assert w[0] <= 1e-9 * w[-1]  # but singular


class TestCouplingCost:
    def test_reflected_pair_costs(self, reflected_pair):
        mu, nu = reflected_pair
        assert coupling_cost(mu, nu, [1.0, 1.0]) == pytest.approx(16.0, abs=1e-12)
        assert coupling_cost(mu, nu, [-1.0, 1.0]) == pytest.approx(4.0, abs=1e-12)

    def test_self_coupling_is_free(self):
        mu, _ = _random_pair(3, 5)
        assert coupling_cost(mu, mu, np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    def test_sign_rule_minimizes_over_random_grid(self):
        rng = np.random.default_rng(41)
        for seed in range(10):
            mu, nu = _random_pair(3, 900 + seed)
            sign = optimal_sign(mu.chol, nu.chol)
            best = coupling_cost(mu, nu, sign.rho)
            assert best == pytest.approx(aw2(mu, nu).squared_value, abs=1e-9)
            for _ in range(100):
                r = rng.uniform(-1.0, 1.0, 3)
                assert coupling_cost(mu, nu, r) >= best - 1e-9

    def test_only_matching_signs_attain_minimum(self, reflected_pair):
        mu, nu = reflected_pair
        best = coupling_cost(mu, nu, [-1.0, 1.0])
        for r in ([1.0, 1.0], [-1.0, -1.0], [-0.5, 1.0], [-1.0, 0.9]):
            assert coupling_cost(mu, nu, r) > best + 1e-9

    def test_synchronous_cost_equals_kr(self):
        for seed in range(10):
            mu, nu = _random_pair(4, 800 + seed)
            assert coupling_cost(mu, nu, np.ones(4)) == pytest.approx(
                kr2(mu, nu).squared_value, abs=1e-9
            )

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_stacked_rows_match_single_calls(self, dim):
        mu, nu = _random_pair(dim, 950 + dim)
        R = np.random.default_rng(dim).uniform(-1.0, 1.0, (200, dim))
        stacked = couplings._coupling_cost(mu, nu, R)
        assert stacked.shape == (200,)
        # a matrix-vector product may sum a row in another order than a dot
        single = [coupling_cost(mu, nu, r) for r in R]
        np.testing.assert_allclose(stacked, single, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_one_row_is_bitwise_the_public_cost(self, dim):
        mu, nu = _random_pair(dim, 960 + dim)
        for r in np.random.default_rng(dim).uniform(-1.0, 1.0, (20, dim)):
            assert float(couplings._coupling_cost(mu, nu, r)) == coupling_cost(mu, nu, r)


class TestBrenierMap:
    def test_identity_on_equal_laws(self):
        mu, _ = _random_pair(3, 6)
        T = brenier_map(mu, mu)
        np.testing.assert_allclose(T.matrix, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(T.offset, np.zeros(3), atol=1e-8)

    def test_diagonal_case(self):
        mu = GaussianSpec(np.zeros(2), np.diag([1.0, 4.0]))
        nu = GaussianSpec(np.zeros(2), np.diag([9.0, 16.0]))
        T = brenier_map(mu, nu)
        np.testing.assert_allclose(T.matrix, np.diag([3.0, 2.0]), atol=1e-12)

    def test_pushforward_and_spd(self, reflected_pair):
        mu, nu = reflected_pair
        T = brenier_map(mu, nu)
        np.testing.assert_array_equal(T.matrix, T.matrix.T)
        assert np.all(np.linalg.eigvalsh(T.matrix) > 0.0)
        img = T.push(mu)
        assert np.linalg.norm(img.cov - nu.cov) <= 1e-8 * np.linalg.norm(nu.cov)

    @staticmethod
    def _check_map(mu, nu):
        T = brenier_map(mu, nu).matrix
        np.testing.assert_array_equal(T, T.T)
        assert np.linalg.eigvalsh(T)[0] > 0.0
        img = T @ mu.cov @ T.T
        assert np.linalg.norm(img - nu.cov) <= 1e-8 * np.linalg.norm(nu.cov)
        geodesic_point(mu, nu, 0.5, "wasserstein")
        return T

    @pytest.mark.parametrize("eps", [1e-7, 1e-10])
    def test_ill_conditioned_diagonal_law(self, eps):
        # admissible (pivot ratio eps > PD_TOL) although eps**2 is not
        mu = GaussianSpec(np.zeros(2), np.diag([1.0, eps]))
        np.testing.assert_allclose(self._check_map(mu, mu), np.eye(2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_ill_conditioned_pairs(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(10):
            mu, nu = _law_with_spectrum(dim, rng, 1e-9), _law_with_spectrum(dim, rng, 1e-9)
            self._check_map(mu, nu)
            T = self._check_map(mu, mu)
            np.testing.assert_allclose(T, np.eye(dim), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_matches_eigendecomposition_formula(self, dim):
        # the reference squares cond(A) inside its square root and is itself
        # off by about 20 * eps * cond(A), so it is held to laws with
        # cond(A) = 1e3; the ill-conditioned tests above check the residual
        rng = np.random.default_rng(700 + dim)
        for _ in range(5):
            mu, nu = _law_with_spectrum(dim, rng, 1e-3), _law_with_spectrum(dim, rng, 1e-3)
            want = seed_brenier_matrix(mu.cov, nu.cov)
            got = brenier_map(mu, nu).matrix
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestKrMap:
    def test_identity_on_equal_laws(self):
        mu, _ = _random_pair(2, 7)
        T = kr_map(mu, mu)
        np.testing.assert_allclose(T.matrix, np.eye(2), atol=1e-12)

    def test_reflected_pair_matrix(self, reflected_pair):
        T = kr_map(*reflected_pair)
        np.testing.assert_allclose(T.matrix, [[1.0, 0.0], [-4.0, 1.0]], atol=1e-12)

    def test_triangular_with_positive_diagonal(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4, 6):
            for _ in range(20):
                mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
                T = kr_map(mu, nu)
                assert np.all(np.triu(T.matrix, k=1) == 0.0)
                assert np.all(np.diag(T.matrix) > 0.0)
                img = T.push(mu)
                assert np.linalg.norm(img.cov - nu.cov) <= 1e-9 * np.linalg.norm(nu.cov)
                np.testing.assert_allclose(img.mean, nu.mean, atol=1e-9)


class TestAwMap:
    def test_reflected_pair(self, reflected_pair):
        mu, nu = reflected_pair
        result = aw_map(mu, nu)
        assert result.unique
        np.testing.assert_allclose(result.map.matrix, np.diag([-1.0, 1.0]), atol=1e-12)
        img = result.map.push(mu)
        np.testing.assert_allclose(img.cov, nu.cov, atol=1e-9)

    def test_tied_pair_reports_free_direction(self, tied_pair):
        mu, nu = tied_pair
        result = aw_map(mu, nu)
        assert not result.unique
        assert result.sign.free_indices == (1,)
        # canonical representative: +1 tie-break makes it the synchronous map
        np.testing.assert_allclose(result.map.matrix, kr_map(mu, nu).matrix, atol=1e-12)
        img = result.map.push(mu)
        np.testing.assert_allclose(img.cov, nu.cov, atol=1e-12)

    def test_identity_on_equal_laws(self):
        mu, _ = _random_pair(3, 9)
        result = aw_map(mu, mu)
        assert result.unique
        np.testing.assert_allclose(result.map.matrix, np.eye(3), atol=1e-12)

    def test_triangular_with_sign_diagonal(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            mu, nu = random_gaussian(3, rng), random_gaussian(3, rng)
            result = aw_map(mu, nu)
            T = result.map.matrix
            assert np.all(np.triu(T, k=1) == 0.0)
            np.testing.assert_array_equal(np.sign(np.diag(T)), result.sign.rho)
            img = result.map.push(mu)
            assert np.linalg.norm(img.cov - nu.cov) <= 1e-8 * np.linalg.norm(nu.cov)

    def test_realizes_optimal_cost(self):
        # E||X - TX||^2 under mu equals the squared adapted distance
        for seed in range(10):
            mu, nu = _random_pair(3, 700 + seed)
            T = aw_map(mu, nu).map
            D = np.eye(3) - T.matrix
            shift = mu.mean - T(mu.mean)
            cost = float(shift @ shift + np.trace(D @ mu.cov @ D.T))
            assert cost == pytest.approx(aw2(mu, nu).squared_value, rel=1e-9, abs=1e-9)


class TestConditionCoupling:
    def test_block_identity(self):
        rng = np.random.default_rng(11)
        for dim in (3, 5):
            for _ in range(30):
                mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
                d = np.sum(mu.chol * nu.chol, axis=0)
                for t in range(1, dim):
                    tail = np.sum(mu.chol[t:, t:] * nu.chol[t:, t:], axis=0)
                    np.testing.assert_allclose(d[t:], tail, atol=1e-12)

    def test_conditional_is_pi_p_of_conditionals(self):
        mu, nu = _random_pair(4, 13)
        rho = np.array([0.2, -0.7, 1.0, 0.5])
        t = 2
        x, y = [0.4, -1.0], [2.0, 0.3]
        cond = condition_coupling(mu, nu, rho, t, x, y)
        cmu = conditional(mu, t, x)
        cnu = conditional(nu, t, y)
        np.testing.assert_allclose(cond.marginal_x().cov, cmu.cov, atol=1e-12)
        np.testing.assert_allclose(cond.marginal_x().mean, cmu.mean, atol=1e-12)
        np.testing.assert_allclose(cond.marginal_y().cov, cnu.cov, atol=1e-12)
        expected_cross = (cmu.chol * rho[t:][None, :]) @ cnu.chol.T
        np.testing.assert_allclose(cond.cross_block, expected_cross, atol=1e-12)

    def test_self_coupling_conditional_stays_synchronous(self):
        mu, _ = _random_pair(3, 14)
        cond = condition_coupling(mu, mu, np.ones(3), 1, [0.5], [0.5])
        np.testing.assert_allclose(cond.cross_block, cond.marginal_x().cov, atol=1e-12)

    def test_reflected_pair_trailing_sign_positive(self, reflected_pair):
        mu, nu = reflected_pair
        sign = optimal_sign(mu.chol, nu.chol)
        cond = condition_coupling(mu, nu, sign.rho, 1, [0.7], [-0.2])
        trailing = optimal_sign(cond.marginal_x().chol, cond.marginal_y().chol)
        np.testing.assert_array_equal(trailing.rho, [1.0])


class TestBicausalityStructure:
    @pytest.mark.parametrize("dim,t", [(3, 1), (4, 2), (5, 3)])
    def test_past_of_y_reads_only_past_of_x(self, dim, t):
        # regression coefficient of Y_{1:t} on the whole X path must have
        # zero columns beyond time t (and symmetrically for X on Y)
        rng = np.random.default_rng(60 + dim)
        mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
        rho = rng.uniform(-1.0, 1.0, dim)
        joint = coupling_pi_p(mu, nu, rho)
        cross = joint.cross_block  # Cov(X, Y)
        coef_y_on_x = np.linalg.solve(mu.cov, cross[:, :t]).T  # (t, dim)
        assert np.max(np.abs(coef_y_on_x[:, t:])) <= 1e-9
        coef_x_on_y = np.linalg.solve(nu.cov, cross.T[:, :t]).T
        assert np.max(np.abs(coef_x_on_y[:, t:])) <= 1e-9


class TestMonteCarloConsistency:
    def test_cost_matches_simulation(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            mu, nu = _random_pair(3, 300 + seed)
            rho = rng.uniform(-1.0, 1.0, 3)
            mc = monte_carlo_cost(mu, nu, rho, 200_000, seed=seed)
            assert abs(mc.estimate - coupling_cost(mu, nu, rho)) <= 4.0 * mc.standard_error


def _close(actual, reference):
    """Agreement to 1e-13 relative to the largest entry of ``reference``."""
    actual, reference = np.asarray(actual), np.asarray(reference)
    return np.max(np.abs(actual - reference), initial=0.0) <= 1e-13 * np.max(np.abs(reference))


class TestTriangularSolvesMatchScipy:
    """The maps and the conditional gain solve on numpy's LAPACK; scipy's
    triangular solve is the reference they must agree with."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64, 256])
    def test_maps(self, dim):
        mu, nu = _random_pair(dim, 700 + dim)
        L, M = mu.chol, nu.chol
        U, _, Vt = np.linalg.svd(L.T @ M)
        T = solve_triangular(L.T, (M @ (Vt.T @ U.T)).T, lower=False).T
        rho = optimal_sign(L, M).rho
        expected = {
            "brenier": (brenier_map(mu, nu), (T + T.T) / 2.0),
            "kr": (kr_map(mu, nu), np.tril(solve_triangular(L.T, M.T, lower=False).T)),
            "aw": (
                aw_map(mu, nu).map,
                np.tril(solve_triangular(L.T, (M * rho[None, :]).T, lower=False).T),
            ),
        }
        for kind, (transport, reference) in expected.items():
            assert _close(transport.matrix, reference), kind

    @pytest.mark.parametrize("dim", [2, 3, 8, 64, 256])
    def test_conditional_mean(self, dim):
        mu, _ = _random_pair(dim, 800 + dim)
        L, a = mu.chol, mu.mean
        x = np.random.default_rng(dim).standard_normal(dim)
        for t in sorted({1, dim // 2, dim - 1}):
            gain = solve_triangular(L[:t, :t], L[t:, :t].T, lower=True, trans="T").T
            reference = a[t:] + gain @ (x[:t] - a[:t])
            assert _close(conditional(mu, t, x[:t]).mean, reference), t


#: modules of the closed forms, the maps and the curves: numpy only
NUMPY_ONLY_MODULES = ("linalg", "distances", "couplings", "geodesics")


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


class TestOneLapack:
    @pytest.mark.parametrize("module", NUMPY_ONLY_MODULES)
    def test_closed_form_modules_import_no_scipy(self, module):
        path = Path(awgauss.__file__).with_name(f"{module}.py")
        imported = list(_imported_modules(path))
        assert "numpy" in imported
        assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]

    def test_one_right_division(self):
        # every factor solve goes through linalg._rdiv; the discrete oracle's
        # Schur-complement solve stays its own, independent of the factors
        sources = sorted(Path(awgauss.__file__).parent.glob("*.py"))
        sites = {
            (path.stem, fn.name)
            for path in sources
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)
            and any(
                isinstance(node, ast.Attribute) and ast.unparse(node) == "np.linalg.solve"
                for node in ast.walk(fn)
            )
        }
        assert sites == {("linalg", "_rdiv"), ("oracle", "_quantile_tree")}
        assert sum(path.read_text().count("linalg.solve") for path in sources) == len(sites)

    def test_no_module_names_solve_triangular(self):
        sources = sorted(Path(awgauss.__file__).parent.glob("*.py"))
        assert len(sources) > len(NUMPY_ONLY_MODULES)
        assert [p.name for p in sources if "solve_triangular" in p.read_text()] == []
