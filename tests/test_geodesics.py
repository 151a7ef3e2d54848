import numpy as np
import pytest

from awgauss import (
    BadParameter,
    GaussianSpec,
    cholesky,
    geodesic_check,
    geodesic_point,
    random_gaussian,
)
from awgauss import couplings, distances
from awgauss.geodesics import ADAPTED, GEODESIC_KINDS, KNOTHE_ROSENBLATT, WASSERSTEIN


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return random_gaussian(dim, rng), random_gaussian(dim, rng)


def _map_formula_cov(mu, nu, t, kind):
    """``T_t A0 T_t^T`` with ``T_t = (1 - t) I + t T`` from the printed map ``T``."""
    Tt = (1.0 - t) * np.eye(mu.dim) + t * couplings._transport(mu, nu, kind).matrix
    cov = Tt @ mu.cov @ Tt.T
    return (cov + cov.T) / 2.0


def _positive_diag_pair(dim, seed):
    """Pair whose factor diagonal is strictly positive (no reflections)."""
    rng = np.random.default_rng(seed)
    while True:
        mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
        if np.all(np.sum(mu.chol * nu.chol, axis=0) > 0.0):
            return mu, nu


class TestGeodesicPoint:
    @pytest.mark.parametrize("kind", GEODESIC_KINDS)
    def test_endpoints_exact(self, kind):
        mu, nu = _random_pair(3, 1)
        p0 = geodesic_point(mu, nu, 0.0, kind)
        np.testing.assert_array_equal(p0.mean, mu.mean)
        np.testing.assert_array_equal(p0.cov, mu.cov)
        assert not p0.degenerate
        p1 = geodesic_point(mu, nu, 1.0, kind)
        np.testing.assert_allclose(p1.mean, nu.mean, atol=1e-12)
        np.testing.assert_array_equal(p1.cov, nu.cov)
        assert p0.cov is mu.cov and p1.cov is nu.cov

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("kind", GEODESIC_KINDS)
    def test_factor_product_matches_map_formula(self, kind, dim):
        # F_t F_t^T with F_t = (1 - t) L + t M Q equals T_t A0 T_t^T for T = M Q L^{-1}
        mu, nu = _random_pair(dim, 40 + dim)
        for t in (0.25, 0.5, 0.8):
            expected = _map_formula_cov(mu, nu, t, kind)
            got = geodesic_point(mu, nu, t, kind).cov
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
            np.testing.assert_array_equal(got, got.T)

    def test_curve_path_solves_nothing(self, monkeypatch):
        calls = []
        original = np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        mu, nu = _random_pair(4, 12)
        for kind in GEODESIC_KINDS:
            geodesic_point(mu, nu, 0.3, kind)
            geodesic_check(mu, nu, kind, 0.2, 0.7)
        assert calls == []

    def test_reflected_pair_adapted_midpoint_degenerates(self, reflected_pair):
        # the adapted map is diag(-1, 1); halfway the first coordinate dies
        mu, nu = reflected_pair
        pt = geodesic_point(mu, nu, 0.5, ADAPTED)
        assert pt.degenerate
        np.testing.assert_allclose(pt.cov, [[0.0, 0.0], [0.0, 5.0]], atol=1e-12)
        assert pt.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_kr_interpolates_factors_linearly(self):
        mu, nu = _random_pair(3, 2)
        L0, L1 = mu.chol, nu.chol
        for t in (0.25, 0.5, 0.8):
            pt = geodesic_point(mu, nu, t, KNOTHE_ROSENBLATT)
            expected = (1.0 - t) * L0 + t * L1
            np.testing.assert_allclose(cholesky(pt.cov), expected, atol=1e-9)

    def test_mean_interpolates_linearly(self):
        mu, nu = _random_pair(2, 3)
        pt = geodesic_point(mu, nu, 0.3, WASSERSTEIN)
        np.testing.assert_allclose(pt.mean, 0.7 * mu.mean + 0.3 * nu.mean, atol=1e-14)

    def test_parameter_bounds(self):
        mu, nu = _random_pair(2, 4)
        for bad in (-0.1, 1.1):
            with pytest.raises(BadParameter):
                geodesic_point(mu, nu, bad, ADAPTED)
        with pytest.raises(BadParameter):
            geodesic_point(mu, nu, 0.5, "nonsense")
        with pytest.raises(BadParameter):
            geodesic_check(mu, nu, "nonsense", 0.2, 0.7)

    def test_adapted_equals_kr_when_no_reflection(self):
        mu, nu = _positive_diag_pair(3, 5)
        for t in (0.2, 0.5, 0.9):
            pa = geodesic_point(mu, nu, t, ADAPTED)
            pk = geodesic_point(mu, nu, t, KNOTHE_ROSENBLATT)
            np.testing.assert_allclose(pa.cov, pk.cov, atol=1e-10)

    def test_adapted_equals_kr_at_zero_diagonal_boundary(self, tied_pair):
        # free direction takes the +1 tie-break, i.e. the synchronous curve
        mu, nu = tied_pair
        for t in (0.3, 0.5, 0.7):
            pa = geodesic_point(mu, nu, t, ADAPTED)
            pk = geodesic_point(mu, nu, t, KNOTHE_ROSENBLATT)
            np.testing.assert_array_equal(pa.cov, pk.cov)


    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_product_with_own_transpose_is_exactly_symmetric(self, dim):
        # a curve point is F F^T taken as it comes, with no averaging against
        # its transpose: numpy forms it by syrk and mirrors one triangle
        F = np.tril(np.random.default_rng(dim).standard_normal((dim, dim)))
        cov = F @ F.T
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("kind", GEODESIC_KINDS)
    def test_points_are_exactly_symmetric(self, kind, dim):
        mu, nu = _random_pair(dim, 60 + dim)
        for t in (0.0, 0.25, 0.5, 0.8, 1.0):
            cov = geodesic_point(mu, nu, t, kind).cov
            assert np.array_equal(cov, cov.T)


class TestGeodesicCheck:
    def test_same_parameter_is_zero(self):
        mu, nu = _random_pair(2, 6)
        rep = geodesic_check(mu, nu, ADAPTED, 0.4, 0.4)
        assert rep.status == "ok"
        assert rep.point_distance == pytest.approx(0.0, abs=1e-9)
        assert rep.abs_difference <= 1e-9

    def test_constant_speed_adapted(self):
        grid = np.linspace(0.0, 1.0, 5)
        for seed in range(10):
            mu, nu = _positive_diag_pair(2, 100 + seed)
            for s in grid:
                for t in grid:
                    rep = geodesic_check(mu, nu, ADAPTED, s, t)
                    assert rep.status == "ok"
                    assert rep.abs_difference <= 1e-8

    def test_constant_speed_kr_any_pair(self):
        for seed in range(10):
            mu, nu = _random_pair(3, 200 + seed)
            for s, t in [(0.25, 0.75), (0.0, 0.6), (0.1, 1.0)]:
                rep = geodesic_check(mu, nu, KNOTHE_ROSENBLATT, s, t)
                assert rep.status == "ok"
                assert rep.abs_difference <= 1e-9

    def test_constant_speed_wasserstein(self):
        for seed in range(10):
            mu, nu = _random_pair(2, 300 + seed)
            rep = geodesic_check(mu, nu, WASSERSTEIN, 0.25, 0.75)
            assert rep.status == "ok"
            assert rep.abs_difference <= 1e-8

    @pytest.mark.parametrize(
        "dim, kappa, want",
        [(16, 2.0, {"eigh": 2}), (16, 1e8, {"eigh": 2, "svd": 2}), (3, 2.0, {"svd": 2})],
        ids=["eigh", "fallback", "small"],
    )
    def test_builds_one_transport_map(self, conditioned_law, linalg_calls, dim, kappa, want):
        # both points share one Q = V U^T; the endpoint distance reads the
        # factorization the curve took, and the points' distance takes one of
        # its own: each pair one eigh, and past the guard one SVD as well;
        # the two points' laws one Cholesky each
        rng = np.random.default_rng(7)
        mu, nu = conditioned_law(dim, kappa, rng), conditioned_law(dim, kappa, rng)
        mu.chol, nu.chol
        linalg_calls.clear()
        rep = geodesic_check(mu, nu, WASSERSTEIN, 0.2, 0.7)
        assert rep.status == "ok"
        assert linalg_calls == {"cholesky": 2, **want}

    def test_endpoint_product_formed_once(self, monkeypatch):
        # the endpoint distance reads the M V U^T the curve points were built
        # from; the points' own distance forms one product of their own pair
        mu, nu = _random_pair(8, 10)
        endpoints = []
        original = distances._brenier_product

        def counting(L, M):
            endpoints.append(L is mu.chol and M is nu.chol)
            return original(L, M)

        monkeypatch.setattr(distances, "_brenier_product", counting)
        rep = geodesic_check(mu, nu, WASSERSTEIN, 0.2, 0.7)
        assert rep.status == "ok"
        assert endpoints == [True, False]

    @pytest.mark.parametrize("kind", GEODESIC_KINDS)
    def test_report_equals_distance_between_curve_points(self, kind):
        distance = {
            WASSERSTEIN: distances.wasserstein2,
            KNOTHE_ROSENBLATT: distances.kr2,
            ADAPTED: distances.aw2,
        }[kind]
        mu, nu = _positive_diag_pair(3, 8)
        for s, t in ((0.2, 0.7), (0.0, 1.0), (0.0, 0.7), (0.2, 1.0)):
            rep = geodesic_check(mu, nu, kind, s, t)
            ps, pt = geodesic_point(mu, nu, s, kind), geodesic_point(mu, nu, t, kind)
            lhs = distance(GaussianSpec(ps.mean, ps.cov), GaussianSpec(pt.mean, pt.cov)).value
            assert rep.point_distance == lhs
            assert rep.scaled_endpoint_distance == abs(s - t) * distance(mu, nu).value

    def test_endpoints_are_not_factored_again(self, monkeypatch):
        calls = []
        original = np.linalg.cholesky

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        mu, nu = _random_pair(3, 9)
        mu.chol, nu.chol
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        rep = geodesic_check(mu, nu, ADAPTED, 0.0, 1.0)
        assert rep.status == "ok"
        assert calls == []

    def test_degenerate_point_reports_skipped(self, reflected_pair):
        mu, nu = reflected_pair
        rep = geodesic_check(mu, nu, ADAPTED, 0.5, 0.9)
        assert rep.status == "skipped"
        assert rep.point_distance is None
