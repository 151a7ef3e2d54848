import numpy as np
import pytest

from awgauss import (
    BadSplit,
    DimensionMismatch,
    GaussianSpec,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSymmetric,
    cholesky,
    conditional,
    random_spd,
    sample,
    sqrtm,
)
from awgauss import linalg
from awgauss.linalg import as_cholesky_factor


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_known_factor(self):
        # hand factorization: l11=1, l21=2, l22=sqrt(5-4)=1
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        L = cholesky(A)
        np.testing.assert_allclose(L, [[1.0, 0.0], [2.0, 1.0]], rtol=0, atol=0)
        np.testing.assert_allclose(L @ L.T, A, atol=1e-14)

    def test_negative_offdiagonal_factor(self):
        L = cholesky(np.array([[1.0, -1.0], [-1.0, 2.0]]))
        np.testing.assert_allclose(L, [[1.0, 0.0], [-1.0, 1.0]], rtol=0, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 20])
    def test_roundtrip_random_spd(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(50):
            A = random_spd(dim, rng)
            L = cholesky(A)
            assert np.all(np.triu(L, k=1) == 0.0)
            assert np.all(np.diag(L) > 0.0)
            err = np.linalg.norm(L @ L.T - A) / np.linalg.norm(A)
            assert err <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 4, 7])
    def test_uniqueness(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(50):
            L = np.tril(rng.standard_normal((dim, dim)))
            np.fill_diagonal(L, np.abs(np.diag(L)) + 0.5)
            back = cholesky(L @ L.T)
            np.testing.assert_allclose(back, L, atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky(np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_absorbs_float_noise_asymmetry(self):
        A = np.array([[2.0, 0.5], [0.5 + 1e-14, 2.0]])
        L = cholesky(A)
        assert np.all(np.isfinite(L))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_rejects_tiny_pivot_relative_to_scale(self):
        # relative gate: same matrix rescaled must behave identically
        A = np.diag([1.0, 1e-15])
        with pytest.raises(NotPositiveDefinite):
            cholesky(A)
        with pytest.raises(NotPositiveDefinite):
            cholesky(1e8 * A)


# (matrix, error, message of cholesky on it alone); the messages are pinned
_BAD_MATRICES = [
    (
        [[1.0, 0.3], [0.0, 1.0]],
        NotSymmetric,
        "matrix is not symmetric: max|A - A^T| = 3.000e-01 exceeds 1e-12 * max|A| = 1.000e-12",
    ),
    ([[1.0, np.nan], [np.nan, 1.0]], NonFiniteValue, "matrix contains non-finite entries"),
    ([[1.0, 0.0], [0.0, np.inf]], NonFiniteValue, "matrix contains non-finite entries"),
    ([[-1.0, 0.0], [0.0, -1.0]], NotPositiveDefinite, "matrix has non-positive diagonal"),
    (
        [[1.0, 2.0], [2.0, 1.0]],
        NotPositiveDefinite,
        "Cholesky factorization failed: Matrix is not positive definite",
    ),
    (
        [[1.0, 0.0], [0.0, 1e-15]],
        NotPositiveDefinite,
        "smallest Cholesky pivot 1.000e-15 is at or below 1e-12 * max diag = 1.000e-12",
    ),
]


class TestStackedCholesky:
    @pytest.mark.parametrize("dim, shape", [(1, (4,)), (2, (7,)), (3, (2, 5)), (8, (3,)), (20, (2,))])
    def test_each_factor_bitwise_equals_single_call(self, dim, shape):
        A = random_spd(dim, np.random.default_rng(dim), shape)
        L = cholesky(A)
        assert L.shape == shape + (dim, dim)
        for idx in np.ndindex(shape):
            np.testing.assert_array_equal(L[idx], cholesky(A[idx]))

    @pytest.mark.parametrize("bad, error, message", _BAD_MATRICES)
    def test_single_matrix_message(self, bad, error, message):
        with pytest.raises(error) as info:
            cholesky(bad)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad, error, message", _BAD_MATRICES)
    def test_bad_matrix_in_stack_named_by_index(self, bad, error, message):
        A = random_spd(2, np.random.default_rng(3), (2, 3))
        A[1, 2] = bad
        with pytest.raises(error) as info:
            cholesky(A)
        assert str(info.value) == "stack index [1, 2]: " + message
        A[0, 1] = bad  # the first bad matrix in C order is the one reported
        with pytest.raises(error, match=r"^stack index \[0, 1\]: "):
            cholesky(A)

    def test_gates_use_each_matrix_own_scale(self):
        big = 1e8 * np.eye(2)
        # asymmetry 1e-11 is noise beside max|A| = 1e8 but not beside 1
        skew = np.array([[1.0, 0.5 + 1e-11], [0.5, 1.0]])
        with pytest.raises(NotSymmetric, match=r"^stack index \[1\]: "):
            cholesky(np.stack([big, skew]))
        # pivot 1e-9 is degenerate beside max diag 1e8 but not beside 1
        L = cholesky(np.stack([big, np.diag([1.0, 1e-9])]))
        np.testing.assert_array_equal(L[1], cholesky(np.diag([1.0, 1e-9])))

    @pytest.mark.parametrize("dim, shape", [(2, (6,)), (3, (4, 3)), (5, ())])
    def test_random_spd_stack_draws_like_single_calls(self, dim, shape):
        stacked_rng, single_rng = np.random.default_rng(9), np.random.default_rng(9)
        stack = random_spd(dim, stacked_rng, shape)
        singles = [random_spd(dim, single_rng) for _ in range(int(np.prod(shape)))]
        np.testing.assert_array_equal(stack.reshape(-1, dim, dim), singles)
        assert stacked_rng.standard_normal() == single_rng.standard_normal()


class TestFactorValidation:
    def test_accepts_lower_triangular(self):
        L = np.array([[1.0, 0.0], [-3.0, 2.0]])
        np.testing.assert_array_equal(as_cholesky_factor(L), L)

    def test_rejects_upper_entries(self):
        with pytest.raises(NotSymmetric):
            as_cholesky_factor(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NotPositiveDefinite):
            as_cholesky_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestSqrtm:
    def test_identity(self):
        np.testing.assert_allclose(sqrtm(np.eye(3)), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrtm(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_multiply_back(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            A = random_spd(dim, rng)
            S = sqrtm(A)
            np.testing.assert_array_equal(S, S.T)
            assert np.linalg.norm(S @ S - A) / np.linalg.norm(A) <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sqrtm(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestOneGatePerMatrix:
    @pytest.fixture
    def gates(self, monkeypatch):
        calls = []
        original = linalg._symmetrized

        def counting(M, name):
            calls.append(name)
            return original(M, name)

        monkeypatch.setattr(linalg, "_symmetrized", counting)
        return calls

    def test_covariance_built_law(self, gates):
        A = random_spd(3, np.random.default_rng(0))
        L = GaussianSpec(np.zeros(3), A).chol
        assert gates == ["covariance"]
        np.testing.assert_array_equal(L, cholesky(A))

    def test_sqrtm(self, gates):
        sqrtm(random_spd(3, np.random.default_rng(1)))
        assert len(gates) == 1

    def test_gated_factor_keeps_pivot_gate(self):
        with pytest.raises(NotPositiveDefinite, match="smallest Cholesky pivot"):
            GaussianSpec(np.zeros(2), np.diag([1.0, 1e-13])).chol


class TestGaussianSpec:
    def test_dimension_consistency(self):
        with pytest.raises(DimensionMismatch):
            GaussianSpec(np.zeros(3), np.eye(2))

    def test_from_cholesky_caches_factor(self):
        L = np.array([[1.0, 0.0], [2.0, 1.0]])
        spec = GaussianSpec.from_cholesky(np.zeros(2), L)
        np.testing.assert_array_equal(spec.chol, L)
        np.testing.assert_allclose(spec.cov, [[1.0, 2.0], [2.0, 5.0]])

    def test_values_are_immutable(self):
        spec = GaussianSpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            spec.cov[0, 0] = 7.0


class TestConditional:
    def test_known_scalar_case(self):
        # gain = l21/l11 = 2, residual variance = l22^2 = 1
        mu = GaussianSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 5.0]]))
        cond = conditional(mu, 1, [3.0])
        np.testing.assert_allclose(cond.mean, [6.0], atol=1e-12)
        np.testing.assert_allclose(cond.cov, [[1.0]], atol=1e-12)

    def test_independent_coordinates(self):
        mu = GaussianSpec(np.zeros(4), np.eye(4))
        for t in (1, 2, 3):
            cond = conditional(mu, t, np.arange(t, dtype=float))
            np.testing.assert_array_equal(cond.mean, np.zeros(4 - t))
            np.testing.assert_array_equal(cond.cov, np.eye(4 - t))

    def test_covariance_independent_of_past(self):
        rng = np.random.default_rng(5)
        mu = GaussianSpec(rng.standard_normal(4), random_spd(4, rng))
        c1 = conditional(mu, 2, [0.0, 0.0])
        c2 = conditional(mu, 2, [10.0, -3.0])
        np.testing.assert_array_equal(c1.cov, c2.cov)

    def test_split_bounds(self):
        mu = GaussianSpec(np.zeros(3), np.eye(3))
        with pytest.raises(BadSplit):
            conditional(mu, 0, [])
        with pytest.raises(BadSplit):
            conditional(mu, 3, [0.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            conditional(mu, 1, [0.0, 0.0])

    @pytest.mark.parametrize("dim,t", [(3, 1), (4, 2), (6, 3)])
    def test_law_of_total_covariance(self, dim, t):
        # recover the conditional-mean gain from probe points, then check
        # cov_future = conditional_cov + gain @ cov_past @ gain.T
        rng = np.random.default_rng(17 * dim + t)
        mu = GaussianSpec(rng.standard_normal(dim), random_spd(dim, rng))
        base = conditional(mu, t, np.zeros(t)).mean
        gain = np.column_stack(
            [conditional(mu, t, e).mean - base for e in np.eye(t)]
        )
        cond_cov = conditional(mu, t, rng.standard_normal(t)).cov
        A = mu.cov
        reconstructed = cond_cov + gain @ A[:t, :t] @ gain.T
        np.testing.assert_allclose(reconstructed, A[t:, t:], atol=1e-9)


class TestRightDivision:
    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_one_row_bitwise_equals_vector_solve(self, dim):
        L = cholesky(random_spd(dim, np.random.default_rng(dim)))
        for t in range(dim):
            row = linalg._rdiv(L[t:t + 1, :t], L[:t, :t])
            assert row.shape == (1, t)
            assert np.array_equal(row[0], np.linalg.solve(L[:t, :t].T, L[t, :t])), t


class TestSample:
    def test_seed_determinism(self):
        mu = GaussianSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 5.0]]))
        a = sample(mu, 1000, seed=7)
        b = sample(mu, 1000, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample(mu, 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_mean_clt_bound(self):
        mu = GaussianSpec(np.zeros(2), np.eye(2))
        draws = sample(mu, 100_000, seed=11)
        assert np.all(np.abs(draws.mean(axis=0)) <= 0.02)

    def test_covariance_clt_bound(self):
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        mu = GaussianSpec(np.zeros(2), A)
        draws = sample(mu, 100_000, seed=12)
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - A)) <= 0.1
