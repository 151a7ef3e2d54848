import json
import sys
import threading

import numpy as np
import pytest

from awgauss import (
    BadSplit,
    DimensionMismatch,
    GaussianSpec,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSymmetric,
    aw2,
    cholesky,
    conditional,
    random_spd,
    sample,
)
from awgauss import linalg
from awgauss.linalg import as_cholesky_factor
from awgauss.problems import parse_problem, problem_echo


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
    # gated before the asymmetry pass, where inf - inf would warn
    ([[1.0, np.inf], [np.inf, 1.0]], NonFiniteValue, "matrix contains non-finite entries"),
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


class TestFactorIsNumpys:
    """``cholesky`` returns numpy's factor as is: numpy writes exact +0.0
    above the diagonal, so no ``np.tril`` pass is needed."""

    @pytest.mark.parametrize("dim, shape", [(1, ()), (3, ()), (64, ()), (256, ()), (3, (1000,)), (8, (4, 5))])
    def test_strict_upper_triangle_is_positive_zero(self, dim, shape):
        A = random_spd(dim, np.random.default_rng(dim), shape)
        A = (A + np.swapaxes(A, -1, -2)) / 2.0  # as the symmetry gate leaves it
        L = np.linalg.cholesky(A)
        upper = L[..., ~np.tri(dim, dtype=bool)]
        assert np.all(upper == 0.0) and not np.signbit(upper).any()
        np.testing.assert_array_equal(cholesky(A), L)


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


class TestSymmetrizationAtTheFloatLimit:
    """Symmetrization never overflows: a finite entry above half the largest
    float keeps its value (pytest turns numpy's overflow warning into an
    error, so these fail loudly when the average is taken as (A + A^T) / 2)."""

    BIG = np.array([[1.7e308, 0.5e308], [0.5e308 * (1.0 + 1e-14), 1.7e308]])

    def test_one_matrix(self):
        np.testing.assert_array_equal(cholesky([[1e308, 0.0], [0.0, 1e308]]), 1e154 * np.eye(2))
        S = linalg._symmetrized(self.BIG, "matrix")
        assert S[0, 0] == S[1, 1] == 1.7e308
        assert S[0, 1] == S[1, 0] == self.BIG[0, 1] / 2.0 + self.BIG[1, 0] / 2.0
        assert np.isfinite(cholesky(self.BIG)).all()

    def test_stack(self):
        small = random_spd(2, np.random.default_rng(4))
        S = linalg._symmetrized(np.stack([small, self.BIG]), "matrix")
        for k, A in enumerate((small, self.BIG)):
            assert S[k].tobytes() == linalg._symmetrized(A, "matrix").tobytes()
        np.testing.assert_array_equal(cholesky(np.stack([small, self.BIG]))[1], cholesky(self.BIG))

    def test_law(self):
        mu = GaussianSpec(np.zeros(1), [[1.7e308]])
        assert mu.cov[0, 0] == 1.7e308
        assert mu.chol[0, 0] == np.sqrt(1.7e308)

    def test_below_the_limit_is_the_plain_average(self):
        A = random_spd(5, np.random.default_rng(6), (3,))
        A[1, 0, 2] += 1e-13  # asymmetry within the tolerance, so it is averaged
        S = linalg._symmetrized(A, "matrix")
        assert S.tobytes() == ((A + np.swapaxes(A, -1, -2)) / 2.0).tobytes()
        assert linalg._symmetrized(A[1], "matrix").tobytes() == S[1].tobytes()


class TestGatedFactors:
    """A law's read-only factor passes the factor gate at once; the same
    array made writable is scanned like any other."""

    def test_law_factor_is_returned_without_a_scan(self, monkeypatch):
        mu = GaussianSpec(np.zeros(3), random_spd(3, np.random.default_rng(1)))
        nu = GaussianSpec.from_cholesky(np.zeros(2), [[1.0, 0.0], [0.5, 2.0]])
        scans = []
        upper = linalg._strict_upper
        monkeypatch.setattr(linalg, "_strict_upper", lambda n: scans.append(n) or upper(n))
        for law in (mu, nu):
            assert as_cholesky_factor(law.chol) is law.chol
        assert scans == []
        fresh = np.array(mu.chol)
        assert as_cholesky_factor(fresh) is fresh
        assert scans == [3]

    def test_threads_making_and_dropping_laws(self):
        # more threads than cores, switching often: entries come and go while
        # others look theirs up, and every law's factor is still found
        covs = random_spd(3, np.random.default_rng(5), (4,))
        start = threading.Barrier(len(covs))
        misses = []

        def run(cov):
            start.wait()
            for _ in range(200):
                L = GaussianSpec(np.zeros(3), cov).chol
                if as_cholesky_factor(L) is not L or L.flags.writeable:
                    misses.append(1)

        threads = [threading.Thread(target=run, args=(cov,)) for cov in covs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert misses == []

    @pytest.mark.parametrize(
        "where, value, error",
        [((0, 1), 0.5, NotSymmetric), ((2, 0), np.nan, NonFiniteValue), ((1, 1), -1.0, NotPositiveDefinite)],
    )
    def test_corrupted_factor_raises_as_a_fresh_array(self, where, value, error):
        L = GaussianSpec(np.zeros(3), random_spd(3, np.random.default_rng(2))).chol
        L.setflags(write=True)
        L[where] = value
        with pytest.raises(error) as fresh:
            as_cholesky_factor(np.array(L))
        with pytest.raises(error) as registered:
            as_cholesky_factor(L)
        assert str(registered.value) == str(fresh.value)


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

    @pytest.mark.parametrize("corner", [1e-7, 1e-6, 1.2e-6, 1e-5, 1e-3])
    def test_from_cholesky_law_parses_back_from_its_echo(self, corner):
        # one pivot gate for every law: a factor the gate accepts gives a
        # covariance document that parses back as a law aw2 accepts
        L = np.array([[corner, 0.0], [0.5, 1.0]])
        try:
            spec = GaussianSpec.from_cholesky(np.zeros(2), L)
        except NotPositiveDefinite:
            assert corner**2 <= 1e-12 * 1.25
            return
        echoed = parse_problem(json.loads(json.dumps(problem_echo(spec, spec))))
        assert aw2(echoed.mu, echoed.nu).value == 0.0
        np.testing.assert_allclose(echoed.mu.chol, L, rtol=1e-9)

    def test_from_cholesky_pivot_gate_message(self):
        with pytest.raises(NotPositiveDefinite) as info:
            GaussianSpec.from_cholesky([0, 0], [[1e-7, 0], [0.5, 1]])
        assert str(info.value) == (
            "smallest Cholesky pivot 1.000e-14 is at or below 1e-12 * max diag = 1.250e-12"
        )

    def test_values_are_immutable(self):
        spec = GaussianSpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            spec.cov[0, 0] = 7.0

    @pytest.mark.parametrize("build", [GaussianSpec, GaussianSpec.from_cholesky])
    def test_callers_mean_stays_writeable_and_apart(self, build):
        m = np.zeros(2)
        spec = build(m, np.eye(2))
        assert m.flags.writeable and not spec.mean.flags.writeable
        m[0] = 5.0
        np.testing.assert_array_equal(spec.mean, [0.0, 0.0])

    def test_positive_definiteness_is_gated_at_the_first_factor(self):
        # construction runs the shape, finiteness and symmetry gates only;
        # the pivot gate runs when .chol first factors the covariance
        spec = GaussianSpec(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_array_equal(spec.cov, [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            spec.chol

    @pytest.mark.parametrize(
        "cov, error, message",
        [
            (np.ones(2), DimensionMismatch, "covariance must be square, got shape (2,)"),
            (
                np.ones((2, 2, 2)), DimensionMismatch,
                "covariance must be square, got shape (2, 2, 2)",
            ),
            (np.ones((2, 3)), DimensionMismatch, "covariance must be square, got shape (2, 3)"),
            (np.ones((0, 0)), DimensionMismatch, "covariance must have dimension >= 1"),
            (
                np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFiniteValue,
                "covariance contains non-finite entries",
            ),
            (
                np.array([[1.0, 0.3], [0.0, 1.0]]), NotSymmetric,
                "covariance is not symmetric: max|A - A^T| = 3.000e-01 "
                "exceeds 1e-12 * max|A| = 1.000e-12",
            ),
        ],
        ids=["1-d", "3-d", "2x3", "0x0", "nan", "asymmetric"],
    )
    def test_gate_messages(self, cov, error, message):
        with pytest.raises(error) as info:
            GaussianSpec(np.zeros(2), cov)
        assert str(info.value) == message


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

    def test_law_at_the_pivot_gate_conditions_at_every_split(self):
        # a trailing block's smallest pivot is at least the full factor's and
        # its largest diagonal at most the full one, so it passes the same gate
        d = np.sqrt(1.01e-12 * 1.25)
        L = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.3, 0.2, d]])
        mu = GaussianSpec.from_cholesky(np.zeros(3), L)
        for t in (1, 2):
            cond = conditional(mu, t, np.ones(t))
            np.testing.assert_array_equal(cond.chol, L[t:, t:])

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
