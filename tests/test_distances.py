import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from awgauss import (
    BadAngle,
    DimensionMismatch,
    GaussianSpec,
    NonPositiveWeight,
    NotPositiveDefinite,
    abw_distance,
    aw2,
    aw_map,
    brenier_map,
    bures_wasserstein,
    cholesky,
    coupling_cost,
    geodesic_point,
    incompleteness_limit,
    incompleteness_member,
    kr2,
    kr_distance,
    monte_carlo_cost,
    optimal_sign,
    random_gaussian,
    random_spd,
    value_function,
    wasserstein2,
    weighted_bicausal_value,
)
from awgauss import distances
from awgauss.distances import ADAPTED, _cov_sq, _frobenius_sq, _sign_rule


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return random_gaussian(dim, rng), random_gaussian(dim, rng)


def _spec_pairs(dim, seed, count=5):
    """Covariance-built pairs and pairs built with GaussianSpec.from_cholesky."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_gaussian(dim, rng), random_gaussian(dim, rng)
        yield tuple(
            GaussianSpec.from_cholesky(rng.standard_normal(dim), cholesky(random_spd(dim, rng)))
            for _ in range(2)
        )


def seed_bures_wasserstein_sq(A, B):
    """Reference: Tr A + Tr B - 2 Tr (A^{1/2} B A^{1/2})^{1/2} by eigendecompositions."""
    w, V = np.linalg.eigh(A)
    S = (V * np.sqrt(w)) @ V.T
    S = (S + S.T) / 2.0
    inner = S @ B @ S
    ev = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    return float(np.trace(A) + np.trace(B)) - 2.0 * float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))


def _rel(got, want):
    return abs(got - want) / abs(want)


def perturb_keeping_positive_diag(A, rng, start=1e-2):
    """B = A + eps*E with eps shrunk until B is PD and diag(L^T M) > 0."""
    E = rng.standard_normal(A.shape)
    E = (E + E.T) / 2.0
    eps = start * np.linalg.norm(A) / np.linalg.norm(E)
    LA = cholesky(A)
    while True:
        try:
            d = np.sum(LA * cholesky(A + eps * E), axis=0)
        except Exception:
            eps /= 2.0
            continue
        if np.all(d > 0.0):
            return A + eps * E, d
        eps /= 2.0


class TestBuresWasserstein:
    def test_identical(self):
        # the two factorizations are bitwise equal, so Q = I exactly
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert bures_wasserstein(A, A) == 0.0

    def test_diagonal_axiswise(self):
        # independent coordinates: squared distance is sum of (sqrt a - sqrt b)^2
        expected_sq = (1.0 - 3.0) ** 2 + (2.0 - 4.0) ** 2
        got = bures_wasserstein(np.diag([1.0, 4.0]), np.diag([9.0, 16.0]))
        assert got == pytest.approx(math.sqrt(expected_sq), abs=1e-12)

    def test_reflected_pair_value(self, reflected_pair):
        mu, nu = reflected_pair
        assert bures_wasserstein(mu.cov, nu.cov) == pytest.approx(1.75, abs=0.01)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bures_wasserstein(np.eye(2), np.eye(3))


class TestWasserstein2:
    def test_identical(self, reflected_pair):
        mu, _ = reflected_pair
        assert wasserstein2(mu, mu).value == 0.0

    def test_reflected_pair(self, reflected_pair):
        assert wasserstein2(*reflected_pair).value == pytest.approx(1.75, abs=0.01)

    def test_pure_mean_shift(self):
        mu = GaussianSpec([1.0, 0.0], np.eye(2))
        nu = GaussianSpec([0.0, 0.0], np.eye(2))
        rep = wasserstein2(mu, nu)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.mean_term == pytest.approx(1.0)
        assert rep.cov_term == pytest.approx(0.0, abs=1e-12)

    def test_report_invariants(self):
        mu, nu = _random_pair(3, 0)
        rep = wasserstein2(mu, nu)
        assert rep.value == pytest.approx(math.sqrt(rep.squared_value))
        assert rep.squared_value == pytest.approx(rep.mean_term + rep.cov_term)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_matches_eigendecomposition_formula(self, dim):
        # nuclear norm of L^T M against the A^{1/2} B A^{1/2} route
        for mu, nu in _spec_pairs(dim, 300 + dim):
            got = wasserstein2(mu, nu).cov_term
            assert _rel(got, seed_bures_wasserstein_sq(mu.cov, nu.cov)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 8])
    @pytest.mark.parametrize("delta, bound", [(1e-2, 2e-13), (1e-5, 1e-9), (1e-8, 1e-6)])
    def test_exact_near_coincident_laws(self, dim, delta, bound):
        # B = T A T with T = I + delta E symmetric positive definite: T pushes
        # N(0, A) to N(0, B) and is the optimal map, so W2^2 = delta^2 Tr(E A E)
        # exactly. The error left is B's rounding, about eps / delta relative;
        # the trace form Tr A + Tr B - 2||L^T M||_* read up to 1e-11, 3e-6 and
        # 3.3 on these laws, cancelling as B -> A
        for seed in range(5):
            rng = np.random.default_rng([dim, seed])
            A = random_spd(dim, rng)
            E = rng.standard_normal((dim, dim))
            E = (E + E.T) / 2.0
            T = np.eye(dim) + delta * E
            mu, nu = GaussianSpec(np.zeros(dim), A), GaussianSpec(np.zeros(dim), T @ A @ T)
            want = delta**2 * float(np.trace(E @ A @ E))
            assert _rel(wasserstein2(mu, nu).squared_value, want) <= bound, seed


class TestClamp:
    """W2 of identical laws at any covariance scale: equal factors take the
    exact polar factor ``Q = I``, so the sum of squares is exactly zero."""

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6, 1e8, 1e12])
    def test_identical_laws_at_any_scale(self, scale):
        # at x1e6 and x1e8 the old absolute clamp of 1e-9 raised on 55-58 of these
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu = GaussianSpec(np.zeros(4), scale * random_spd(4, rng))
            rep = wasserstein2(mu, mu)
            assert 0.0 <= rep.cov_term <= 1e-14 * 2.0 * float(np.trace(mu.cov))


def _copy(law):
    """The same law with a factor of its own, bitwise equal to ``law.chol``."""
    return GaussianSpec(law.mean, law.cov)


def _svd_outputs(pair):
    """Every output that reads a pair's SVD, each from the laws ``pair()`` returns."""
    rep = wasserstein2(*pair())
    T = brenier_map(*pair())
    point = geodesic_point(*pair(), 0.5, "wasserstein")
    return rep.squared_value, rep.cov_term, T.matrix.tobytes(), T.offset.tobytes(), point.cov.tobytes()


def _sign_outputs(pair):
    """Every output that reads a pair's sign triple, each from the laws ``pair()`` returns."""
    rep = aw2(*pair())
    sign = optimal_sign(*(law.chol for law in pair()))
    result = aw_map(*pair())
    cost = coupling_cost(*pair(), sign.rho)
    point = geodesic_point(*pair(), 0.5, "adapted")
    return (
        rep.squared_value, rep.cov_term, sign.rho.tobytes(), sign.diag.tobytes(), sign.free_indices,
        result.map.matrix.tobytes(), result.map.offset.tobytes(), cost, point.cov.tobytes(),
    )


_RECORDED = pytest.mark.parametrize("outputs", [_svd_outputs, _sign_outputs], ids=["svd", "signs"])


class TestPairRecord:
    """The results of one pair share its SVD of ``L^T M`` (W2, the Brenier map,
    the W curve) and its sign triple (AW2, the sign selection, the AW map, the
    coupling cost, the AW curve) through the last-pair record, keyed on the
    laws' factors."""

    def test_one_svd_for_distance_and_map(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        mu, nu = _random_pair(4, 21)
        wasserstein2(mu, nu)
        brenier_map(mu, nu)
        assert calls == [True]

    def test_one_sign_rule_per_pair(self, monkeypatch):
        # the closed forms of a benchmark pair op, weighted value aside
        calls = []
        original = distances._sign_rule
        monkeypatch.setattr(distances, "_sign_rule", lambda L, M: calls.append(1) or original(L, M))
        mu, nu = _random_pair(4, 28)
        sign = optimal_sign(mu.chol, nu.chol)
        aw2(mu, nu)
        aw_map(mu, nu)
        coupling_cost(mu, nu, sign.rho)
        geodesic_point(mu, nu, 0.5, "adapted")
        assert len(calls) == 1

    def test_sign_arrays_are_read_only(self):
        mu, nu = _random_pair(3, 29)
        sign = optimal_sign(mu.chol, nu.chol)
        assert not (sign.rho.flags.writeable or sign.diag.flags.writeable)
        with pytest.raises(ValueError):
            sign.rho[0] = -sign.rho[0]
        assert aw_map(mu, nu).sign.rho is sign.rho

    @_RECORDED
    def test_hits_equal_fresh_pairs_bitwise(self, outputs):
        (mu_a, nu_a), (mu_b, nu_b) = _random_pair(5, 22), _random_pair(5, 23)
        pairs = {"a": (mu_a, nu_a), "b": (mu_b, nu_b), "reversed a": (nu_a, mu_a)}
        # copies of the laws never meet the record's keys: each call is a miss
        fresh = {
            name: outputs(lambda mu=mu, nu=nu: (_copy(mu), _copy(nu)))
            for name, (mu, nu) in pairs.items()
        }
        for name in ("a", "b", "a", "reversed a", "a"):
            assert outputs(lambda: pairs[name]) == fresh[name], name

    @_RECORDED
    def test_threads_on_different_pairs_agree_with_one_thread(self, outputs):
        # more threads than cores, switching often, each on its own pair
        pairs = [_random_pair(8, 24 + k) for k in range(4)]
        expected = [outputs(lambda p=p: p) for p in pairs]
        start = threading.Barrier(len(pairs))
        mismatches = []

        def run(k):
            start.wait()
            for _ in range(50):
                if outputs(lambda: pairs[k]) != expected[k]:
                    mismatches.append(k)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(pairs))]
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
        assert mismatches == []

    @_RECORDED
    def test_keeps_no_law_alive(self, outputs):
        mu, nu = _random_pair(3, 26)
        outputs(lambda: (mu, nu))
        refs = weakref.ref(mu), weakref.ref(nu)
        del mu, nu
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_raw_matrices_take_their_own_svd_and_signs(self):
        # bures_wasserstein's and abw_distance's factors are writable, as are
        # factors passed to optimal_sign by the caller, not a law's: they
        # could change under a key
        mu, nu = _random_pair(3, 27)
        want = math.sqrt(wasserstein2(mu, nu).cov_term), math.sqrt(aw2(mu, nu).cov_term)
        record = distances._last_pair
        assert (bures_wasserstein(mu.cov, nu.cov), abw_distance(mu.cov, nu.cov)) == want
        sign = optimal_sign(np.array(mu.chol), np.array(nu.chol))
        assert sign.rho.tobytes() == optimal_sign(mu.chol, nu.chol).rho.tobytes()
        assert distances._last_pair is record

    def test_factor_blocks_leave_the_laws_record(self, monkeypatch):
        # the value function's tail term reads read-only views of the laws'
        # factors; a view is not recorded, so the laws' pair keeps its record
        mu, nu = _random_pair(3, 30)
        aw2(mu, nu)
        value_function(mu, nu, 1, [0.5], [-0.25])
        assert distances._last_pair[0]() is mu.chol
        assert distances._last_pair[1]() is nu.chol
        calls = []
        original = distances._sign_rule
        monkeypatch.setattr(distances, "_sign_rule", lambda L, M: calls.append(1) or original(L, M))
        aw2(mu, nu)
        assert calls == []


def _as_bytes(x):
    """Every bit of a result: arrays by their bytes, floats by their hex form."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _as_bytes(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, float):
        return float(x).hex()
    return repr(x)


def _fresh(law):
    """A law with every bit of ``law`` in arrays of its own; its factor is
    set, not recomputed, as a law built from a factor keeps that factor."""
    copy = GaussianSpec(law.mean, law.cov)
    chol = np.array(law.chol)
    chol.setflags(write=False)
    copy.__dict__["chol"] = chol
    return copy


def _pair_op(pair, factors, w):
    """The eight closed forms of a benchmark pair op, each on the laws
    ``pair()`` returns; ``factors`` gives what ``optimal_sign`` reads."""
    sign = optimal_sign(*factors(*pair()))
    outputs = (
        aw2(*pair()), kr2(*pair()), wasserstein2(*pair()), weighted_bicausal_value(*pair(), w),
        sign, aw_map(*pair()), coupling_cost(*pair(), sign.rho), geodesic_point(*pair(), 0.5, "adapted"),
    )
    return [_as_bytes(out) for out in outputs]


class TestFastPathsAreBitwise:
    """A pair op on the laws' gated factors, through the pair record, gives
    the bits of the same calls made on fresh copies: fresh laws for every
    call (so the record never hits) and writable factors for the sign rule
    (so the factor gate scans them in full)."""

    @staticmethod
    def _check(mu, nu, w):
        recorded = _pair_op(lambda: (mu, nu), lambda *laws: (law.chol for law in laws), w)
        fresh = _pair_op(
            lambda: (_fresh(mu), _fresh(nu)), lambda *laws: (np.array(law.chol) for law in laws), w
        )
        assert recorded == fresh
        assert _pair_op(lambda: (mu, nu), lambda *laws: (law.chol for law in laws), w) == fresh

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_random_pairs(self, dim):
        rng = np.random.default_rng(90 + dim)
        for mu, nu in _spec_pairs(dim, 95 + dim, count=3):
            self._check(mu, nu, rng.uniform(0.5, 2.0, dim))

    def test_exact_tie_with_integer_factors(self, tied_pair):
        mu, nu = tied_pair
        assert optimal_sign(mu.chol, nu.chol).free_indices == (1,)
        self._check(mu, nu, np.array([0.5, 2.0]))

    def test_aw_map_sign_is_the_sign_selection(self):
        mu, nu = _random_pair(4, 31)
        sign = optimal_sign(mu.chol, nu.chol)
        assert _as_bytes(aw_map(mu, nu).sign) == _as_bytes(sign)
        assert aw_map(mu, nu).sign is sign  # one SignSelection per pair record
        fresh = optimal_sign(np.array(mu.chol), np.array(nu.chol))
        assert _as_bytes(aw_map(mu, nu).sign) == _as_bytes(fresh)


class TestKrDistance:
    def test_identical(self):
        A = random_spd(3, np.random.default_rng(1))
        assert kr_distance(A, A) == 0.0

    def test_reflected_pair(self, reflected_pair):
        mu, nu = reflected_pair
        assert kr_distance(mu.cov, nu.cov) == pytest.approx(4.0, abs=1e-12)
        assert kr2(mu, nu).value == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_two_expressions_agree(self, dim):
        # Frobenius and trace forms of the same quantity
        rng = np.random.default_rng(dim)
        for _ in range(30):
            A, B = random_spd(dim, rng), random_spd(dim, rng)
            L, M = cholesky(A), cholesky(B)
            frob_sq = kr_distance(A, B) ** 2
            trace_sq = np.trace(A) + np.trace(B) - 2.0 * np.trace(L.T @ M)
            assert abs(frob_sq - trace_sq) <= 1e-9 * max(1.0, abs(trace_sq))

    def test_identical_specs_exactly_zero(self):
        for mu, _ in _spec_pairs(4, 11, count=3):
            rep = kr2(mu, mu)
            assert rep.squared_value == 0.0 and rep.value == 0.0

    def test_cholesky_isometry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            A, B = random_spd(3, rng), random_spd(3, rng)
            assert kr_distance(A, B) == float(np.linalg.norm(cholesky(A) - cholesky(B)))


class TestAbwDistance:
    def test_identical(self):
        A = random_spd(4, np.random.default_rng(2))
        assert abw_distance(A, A) == 0.0

    def test_identical_specs_exactly_zero(self):
        for mu, _ in _spec_pairs(4, 12, count=3):
            rep = aw2(mu, mu)
            assert rep.squared_value == 0.0 and rep.value == 0.0

    def test_reflected_pair(self, reflected_pair):
        mu, nu = reflected_pair
        assert abw_distance(mu.cov, nu.cov) == pytest.approx(2.0, abs=1e-12)
        assert aw2(mu, nu).value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_relation_to_kr_through_negative_diagonal(self, dim):
        rng = np.random.default_rng(dim + 40)
        for _ in range(100):
            A, B = random_spd(dim, rng), random_spd(dim, rng)
            d = np.sum(cholesky(A) * cholesky(B), axis=0)
            neg = np.sum(np.abs(d[d < 0.0]))
            lhs = abw_distance(A, B) ** 2
            rhs = kr_distance(A, B) ** 2 - 4.0 * neg
            assert abs(lhs - rhs) <= 1e-9

    def test_near_tie_value_is_cost_of_reported_coupling(self):
        # diag(L^T M)_1 = -1e-14 lies inside the tie band: the value, the
        # signs and the free indices must all come from the same rule
        L = np.array([[1.0, 0.0], [1.0, 1.0]])
        M = np.array([[1.0, 0.0], [-1.0 - 1e-14, 1.0]])
        mu = GaussianSpec.from_cholesky(np.zeros(2), L)
        nu = GaussianSpec.from_cholesky(np.zeros(2), M)
        sign = optimal_sign(L, M)
        assert sign.free_indices == (1,)
        value = aw2(mu, nu).squared_value
        residual = (L - M * sign.rho[None, :]).ravel()
        assert value == float(residual @ residual)
        assert _rel(value, coupling_cost(mu, nu, sign.rho)) <= 1e-15

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            A, B = random_spd(3, rng), random_spd(3, rng)
            assert abs(abw_distance(A, B) - abw_distance(B, A)) <= 1e-9
            assert abw_distance(A, B) > 0.0

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            A, B, C = (random_spd(3, rng) for _ in range(3))
            assert abw_distance(A, C) <= abw_distance(A, B) + abw_distance(B, C) + 1e-9


class TestStackedSignRule:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_stack_matches_single_pairs(self, dim):
        rng = np.random.default_rng(60 + dim)
        L, M = cholesky(random_spd(dim, rng, (2, 6)))
        if dim == 2:
            # an exact tie, diag(L^T M)_1 = 0, in one slice
            L[3] = [[1.0, 0.0], [1.0, 1.0]]
            M[3] = [[1.0, 0.0], [-1.0, 1.0]]
        d, rho, free = _sign_rule(L, M)
        values = _cov_sq(ADAPTED, L, M)
        assert values.shape == d.shape[:-1] == (6,)
        for k in range(6):
            d_k, rho_k, free_k = _sign_rule(L[k], M[k])
            np.testing.assert_array_equal(d[k], d_k)
            np.testing.assert_array_equal(rho[k], rho_k)
            np.testing.assert_array_equal(free[k], free_k)
            assert values[k] == _cov_sq(ADAPTED, L[k], M[k])
        if dim == 2:
            assert free[3].tolist() == [True, False] and values[3] == 4.0


def _old_sign_rule_rho(L, M):
    """The sign rule written as ``free | d > 0``, on the band of :func:`_sign_rule`."""
    d = np.sum(L * M, axis=-2)
    band = distances.FREE_TOL * np.sqrt(_frobenius_sq(L) * _frobenius_sq(M))
    free = np.abs(d) <= band[..., None]
    return np.where(free | (d > 0.0), 1.0, -1.0)


def _free_tol_putting_band_at(L, M, target):
    """A ``FREE_TOL`` whose band ``FREE_TOL * ||L||_F ||M||_F`` is exactly ``target``."""
    norms = np.sqrt(_frobenius_sq(L) * _frobenius_sq(M))
    tol = target / norms
    for _ in range(8):
        if tol * norms == target:
            return tol
        tol = np.nextafter(tol, np.inf if tol * norms < target else -np.inf)
    pytest.skip("no float FREE_TOL puts the band exactly on d_t")


class TestLeanSignRule:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_stacks_and_broadcast_pairs(self, dim):
        rng = np.random.default_rng(90 + dim)
        L, M = (cholesky(random_spd(dim, rng, (2, 5))) for _ in range(2))
        if dim == 2:
            L[1, 2] = [[1.0, 0.0], [1.0, 1.0]]  # exact tie, d_1 = 0
            M[1, 2] = [[1.0, 0.0], [-1.0, 1.0]]
        for left, right in ((L, M), (L[0, 0], M), (L, M[1, 3]), (L[0, 1], M[0, 1])):
            _, rho, free = _sign_rule(left, right)
            old = _old_sign_rule_rho(left, right)
            assert rho.shape == old.shape
            assert rho.tobytes() == old.tobytes()
        if dim == 2:
            assert _sign_rule(L, M)[2][1, 2].tolist() == [True, False]

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_d_exactly_on_the_band(self, monkeypatch, side):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L, M = cholesky(random_spd(3, rng, (2,)))
            d = np.sum(L * M, axis=0)
            t = int(np.argmin(np.abs(d[:-1]) if side > 0 else d[:-1]))
            if np.sign(d[t]) == side:
                break
        monkeypatch.setattr(distances, "FREE_TOL", _free_tol_putting_band_at(L, M, abs(d[t])))
        _, rho, free = _sign_rule(L, M)
        assert free[t] and rho[t] == 1.0  # the band is closed: |d_t| == band is free
        assert rho.tobytes() == _old_sign_rule_rho(L, M).tobytes()
        # one ulp outside the band, d_t decides
        monkeypatch.setattr(distances, "FREE_TOL", np.nextafter(distances.FREE_TOL, 0.0))
        _, rho, free = _sign_rule(L, M)
        if abs(d[t]) > distances.FREE_TOL * np.sqrt(_frobenius_sq(L) * _frobenius_sq(M)):
            assert not free[t] and rho[t] == side
        assert rho.tobytes() == _old_sign_rule_rho(L, M).tobytes()


class TestSpecLevelMatchesMatrixLevel:
    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_cov_terms_agree(self, dim):
        for mu, nu in _spec_pairs(dim, 200 + dim):
            for spec_level, matrix_level in (
                (aw2, abw_distance),
                (kr2, kr_distance),
                (wasserstein2, bures_wasserstein),
            ):
                got = spec_level(mu, nu).cov_term
                assert _rel(got, matrix_level(mu.cov, nu.cov) ** 2) <= 1e-12

    def test_not_positive_definite_spec_raises(self):
        good = GaussianSpec(np.zeros(2), np.eye(2))
        bad = GaussianSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        for fn in (aw2, kr2, wasserstein2, brenier_map):
            for pair in ((bad, good), (good, bad)):
                with pytest.raises(NotPositiveDefinite):
                    fn(*pair)

    def test_one_factorization_per_law(self, monkeypatch):
        calls = {"cholesky": 0, "eigh": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        rng = np.random.default_rng(5)
        mu = GaussianSpec(rng.standard_normal(4), random_spd(4, rng))
        nu = GaussianSpec(rng.standard_normal(4), random_spd(4, rng))
        aw2(mu, nu)
        kr2(mu, nu)
        wasserstein2(mu, nu)
        weighted_bicausal_value(mu, nu, np.arange(1.0, 5.0))
        aw_map(mu, nu)
        brenier_map(mu, nu)
        assert calls == {"cholesky": 2, "eigh": 0}


class TestOrdering:
    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_w2_le_aw2_le_kr2(self, dim):
        for seed in range(40):
            mu, nu = _random_pair(dim, 1000 * dim + seed)
            w = wasserstein2(mu, nu).value
            a = aw2(mu, nu).value
            k = kr2(mu, nu).value
            assert w <= a + 1e-9
            assert a <= k + 1e-9

    def test_scalar_collapse(self):
        # one-dimensional laws: the causality constraint is vacuous
        for seed in range(50):
            mu, nu = _random_pair(1, seed)
            a = aw2(mu, nu).squared_value
            w = wasserstein2(mu, nu).squared_value
            assert abs(a - w) <= 1e-12 * max(1.0, a)


class TestKrOptimalityCondition:
    def test_nonnegative_diagonal_collapses_aw_to_kr(self):
        rng = np.random.default_rng(21)
        found = 0
        while found < 50:
            mu, nu = random_gaussian(3, rng), random_gaussian(3, rng)
            if np.all(optimal_sign(mu.chol, nu.chol).diag >= 0.0):
                found += 1
                assert abs(aw2(mu, nu).squared_value - kr2(mu, nu).squared_value) <= 1e-9

    def test_small_perturbations_keep_condition(self):
        # near the diagonal of the product space the two distances agree
        rng = np.random.default_rng(22)
        for _ in range(100):
            A = random_spd(3, rng)
            B, d = perturb_keeping_positive_diag(A, rng)
            assert np.all(d > 0.0)
            mu = GaussianSpec(rng.standard_normal(3), A)
            nu = GaussianSpec(rng.standard_normal(3), B)
            assert abs(aw2(mu, nu).squared_value - kr2(mu, nu).squared_value) <= 1e-9


class TestWeightedValue:
    def test_unit_weights_reduce_to_aw2(self):
        for seed in range(20):
            mu, nu = _random_pair(3, seed + 500)
            assert weighted_bicausal_value(mu, nu, np.ones(3)) == pytest.approx(
                aw2(mu, nu).squared_value, abs=1e-12
            )

    def test_reflected_pair_unit_weights(self, reflected_pair):
        assert weighted_bicausal_value(*reflected_pair, [1.0, 1.0]) == pytest.approx(4.0)

    def test_reflected_pair_weighted_closed_form(self, reflected_pair):
        # per-time terms: Tr(L^T W L) = Tr(M^T W M) = 2 + 5 = 7,
        # diag(L^T W M) = (-2, 1), so value = 7 + 7 - 2 * 3 = 8
        mu, nu = reflected_pair
        value = weighted_bicausal_value(mu, nu, [2.0, 1.0])
        assert value == pytest.approx(8.0, abs=1e-12)
        # independent route: simulate with the matching sign correlations
        sign = optimal_sign(mu.chol, nu.chol, weights=[2.0, 1.0])
        np.testing.assert_array_equal(sign.rho, [-1.0, 1.0])
        mc = monte_carlo_cost(mu, nu, sign.rho, 200_000, seed=3, weights=[2.0, 1.0])
        assert abs(mc.estimate - value) <= 4.0 * mc.standard_error

    def test_rejects_nonpositive_weights(self, reflected_pair):
        with pytest.raises(NonPositiveWeight):
            weighted_bicausal_value(*reflected_pair, [1.0, 0.0])


class TestIncompleteness:
    def test_equal_angles_vanish(self):
        for n in (1, 10, 100):
            value = incompleteness_limit(math.pi / 4, math.pi / 4, n)
            assert value.finite_n_value == pytest.approx(0.0, abs=1e-12)
            assert value.limit_value == pytest.approx(0.0, abs=1e-15)

    def test_right_angle_vs_quarter_angle(self):
        value = incompleteness_limit(math.pi / 2, math.pi / 4, 1000)
        assert value.limit_value == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)
        assert value.finite_n_value == pytest.approx(value.limit_value, abs=0.01)

    def test_members_are_cauchy(self):
        theta = 1.1
        for n, m in [(10, 100), (10, 1000), (100, 1000)]:
            d = aw2(incompleteness_member(theta, n), incompleteness_member(theta, m)).value
            assert d <= math.sqrt(2.0) * abs(1.0 / n - 1.0 / m) + 1e-9

    def test_angle_bounds(self):
        for bad in (0.0, math.pi, -0.3, 4.0):
            with pytest.raises(BadAngle):
                incompleteness_limit(bad, math.pi / 4, 10)
            with pytest.raises(BadAngle):
                incompleteness_limit(math.pi / 4, bad, 10)
