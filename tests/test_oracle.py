import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import ndtri, roots_hermitenorm

from awgauss import (
    BadParameter,
    BadSplit,
    DimensionMismatch,
    GaussianSpec,
    NonFiniteValue,
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
from awgauss.distances import ADAPTED, _cov_sq
from awgauss import oracle
from awgauss.oracle import _hermite_rule


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return random_gaussian(dim, rng), random_gaussian(dim, rng)


def _block_cases():
    """(N, n) pairs around the Monte Carlo sample blocks: the sample floor, the
    fewest whole blocks at or above it (exactly one block up to N = 16), one
    sample more, and up to N = 16 a large n that is no multiple of any block."""
    cases = []
    for dim in (1, 2, 3, 7, 8, 9, 16, 64, 130):
        rows = oracle._BLOCK_ENTRIES // dim
        whole = -(-oracle.MIN_MC_SAMPLES // rows) * rows
        cases += [(dim, oracle.MIN_MC_SAMPLES), (dim, whole), (dim, whole + 1)]
        if dim <= 16:
            cases.append((dim, 123_457))
    return cases


@pytest.fixture
def drawn_shapes(monkeypatch):
    """Shapes of every ``standard_normal`` draw, in order; the double takes
    only ``shape``, so a draw with ``out=`` would fail."""
    shapes = []
    make = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self._rng = make(seed)

        def standard_normal(self, shape):
            shapes.append(shape)
            return self._rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    return shapes


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
        rep = dpp_recursion_check(mu, nu, 0, [], [])
        assert abs(rep.one_step_value - 4.0) <= 1e-3
        assert rep.abs_error <= 1e-9

    def test_negative_alpha_prefers_countermonotone(self, reflected_pair):
        mu, nu = reflected_pair
        rep = dpp_recursion_check(mu, nu, 0, [], [])
        assert rep.alpha_next < 0.0
        assert rep.countermonotone_value < rep.comonotone_value - 1e-6
        assert rep.one_step_value == rep.countermonotone_value

    def test_positive_alpha_prefers_comonotone(self, reflected_pair):
        mu, nu = reflected_pair
        rep = dpp_recursion_check(mu, nu, 1, [0.5], [-0.4])
        assert rep.alpha_next > 0.0
        assert rep.comonotone_value < rep.countermonotone_value - 1e-6
        assert rep.one_step_value == rep.comonotone_value

    def test_equal_laws_equal_pasts_vanish(self):
        mu, _ = _random_pair(3, 5)
        for t in range(3):
            x = np.full(t, 0.3)
            rep = dpp_recursion_check(mu, mu, t, x, x)
            assert rep.value == pytest.approx(0.0, abs=1e-12)
            assert rep.one_step_value == pytest.approx(0.0, abs=1e-10)

    def test_fixpoint_over_random_instances(self):
        for seed in range(10):
            mu, nu = _random_pair(4, 300 + seed)
            rng = np.random.default_rng(seed)
            for t in range(4):
                x = rng.standard_normal(t)
                y = rng.standard_normal(t)
                rep = dpp_recursion_check(mu, nu, t, x, y)
                assert rep.abs_error <= 1e-9 * (1.0 + rep.value)

    def test_quadrature_rule_is_cached_read_only_and_unchanged(self):
        z, w = roots_hermitenorm(64)
        w = w / w.sum()
        cached = _hermite_rule()
        assert _hermite_rule() is cached
        assert np.array_equal(cached[0], z) and np.array_equal(cached[1], w)
        assert not cached[0].flags.writeable and not cached[1].flags.writeable

    def test_parameter_validation(self, reflected_pair):
        mu, nu = reflected_pair
        with pytest.raises(BadSplit):
            dpp_recursion_check(mu, nu, 2, [0.0, 0.0], [0.0, 0.0])


class TestRecursionCheckGatesOnce:
    """``dpp_recursion_check`` validates through ``value_function`` and adds only its own rules."""

    def test_one_split_check_per_call(self, monkeypatch):
        calls = []
        original = oracle.check_split

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "check_split", counting)
        mu, nu = _random_pair(3, 11)
        for t in range(3):
            calls.clear()
            dpp_recursion_check(mu, nu, t, np.full(t, 0.2), np.full(t, -0.1))
            assert len(calls) == 1

    @pytest.mark.parametrize(
        "t, past, error",
        [
            (2, 2, BadSplit),  # t = N
            (3, 3, BadSplit),  # t outside [0, N]
            (1, 2, DimensionMismatch),  # past of the wrong length
        ],
    )
    def test_each_singly_invalid_argument_keeps_its_error(self, reflected_pair, t, past, error):
        mu, nu = reflected_pair
        with pytest.raises(error):
            dpp_recursion_check(mu, nu, t, np.zeros(past), np.zeros(past))

    def test_dimension_mismatch_keeps_its_error(self, reflected_pair):
        mu, _ = reflected_pair
        with pytest.raises(DimensionMismatch):
            dpp_recursion_check(mu, random_gaussian(3, np.random.default_rng(0)), 0, [], [])


class TestPastAtTheRoot:
    """At ``t = 0`` the past is validated like at every other split."""

    @pytest.mark.parametrize(
        "past, error",
        [([5.0, 6.0, 7.0], DimensionMismatch), ([np.nan], NonFiniteValue)],
        ids=["wrong-length", "nan"],
    )
    @pytest.mark.parametrize("check", [value_function, dpp_recursion_check])
    def test_bad_past_raises(self, reflected_pair, check, past, error):
        mu, nu = reflected_pair
        with pytest.raises(error):
            check(mu, nu, 0, past, [])
        with pytest.raises(error):
            check(mu, nu, 0, [], past)


class TestGeneralPathsAtTheEnds:
    """The general formulas on empty blocks give bitwise what the special
    cases they replaced gave; each old formula is written out here."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_terminal_value_is_the_past_cost(self, dim):
        mu, nu = _random_pair(dim, 600 + dim)
        rng = np.random.default_rng(dim)
        X, Y = rng.standard_normal((7, dim)), rng.standard_normal((7, dim))
        old = np.sum((X - Y) ** 2, axis=1)
        np.testing.assert_array_equal(oracle._value_fn(mu, nu, dim)(X, Y), old)
        assert value_function(mu, nu, dim, X[0], Y[0]).value == float(old[0])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_quantile_tree_root_is_the_first_marginal(self, dim):
        spec = _random_pair(dim, 700 + dim)[0]
        z = ndtri((np.arange(5) + 0.5) / 5)
        a, S = spec.mean, spec.cov
        old = np.full(1, a[0])[:, None] + math.sqrt(max(float(S[0, 0]), 0.0)) * z[None, :]
        np.testing.assert_array_equal(oracle._quantile_tree(spec, z)[1][0], old)

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_single_step_past_table_is_zero(self, monkeypatch, m):
        tables = []
        original = oracle.cdist

        def recording(*args, **kwargs):
            tables.append(original(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(oracle, "cdist", recording)
        dpp_solve_discrete(*_random_pair(1, 800 + m), m)
        (table,) = tables
        np.testing.assert_array_equal(table, np.zeros((1, 1)))
        assert not np.signbit(table).any()


class TestDiscreteSolver:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("samples", [0, 1, 8])
    def test_assignment_solves_per_step(self, monkeypatch, dim, samples):
        # `samples` on each of the N - 1 non-root steps, plus one at the root
        calls = []
        original = oracle._assignment_value

        def counting(cost):
            calls.append(cost.shape)
            return original(cost)

        monkeypatch.setattr(oracle, "_assignment_value", counting)
        monkeypatch.setattr(oracle, "_ASSIGNMENT_SAMPLES", samples)
        mu, nu = _random_pair(dim, 20 + dim)
        dpp_solve_discrete(mu, nu, 4, seed=3)
        assert len(calls) == 1 + samples * (dim - 1)
        assert set(calls) == {(4, 4)}

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

    def test_assignment_never_improves_on_pairings(self, monkeypatch):
        for seed in range(5):
            mu, nu = _random_pair(2, 400 + seed)
            monkeypatch.setattr(oracle, "_ASSIGNMENT_SAMPLES", 0)
            v_plain = dpp_solve_discrete(mu, nu, 60)
            monkeypatch.setattr(oracle, "_ASSIGNMENT_SAMPLES", 64)
            v_checked = dpp_solve_discrete(mu, nu, 60, seed=seed)
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
        # the node floor comes first at every horizon, the supported ones and
        # the refused N = 4 alike
        for dim, seed in ((1, 13), (2, 11), (3, 10), (4, 9)):
            mu_d, nu_d = _random_pair(dim, seed)
            for m in (1, 0, -2):
                with pytest.raises(BadParameter, match="points_per_dim must be >= 2"):
                    dpp_solve_discrete(mu_d, nu_d, m)


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

    @pytest.mark.parametrize("rho", [[-1.0, 1.0], [0.3, -0.2]])
    def test_far_from_unit_scale(self, reflected_pair, rho):
        # covariances scaled by 2^530 (about 3.5e159): the costs scale by
        # exactly that power of two, and so do estimate and standard error,
        # although the squared spread of the costs would overflow
        mu, nu = reflected_pair
        unit = monte_carlo_cost(mu, nu, rho, 20_000, seed=4)
        huge = monte_carlo_cost(*(GaussianSpec(s.mean, np.ldexp(s.cov, 530)) for s in (mu, nu)), rho, 20_000, seed=4)
        assert huge.estimate == math.ldexp(unit.estimate, 530)
        assert huge.standard_error == math.ldexp(unit.standard_error, 530)

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
        cost = (sq * w).sum(axis=1) if weighted else sq.sum(axis=1)
        assert got.estimate == float(cost.mean())
        assert got.standard_error == float(cost.std(ddof=1) / math.sqrt(n))

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 16, 64, 130])
    @pytest.mark.parametrize("kind", ["unit", "interior"])
    def test_weighted_within_1e_15_of_the_matrix_vector_form(self, dim, kind):
        # weights scale each time row before the block's sum, which a
        # matrix-vector product sq @ w orders differently: the last bit or two
        rng = np.random.default_rng(1700 + dim)
        mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
        rho = np.ones(dim) if kind == "unit" else rng.uniform(-1.0, 1.0, dim)
        w = rng.uniform(0.5, 2.0, dim)
        got = monte_carlo_cost(mu, nu, rho, 20_000, seed=19, weights=w)
        draws = np.random.default_rng(19)
        eps_x = draws.standard_normal((20_000, dim))
        xi = draws.standard_normal((20_000, dim))
        eps_y = rho * eps_x + np.sqrt(1.0 - rho**2) * xi
        X = mu.mean + eps_x @ mu.chol.T
        Y = nu.mean + eps_y @ nu.chol.T
        cost = ((X - Y) ** 2) @ w
        assert got.estimate == pytest.approx(float(cost.mean()), rel=1e-15, abs=0.0)
        assert got.standard_error == pytest.approx(
            float(cost.std(ddof=1) / math.sqrt(20_000)), rel=1e-15, abs=0.0
        )

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

    @pytest.mark.parametrize("kind", ["interior", "mixed_signs", "ones"])
    @pytest.mark.parametrize("dim", [7, 8, 9, 16, 64, 130])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_time_major_bitwise_across_the_sum_blocks(
        self, out_of_place_monte_carlo, kind, dim, weighted
    ):
        # dims on both sides of numpy's 8-term summation block and its 128-term
        # split; unweighted interior rho at N = 16 tells a sum over the time
        # rows from the sample-major sum in the last bit of the standard error
        rng = np.random.default_rng(900 + dim)
        mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
        rho = {
            "interior": rng.uniform(-1.0, 1.0, dim),
            "mixed_signs": np.where(np.arange(dim) % 2, 1.0, -1.0),
            "ones": np.ones(dim),
        }[kind]
        w = rng.uniform(0.5, 2.0, dim) if weighted else None
        got = monte_carlo_cost(mu, nu, rho, 20_000, seed=5, weights=w)
        assert got == out_of_place_monte_carlo(mu, nu, rho, 20_000, 5, weights=w)

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

    @pytest.mark.parametrize("kind", ["sign_rule", "ones", "one_interior", "interior"])
    @pytest.mark.parametrize("dim, n", _block_cases())
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_across_sample_blocks(self, out_of_place_monte_carlo, kind, dim, n, weighted):
        rng = np.random.default_rng(1300 + dim)
        mu, nu = random_gaussian(dim, rng), random_gaussian(dim, rng)
        signs = np.where(np.arange(dim) % 2, 1.0, -1.0)
        rho = {
            "sign_rule": optimal_sign(mu.chol, nu.chol).rho,
            "ones": np.ones(dim),
            "one_interior": np.where(np.arange(dim) == dim // 2, 0.3, signs),
            "interior": rng.uniform(-1.0, 1.0, dim),
        }[kind]
        w = rng.uniform(0.5, 2.0, dim) if weighted else None
        got = monte_carlo_cost(mu, nu, rho, n, seed=17, weights=w)
        assert got == out_of_place_monte_carlo(mu, nu, rho, n, 17, weights=w)

    @pytest.mark.parametrize("rho", [[1.0, -1.0], [1.0, 0.5]])
    @pytest.mark.parametrize("weights", [None, [2.0, 1.0]])
    def test_row_blocks_continue_the_stream(self, reflected_pair, drawn_shapes, rho, weights):
        # with every |rho_t| = 1 the one draw of eps_x is taken in row blocks;
        # otherwise eps_x comes whole, as xi follows all of it, and xi in row blocks
        n = 100_000
        monte_carlo_cost(*reflected_pair, rho, n, seed=0, weights=weights)
        whole = [] if np.all(np.abs(rho) == 1.0) else [(n, 2)]
        assert drawn_shapes[: len(whole)] == whole
        blocks = drawn_shapes[len(whole):]
        assert len(blocks) > 1
        assert all(cols == 2 for _, cols in blocks)
        assert sum(rows for rows, _ in blocks) == n

    @pytest.mark.parametrize(
        "rho, limit_mb", [([1.0, -1.0, 1.0], 3.0), ([0.3, -0.5, 1.0], 6.0)]
    )
    @pytest.mark.parametrize("weights", [None, [2.0, 1.0, 0.5]])
    def test_peak_memory_is_the_samples_plus_a_block(self, rho, limit_mb, weights):
        # one (n, N) array is 2.4 MB here; the whole-sample form held several
        # (8.8 MB with |rho_t| = 1, 11.2 MB with an interior rho_t), and a
        # gathered (n, N) copy for weighted costs read 4.1 and 6.8 MB
        mu, nu = _random_pair(3, 31)
        mu.chol, nu.chol
        tracemalloc.start()
        try:
            monte_carlo_cost(mu, nu, rho, 100_000, seed=0, weights=weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6


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
    return value + float(np.sum((cmx - cmy) ** 2)) + _cov_sq(ADAPTED, L[t:, t:], M[t:, t:])


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

            rep = dpp_recursion_check(mu, nu, t, x, y)
            assert rep.value == pytest.approx(_scipy_value(mu, nu, t, x, y), rel=1e-13)
            assert rep.comonotone_value == pytest.approx(one_step(1.0), rel=1e-13)
            assert rep.countermonotone_value == pytest.approx(one_step(-1.0), rel=1e-13)
