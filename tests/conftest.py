import collections
import math

import numpy as np
import pytest

from awgauss import GaussianSpec
from awgauss.oracle import MonteCarloEstimate


@pytest.fixture
def reflected_pair():
    """Centered pair whose optimal per-time signs are (-1, +1).

    diag(L^T M) = (-3, 1): the synchronous coupling is strictly suboptimal
    and the adapted-optimal map reflects the first coordinate.
    """
    mu = GaussianSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 5.0]]))
    nu = GaussianSpec(np.zeros(2), np.array([[1.0, -2.0], [-2.0, 5.0]]))
    return mu, nu


@pytest.fixture
def tied_pair():
    """Centered pair with diag(L^T M) = (0, 1): the optimum is not unique.

    Factors [[1,0],[1,1]] and [[1,0],[-1,1]]; the time-1 correlation is a
    free direction of the cost.
    """
    mu = GaussianSpec.from_cholesky(np.zeros(2), np.array([[1.0, 0.0], [1.0, 1.0]]))
    nu = GaussianSpec.from_cholesky(np.zeros(2), np.array([[1.0, 0.0], [-1.0, 1.0]]))
    return mu, nu


def _out_of_place_monte_carlo(mu, nu, rho, n, seed, *, weights=None):
    """The correlated-noise construction written out with temporaries.

    It always draws ``xi`` after ``eps_x``, also when every ``|rho_t| = 1``
    multiplies it by zero.
    """
    rho = np.asarray(rho, dtype=float)
    draws = np.random.default_rng(seed)
    eps_x = draws.standard_normal((n, mu.dim))
    xi = draws.standard_normal((n, mu.dim))
    eps_y = rho * eps_x + np.sqrt(1.0 - rho**2) * xi
    X = mu.mean + eps_x @ mu.chol.T
    Y = nu.mean + eps_y @ nu.chol.T
    sq = (X - Y) ** 2
    cost = (sq if weights is None else sq * np.asarray(weights, dtype=float)).sum(axis=1)
    return MonteCarloEstimate(
        estimate=float(cost.mean()), standard_error=float(cost.std(ddof=1) / math.sqrt(n))
    )


@pytest.fixture
def out_of_place_monte_carlo():
    """Reference for ``monte_carlo_cost``, with the same signature."""
    return _out_of_place_monte_carlo


def _conditioned_law(dim, kappa, rng):
    """A law whose covariance has eigenvalues log-spaced from 1 to ``kappa``
    in a random orthonormal basis, and a standard normal mean."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = (Q * np.logspace(0.0, math.log10(kappa), dim)) @ Q.T
    return GaussianSpec(rng.standard_normal(dim), cov)


@pytest.fixture
def conditioned_law():
    """``(dim, kappa, rng) -> GaussianSpec`` with ``kappa(cov) = kappa``.

    A pair of such laws at ``dim >= 16`` takes W's eigh route at
    ``kappa = 2`` and its SVD fallback at ``kappa = 1e8``.
    """
    return _conditioned_law


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the ``np.linalg`` cholesky, eigh and svd calls made after set-up."""
    calls = collections.Counter()
    for name in ("cholesky", "eigh", "svd"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls
