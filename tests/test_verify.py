import numpy as np
import pytest

from awgauss.verify import _global_checks


@pytest.mark.parametrize("dim, triples", [(2, 5), (3, 7)])
def test_global_checks_factor_each_matrix_once(monkeypatch, dim, triples):
    factored = []  # matrices per call: a stacked call factors several
    original = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    (result,) = _global_checks(dim, 1.0, np.random.default_rng(0), triples=triples)
    assert result.name == "abw_triangle_inequality" and result.passed
    assert sum(factored) == 3 * triples
