"""Checks of the reference computations in `_oracles` that other tests trust."""

import numpy as np
import pytest

from gegwalk.gegenbauer import HypergroupIndex
from gegwalk.hypergroup import (
    GegenbauerKernel,
    SparseMeasure,
    n_step,
    return_probabilities,
)

from _oracles import (
    exact_return_probabilities,
    reflected_return_probability,
    unit_step_mean_visits,
)


def test_exact_returns_unit_step_is_reflected_walk():
    # at index -1/2 the unit-step walk is the reflected simple walk:
    # p^(2m)(0,0) = C(2m, m)/4^m, and odd horizons never return
    n = 400
    r, dropped = exact_return_probabilities(-0.5, n, 1.0, 0.0)
    expected = np.array(
        [reflected_return_probability(k // 2) if k % 2 == 0 else 0.0 for k in range(n + 1)]
    )
    assert dropped <= 1e-12
    np.testing.assert_allclose(r, expected, rtol=1e-14, atol=0.0)


def test_exact_returns_mixed_step_matches_n_step():
    n = 300
    r, dropped = exact_return_probabilities(-0.25, n, 0.5, 0.5)
    kernel = GegenbauerKernel(HypergroupIndex(-0.25), SparseMeasure({1: 0.5, 2: 0.5}))
    expected = np.array([n_step(kernel, 0, k)[0] for k in range(n + 1)])
    assert dropped <= 1e-12
    assert float(np.max(np.abs(r - expected))) <= 1e-15


@pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0])
def test_unit_step_mean_visits_matches_kernel_sums(alpha):
    # E N_k(0) = r_0 + ... + r_k at every horizon k <= n
    n = 2000
    kernel = GegenbauerKernel(HypergroupIndex(alpha), SparseMeasure({1: 1.0}))
    r, _ = return_probabilities(kernel, 0, 0, n)
    expected = np.array([unit_step_mean_visits(alpha, k) for k in range(n + 1)])
    np.testing.assert_allclose(expected, np.cumsum(r), rtol=1e-12, atol=0.0)
