"""Tests for polynomial evaluation, weights, and linearization rows."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from gegwalk.gegenbauer import HypergroupIndex, _poly_apply, linearization, weight
from gegwalk.hypergroup import GegenbauerKernel, SparseMeasure, n_step

import _oracles as orc
from _oracles import eval_poly_table

alphas = st.floats(min_value=-0.5, max_value=3.0)


class TestHypergroupIndex:
    def test_alpha_floor(self):
        with pytest.raises(ValueError):
            HypergroupIndex(-0.51)
        with pytest.raises(ValueError):
            HypergroupIndex(float("nan"))


class TestEvalPoly:
    # the recurrence in value space, through the tests' eval_poly_table
    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0, 1.5])
    @pytest.mark.parametrize("x", [-1.0, -0.3, 0.0, 0.7, 1.0])
    def test_base_cases(self, alpha, x):
        table = eval_poly_table(HypergroupIndex(alpha), 1, np.array([x]))
        assert table[0, 0] == 1.0
        assert table[1, 0] == x

    def test_chebyshev_cosine_identity(self):
        # at alpha = -1/2 the recurrence is the cosine addition law
        idx = HypergroupIndex(-0.5)
        thetas = np.linspace(0.0, math.pi, 1000)
        table = eval_poly_table(idx, 200, np.cos(thetas))
        ref = np.cos(np.outer(np.arange(201), thetas))
        assert np.abs(table - ref).max() < 1e-10

    @pytest.mark.parametrize("alpha", [-0.5, -0.1, 0.4, 2.0])
    def test_degree_two_closed_form(self, alpha):
        xs = np.array([-0.8, 0.1, 0.99])
        got = eval_poly_table(HypergroupIndex(alpha), 2, xs)[2]
        for x, p2 in zip(xs, got):
            ref = ((2 * alpha + 3) * x * x - 1.0) / (2 * alpha + 2)
            assert p2 == pytest.approx(ref, abs=1e-14)

    @given(alphas, st.integers(min_value=0, max_value=120), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80)
    def test_parity(self, alpha, n, x):
        table = eval_poly_table(HypergroupIndex(alpha), n, np.array([-x, x]))
        assert table[n, 0] == pytest.approx((-1) ** n * table[n, 1], abs=1e-12)

    @given(alphas, st.integers(min_value=0, max_value=300))
    @settings(max_examples=80)
    def test_endpoint_one(self, alpha, n):
        table = eval_poly_table(HypergroupIndex(alpha), n, np.array([1.0]))
        assert table[n, 0] == pytest.approx(1.0, abs=1e-10)

    @given(
        st.floats(min_value=-0.49, max_value=3.0),
        st.integers(min_value=1, max_value=150),
        st.floats(min_value=-0.999, max_value=0.999),
    )
    @settings(max_examples=120)
    def test_strict_interior_bound(self, alpha, n, x):
        table = eval_poly_table(HypergroupIndex(alpha), n, np.array([x]))
        assert abs(table[n, 0]) < 1.0 + 1e-10

    def test_domain_errors(self):
        idx = HypergroupIndex(0.0)
        with pytest.raises(ValueError):
            eval_poly_table(idx, 3, np.array([1.0001]))
        with pytest.raises(ValueError):
            eval_poly_table(idx, -1, np.array([0.5]))


class TestWeight:
    def test_chebyshev_values(self):
        idx = HypergroupIndex(-0.5)
        assert weight(idx, 0) == pytest.approx(1.0 / math.pi, rel=1e-12)
        for n in (1, 2, 5, 40):
            assert weight(idx, n) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_alpha_zero_base(self):
        assert weight(HypergroupIndex(0.0), 0) == pytest.approx(0.5, rel=1e-14)

    def test_large_n_no_overflow(self):
        w = weight(HypergroupIndex(-0.25), 5000)
        assert math.isfinite(w) and w > 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            weight(HypergroupIndex(0.0), -1)


class TestOrthogonality:
    # weight(idx, n) against Gauss-Jacobi integrals of P_n P_m for the
    # measure (1-x^2)^alpha dx; the rule is exact for the integrand degree
    @staticmethod
    def _integral(idx, n, m):
        nodes, wts = roots_jacobi(2 * max(n, m) + 24, idx.alpha, idx.alpha)
        table = eval_poly_table(idx, max(n, m), nodes)
        return float(np.sum(wts * table[n] * table[m]))

    def test_off_diagonal_zero(self):
        assert abs(self._integral(HypergroupIndex(0.0), 1, 2)) < 1e-10

    def test_chebyshev_diagonal(self):
        assert self._integral(HypergroupIndex(-0.5), 1, 1) == pytest.approx(
            math.pi / 2.0, rel=1e-12
        )

    def test_diagonal_is_inverse_weight(self):
        idx = HypergroupIndex(0.5)
        assert self._integral(idx, 3, 3) == pytest.approx(1.0 / weight(idx, 3), abs=1e-8)

    @pytest.mark.parametrize("alpha", [-0.5, -0.3, 0.0, 1.0])
    def test_diagonal_sweep(self, alpha):
        idx = HypergroupIndex(alpha)
        for n in (0, 1, 4, 17, 60):
            assert self._integral(idx, n, n) == pytest.approx(
                1.0 / weight(idx, n), rel=1e-9
            )


class TestLinearization:
    def test_identity_row(self):
        row = linearization(HypergroupIndex(0.2), 0, 5)
        assert dict(row.coeffs) == {5: 1.0}

    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0, 1.3])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_multiplication_formula_row(self, alpha, n):
        row = linearization(HypergroupIndex(alpha), 1, n)
        assert row[n - 1] == pytest.approx(n / (2 * n + 2 * alpha + 1), rel=1e-13)
        assert row[n + 1] == pytest.approx(
            (n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1), rel=1e-13
        )

    def test_degree_one_square(self):
        alpha = 0.7
        row = linearization(HypergroupIndex(alpha), 1, 1)
        assert row[0] == pytest.approx(1.0 / (2 * alpha + 3), rel=1e-13)
        assert row[2] == pytest.approx((2 * alpha + 2) / (2 * alpha + 3), rel=1e-13)

    def test_swap_symmetric(self):
        idx = HypergroupIndex(0.1)
        assert dict(linearization(idx, 7, 3).coeffs) == dict(linearization(idx, 3, 7).coeffs)

    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0, 0.7, 2.0])
    def test_projection_oracle(self, alpha):
        idx = HypergroupIndex(alpha)
        for m, n in ((2, 3), (5, 5), (7, 12), (15, 30)):
            row = linearization(idx, m, n)
            oracle = orc.linearization_by_projection(alpha, m, n)
            for k, ref in oracle.items():
                assert row[k] == pytest.approx(ref, abs=1e-8)

    @given(
        alphas,
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_are_stochastic_on_parity_lattice(self, alpha, m, n):
        row = linearization(HypergroupIndex(alpha), m, n)
        lo, hi = abs(n - m), n + m
        assert set(row.coeffs) <= set(range(lo, hi + 1, 2))
        assert all(c >= 0.0 for c in row.coeffs.values())
        assert sum(row.coeffs.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.3])
    def test_fourier_factorization(self, alpha):
        idx = HypergroupIndex(alpha)
        for theta in np.linspace(0.1, 3.0, 7):
            x = math.cos(theta)
            for m, n in ((3, 5), (8, 11)):
                row = linearization(idx, m, n)
                table = eval_poly_table(idx, m + n, np.array([x]))[:, 0]
                lhs = sum(c * table[k] for k, c in row.coeffs.items())
                assert lhs == pytest.approx(table[m] * table[n], abs=1e-10)

    def test_cached_row_identical(self):
        idx = HypergroupIndex(0.6)
        first = linearization(idx, 9, 14)
        again = linearization(idx, 9, 14)
        assert again is first  # memoized
        fresh = orc.linearization_by_projection(0.6, 9, 14)
        for k in fresh:
            assert first[k] == pytest.approx(fresh[k], abs=1e-8)

    def test_row_is_mapping_with_default(self):
        row = linearization(HypergroupIndex(-0.5), 2, 2)
        # interior lattice point with exactly vanishing coefficient
        assert row[2] == 0.0
        assert sorted(row.coeffs) == [0, 4]
        with pytest.raises(TypeError):
            row.coeffs[0] = 0.9  # frozen mapping


class TestNoAliasing:
    # the recurrence reuses scratch buffers; none may show through a
    # returned array or a cached row
    def test_poly_apply_results_are_independent(self):
        a = -0.25
        v = np.linspace(1.0, 2.0, 40)
        first = _poly_apply(a, [(1, 0.5), (2, 0.5)], v)
        kept = first.copy()
        second = _poly_apply(a, [(1, 0.25), (3, 0.75)], v[::-1].copy())
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_cached_row_survives_later_rows(self):
        idx = HypergroupIndex(0.37)  # an alpha no other test builds rows for
        row = linearization(idx, 6, 11)
        kept = dict(row.coeffs)
        for m in range(1, 9):
            linearization(idx, m, 15 + m)
        assert linearization(idx, 6, 11) is row
        assert dict(row.coeffs) == kept


# SHA-256 pins of the three-term recurrence in value space (eval_poly_table)
# and coefficient space (linearization rows, n-step laws): any change to the
# order of its floating-point operations changes these digests.
POLY_TABLE_SHA256 = "273d5610ce2d4b9c54437f6b811912f1a9e002018470b47441de84f201a15632"
LINEARIZATION_SHA256 = "cb815c3d66ae308fb768dc6e4233d1968b5145c926d1d043b2ca714a931d2515"
N_STEP_SHA256 = "4d5def64d83f3c8fbd2b54e2b887cc6312c73169f9c3e5b069e9d52c9a693804"


class TestRecurrenceBits:
    def test_poly_table_bytes(self):
        xs = np.cos(np.linspace(0.0, np.pi, 97))
        digest = hashlib.sha256()
        for alpha in (-0.5, -0.25, 0.0, 0.5):
            digest.update(eval_poly_table(HypergroupIndex(alpha), 250, xs).tobytes())
        assert digest.hexdigest() == POLY_TABLE_SHA256

    def test_linearization_bytes(self):
        digest = hashlib.sha256()
        for alpha in (-0.5, -0.25, 0.5):
            idx = HypergroupIndex(alpha)
            for m in range(13):
                for n in range(m, 41, 3):
                    for k, c in linearization(idx, m, n).coeffs.items():
                        digest.update(np.array([k, c]).tobytes())
        assert digest.hexdigest() == LINEARIZATION_SHA256

    def test_n_step_bytes(self):
        # unit step, mixed step and a three-atom step, 60 steps from x = 3
        digest = hashlib.sha256()
        idx = HypergroupIndex(-0.25)
        for mu in ({1: 1.0}, {1: 0.5, 2: 0.5}, {1: 0.25, 2: 0.5, 5: 0.25}):
            law = n_step(GegenbauerKernel(idx, SparseMeasure(mu)), 3, 60)
            dense = np.zeros(law.max_state + 1)
            for s, m in law.items():
                dense[s] = m
            digest.update(dense.tobytes())
        assert digest.hexdigest() == N_STEP_SHA256
