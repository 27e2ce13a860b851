"""Tests for the gamma, Bessel, and Mittag-Leffler routines."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad

from gegwalk import specfun as sf
from gegwalk.specfun import MittagLefflerDist
from gegwalk.verify import _ml_cdf_table

import _oracles as orc

SQRT_PI = math.sqrt(math.pi)

# ml_density values pinned bit for bit: the order-1/4 CDF table and so the
# seed-7 verify-lt report depend on every bit.  The points from 10 (order
# 1/4) and 7.5 (order 0.4) up re-run the series at an escalated working
# precision.
ML_DENSITY_HEX = {
    (0.25, 0.01): "0x1.9eef7ac3b86dfp-1",
    (0.25, 0.1): "0x1.85a2deface613p-1",
    (0.25, 0.5): "0x1.22cccf1c2340dp-1",
    (0.25, 1.0): "0x1.88891456474b1p-2",
    (0.25, 2.0): "0x1.4a3e020f0e5cdp-3",
    (0.25, 3.5): "0x1.31101b1a948e1p-5",
    (0.25, 5.0): "0x1.ddb61c8988ddfp-8",
    (0.25, 7.5): "0x1.7552375fcc8edp-12",
    (0.25, 10.0): "0x1.aa6ab82e09ee5p-17",
    (0.25, 13.0): "0x1.616aa86a56b98p-23",
    (0.25, 17.0): "0x1.4d4e737ffe4cfp-32",
    (0.25, 22.0): "0x1.066fc7599f4e9p-44",
    (0.4, 0.01): "0x1.56b0df5586876p-1",
    (0.4, 0.1): "0x1.4c3dbf718d15dp-1",
    (0.4, 0.5): "0x1.17e454086e51fp-1",
    (0.4, 1.0): "0x1.a41446788e1b7p-2",
    (0.4, 2.0): "0x1.7c128f3de7dc5p-3",
    (0.4, 3.5): "0x1.1cf2af6defa21p-5",
    (0.4, 5.0): "0x1.febc69ef27ab0p-9",
    (0.4, 7.5): "0x1.349525e0da096p-15",
    (0.4, 10.0): "0x1.dbc6780ccf71fp-24",
    (0.4, 13.0): "0x1.d36ba1f5c6503p-36",
    (0.4, 17.0): "0x1.b25683b6cd28bp-55",
    (0.4, 18.0): "0x1.629307c423dcap-60",
}

# SHA-256 of the order-1/4 CDF table that verify-lt interpolates
ML_CDF_TABLE_SHA256 = "a0260cc17260d9700fea08338679d812dc49a591ca79bafb8f489d45857eb091"


class TestGamma:
    def test_classical_values(self):
        assert sf.gamma_fn(1.0) == 1.0
        assert sf.gamma_fn(5.0) == 24.0
        assert sf.gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles_raise(self, x):
        with pytest.raises(ValueError):
            sf.gamma_fn(x)

    def test_negative_noninteger(self):
        # reflection: Gamma(-1/2) = -2 sqrt(pi)
        assert sf.gamma_fn(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)

    def test_overflow_returns_inf(self):
        assert sf.gamma_fn(200.0) == math.inf

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises(self, x):
        with pytest.raises(ValueError, match="finite"):
            sf.gamma_fn(x)

    @given(st.floats(min_value=0.05, max_value=80.0))
    def test_recurrence(self, x):
        assert sf.gamma_fn(x + 1.0) == pytest.approx(x * sf.gamma_fn(x), rel=1e-11)


class TestBesselJ:
    def test_at_zero(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0
        assert sf.bessel_j(1.0, 0.0) == 0.0
        assert sf.bessel_j(-0.25, 0.0) == math.inf

    def test_half_order_closed_form(self):
        assert sf.bessel_j(0.5, 1.0) == pytest.approx(orc.j_half(1.0), abs=1e-12)

    def test_small_argument_leading_term(self):
        lead = (5e-7) ** 0.25 / math.gamma(1.25)
        # next series term is ~6e-15 of the value
        assert sf.bessel_j(0.25, 1e-6) == pytest.approx(lead, abs=1e-13)

    @pytest.mark.parametrize("x", np.linspace(0.1, 20.0, 41).tolist())
    def test_half_integer_forms_on_range(self, x):
        assert sf.bessel_j(0.5, x) == pytest.approx(orc.j_half(x), abs=1e-10)
        assert sf.bessel_j(-0.5, x) == pytest.approx(orc.j_minus_half(x), abs=1e-10)

    def test_large_argument_branch(self):
        # crosses into the elevated-precision branch
        for x in (15.0, 30.0, 50.0):
            assert sf.bessel_j(0.5, x) == pytest.approx(orc.j_half(x), abs=1e-12)

    def test_largest_argument_in_range(self):
        assert sf.bessel_j(0.5, 300.0) == pytest.approx(orc.j_half(300.0), abs=1e-12)

    def test_half_integer_forms_far_out(self):
        # beyond x = 342, the reach of a 500-term ascending series
        for x in (400.0, 1000.0):
            assert sf.bessel_j(0.5, x) == pytest.approx(orc.j_half(x), abs=1e-12)
            assert sf.bessel_j(-0.5, x) == pytest.approx(orc.j_minus_half(x), abs=1e-12)

    @pytest.mark.parametrize("x", np.linspace(0.0, 12.0, 49)[1:].tolist())
    def test_half_integer_forms_to_1e14_through_12(self, x):
        # float64 summation of the alternating series misses 1e-14 from x = 9.25
        assert sf.bessel_j(0.5, x) == pytest.approx(orc.j_half(x), abs=1e-14)
        assert sf.bessel_j(-0.5, x) == pytest.approx(orc.j_minus_half(x), abs=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sf.bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_j(0.0, -0.1)

    @pytest.mark.parametrize("fn", [sf.bessel_j, sf.bessel_i])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_x_refused(self, fn, x):
        with pytest.raises(ValueError, match="finite"):
            fn(0.5, x)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_for_nonnegative_order(self, order, x):
        assert abs(sf.bessel_j(order, x)) <= 1.0 + 1e-12


class TestBesselI:
    def test_at_zero(self):
        assert sf.bessel_i(0.0, 0.0) == 1.0
        assert sf.bessel_i(1.0, 0.0) == 0.0

    def test_minus_half_closed_form(self):
        assert sf.bessel_i(-0.5, 1.0) == pytest.approx(orc.i_minus_half(1.0), rel=1e-12)

    def test_past_float_range_is_inf(self):
        # I_0(800) is about 1e346; a float64 series sum raised OverflowError
        assert sf.bessel_i(0.0, 800.0) == math.inf

    @pytest.mark.parametrize("x", np.linspace(0.1, 20.0, 41).tolist())
    def test_half_integer_forms_on_range(self, x):
        # absolute 1e-10 is not representable once I_{-1/2} reaches ~1e7,
        # so compare with a floor of one part in 1e10 of the value
        for fn, ref in ((0.5, orc.i_half), (-0.5, orc.i_minus_half)):
            r = ref(x)
            assert sf.bessel_i(fn, x) == pytest.approx(r, abs=1e-10 * max(1.0, abs(r)))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sf.bessel_i(-1.5, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_i(0.0, -1.0)

    @given(
        st.floats(min_value=-0.99, max_value=4.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_positive(self, order, x):
        assert sf.bessel_i(order, x) > 0.0


class TestMLFunction:
    @pytest.mark.parametrize("order", [0.1, 0.5, 1.0])
    def test_at_zero(self, order):
        assert sf.ml_function(order, 0.0) == 1.0

    def test_order_one_is_exp(self):
        worst = max(
            abs(sf.ml_function(1.0, x) - math.exp(-x))
            for x in np.linspace(0.0, 10.0, 201)
        )
        assert worst <= 1e-12

    def test_half_order_erfc_identity(self):
        # E_{1/2}(x) = e^{x^2} erfc(x) at x = 1
        val = sf.ml_function(0.5, 1.0)
        assert val == pytest.approx(math.e * orc.erfc_quad(1.0), abs=1e-9)

    def test_nonconvergence_raises(self):
        # small order at moderate x needs ~x^(1/order) terms, past the cap
        with pytest.raises(ArithmeticError):
            sf.ml_function(0.25, 10.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sf.ml_function(0.0, 1.0)
        with pytest.raises(ValueError):
            sf.ml_function(1.5, 1.0)
        with pytest.raises(ValueError):
            sf.ml_function(0.5, -1.0)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                sf.ml_function(0.5, x)

    @given(st.floats(min_value=0.3, max_value=1.0), st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_contained_in_unit_interval(self, order, x):
        try:
            val = sf.ml_function(order, x)
        except ArithmeticError:  # past the term cap
            return
        assert 0.0 < val <= 1.0


class TestMLDensity:
    @pytest.mark.parametrize("x", [0.1, 1.0, 2.0])
    def test_half_order_gaussian_form(self, x):
        # even-k terms vanish at order 1/2 and the series resums to a Gaussian
        assert sf.ml_density(0.5, x) == pytest.approx(
            math.exp(-x * x / 4.0) / SQRT_PI, abs=1e-8
        )

    def test_value_at_one(self):
        assert sf.ml_density(0.5, 1.0) == pytest.approx(0.4393913, abs=1e-7)

    def test_continuity_value_at_origin(self):
        assert sf.ml_density(0.5, 0.0) == pytest.approx(1.0 / SQRT_PI, rel=1e-12)
        a = 0.3
        assert sf.ml_density(a, 0.0) == pytest.approx(
            math.sin(math.pi * a) * math.gamma(a) / math.pi, rel=1e-12
        )

    def test_integrates_to_one(self):
        val, _ = quad(lambda t: sf.ml_density(0.25, t), 0.0, 22.0, epsabs=1e-9, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_order_one_directs_to_point_mass(self):
        with pytest.raises(ValueError, match="point mass"):
            sf.ml_density(1.0, 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sf.ml_density(0.0, 1.0)
        with pytest.raises(ValueError):
            sf.ml_density(0.5, -0.5)

    def test_nonnegative_on_grid(self):
        for x in np.linspace(0.0, 10.0, 60):
            assert sf.ml_density(0.4, x) >= 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="finite"):
            sf.ml_density(0.25, x)


class TestMLDensityBits:
    @pytest.mark.parametrize("order,x", sorted(ML_DENSITY_HEX))
    def test_pinned_value(self, order, x):
        assert float.hex(sf.ml_density(order, x)) == ML_DENSITY_HEX[order, x]

    def test_cold_cache_equals_warm(self):
        points = [(0.25, 1.0), (0.25, 13.0), (0.4, 7.5), (0.3, 1e-300)]
        sf._density_factor.cache_clear()
        cold = [float.hex(sf.ml_density(o, x)) for o, x in points]
        assert sf._density_factor.cache_info().currsize > 0
        warm = [float.hex(sf.ml_density(o, x)) for o, x in points]
        assert cold == warm

    def test_cdf_table_bytes(self):
        vals = np.array(_ml_cdf_table(0.25)[1])
        assert hashlib.sha256(vals.tobytes()).hexdigest() == ML_CDF_TABLE_SHA256


class TestMLMoment:
    @pytest.mark.parametrize("order", [0.2, 0.5, 0.9, 1.0])
    def test_zeroth_is_one(self, order):
        assert sf.ml_moment(order, 0) == 1.0

    def test_first_moment_half(self):
        assert sf.ml_moment(0.5, 1) == pytest.approx(2.0 / SQRT_PI, rel=1e-14)

    @pytest.mark.parametrize("p", [0, 1, 5, 11])
    def test_order_one_all_one(self, p):
        assert sf.ml_moment(1.0, p) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("order", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_gamma_identity(self, order):
        for p in range(21):
            lhs = sf.ml_moment(order, p) * sf.gamma_fn(order * p + 1.0)
            assert lhs == pytest.approx(float(math.factorial(p)), rel=1e-12)

    def test_past_factorial_float_range(self):
        # 171! overflows a float; the moments themselves need not
        assert sf.ml_moment(1.0, 171) == pytest.approx(1.0, rel=1e-12)
        ref = float(mp.factorial(200) / mp.gamma(101))  # e^499.5
        assert sf.ml_moment(0.5, 200) == pytest.approx(ref, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sf.ml_moment(0.5, -1)
        with pytest.raises(ValueError):
            sf.ml_moment(1.2, 2)


class TestMLSample:
    def test_order_one_constant(self):
        rng = np.random.default_rng(0)
        assert sf.ml_sample(1.0, rng) == 1.0
        assert np.all(sf.ml_sample(1.0, rng, 100) == 1.0)

    def test_moments_match(self):
        rng = np.random.default_rng(20260823)
        m = sf.ml_sample(0.5, rng, 10**6)
        assert m.mean() == pytest.approx(2.0 / SQRT_PI, rel=0.02)
        assert np.mean(m * m) == pytest.approx(2.0, rel=0.03)

    def test_scalar_form(self):
        rng = np.random.default_rng(3)
        v = sf.ml_sample(0.5, rng)
        assert isinstance(v, float) and v > 0.0

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_positive(self, order, seed):
        rng = np.random.default_rng(seed)
        assert np.all(sf.ml_sample(order, rng, 8) > 0.0)


class TestBesselMarginalDensity:
    def test_half_normal_at_minus_half(self):
        for x in (0.0, 0.3, 1.0, 2.5):
            assert sf.bessel_marginal_density(-0.5, x) == pytest.approx(
                math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0), rel=1e-13
            )

    def test_normalized(self):
        val, _ = quad(lambda x: sf.bessel_marginal_density(0.0, x), 0.0, 12.0, epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("c", [0.5, 13.0 / 12.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_diffusive_rescaling(self, c, x):
        # density of sqrt(2C) B_1 at x vs its explicit closed form
        alpha = -0.25
        s = math.sqrt(2.0 * c)
        lhs = sf.bessel_marginal_density(alpha, x / s) / s
        rhs = (
            x ** (2 * alpha + 1)
            * math.exp(-x * x / (4.0 * c))
            / (2 ** (2 * alpha + 1) * c ** (alpha + 1) * math.gamma(alpha + 1))
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tiny_density_with_huge_power(self):
        # x^401 alone overflows a float; the density is about 7.7e-141
        ref = float(mp.mpf(40) ** 401 * mp.exp(-800) / (mp.mpf(2) ** 200 * mp.gamma(201)))
        assert sf.bessel_marginal_density(200.0, 40.0) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("index", np.linspace(-0.5, 3.0, 15).tolist())
    def test_matches_direct_product(self, index):
        for x in np.linspace(0.0, 20.0, 81)[1:]:
            direct = (
                x ** (2 * index + 1) * math.exp(-0.5 * x * x)
                / (2.0**index * math.gamma(index + 1.0))
            )
            assert sf.bessel_marginal_density(index, x) == pytest.approx(direct, rel=1e-13)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sf.bessel_marginal_density(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_marginal_density(0.0, -1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises(self, x):
        with pytest.raises(ValueError, match="finite"):
            sf.bessel_marginal_density(0.0, x)

    def test_nan_index_raises(self):
        with pytest.raises(ValueError, match="index must be > -1"):
            sf.bessel_marginal_density(math.nan, 1.0)


class TestMittagLefflerDist:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            MittagLefflerDist(0.0)
        with pytest.raises(ValueError):
            MittagLefflerDist(1.0001)
        # order 1, the point mass at 1, is left to ml_moment and ml_sample
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            MittagLefflerDist(1.0)

    def test_cdf_grid_against_half_order_closed_form(self):
        # ML(1/2) is the modulus of a centered normal with variance 2,
        # so its cdf is erf(x/2)
        d = MittagLefflerDist(0.5)
        xs = np.array([0.2, 0.5, 1.0, 2.0, 4.0])
        ref = np.array([orc.erfc_quad(-x / 2.0) - 1.0 for x in xs])
        np.testing.assert_allclose(d.cdf_grid(xs), ref, atol=5e-6)

    def test_cdf_grid_evaluates_only_the_nodes_it_reads(self, monkeypatch):
        # the trapezoid cumulative up to the first node at or past 1.0
        # needs no density beyond that node
        seen = []
        density = sf.ml_density
        monkeypatch.setattr(sf, "ml_density", lambda o, x: seen.append(x) or density(o, x))
        grid = np.linspace(0.0, sf._density_cutoff(0.5), 4097)
        scan = len(seen)
        seen.clear()
        MittagLefflerDist(0.5).cdf_grid([1.0])
        assert len(seen) == scan + np.count_nonzero(grid < 1.0) + 1

    def test_cdf_grid_past_cutoff_is_one(self):
        # the series does not converge at x = 40 (order 1/2); the grid stops
        # at the tail cutoff and points beyond it read 1
        cdf = MittagLefflerDist(0.5).cdf_grid([40.0], npoints=65)
        np.testing.assert_array_equal(cdf, [1.0])

    @pytest.mark.parametrize("order", [0.3, 0.5])
    def test_moments_against_quadrature(self, order):
        hi = sf._density_cutoff(order)
        for p in range(5):
            val, _ = quad(lambda t: t**p * sf.ml_density(order, t), 0.0, hi,
                          epsabs=1e-9, limit=200)
            assert val == pytest.approx(sf.ml_moment(order, p), abs=1e-5)

    @pytest.mark.parametrize("order", [0.25, 0.5])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_laplace_transform_is_ml_function(self, order, s):
        hi = sf._density_cutoff(order)
        val, _ = quad(
            lambda t: math.exp(-s * t) * sf.ml_density(order, t),
            0.0,
            hi,
            epsabs=1e-9,
            limit=200,
        )
        assert val == pytest.approx(sf.ml_function(order, s), abs=1e-6)
