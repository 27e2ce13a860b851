"""Tests for the limit-theorem checkers and their report plumbing."""

import functools
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv
from scipy.stats import chi

from gegwalk import specfun, verify
from gegwalk.gegenbauer import HypergroupIndex, weight
from gegwalk.hypergroup import (
    GegenbauerKernel,
    SparseMeasure,
    drift_constant,
    n_step,
    transition_probabilities,
)
from gegwalk.specfun import (
    MittagLefflerDist,
    gamma_fn,
    ml_moment,
    ml_sample,
)
from gegwalk.verify import (
    ReportRow,
    VerifyReport,
    check_llt,
    check_local_time_limit,
    ks_statistic,
    llt_prediction,
    local_time_scale,
    local_time_scale_constant,
)
from gegwalk.walk_sim import LocalTimeSamples

from _oracles import space_scaled_from_origin, unit_step_lt_constant

CHEB = HypergroupIndex(-0.5)
QUARTER = HypergroupIndex(-0.25)
ZERO = HypergroupIndex(0.0)
D1 = SparseMeasure({1: 1.0})
MIX = SparseMeasure({1: 0.5, 2: 0.5})


class TestReportRow:
    def test_windowed_pass_and_fail(self):
        assert ReportRow("n", 1.0, 1.0, 1.0, (0.95, 1.05)).passed
        assert not ReportRow("n", 2.0, 1.0, 2.0, (0.95, 1.05)).passed
        assert ReportRow("n", 1.05, 1.0, 1.05, (0.95, 1.05)).passed  # inclusive

    def test_unwindowed_rows_are_informational(self):
        row = ReportRow("n", 9.0, 1.0, 9.0, None)
        assert row.window is None
        assert row.passed

    def test_zero_prediction_rows(self):
        report = VerifyReport("t", {}, [])
        ok = check_llt(CHEB, D1, 0, 0, [1, 2]).rows[0]
        assert ok.prediction == 0.0 and ok.ratio == 0.0 and ok.passed
        del report


class TestVerifyReport:
    def _failing_report(self):
        rows = [
            ReportRow("4", 1.0, 1.0, 1.0, None),
            ReportRow("8", 2.0, 1.0, 2.0, (0.95, 1.05)),
        ]
        return VerifyReport("demo", {"alpha": -0.5}, rows, {"note": "x"})

    def test_verdict(self):
        r = self._failing_report()
        assert not r.passed and r.verdict == "fail"
        r.rows = r.rows[:1]
        assert r.verdict == "pass"

    def test_json_round_trip(self):
        r = self._failing_report()
        doc = json.loads(r.to_json())
        assert doc["theorem"] == r.theorem
        assert doc["params"] == r.params
        rows = [
            ReportRow(d["label"], d["value"], d["prediction"], d["ratio"],
                      tuple(d["window"]) if d["window"] else None)
            for d in doc["rows"]
        ]
        assert rows == r.rows
        assert doc["notes"] == r.notes
        assert doc["verdict"] == "fail"

    def test_csv_schema(self):
        text = self._failing_report().to_csv()
        lines = text.splitlines()
        assert lines[0] == "n,value,prediction,ratio"
        assert lines[1] == "4,1.0,1.0,1.0"
        assert text.endswith("\n")
        # repr round-trips floats exactly
        label, v, p, q = lines[2].split(",")
        assert float(v) == 2.0 and float(q) == 2.0


class TestAperiodicAsymptote:
    def test_mixed_step_walk_converges(self):
        ns = [2**k for k in range(6, 13)]
        rep = check_llt(QUARTER, MIX, 0, 0, ns)
        assert rep.passed
        assert rep.notes["ratio_trend"] == "approaching-1"
        assert 0.95 <= rep.rows[-1].ratio <= 1.05
        # the values and the bound on their error are transition_probabilities'
        values, bound = transition_probabilities(GegenbauerKernel(QUARTER, MIX), 0, 0, ns)
        assert [r.value for r in rep.rows] == values.tolist()
        assert rep.notes["value_error_bound"] == bound and 0.0 < bound <= 1e-290
        # only the largest n is gated
        assert [r.window is not None for r in rep.rows] == [False] * 6 + [True]

    def test_off_origin_target(self):
        ns = [2**k for k in range(6, 13)]
        rep = check_llt(QUARTER, MIX, 1, 2, ns)
        assert rep.passed

    def test_alpha_zero(self):
        ns = [2**k for k in range(6, 13)]
        rep = check_llt(ZERO, MIX, 0, 0, ns)
        assert rep.passed

    def test_prediction_formula(self):
        # w_y Gamma(a+1) / (2 (C n)^(a+1)), spot value
        C = drift_constant(QUARTER, MIX)
        got = llt_prediction(QUARTER, C, 2, 100)
        want = weight(QUARTER, 2) * gamma_fn(0.75) / (2.0 * (C * 100) ** 0.75)
        assert got == pytest.approx(want, rel=1e-15)

    def test_rejects_even_support(self):
        with pytest.raises(ValueError, match="even"):
            check_llt(QUARTER, SparseMeasure({2: 1.0}), 0, 0, [4, 8])

    def test_rejects_odd_only_support(self):
        with pytest.raises(ValueError, match="odd"):
            check_llt(QUARTER, SparseMeasure({1: 0.5, 3: 0.5}), 0, 0, [4, 8])

    def test_horizon_list_validation(self):
        with pytest.raises(ValueError):
            check_llt(QUARTER, MIX, 0, 0, [])
        with pytest.raises(ValueError):
            check_llt(QUARTER, MIX, 0, 0, [8, 8])
        with pytest.raises(ValueError):
            check_llt(QUARTER, MIX, 0, 0, [8, 4])
        with pytest.raises(ValueError):
            check_llt(QUARTER, MIX, 0, 0, [0, 4])


class TestUnitStepAsymptote:
    def test_reflected_walk_origin(self):
        ns = [10, 100, 1000, 9999, 10_000]
        rep = check_llt(CHEB, D1, 0, 0, ns, ratio_window=(0.98, 1.02))
        assert rep.passed
        # odd n (n+x+y odd) must be exactly zero
        zero_rows = [r for r in rep.rows if r.label == "9999"]
        assert zero_rows[0].value == 0.0 and zero_rows[0].ratio == 0.0
        notes = dict(rep.notes)
        assert 0.0 <= notes.pop("value_error_bound") <= 1e-290
        assert notes == {"even_rows": 4, "odd_rows": 1}

    def test_reflected_walk_off_origin(self):
        # x=0, y=1: the live parity class is odd n
        rep = check_llt(CHEB, D1, 0, 1, [999, 1000, 10_001],
                        ratio_window=(0.98, 1.02))
        assert rep.passed
        by_label = {r.label: r for r in rep.rows}
        assert by_label["1000"].prediction == 0.0
        assert by_label["10001"].window is not None

    def test_quarter_index(self):
        rep = check_llt(QUARTER, D1, 0, 0, [100, 1000, 10_000])
        assert rep.passed

    def test_odd_horizons_only_refused_before_any_sweep(self, monkeypatch):
        # n + x + y odd at every n: only parity zeros, nothing to gate
        def sweep(*args):
            pytest.fail("swept before refusing the horizons")

        monkeypatch.setattr(verify, "transition_probabilities", sweep)
        with pytest.raises(ValueError, match="n \\+ x \\+ y even"):
            check_llt(CHEB, D1, 0, 0, [9, 99])

    def test_unit_step_takes_the_parity_refined_route(self):
        # the unit step is the one one-parity step check_llt accepts;
        # its report has no drift constant and no trend note
        rep = check_llt(QUARTER, D1, 0, 0, [100, 200])
        assert rep.theorem == "unit-step-llt"
        assert list(rep.params) == ["alpha", "x", "y", "n_list", "ratio_window"]
        assert list(rep.notes) == ["even_rows", "odd_rows", "value_error_bound"]
        assert rep.notes["even_rows"] == 2 and rep.notes["odd_rows"] == 0


@pytest.mark.parametrize(
    "idx,mu,x,y,ns,reach",
    [
        (QUARTER, MIX, 0, 300, [64, 100], 200),
        (CHEB, D1, 50, 0, [10, 20], 20),
        # the unit step gates the last n with n + x + y even, here 19, not 22
        (CHEB, D1, 0, 21, [19, 22], 19),
    ],
    ids=["above", "below", "unit-gated"],
)
def test_target_past_the_gated_reach_refused_before_any_sweep(monkeypatch, idx, mu, x, y, ns,
                                                              reach):
    # one step moves at most max(mu) either way, so p^(n)(x, y) is 0 at
    # the gated horizon and the gate could only fail
    assert check_llt(CHEB, D1, 0, 19, [19]).rows[-1].value > 0.0  # at the reach it runs

    def sweep(*args):
        pytest.fail("swept before refusing the target")

    monkeypatch.setattr(verify, "transition_probabilities", sweep)
    with pytest.raises(ValueError, match=f"past the reach {reach} of the gated horizon n = "):
        check_llt(idx, mu, x, y, ns)


class TestSpaceScaled:
    # sqrt(n) p^(n) at spatial scale x sqrt(n) against its limit densities
    def test_unit_spatial_scale(self):
        n, x = 4096, 1.0
        C = drift_constant(QUARTER, MIX)
        kernel = GegenbauerKernel(QUARTER, MIX)
        m = int(x * math.sqrt(n))
        origin = math.sqrt(n) * n_step(kernel, 0, n)[m]
        assert 0.9 <= origin / space_scaled_from_origin(QUARTER.alpha, C, x) <= 1.1
        # the diagonal limit x/(2C) e^(-z) I_a(z) at z = x^2/(2C)
        z = x * x / (2.0 * C)
        diagonal = math.sqrt(n) * n_step(kernel, m, n)[m]
        pred = x / (2.0 * C) * math.exp(-z) * iv(QUARTER.alpha, z)
        assert 0.9 <= diagonal / pred <= 1.1

    def test_structural_rows_are_tight(self):
        # the origin density is the marginal density of the scaled Bessel
        # endpoint sqrt(2C) B_1 (B_1 of index a has the chi law with 2a+2
        # degrees of freedom), and integrates to 1 over x
        for idx, x in ((CHEB, 0.5), (QUARTER, 1.0)):
            a, C = idx.alpha, drift_constant(idx, MIX)
            s = math.sqrt(2.0 * C)
            marginal = chi.pdf(x / s, 2.0 * a + 2.0) / s
            assert abs(marginal / space_scaled_from_origin(a, C, x) - 1.0) < 1e-9
            total, _ = quad(
                lambda t: space_scaled_from_origin(a, C, t), 0.0, np.inf, epsabs=1e-10
            )
            assert abs(total - 1.0) < 1e-6

    def test_origin_formula_value(self):
        # a = -1/2: x^0 e^(-x^2/(4C)) / (C^(1/2) Gamma(1/2))
        C = 0.75
        got = space_scaled_from_origin(CHEB.alpha, C, 1.3)
        want = math.exp(-1.3**2 / (4 * C)) / (math.sqrt(C) * math.sqrt(math.pi))
        assert got == pytest.approx(want, rel=1e-14)


class TestLocalTimeScaleConstant:
    def test_matches_birth_death_closed_form(self):
        for a in (-0.5, -0.25, -0.1):
            idx = HypergroupIndex(a)
            for y in range(6):
                assert local_time_scale_constant(idx, D1, y) == pytest.approx(
                    unit_step_lt_constant(a, y), rel=1e-12
                )

    def test_known_values(self):
        assert local_time_scale_constant(CHEB, D1, 0) == pytest.approx(
            2.0**-0.5, rel=1e-14
        )
        assert local_time_scale_constant(CHEB, D1, 2) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )

    def test_needs_negative_alpha(self):
        with pytest.raises(ValueError):
            local_time_scale_constant(ZERO, D1, 0)
        with pytest.raises(ValueError):
            local_time_scale_constant(HypergroupIndex(0.5), D1, 0)


class TestLocalTimeScale:
    @pytest.mark.parametrize(
        "alpha,n,expected",
        [
            (-0.5, 100, 10.0),  # n^|alpha|
            (0.0, 100, math.log(100)),
            (0.0, 1, 1.0),  # log 1 = 0 is no scale
            (-0.5, 0, 1.0),  # 0^|alpha| = 0 is no scale
            (0.5, 100, 1.0),  # transient: no scaling limit
        ],
    )
    def test_branches(self, alpha, n, expected):
        assert local_time_scale(alpha, n) == expected


class TestLocalTimeLimit:
    def test_reflected_walk_origin(self):
        rep = check_local_time_limit(CHEB, D1, 0, 0, 4000, 20_000, 100)
        assert rep.passed
        by_label = {r.label: r for r in rep.rows}
        assert set(by_label) == {"m1", "m2", "m3", "ks"}
        assert by_label["ks"].value <= 0.02
        assert rep.params["limit"] == "mittag-leffler"
        assert rep.params["order"] == 0.5
        # the moment predictions are K^p p!/Gamma(p/2+1)
        K = local_time_scale_constant(CHEB, D1, 0)
        assert by_label["m1"].prediction == pytest.approx(K * ml_moment(0.5, 1))
        assert by_label["m2"].prediction == pytest.approx(K**2 * ml_moment(0.5, 2))

    def test_reflected_walk_off_origin(self):
        # y=2 carries constant sqrt(2).  Visits lost before first reaching
        # y bias everything at finite n; at this horizon the mean is off
        # by ~3.5% and m2 by ~9%, so only the mean and KS are gated, at
        # wider bars than the origin needs.
        rep = check_local_time_limit(
            CHEB, D1, 0, 2, 4000, 20_000, 101,
            n_moments=1, moment_floor=0.05, ks_threshold=0.04,
        )
        assert rep.passed
        assert rep.params["K"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_log_scaled_branch(self):
        # a = 0 converges at log speed and the lattice keeps N/log n
        # discrete, so only the mean is gated and the KS bar is loose
        rep = check_local_time_limit(
            ZERO, D1, 0, 0, 100_000, 2000, 7,
            n_moments=1, moment_floor=0.15, ks_threshold=0.5,
        )
        assert rep.passed
        assert rep.params["limit"] == "exponential"
        assert rep.params["mean"] == pytest.approx(0.5)
        assert rep.params["scale"] == pytest.approx(math.log(100_000))

    def test_exponential_mean_formula(self):
        # (2y+1)/(4C)
        rep = check_local_time_limit(ZERO, MIX, 0, 3, 100, 500, 0)
        C = drift_constant(ZERO, MIX)
        assert rep.params["mean"] == pytest.approx(7.0 / (4.0 * C))

    def test_shifted_start_reports_without_guarantee(self):
        # valid from any start; finite-n quality varies with x, so only
        # the report structure is asserted here
        rep = check_local_time_limit(CHEB, D1, 3, 0, 2000, 5000, 11)
        assert rep.theorem == "local-time-limit"
        assert rep.params["x"] == 3
        assert len(rep.rows) == 4
        assert rep.verdict in ("pass", "fail")

    def test_rejects_transient_index(self):
        with pytest.raises(ValueError, match="transient"):
            check_local_time_limit(HypergroupIndex(0.5), D1, 0, 0, 100, 200, 0)

    def test_rejects_tiny_horizon(self):
        with pytest.raises(ValueError):
            check_local_time_limit(CHEB, D1, 0, 0, 1, 200, 0)

    def test_too_few_replicas_refused_before_simulating(self, monkeypatch):
        def engine(*args, **kwargs):
            pytest.fail("simulated before refusing the replica count")

        monkeypatch.setattr(verify, "local_time_counts", engine)
        with pytest.raises(ValueError, match="at least 100 samples"):
            check_local_time_limit(CHEB, D1, 0, 0, 200_000, 99, 1)

    def test_rejects_periodic_nonunit_step(self):
        with pytest.raises(ValueError):
            check_local_time_limit(CHEB, SparseMeasure({2: 1.0}), 0, 0, 100, 200, 0)

    @pytest.mark.parametrize("mu,x,y,reach", [(D1, 0, 10**7, 100), (D1, 0, 101, 100),
                                              (MIX, 3, 204, 203)])
    def test_target_past_the_reach_refused_before_simulating(self, monkeypatch, mu, x, y, reach):
        # no replica can visit y, so every moment would read 0.0 and fail
        def engine(*args, **kwargs):
            pytest.fail("simulated a target no replica can visit")

        monkeypatch.setattr(verify, "local_time_counts", engine)
        with pytest.raises(ValueError, match=f"past {reach}, the farthest state"):
            check_local_time_limit(CHEB, mu, x, y, 100, 200, 1)

    def test_aperiodic_mixture_runs(self):
        rep = check_local_time_limit(
            QUARTER, MIX, 0, 0, 4000, 10_000, 17, moment_floor=0.05
        )
        assert rep.params["order"] == 0.25
        by_label = {r.label: r for r in rep.rows}
        assert by_label["m1"].passed


@functools.lru_cache(maxsize=None)
def _full_ml_table(order):
    """The order's CDF at every node of verify's grid, as bytes."""
    vals = MittagLefflerDist(order).cdf_grid(
        verify._ML_CDF_GRID, npoints=verify._ML_CDF_NODES
    )
    return vals.tobytes()


def _fake_counts(monkeypatch, counts):
    """Make check_local_time_limit read `counts` as its Monte Carlo sample."""
    def engine(config, *, threads=1):
        c = np.asarray(counts, dtype=np.int64)[:, None]
        return LocalTimeSamples(
            config.target_states, c, np.zeros(len(c), np.int64), config.horizon, config.seed
        )

    monkeypatch.setattr(verify, "local_time_counts", engine)


def _lt_sample(idx, mu, horizon, reach, seed):
    """Integer counts whose scaled values N/(n^|a| K) are ML draws below
    `reach`, plus one count whose scaled value lies just past it."""
    a = idx.alpha
    unit = local_time_scale(a, horizon) * local_time_scale_constant(idx, mu, 0)
    m = ml_sample(-a, np.random.default_rng(seed), 400)
    counts = np.floor(np.minimum(m, reach - 0.5) * unit)
    return np.append(counts, math.ceil(reach * unit))


class TestMLCdfTableReach:
    """The table is evaluated only as far as the sample reaches, and every
    value read is the one the full 1025-node table holds."""

    @pytest.mark.parametrize("order", [0.25, 0.5])
    @pytest.mark.parametrize("reach", [0.0, 1e-3, 3.0, 8.4763, 12.0])
    def test_prefix_equals_full_table(self, monkeypatch, order, reach):
        nodes = int(np.searchsorted(verify._ML_CDF_GRID, reach)) + 1
        monkeypatch.setattr(verify, "_ML_CDF_TABLES", {})
        grid, vals = verify._ml_cdf_table(order, nodes)
        assert len(vals) == nodes and grid[-1] >= reach
        assert grid.tobytes() == verify._ML_CDF_GRID[:nodes].tobytes()
        assert vals.tobytes() == _full_ml_table(order)[: 8 * nodes]

    @pytest.mark.parametrize(
        "idx,mu", [(QUARTER, MIX), (CHEB, D1)], ids=["alpha=-1/4", "alpha=-1/2"]
    )
    @pytest.mark.parametrize("reach", [8.4763, 13.0])
    def test_report_equals_full_table_report(self, monkeypatch, idx, mu, reach):
        _fake_counts(monkeypatch, _lt_sample(idx, mu, 10_000, reach, 3))
        reads = []  # the limit CDF at the sorted sample, as the KS row reads it
        ks = verify.ks_statistic

        def spy(samples, cdf):
            reads.append(np.asarray(cdf(np.sort(samples))).tobytes())
            return ks(samples, cdf)

        monkeypatch.setattr(verify, "ks_statistic", spy)
        monkeypatch.setattr(verify, "_ML_CDF_TABLES", {})
        cut = check_local_time_limit(idx, mu, 0, 0, 10_000, 401, 1).to_json()
        monkeypatch.setattr(
            verify,
            "_ml_cdf_table",
            lambda order, nodes: (verify._ML_CDF_GRID, np.frombuffer(_full_ml_table(order))),
        )
        full = check_local_time_limit(idx, mu, 0, 0, 10_000, 401, 1).to_json()
        assert cut == full
        assert reads[0] == reads[1]

    def test_smaller_reach_evaluates_no_density(self, monkeypatch):
        calls = []
        density = specfun.ml_density
        monkeypatch.setattr(specfun, "ml_density", lambda o, x: calls.append(x) or density(o, x))
        monkeypatch.setattr(verify, "_ML_CDF_TABLES", {})
        _fake_counts(monkeypatch, _lt_sample(QUARTER, MIX, 10_000, 5.0, 4))
        check_local_time_limit(QUARTER, MIX, 0, 0, 10_000, 401, 1)
        assert calls
        calls.clear()
        _fake_counts(monkeypatch, _lt_sample(QUARTER, MIX, 10_000, 3.0, 5))
        check_local_time_limit(QUARTER, MIX, 0, 0, 10_000, 401, 1)
        assert calls == []


class TestKSStatistic:
    def test_step_reference_matching_atoms(self):
        xs = np.full(1000, 2.5)
        d = ks_statistic(xs, lambda t: np.asarray(t) >= 2.5)
        assert d <= 1.0 / 1000

    def test_mittag_leffler_self_test(self):
        rng = np.random.default_rng(5)
        dist = MittagLefflerDist(0.5)
        xs = ml_sample(dist.order, rng, 100_000)
        d = ks_statistic(xs, lambda t: dist.cdf_grid(np.asarray(t)))
        assert d < 0.01

    def test_negative_control_detects_wrong_law(self):
        rng = np.random.default_rng(6)
        xs = rng.exponential(1.0, 50_000)
        dist = MittagLefflerDist(0.5)
        d = ks_statistic(xs, lambda t: dist.cdf_grid(np.asarray(t)))
        assert d > 0.1

    def test_uniform_exact(self):
        xs = np.linspace(0.001, 0.999, 500)
        d = ks_statistic(xs, lambda t: np.clip(np.asarray(t), 0.0, 1.0))
        assert d <= 1.0 / 500 + 1e-12

    def test_cdf_must_be_vectorised(self):
        with pytest.raises(ValueError, match="shape"):
            ks_statistic(np.linspace(0.0, 1.0, 200), lambda t: 0.5)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            ks_statistic(np.ones(99), lambda t: np.asarray(t))
