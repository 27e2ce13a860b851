"""Tests for the convolution structure, kernels, and walk laws."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from gegwalk import hypergroup
from gegwalk.cli import main
from gegwalk.errors import ConsistencyError, StateCapError
from gegwalk.gegenbauer import HypergroupIndex, _poly_apply, weight
from gegwalk.hypergroup import (
    DEFAULT_STATE_CAP,
    GegenbauerKernel,
    SparseMeasure,
    _clamp_roundoff,
    drift_constant,
    kernel_row,
    n_step,
    return_probabilities,
    transition_probabilities,
)

from _oracles import (
    eval_poly_table,
    exact_return_probabilities,
    reflected_return_probability,
    reflected_walk_law,
)

CHEB = HypergroupIndex(-0.5)
QUARTER = HypergroupIndex(-0.25)

DELTA1 = SparseMeasure({1: 1.0})
MIX = SparseMeasure({1: 0.5, 2: 0.5})


@st.composite
def prob_measures(draw, max_state=12, max_atoms=4):
    states = draw(
        st.lists(st.integers(0, max_state), min_size=1, max_size=max_atoms, unique=True)
    )
    weights = [draw(st.integers(1, 20)) for _ in states]
    tot = sum(weights)
    return SparseMeasure({s: w / tot for s, w in zip(states, weights)})


alphas = st.sampled_from([-0.5, -0.25, 0.0, 0.7, 2.0])


def _dense(m: SparseMeasure, length: int | None = None) -> np.ndarray:
    """The masses of m as a vector indexed by state."""
    out = np.zeros(m.max_state + 1 if length is None else length)
    for s, v in m.items():
        if s < out.size:
            out[s] = v
    return out


def _convolve(idx: HypergroupIndex, mu: SparseMeasure, nu: SparseMeasure) -> SparseMeasure:
    """Generalized convolution mu * nu of two probability measures.

    The operands are ordered canonically before the sweep (smaller max
    support drives the Jacobi recurrence), so both argument orders run
    the identical computation and commutativity holds bit for bit.
    """

    def order_key(m: SparseMeasure):
        return (m.max_state, m.support, tuple(v for _, v in m.items()))

    if order_key(mu) > order_key(nu):
        mu, nu = nu, mu
    out = _poly_apply(idx.alpha, list(mu.items()), _dense(nu))
    return SparseMeasure.from_array(_clamp_roundoff(out), total_tol=1e-10)


def _n_step_by_convolution(kernel: GegenbauerKernel, x: int, n: int) -> SparseMeasure:
    """delta_x * mu^(n) by repeated measure convolution, the slow cross-check."""
    power = SparseMeasure({0: 1.0})
    for _ in range(n):
        power = _convolve(kernel.idx, power, kernel.step_measure)
    return _convolve(kernel.idx, SparseMeasure({x: 1.0}), power)


TINY = 2.0**-1022  # the smallest normal double, below which n_step flushes


def _full_length_laws(
    kernel: GegenbauerKernel, x: int, horizons: list[int], flush: bool = True
) -> dict[int, np.ndarray]:
    """The n-step loop without the live window: each step applies the band
    of hypergroup._band to the whole vector of length x + step * smax + 1,
    diagonal by diagonal in the order n_step uses, then, with ``flush``,
    zeroes the trailing entries below TINY as n_step does.  Returns a
    copy of the vector at each horizon.
    """
    smax = kernel.step_measure.max_state
    band = hypergroup._band(kernel, x + max(horizons) * smax + 1)
    v = np.zeros(x + 1)
    v[x] = 1.0
    laws = {}
    step = 0
    for target in sorted(horizons):
        while step < target:
            out = np.zeros(v.size + smax)
            for k in range(2 * smax + 1):
                lo = min(max(smax - k, 0), v.size)
                out[lo + k - smax : v.size + k - smax] += band[k, lo : v.size] * v[lo:]
            v = out
            top = v.size - 1
            while flush and top > 0 and v[top] < TINY:
                v[top] = 0.0
                top -= 1
            step += 1
        laws[target] = v.copy()
    return laws


def _fourier(idx: HypergroupIndex, mu: SparseMeasure, theta: float) -> float:
    """Generalized Fourier transform sum_n mu(n) P_n(cos theta)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("fourier: theta must lie in [0, pi]")
    table = eval_poly_table(idx, mu.max_state, np.array([math.cos(theta)]))
    return math.fsum(m * table[s, 0] for s, m in mu.items())


def _inverse_fourier(idx: HypergroupIndex, f, n: int) -> float:
    """w_n * integral of f(theta) P_n(cos theta) sin^(2a+1)(theta) dtheta
    over [0, pi], by the 256-node Gauss-Jacobi rule for (1-x^2)^alpha in
    x = cos theta: exact when f is a polynomial in cos theta of degree
    below 512 - n.
    """
    nodes, wts = roots_jacobi(256, idx.alpha, idx.alpha)
    pn = eval_poly_table(idx, n, nodes)[n]
    fv = np.array([f(math.acos(t)) for t in nodes])
    return weight(idx, n) * float(np.sum(wts * fv * pn))


def _transition_matrix(kernel: GegenbauerKernel, nmax: int) -> np.ndarray:
    """Dense kernel rows 0..nmax, columns truncated to 0..nmax."""
    return np.array([_dense(kernel_row(kernel, x), nmax + 1) for x in range(nmax + 1)])


def _cross_relation_residual(P: np.ndarray, lam: float) -> float:
    """Largest violation of the relation that characterizes Gegenbauer walks.

    For interior states i and columns j, with lam in [0, 1/2],

        i/(2(i+lam)) p(i-1,j) + (i+2lam)/(2(i+lam)) p(i+1,j)
          = (j+2lam-1)/(2(j+lam-1)) p(i,j-1) + (j+1)/(2(j+lam+1)) p(i,j+1)

    holds if and only if the kernel is delta_x * mu for some step mu.  At
    j = 0 the left neighbor term is dropped; at j = 1 with lam = 0 its
    coefficient is the 0/0 limit, 1.  The last two rows and columns are
    excluded, since truncation makes them unreliable.
    """
    if not 0.0 <= lam <= 0.5:
        raise ValueError("lam must lie in [0, 1/2]")
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition must be a square matrix")
    N = P.shape[0] - 1
    if N < 4:
        raise ValueError("need at least states 0..4")
    body = P[: N - 1]
    if body.min() < -1e-12:
        raise ValueError("negative transition probability")
    if np.abs(body.sum(axis=1) - 1.0).max() > 1e-8:
        raise ValueError("rows are not probability vectors")
    i = np.arange(1, N - 2)[:, None].astype(float)
    j_int = np.arange(0, N - 1)
    j = j_int[None, :].astype(float)
    lhs = (i / (2 * (i + lam))) * P[0 : N - 3, 0 : N - 1] + (
        (i + 2 * lam) / (2 * (i + lam))
    ) * P[2 : N - 1, 0 : N - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        c_left = (j + 2 * lam - 1.0) / (2 * (j + lam - 1.0))
    c_left[:, j_int == 0] = 0.0
    if lam == 0.0:
        c_left[:, j_int == 1] = 1.0
    p_left = np.zeros_like(lhs)
    p_left[:, 1:] = P[1 : N - 2, 0 : N - 2]
    rhs = c_left * p_left + ((j + 1.0) / (2 * (j + lam + 1.0))) * P[1 : N - 2, 1:N]
    return float(np.abs(lhs - rhs).max())


def tv_distance(a: SparseMeasure, b: SparseMeasure) -> float:
    states = set(a.support) | set(b.support)
    return 0.5 * sum(abs(a[s] - b[s]) for s in states)


class TestSparseMeasure:
    def test_point_mass(self):
        m = SparseMeasure({3: 1.0})
        assert m.support == (3,)
        assert m[3] == 1.0
        assert m[0] == 0.0
        assert math.fsum(v for _, v in m.items()) == 1.0

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            SparseMeasure({0: 1.5, 1: -0.5})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            SparseMeasure({0: 0.5, 1: 0.4})

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            SparseMeasure({-1: 1.0})

    def test_rejects_fractional_state(self):
        with pytest.raises((ValueError, TypeError)):
            SparseMeasure({1.5: 1.0})

    def test_rejects_negative_pair_that_cancels(self):
        # each pair is checked as it arrives, not the per-state sum
        with pytest.raises(ValueError, match="negative mass"):
            SparseMeasure([(0, 1.0), (3, 0.5), (3, -0.5)])

    def test_rejects_nan_mass(self):
        with pytest.raises(ValueError, match="NaN"):
            SparseMeasure({0: float("nan")})

    def test_zero_mass_dropped(self):
        m = SparseMeasure({0: 1.0, 5: 0.0})
        assert m.support == (0,)

    def test_duplicate_pairs_accumulate(self):
        m = SparseMeasure([(2, 0.5), (2, 0.5)])
        assert m.support == (2,)
        assert m[2] == 1.0

    def test_total_tolerance_respected(self):
        SparseMeasure({0: 0.5, 1: 0.5 + 5e-11}, total_tol=1e-10)
        with pytest.raises(ValueError):
            SparseMeasure({0: 0.5, 1: 0.5 + 5e-11}, total_tol=1e-12)

    def test_dense_and_sparse_storage_agree(self):
        # a contiguous support and one with a far-out atom
        dense = SparseMeasure({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
        sparse = SparseMeasure({0: 0.25, 100: 0.75})
        for m in (dense, sparse):
            assert math.fsum(v for _, v in m.items()) == pytest.approx(1.0, abs=1e-12)
            arr = _dense(m)
            assert arr.shape == (m.max_state + 1,)
            for s in m.support:
                assert arr[s] == m[s]
        assert dense[7] == 0.0
        assert sparse[50] == 0.0

    def test_equality_across_storage(self):
        a = SparseMeasure({0: 0.5, 1: 0.5})
        b = SparseMeasure([(1, 0.5), (0, 0.5)])
        assert a == b
        assert a != SparseMeasure({0: 0.5, 2: 0.5})

    def test_from_array(self):
        m = SparseMeasure.from_array(np.array([0.25, 0.0, 0.75]))
        assert m.support == (0, 2)
        assert m[2] == 0.75

    @given(prob_measures())
    def test_masses_sum_to_one(self, m):
        assert abs(math.fsum(v for _, v in m.items()) - 1.0) < 1e-9


class TestSerialization:
    # parse is the one reader of step-measure files: the CSV the kernel
    # command writes and the JSON of to_json
    def test_csv_round_trip_exact(self, tmp_path):
        m = SparseMeasure({0: 1 / 3, 3: 1 / 3, 7: 1 / 3})
        path = tmp_path / "mu.csv"
        path.write_text("state,mass\n" + "".join(f"{s},{v!r}\n" for s, v in m.items()))
        back = SparseMeasure.parse(str(path))
        assert back == m  # repr round trip keeps every bit

    def test_csv_header(self, tmp_path):
        path = tmp_path / "law.csv"
        assert main(["kernel", "--alpha", "-0.5", "--mu", "1:1", "--x", "0",
                     "--n", "0", "--output", str(path)]) == 0
        assert path.read_text().splitlines()[0] == "state,mass"
        assert SparseMeasure.parse(str(path)) == SparseMeasure({0: 1.0})

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("state,mass\n1,not-a-number\n")
        with pytest.raises(ValueError):
            SparseMeasure.parse(str(path))
        path.write_text("wrong,header\n1,0.5\n")
        with pytest.raises(ValueError):
            SparseMeasure.parse(str(path))

    def test_json_round_trip_with_alpha(self, tmp_path):
        m = SparseMeasure({1: 0.5, 2: 0.5})
        path = tmp_path / "mu.json"
        path.write_text(m.to_json(alpha=-0.25))
        assert SparseMeasure.parse(str(path)) == m
        assert json.loads(path.read_text())["alpha"] == -0.25

    def test_json_round_trip_no_alpha(self, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(DELTA1.to_json())
        assert SparseMeasure.parse(str(path)) == DELTA1
        assert json.loads(path.read_text())["alpha"] is None

    def test_json_without_entries_is_value_error(self, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text('{"alpha": -0.25}')
        with pytest.raises(ValueError, match="entries"):
            SparseMeasure.parse(str(path))

    def test_parse_renormalizes_inline_and_file_specs(self, tmp_path):
        assert SparseMeasure.parse("1:0.5,2:0.5") == MIX
        # a hand-written file: no alpha key, masses off by 1e-10
        path = tmp_path / "mu.json"
        path.write_text('{"entries": {"1": 0.25, "2": 0.7500000001}}')
        mu = SparseMeasure.parse(str(path))
        assert mu[1] == 0.25 / math.fsum([0.25, 0.7500000001])
        with pytest.raises(ValueError, match="sum"):
            SparseMeasure.parse("1:0.5,2:0.4")

    def test_parse_rejects_nan_mass(self):
        with pytest.raises(ValueError, match="sum"):
            SparseMeasure.parse("1:nan")

    def test_walk_law_round_trip(self):
        law = n_step(GegenbauerKernel(QUARTER, MIX), 0, 6)
        entries = json.loads(law.to_json())["entries"]
        assert {int(s): m for s, m in entries.items()} == law.as_dict()


class TestKernelConstruction:
    def test_parity(self):
        assert GegenbauerKernel(QUARTER, MIX).parity == "mixed"
        assert GegenbauerKernel(QUARTER, SparseMeasure({1: 0.3, 3: 0.7})).parity == "odd"
        assert GegenbauerKernel(QUARTER, SparseMeasure({2: 1.0})).parity == "even"
        # the unit step is periodic: the walk alternates parity class
        assert GegenbauerKernel(QUARTER, DELTA1).parity == "odd"

    @pytest.mark.parametrize(
        "masses,expected",
        [
            ({1: 1.0}, True),
            ({1: 0.5, 3: 0.5}, False),
            ({2: 1.0}, False),
            ({1: 0.5, 2: 0.5}, False),
        ],
    )
    def test_is_unit_step(self, masses, expected):
        assert GegenbauerKernel(QUARTER, SparseMeasure(masses)).is_unit_step is expected


class TestConvolve:
    # the reference convolution behind _n_step_by_convolution
    def test_identity_element(self):
        delta0 = SparseMeasure({0: 1.0})
        m = SparseMeasure({1: 0.5, 4: 0.5})
        assert _convolve(QUARTER, delta0, m) == m
        assert _convolve(QUARTER, m, delta0) == m

    def test_delta1_squared(self):
        out = _convolve(QUARTER, DELTA1, DELTA1)
        # delta_1 * delta_1 splits over {0, 2} with the degree-1 Jacobi weights
        a = QUARTER.alpha
        expected0 = 1.0 / (2 * a + 3)
        assert out.support == (0, 2)
        assert out[0] == pytest.approx(expected0, abs=1e-15)
        assert out[2] == pytest.approx(1 - expected0, abs=1e-15)

    def test_chebyshev_case_is_arithmetic_mean(self):
        out = _convolve(CHEB, SparseMeasure({2: 1.0}), SparseMeasure({5: 1.0}))
        assert out[3] == pytest.approx(0.5, abs=1e-15)
        assert out[7] == pytest.approx(0.5, abs=1e-15)

    @given(alphas, prob_measures(), prob_measures())
    @settings(max_examples=60, deadline=None)
    def test_commutative_bit_exact(self, a, mu, nu):
        idx = HypergroupIndex(a)
        left = _convolve(idx, mu, nu)
        right = _convolve(idx, nu, mu)
        assert left.support == right.support
        for s in left.support:
            assert left[s] == right[s]

    @given(alphas, prob_measures(max_state=6), prob_measures(max_state=6))
    @settings(max_examples=40, deadline=None)
    def test_result_is_probability(self, a, mu, nu):
        out = _convolve(HypergroupIndex(a), mu, nu)
        assert all(v >= 0.0 for _, v in out.items())
        assert abs(math.fsum(v for _, v in out.items()) - 1.0) < 1e-10


class TestKernelRow:
    def test_row_from_origin_is_step_law(self):
        k = GegenbauerKernel(QUARTER, MIX)
        assert kernel_row(k, 0) == MIX

    def test_unit_step_rows_are_birth_death(self):
        k = GegenbauerKernel(QUARTER, DELTA1)
        a = QUARTER.alpha
        row0 = kernel_row(k, 0)
        assert row0.support == (1,) and row0[1] == 1.0
        for x in (1, 2, 5, 17):
            row = kernel_row(k, x)
            down = x / (2 * x + 2 * a + 1)
            assert row.support == (x - 1, x + 1)
            assert row[x - 1] == pytest.approx(down, abs=1e-15)
            assert row[x + 1] == pytest.approx(1 - down, abs=1e-15)

    def test_chebyshev_rows_are_exact_halves(self):
        k = GegenbauerKernel(CHEB, DELTA1)
        row = kernel_row(k, 4)
        assert row[3] == 0.5 and row[5] == 0.5

    @given(alphas, prob_measures(max_state=5), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_stochastic(self, a, mu, x):
        row = kernel_row(GegenbauerKernel(HypergroupIndex(a), mu), x)
        assert all(v >= 0.0 for _, v in row.items())
        assert abs(math.fsum(v for _, v in row.items()) - 1.0) < 1e-10


class TestNStep:
    def test_zero_steps(self):
        k = GegenbauerKernel(QUARTER, MIX)
        assert n_step(k, 3, 0) == SparseMeasure({3: 1.0})

    def test_one_step_matches_row(self):
        k = GegenbauerKernel(QUARTER, MIX)
        for x in (0, 1, 4, 9):
            row, one = kernel_row(k, x), n_step(k, x, 1)
            assert row.support == one.support
            assert tv_distance(one, row) < 1e-14

    def test_reflected_two_and_four_steps(self):
        k = GegenbauerKernel(CHEB, DELTA1)
        law2 = n_step(k, 0, 2)
        assert law2.support == (0, 2)
        assert law2[0] == 0.5 and law2[2] == 0.5
        law4 = n_step(k, 0, 4)
        assert law4[0] == 0.375 and law4[2] == 0.5 and law4[4] == 0.125

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_reflected_law_matches_exact_enumeration(self, n):
        k = GegenbauerKernel(CHEB, DELTA1)
        law = n_step(k, 0, n)
        oracle = reflected_walk_law(n)
        assert set(law.support) == set(oracle)
        for s, frac in oracle.items():
            assert law[s] == float(frac)  # dyadic arithmetic, bit exact

    @pytest.mark.parametrize("m", range(1, 11))
    def test_reflected_return_probability(self, m):
        k = GegenbauerKernel(CHEB, DELTA1)
        assert n_step(k, 0, 2 * m)[0] == reflected_return_probability(m)

    @pytest.mark.parametrize(
        "alpha,mu,x,n",
        [
            (-0.25, MIX, 0, 16),
            (-0.25, MIX, 3, 9),
            (-0.5, DELTA1, 0, 32),
            (0.7, SparseMeasure({0: 0.2, 1: 0.3, 4: 0.5}), 2, 12),
            (2.0, MIX, 1, 64),
        ],
    )
    def test_agrees_with_repeated_convolution(self, alpha, mu, x, n):
        idx = HypergroupIndex(alpha)
        k = GegenbauerKernel(idx, mu)
        direct = n_step(k, x, n)
        oracle = _n_step_by_convolution(k, x, n)
        assert tv_distance(direct, oracle) < 1e-11

    def test_mass_conserved_long_run(self):
        k = GegenbauerKernel(QUARTER, MIX)
        law = n_step(k, 0, 4096)
        assert abs(math.fsum(v for _, v in law.items()) - 1.0) < 1e-10
        assert all(v >= 0.0 for _, v in law.items())

    def test_unit_step_parity_is_exact(self):
        k = GegenbauerKernel(QUARTER, DELTA1)
        law = n_step(k, 0, 17)
        assert all(s % 2 == 1 for s in law.support)
        assert all(law[s] == 0.0 for s in range(0, 18, 2))

    def test_state_cap(self):
        # refused before any iteration: the support could reach 2 * n + 1 states
        k = GegenbauerKernel(QUARTER, MIX)
        with pytest.raises(StateCapError) as exc:
            n_step(k, 0, DEFAULT_STATE_CAP // 2)
        assert exc.value.required > DEFAULT_STATE_CAP

    @pytest.mark.parametrize("x", [-1, -3])
    def test_sequence_rejects_negative_start(self, x):
        k = GegenbauerKernel(QUARTER, MIX)
        with pytest.raises(ValueError, match="must be >= 0"):
            transition_probabilities(k, x, 0, [1, 4])
        with pytest.raises(ValueError, match="must be >= 0"):
            n_step(k, x, 4)

    def test_sequence_matches_single_calls(self):
        # a value does not depend on the other horizons asked for with it
        k = GegenbauerKernel(QUARTER, MIX)
        horizons = [64, 1, 16, 4]
        for x, y in [(0, 0), (1, 2)]:
            values, _ = transition_probabilities(k, x, y, horizons)
            for n, v in zip(horizons, values):
                assert v.tobytes() == transition_probabilities(k, x, y, [n])[0][0].tobytes()


class TestLiveWindowBytes:
    # the live window skips only entries that are exactly zero, so every
    # law is byte-identical to the full-length loop with the same flush
    @pytest.mark.parametrize(
        "alpha,mu,x,horizons",
        [
            (-0.25, MIX, 0, [64 * 2**k for k in range(6)]),
            (-0.5, DELTA1, 3, [1, 2, 7, 50, 301]),
            (1.3, SparseMeasure({0: 0.2, 1: 0.3, 3: 0.5}), 2, [1, 5, 40, 200]),
            (0.0, MIX, 4, [0, 3, 100]),
            (-0.1, SparseMeasure({1: 0.5, 7: 0.5}), 3, [1, 2, 9, 60, 250]),
            (0.0, SparseMeasure({2: 1.0}), 0, [1, 4, 33, 200]),
        ],
    )
    def test_matches_full_length_loop(self, alpha, mu, x, horizons):
        k = GegenbauerKernel(HypergroupIndex(alpha), mu)
        laws = {n: n_step(k, x, n) for n in horizons}
        oracle = _full_length_laws(k, x, horizons)
        assert sorted(laws) == sorted(oracle)
        for n in horizons:
            want = SparseMeasure.from_array(oracle[n], total_tol=1e-10)
            assert laws[n].to_json() == want.to_json()
        if alpha == -0.25:
            # the mixed step's far tail underflows to exact zeros, so the
            # window is shorter than the full vector and the trim runs
            v = oracle[horizons[-1]]
            assert v[-1] == 0.0 and laws[horizons[-1]].max_state < v.size - 1


class TestRowSumOrder:
    # each step of the sweep sums its products with
    # np.add.reduce(axis=0, initial=0.0); its bits are the per-diagonal
    # loop's only if numpy adds the rows one after another, from +0.0
    @pytest.mark.parametrize("m", [1, 7, 4097])
    def test_add_reduce_adds_rows_in_order(self, m):
        rng = np.random.default_rng(0)
        for rows in range(2, 16):
            a = 10.0 ** rng.uniform(-300.0, 0.0, size=(rows, m))
            want = np.zeros(m)
            for row in a:
                want += row
            assert np.add.reduce(a, axis=0, initial=0.0).tobytes() == want.tobytes(), rows
            # the sweep's layout: the first m columns of a wider buffer
            wide = np.empty((rows, m + 5))
            wide[:, :m] = a
            out = np.empty(m)
            np.add.reduce(wide[:, :m], axis=0, initial=0.0, out=out)
            assert out.tobytes() == want.tobytes(), rows


class TestSubnormalFlush:
    # at alpha = 1/2 with mu uniform on {1, 2, 3} the walk is transient
    # and its far tail falls below 2^-1022 from about n = 300; n_step
    # flushes that tail, and the one-step operator is a positive l1
    # contraction, so the flushed mass bounds the distance to the
    # unflushed iteration
    @pytest.mark.parametrize("x", [0, 4])
    def test_flushed_laws_against_unflushed_loop(self, x):
        mu = SparseMeasure({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
        k = GegenbauerKernel(HypergroupIndex(0.5), mu)
        horizons = [300, 600]
        laws = {n: n_step(k, x, n) for n in horizons}
        raw = _full_length_laws(k, x, horizons, flush=False)
        for n in horizons:
            r = raw[n]
            got = _dense(laws[n], r.size)
            assert np.any((r > 0.0) & (r < TINY))  # the flush has work to do
            assert math.fsum(np.abs(got - r).tolist()) <= n * (x + 3 * n + 1) * TINY
            assert not np.any(got[r == 0.0])
            normal = r >= 1e-280
            assert np.array_equal(got[normal], r[normal])
            top = laws[n].max_state
            assert laws[n][top] >= TINY and not np.any(got[top + 1:])
            assert top < np.flatnonzero(r)[-1]  # the window shrank


class TestMassDrift:
    @pytest.fixture
    def leaky_operator(self, monkeypatch):
        # an operator that creates mass: every step scales the law by 1 + 1e-9
        make = hypergroup._band

        def leaky(*args):
            return make(*args) * (1.0 + 1e-9)

        monkeypatch.setattr(hypergroup, "_band", leaky)

    def test_drift_raises_consistency_error(self, leaky_operator):
        k = GegenbauerKernel(QUARTER, MIX)
        with pytest.raises(ConsistencyError, match=r"n=1 has total mass 1\+1\.000e-09") as exc:
            n_step(k, 0, 1)
        assert "beyond 1e-10" in str(exc.value) and "flushed mass 0" in str(exc.value)

    def test_return_probabilities_checks_drift_at_n(self, leaky_operator):
        k = GegenbauerKernel(QUARTER, MIX)
        with pytest.raises(ConsistencyError, match=r"n=8 has total mass 1\+8\.000e-09"):
            return_probabilities(k, 0, 0, 8)

    def test_transition_probabilities_checks_each_law_read(self, leaky_operator):
        # horizon 2 reads the law after one step from each side
        k = GegenbauerKernel(QUARTER, MIX)
        with pytest.raises(ConsistencyError, match=r"n=1 has total mass 1\+1\.000e-09"):
            transition_probabilities(k, 0, 3, [8, 2])


BAND_CASES = [
    (-0.25, MIX),
    (-0.25, SparseMeasure({1: 0.25, 2: 0.5, 5: 0.25})),
    (1.3, SparseMeasure({0: 0.2, 1: 0.3, 3: 0.5})),
    (-0.5, DELTA1),
]
BAND_IDS = ["mixed", "three-atom", "lazy", "unit"]
DETAILED_BALANCE_STEPS = [
    DELTA1,
    MIX,
    SparseMeasure({1: 0.2, 2: 0.3, 3: 0.5}),
    SparseMeasure({1: 0.5, 7: 0.5}),
]
DETAILED_BALANCE_IDS = ["unit", "mixed", "three-atom", "wide-odd"]


class TestBand:
    # the one-step operator as its 2 * smax + 1 diagonals, built once per sweep
    @pytest.mark.parametrize("alpha,mu", BAND_CASES, ids=BAND_IDS)
    def test_columns_are_poly_apply_bit_for_bit(self, alpha, mu):
        # up to the round-off floor: on the three-atom step, p(3, 0) comes
        # out of the recurrence at -1.2e-17 and the band holds 0.0
        k = GegenbauerKernel(HypergroupIndex(alpha), mu)
        smax, size = mu.max_state, 40
        band = hypergroup._band(k, size)
        assert band.shape == (2 * smax + 1, size)
        for j in range(size):
            e = np.zeros(size)
            e[j] = 1.0
            want = np.maximum(_poly_apply(alpha, list(mu.items()), e), 0.0)
            col = np.zeros(size + smax)
            for d in range(-smax, smax + 1):
                if j + d >= 0:
                    col[j + d] = band[smax + d, j]
                else:
                    assert band[smax + d, j] == 0.0
            assert col.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha,mu", BAND_CASES, ids=BAND_IDS)
    def test_columns_sum_to_one(self, alpha, mu):
        band = hypergroup._band(GegenbauerKernel(HypergroupIndex(alpha), mu), 200)
        assert np.all(np.abs(band.sum(axis=0) - 1.0) <= 1e-14)

    @pytest.mark.parametrize("alpha,mu", BAND_CASES, ids=BAND_IDS)
    def test_negative_entry_refused_before_any_step(self, alpha, mu, monkeypatch):
        real = hypergroup._poly_apply

        def negative(*args):
            out = real(*args)
            out[0] = -1e-6
            return out

        monkeypatch.setattr(hypergroup, "_poly_apply", negative)
        k = GegenbauerKernel(HypergroupIndex(alpha), mu)
        with pytest.raises(ConsistencyError, match="negative probability -1.000e-06"):
            n_step(k, 0, 5)
        with pytest.raises(ConsistencyError):
            next(hypergroup._sweep(k, 0, 5))  # the band refuses before step 0 is yielded

    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0, 0.5])
    @pytest.mark.parametrize("mu", DETAILED_BALANCE_STEPS, ids=DETAILED_BALANCE_IDS)
    def test_detailed_balance(self, alpha, mu):
        # the walk is reversible with respect to the Haar weights,
        # w_x p(x, x + d) = w_(x+d) p(x + d, x), which transition_probabilities
        # rests on.  The band keeps it to round-off: on these cases the
        # largest relative gap is 9.1e-15 (the wide odd step at alpha = -1/4),
        # and the largest absolute one 2.7e-16 in units of the weight.  A
        # structural zero can come out of the recurrence at up to 3.7e-17
        # on one side, so only entries above 1e-12 are compared relatively.
        idx = HypergroupIndex(alpha)
        smax, size = mu.max_state, 400
        band = hypergroup._band(GegenbauerKernel(idx, mu), size)
        w = hypergroup._haar_weights(idx, size)
        for d in range(1, smax + 1):
            fwd = w[: size - d] * band[smax + d, : size - d]
            back = w[d:] * band[smax - d, d:]
            scale = np.maximum(w[: size - d], w[d:])
            assert np.all(np.abs(fwd - back) <= 1e-15 * scale), d
            big = np.minimum(fwd, back) > 1e-12 * scale
            rel = np.abs(fwd - back)[big] / np.maximum(fwd, back)[big]
            assert np.all(rel <= 1e-13), (d, rel.max())

    def test_state_cap_binds_only_from_smax_4(self):
        def cap(smax):
            return hypergroup._BAND_CAP // ((smax + 1) * (2 * smax + 1))

        assert cap(3) >= DEFAULT_STATE_CAP > cap(4)

    def test_wide_step_refused_at_its_state_cap(self):
        # the build costs O(smax^2) per state, however short the horizon
        k = GegenbauerKernel(QUARTER, SparseMeasure({1: 0.5, 40: 0.5}))
        cap = hypergroup._BAND_CAP // (41 * 81)
        assert hypergroup._band(k, cap).shape == (81, cap)
        with pytest.raises(StateCapError) as exc:
            hypergroup._band(k, cap + 1)
        assert exc.value.required == cap + 1

    def test_wide_short_horizon_refused_before_building(self, monkeypatch):
        # a 4001 x 2001 band built by 4001 length-2001 recurrences for one step
        def unreachable(*args):
            raise AssertionError("the band was built")

        monkeypatch.setattr(hypergroup, "_poly_apply", unreachable)
        k = GegenbauerKernel(QUARTER, SparseMeasure({2000: 1.0}))
        with pytest.raises(StateCapError, match="a step up to 2000 has a band state cap of 4"):
            n_step(k, 0, 1)
        with pytest.raises(StateCapError):
            return_probabilities(k, 0, 0, 1)

    @pytest.mark.parametrize("mu", [MIX, SparseMeasure({2000: 1.0})], ids=["mixed", "wide"])
    def test_step_zero_builds_no_band(self, mu, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the band was built")

        monkeypatch.setattr(hypergroup, "_band", unreachable)
        k = GegenbauerKernel(QUARTER, mu)
        assert n_step(k, 7, 0) == SparseMeasure({7: 1.0})
        assert return_probabilities(k, 7, 7, 0)[0].tolist() == [1.0]


class TestReturnProbabilities:
    @pytest.mark.parametrize("alpha,mu", [(-0.25, MIX), (-0.5, DELTA1)], ids=["mixed", "unit"])
    @pytest.mark.parametrize("x,y", [(0, 0), (3, 1)])
    def test_bitwise_equal_to_laws(self, alpha, mu, x, y):
        k = GegenbauerKernel(HypergroupIndex(alpha), mu)
        n = 300
        r, flushed = return_probabilities(k, x, y, n)
        assert r.tobytes() == np.array([n_step(k, x, j)[y] for j in range(n + 1)]).tobytes()
        assert type(flushed) is float

    @pytest.mark.parametrize("alpha", [-0.5, -0.25])
    @pytest.mark.parametrize("x,y", [(0, 0), (3, 1), (2, 5)])
    def test_unit_step_parity_zeros(self, alpha, x, y):
        r, _ = return_probabilities(GegenbauerKernel(HypergroupIndex(alpha), DELTA1), x, y, 101)
        k = np.arange(r.size)
        even = (k + x + y) % 2 == 0
        assert np.all(r[~even] == 0.0)
        assert np.all(r[even & (k >= abs(x - y))] > 0.0)

    def test_against_sparse_matrix_oracle(self):
        n = 2048
        r, flushed = return_probabilities(GegenbauerKernel(QUARTER, MIX), 0, 0, n)
        want, dropped = exact_return_probabilities(-0.25, n, 0.5, 0.5)
        assert np.all(np.abs(r - want) <= flushed + dropped + 1e-14 * want)

    @pytest.mark.parametrize("x,y,n", [(-1, 0, 4), (0, -1, 4), (0, 0, -1)])
    def test_rejects_negative_arguments(self, x, y, n):
        with pytest.raises(ValueError, match="must be >= 0"):
            return_probabilities(GegenbauerKernel(QUARTER, MIX), x, y, n)

    def test_state_cap(self):
        with pytest.raises(StateCapError, match="return_probabilities") as exc:
            return_probabilities(GegenbauerKernel(QUARTER, MIX), 0, 0, DEFAULT_STATE_CAP // 2)
        assert exc.value.required > DEFAULT_STATE_CAP


POINT_STEPS = [DELTA1, MIX, SparseMeasure({1: 0.2, 2: 0.3, 3: 0.5})]
POINT_IDS = ["unit", "mixed", "three-atom"]


class TestTransitionProbabilities:
    # p^(n)(x, y) = w_y sum_z p^(a)(x, z) p^(b)(y, z) / w_z from two half sweeps
    @pytest.mark.parametrize("alpha", [-0.5, -0.4, -0.25, 0.0, 0.5])
    @pytest.mark.parametrize("mu", POINT_STEPS, ids=POINT_IDS)
    @pytest.mark.parametrize("x,y", [(0, 0), (0, 3), (1, 2), (2, 2)])
    def test_matches_n_step(self, alpha, mu, x, y):
        k = GegenbauerKernel(HypergroupIndex(alpha), mu)
        horizons = [1, 2, 3, 64, 1001]
        values, bound = transition_probabilities(k, x, y, horizons)
        assert values.shape == (5,) and type(bound) is float and bound <= 1e-290
        for n, v in zip(horizons, values):
            want = n_step(k, x, n)[y]
            if want == 0.0:
                assert v == 0.0, (n, v)
            else:
                assert abs(v - want) <= 1e-13 * want, (n, v / want - 1.0)

    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.5])
    @pytest.mark.parametrize("x,y", [(0, 0), (0, 3), (1, 2), (5, 2)])
    def test_unit_step_parity_zeros(self, alpha, x, y):
        # the two half laws sit on disjoint parity classes
        horizons = list(range(60)) + [999, 1000, 1001]
        values, _ = transition_probabilities(
            GegenbauerKernel(HypergroupIndex(alpha), DELTA1), x, y, horizons
        )
        n = np.array(horizons)
        even = (n + x + y) % 2 == 0
        assert np.all(values[~even] == 0.0)
        assert np.all(values[even & (n >= abs(x - y))] > 0.0)
        assert np.all(values[n < abs(x - y)] == 0.0)

    def test_horizon_zero_and_no_horizons(self):
        k = GegenbauerKernel(QUARTER, MIX)
        assert transition_probabilities(k, 3, 3, [0])[0].tolist() == [1.0]
        assert transition_probabilities(k, 3, 2, [0])[0].tolist() == [0.0]
        values, bound = transition_probabilities(k, 0, 0, [])
        assert values.size == 0 and bound == 0.0

    @pytest.mark.parametrize("x,y", [(0, 0), (0, 5)])
    def test_bound_is_the_accounted_flush(self, x, y):
        # at alpha = 1/2 on {1, 2, 3} the far tails flush from about n = 300;
        # the bound is F_x + max_z(w_y / w_z) F_y, with F the flushed mass
        # of each half sweep, and it holds against the unflushed iteration
        mu = SparseMeasure({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
        k = GegenbauerKernel(HypergroupIndex(0.5), mu)
        n = 1201
        values, bound = transition_probabilities(k, x, y, [n])
        a, b = (n + 1) // 2, n // 2
        f_x = return_probabilities(k, x, x, a)[1]
        f_y = f_x if x == y else return_probabilities(k, y, y, b)[1]
        w = hypergroup._haar_weights(k.idx, max(x + 3 * a, y + 3 * b) + 1)
        assert f_x > 0.0 and f_y > 0.0
        assert bound == f_x + float(w[y] / w.min()) * f_y
        raw = _full_length_laws(k, x, [n], flush=False)[n][y]
        assert abs(values[0] - raw) <= bound + 1e-13 * raw

    @pytest.mark.parametrize("alpha", [-0.5, -0.4, -0.25, 0.0, 0.5, 1.7])
    def test_haar_weights_match_gamma_form(self, alpha):
        # the ratio recurrence against mpmath's
        # (2z+2a+1) Gamma(z+2a+1) / (2^(2a+1) Gamma(z+1) Gamma(a+1)^2)
        import mpmath

        size = 20_000
        w = hypergroup._haar_weights(HypergroupIndex(alpha), size)
        zs = sorted(set(range(50)) | set(range(50, size, 97)) | {size - 1})
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            denom = 2 ** (2 * a + 1) * mpmath.gamma(a + 1) ** 2
            for z in zs:
                if z == 0:
                    want = mpmath.gamma(2 * a + 2) / denom
                else:
                    want = (2 * z + 2 * a + 1) * mpmath.exp(
                        mpmath.loggamma(z + 2 * a + 1) - mpmath.loggamma(z + 1)
                    ) / denom
                assert abs(w[z] / float(want) - 1.0) <= 1e-12, (z, w[z] / float(want) - 1.0)

    def test_state_cap_counts_the_half_reach(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the band was built")

        monkeypatch.setattr(hypergroup, "_band", unreachable)
        k = GegenbauerKernel(QUARTER, MIX)
        # 2 * 500000 + 1 states from x = 0: refused before any iteration
        with pytest.raises(StateCapError, match="state cap") as exc:
            transition_probabilities(k, 0, 0, [64, DEFAULT_STATE_CAP])
        assert exc.value.required == DEFAULT_STATE_CAP + 1
        # the sweep from y counts its own start
        with pytest.raises(StateCapError) as exc:
            transition_probabilities(k, 0, DEFAULT_STATE_CAP - 10, [20])
        assert exc.value.required == DEFAULT_STATE_CAP + 11

    @pytest.mark.parametrize("x,y,n", [(-1, 0, 4), (0, -1, 4), (0, 0, -1)])
    def test_rejects_negative_arguments(self, x, y, n):
        with pytest.raises(ValueError, match="must be >= 0"):
            transition_probabilities(GegenbauerKernel(QUARTER, MIX), x, y, [2, n])


class TestFourier:
    # the product formula: _poly_apply in coefficient space against
    # pointwise products of the recurrence in value space
    @given(prob_measures())
    @settings(max_examples=40, deadline=None)
    def test_value_at_zero(self, mu):
        assert _fourier(QUARTER, mu, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_transform(self):
        # at alpha = -1/2 the transform of delta_n is cos(n theta)
        for n in (0, 1, 3, 6):
            for theta in (0.1, 1.0, 2.5):
                assert _fourier(CHEB, SparseMeasure({n: 1.0}), theta) == pytest.approx(
                    math.cos(n * theta), abs=1e-14
                )

    @given(alphas, prob_measures(max_state=8), prob_measures(max_state=8),
           st.floats(0.0, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_under_convolution(self, a, mu, nu, theta):
        idx = HypergroupIndex(a)
        lhs = _fourier(idx, _convolve(idx, mu, nu), theta)
        rhs = _fourier(idx, mu, theta) * _fourier(idx, nu, theta)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(alphas, prob_measures(), st.floats(0.0, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_one(self, a, mu, theta):
        assert abs(_fourier(HypergroupIndex(a), mu, theta)) <= 1.0 + 1e-12

    def test_domain_check(self):
        with pytest.raises(ValueError):
            _fourier(QUARTER, MIX, -0.1)
        with pytest.raises(ValueError):
            _fourier(QUARTER, MIX, math.pi + 0.1)


class TestInverseFourier:
    def test_point_mass_round_trip(self):
        f = lambda theta: _fourier(QUARTER, SparseMeasure({2: 1.0}), theta)
        assert _inverse_fourier(QUARTER, f, 2) == pytest.approx(1.0, abs=1e-8)
        assert _inverse_fourier(QUARTER, f, 3) == pytest.approx(0.0, abs=1e-8)
        assert _inverse_fourier(QUARTER, f, 4) == pytest.approx(0.0, abs=1e-8)

    def test_mixture_round_trip(self):
        f = lambda theta: _fourier(QUARTER, MIX, theta)
        assert _inverse_fourier(QUARTER, f, 1) == pytest.approx(0.5, abs=1e-8)
        assert _inverse_fourier(QUARTER, f, 2) == pytest.approx(0.5, abs=1e-8)

    def test_transform_power_recovers_walk_law(self):
        # spectral route vs direct iteration, two ways through the theory
        k = GegenbauerKernel(QUARTER, MIX)
        n = 100
        law = n_step(k, 0, n)
        f = lambda theta: _fourier(QUARTER, MIX, theta) ** n
        for state in range(21):
            assert _inverse_fourier(QUARTER, f, state) == pytest.approx(
                law[state], abs=1e-7
            )


class TestClassification:
    def test_drift_constant_unit_step(self):
        for a in (-0.5, -0.25, 0.0, 1.5):
            assert drift_constant(HypergroupIndex(a), DELTA1) == pytest.approx(
                0.5, abs=1e-14
            )

    def test_drift_constant_mixture(self):
        assert drift_constant(QUARTER, MIX) == pytest.approx(13.0 / 12.0, abs=1e-13)

    def test_drift_constant_lazy_origin(self):
        assert drift_constant(QUARTER, SparseMeasure({0: 1.0})) == 0.0


class TestMembership:
    # kernel rows satisfy the cross-relation that characterizes the walks
    def test_unit_step_kernel_is_member(self):
        P = _transition_matrix(GegenbauerKernel(QUARTER, DELTA1), 40)
        assert _cross_relation_residual(P, lam=0.25) < 1e-12
        assert SparseMeasure.from_array(P[0], total_tol=1e-8) == DELTA1

    def test_mixture_kernel_is_member(self):
        P = _transition_matrix(GegenbauerKernel(QUARTER, MIX), 40)
        assert _cross_relation_residual(P, lam=0.25) <= 1e-10
        assert SparseMeasure.from_array(P[0], total_tol=1e-8) == MIX

    def test_chebyshev_kernel_at_lambda_zero(self):
        # lam = 0 exercises the removable singularity in the column-one weight
        P = _transition_matrix(GegenbauerKernel(CHEB, DELTA1), 30)
        assert _cross_relation_residual(P, lam=0.0) < 1e-12

    def test_perturbed_kernel_rejected(self):
        P = _transition_matrix(GegenbauerKernel(QUARTER, DELTA1), 40)
        P[3, 4] += 1e-3
        P[3, 2] -= 1e-3
        assert _cross_relation_residual(P, lam=0.25) > 1e-5

    def test_wrong_lambda_rejected(self):
        P = _transition_matrix(GegenbauerKernel(QUARTER, DELTA1), 40)
        assert _cross_relation_residual(P, lam=0.4) > 1e-10

    def test_lambda_range_enforced(self):
        P = _transition_matrix(GegenbauerKernel(QUARTER, DELTA1), 10)
        for lam in (-0.1, 0.6):
            with pytest.raises(ValueError):
                _cross_relation_residual(P, lam=lam)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValueError):
            _cross_relation_residual(np.ones((3, 4)), lam=0.25)
        with pytest.raises(ValueError):
            _cross_relation_residual(np.eye(3), lam=0.25)  # too small to test
        bad = np.zeros((10, 10))
        bad[0, 1] = 0.7  # rows do not sum to one
        with pytest.raises(ValueError):
            _cross_relation_residual(bad, lam=0.25)
