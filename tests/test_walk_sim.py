"""Tests for the Monte Carlo engine: reproducibility, laws, local times."""

import hashlib
import math
import multiprocessing
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gegwalk import walk_sim
from gegwalk.errors import StateCapError
from gegwalk.gegenbauer import HypergroupIndex
from gegwalk.hypergroup import GegenbauerKernel, SparseMeasure, kernel_row, n_step
from gegwalk.walk_sim import (
    LocalTimeSamples,
    WalkConfig,
    _row_cdf,
    _run_block,
    local_time_counts,
    simulate_replica,
)

from _oracles import local_time_distribution, unit_step_row

CHEB = HypergroupIndex(-0.5)
QUARTER = HypergroupIndex(-0.25)
D1 = SparseMeasure({1: 1.0})
MIX = SparseMeasure({1: 0.5, 2: 0.5})


def cfg(idx=CHEB, mu=D1, start=0, horizon=20, replicas=100, targets=(0,), seed=42):
    return WalkConfig(idx, mu, start, horizon, replicas, targets, seed)


class TestWalkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(start=-1)
        with pytest.raises(ValueError):
            cfg(horizon=-1)
        with pytest.raises(ValueError):
            cfg(replicas=0)
        with pytest.raises(ValueError):
            cfg(targets=())
        with pytest.raises(ValueError):
            cfg(targets=(-2,))
        with pytest.raises(ValueError):
            cfg(seed=-1)
        with pytest.raises(ValueError):
            cfg(seed=2**64)


class TestSimulateReplica:
    def test_matches_vectorized_engine_unit_step(self):
        c = cfg(horizon=60, replicas=250, targets=(0, 1, 4), seed=7)
        lt = local_time_counts(c)
        for r in (0, 1, 100, 249):
            terminal, counts = simulate_replica(c, r)
            assert terminal == lt.terminal[r]
            for j, y in enumerate(c.target_states):
                assert counts[y] == lt.counts[r, j]

    def test_matches_vectorized_engine_general_route(self):
        c = cfg(idx=QUARTER, mu=MIX, start=2, horizon=45, replicas=250,
                targets=(0, 2), seed=11)
        lt = local_time_counts(c)
        for r in (0, 3, 128, 249):
            terminal, counts = simulate_replica(c, r)
            assert terminal == lt.terminal[r]
            for j, y in enumerate(c.target_states):
                assert counts[y] == lt.counts[r, j]

    def test_matches_vectorized_engine_wide_step(self):
        # smax = 128: the first step moves half the replicas by +128, one
        # past what an int8 move holds
        c = cfg(mu=SparseMeasure({1: 0.5, 128: 0.5}), horizon=5, replicas=300,
                targets=(0, 1, 128, 129, 255, 256, 383), seed=13)
        lt = local_time_counts(c)
        assert lt.terminal.max() > 256
        for r in range(c.replicas):
            terminal, counts = simulate_replica(c, r)
            assert terminal == lt.terminal[r]
            assert [counts[y] for y in c.target_states] == lt.counts[r].tolist()

    @pytest.mark.parametrize("horizon", [0, 1, 5, 600])
    @pytest.mark.parametrize("mu", [{0: 1.0}, {0: 0.3, 1: 0.7}], ids=["stay", "lazy"])
    def test_matches_vectorized_engine_with_a_zero_step(self, mu, horizon):
        # mu = delta_0 leaves the table no cut-point column at all; 4100
        # replicas run past the first 4096-replica block
        c = cfg(idx=HypergroupIndex(0.3), mu=SparseMeasure(mu), start=2,
                horizon=horizon, replicas=4100, targets=(0, 2, 3), seed=1)
        ref = [simulate_replica(c, r) for r in range(c.replicas)]
        for threads in (1, 2):
            lt = local_time_counts(c, threads=threads)
            assert lt.terminal.tolist() == [t for t, _ in ref]
            assert lt.counts.tolist() == [[n[y] for y in c.target_states] for _, n in ref]

    def test_replica_index_range(self):
        with pytest.raises(ValueError):
            simulate_replica(cfg(replicas=10), 10)


class TestPathStructure:
    def test_birth_death_steps(self):
        # one step from several starts: the unit-step walk moves exactly one
        for start in (0, 1, 2, 7):
            c = cfg(start=start, horizon=1, replicas=400, targets=(0,), seed=start)
            lt = local_time_counts(c)
            allowed = {start + 1} if start == 0 else {start - 1, start + 1}
            assert set(np.unique(lt.terminal)) <= allowed

    def test_states_stay_nonnegative(self):
        c = cfg(horizon=200, replicas=2000, seed=3)
        lt = local_time_counts(c)
        assert (lt.terminal >= 0).all()

    def test_terminal_parity_tracks_horizon(self):
        for horizon in (11, 12):
            c = cfg(horizon=horizon, replicas=3000, seed=14)
            lt = local_time_counts(c)
            assert ((lt.terminal % 2) == horizon % 2).all()

    def test_endpoint_law_matches_exact_iteration(self):
        # empirical law of the position after 10 steps vs the exact law
        c = cfg(horizon=10, replicas=100_000, seed=2024)
        lt = local_time_counts(c)
        law = n_step(GegenbauerKernel(CHEB, D1), 0, 10)
        obs = np.bincount(lt.terminal, minlength=11)
        exp = np.array([law[s] for s in range(11)]) * c.replicas
        keep = exp > 0
        assert (obs[~keep] == 0).all()
        _, pval = chisquare(obs[keep], exp[keep])
        assert pval > 0.001

    def test_row_sampling_matches_kernel_row(self):
        # aggregate one-step distribution from a fixed state vs the row
        c = cfg(idx=QUARTER, mu=MIX, start=5, horizon=1, replicas=100_000,
                targets=(0,), seed=31)
        lt = local_time_counts(c)
        row = kernel_row(GegenbauerKernel(QUARTER, MIX), 5)
        obs = np.bincount(lt.terminal, minlength=8)
        exp = np.array([row[s] for s in range(8)]) * c.replicas
        keep = exp > 0
        assert (obs[~keep] == 0).all()
        _, pval = chisquare(obs[keep], exp[keep])
        assert pval > 0.001


class TestRowTable:
    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0, 0.5])
    def test_unit_step_row_is_closed_form(self, alpha):
        row = unit_step_row(alpha)
        for x in range(201):
            p = row(x)[0][1] if x > 0 else 0.0
            assert _row_cdf(alpha, ((1, 1.0),), x) == (p, p)

    def test_table_starts_where_the_walk_can_reach(self):
        # 10 steps of at most 2 from x = 8000 never go below 7980, so the
        # rows under it are never built
        n, smax = 10, MIX.max_state
        _row_cdf.cache_clear()
        local_time_counts(cfg(idx=QUARTER, mu=MIX, start=8000, horizon=n,
                              replicas=100, targets=(8000,)))
        assert _row_cdf.cache_info().misses <= 2 * n * smax + 64 * smax + 1

    def test_wide_step_table_stops_at_the_reach(self):
        # 3 steps of at most 128 from 0 reach 384; the table builds rows
        # 0..384 + 128, not 64 steps' worth (8192 rows)
        n, smax = 3, 128
        _row_cdf.cache_clear()
        local_time_counts(cfg(mu=SparseMeasure({1: 0.5, smax: 0.5}), horizon=n,
                              replicas=50, targets=(0,)))
        assert _row_cdf.cache_info().misses == n * smax + smax + 1

    @pytest.mark.parametrize("mu, mult", [
        (D1, [2]),  # the row is (p, p)
        (MIX, [1, 1, 1, 1]),
        (SparseMeasure({1: 0.5, 3: 0.5}), [2, 2, 2]),  # a parity gap after every cut
    ])
    def test_equal_columns_are_merged(self, mu, mult):
        table = walk_sim._RowTable(cfg(idx=QUARTER, mu=mu, horizon=300))
        assert table.mult == mult
        assert np.array_equal(np.repeat(table.cols, mult, axis=0), table.full)

    @pytest.mark.parametrize("mu", [D1, MIX])
    def test_table_never_outgrows_the_walk(self, mu, monkeypatch):
        # at alpha = 1000 the walk climbs at almost every step, so the
        # table grows several times; its top row stays within one step of
        # the highest state the walk can reach
        tables = []

        class Recorded(walk_sim._RowTable):
            def __init__(self, config):
                super().__init__(config)
                tables.append(self)

        monkeypatch.setattr(walk_sim, "_RowTable", Recorded)
        c = cfg(idx=HypergroupIndex(1000.0), mu=mu, start=3, horizon=300,
                replicas=50, seed=11)
        _run_block(c, 0, c.replicas)
        (table,) = tables
        top = table.lo + table.cols.shape[1] - 1
        assert top > c.start + 64 * table.smax
        assert top <= c.start + c.horizon * table.smax + table.smax


class TestLocalTimeCounts:
    def test_horizon_zero(self):
        lt = local_time_counts(cfg(start=4, horizon=0, replicas=25, targets=(4, 7)))
        assert (lt.counts[:, 0] == 1).all()
        assert (lt.counts[:, 1] == 0).all()
        assert (lt.terminal == 4).all()

    def test_count_bounds(self):
        c = cfg(idx=QUARTER, mu=MIX, start=0, horizon=30, replicas=4000,
                targets=(0, 3), seed=8)
        lt = local_time_counts(c)
        n = c.horizon
        at_start = lt.counts[:, 0]
        elsewhere = lt.counts[:, 1]
        assert (1 <= at_start).all() and (at_start <= n + 1).all()
        assert (0 <= elsewhere).all() and (elsewhere <= n + 1).all()
        assert lt.counts.dtype == np.int64

    def test_full_histogram_covers_every_step(self):
        # targets span every reachable state, so each replica's counts
        # cover times 0..horizon exactly once
        c = cfg(idx=QUARTER, mu=MIX, horizon=25, replicas=600, seed=5,
                targets=tuple(range(25 * 2 + 1)))
        lt = local_time_counts(c)
        assert (lt.counts.sum(axis=1) == 26).all()

    def test_visit_count_distribution_matches_enumeration(self):
        # exact forward-recursion law of N_12(0) vs a large simulation
        n, reps = 12, 1_000_000
        c = cfg(idx=QUARTER, mu=MIX, horizon=n, replicas=reps, seed=909)
        lt = local_time_counts(c)
        k = GegenbauerKernel(QUARTER, MIX)
        oracle = local_time_distribution(
            lambda s: list(kernel_row(k, s).items()), n, 0
        )
        emp = np.bincount(lt.counts[:, 0], minlength=n + 2) / reps
        tv = 0.5 * sum(
            abs(emp[c_] - oracle.get(c_, 0.0)) for c_ in range(n + 2)
        )
        assert tv < 0.01

    def test_unit_step_distribution_against_closed_form_rows(self):
        # same check, rows supplied by the independent closed form
        n, reps = 15, 200_000
        c = cfg(horizon=n, replicas=reps, seed=1234)
        lt = local_time_counts(c)
        oracle = local_time_distribution(unit_step_row(-0.5), n, 0)
        emp = np.bincount(lt.counts[:, 0], minlength=n + 2) / reps
        tv = 0.5 * sum(abs(emp[c_] - oracle.get(c_, 0.0)) for c_ in range(n + 2))
        assert tv < 0.01

    def test_thread_count_never_changes_output(self):
        base = cfg(idx=QUARTER, mu=MIX, horizon=40, replicas=9000, seed=606)
        one = local_time_counts(base, threads=1)
        three = local_time_counts(base, threads=3)
        assert np.array_equal(one.counts, three.counts)
        assert np.array_equal(one.terminal, three.terminal)
        assert one.to_csv() == three.to_csv()

    def test_seed_changes_output(self):
        a = local_time_counts(cfg(horizon=50, replicas=500, seed=1))
        b = local_time_counts(cfg(horizon=50, replicas=500, seed=2))
        assert not np.array_equal(a.counts, b.counts)

    def test_seeds_past_2_63_do_not_alias(self):
        # a key passed through float64 would give 2^63 and 2^63 + 1 one stream
        a = local_time_counts(cfg(horizon=1000, replicas=4, targets=(0, 2), seed=2**63))
        b = local_time_counts(cfg(horizon=1000, replicas=4, targets=(0, 2), seed=2**63 + 1))
        assert a.to_csv() != b.to_csv()

    @given(
        st.sampled_from([-0.5, -0.25, 0.0, 1.0]),
        st.integers(0, 3),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_reruns_are_bit_identical(self, a, start, horizon, seed):
        c = WalkConfig(HypergroupIndex(a), MIX, start, horizon, 64, (0, 1), seed)
        first = local_time_counts(c)
        second = local_time_counts(c)
        assert np.array_equal(first.counts, second.counts)
        assert np.array_equal(first.terminal, second.terminal)


class TestWorkerProcesses:
    # blocks run on forked workers when there are several of each

    def test_no_worker_outlives_the_call(self):
        c = cfg(idx=QUARTER, mu=MIX, horizon=40, replicas=9000, seed=606)
        local_time_counts(c, threads=2)
        assert multiprocessing.active_children() == []

    def test_state_cap_error_pickles(self):
        err = pickle.loads(pickle.dumps(StateCapError("table too large", required=12)))
        assert type(err) is StateCapError and err.required == 12
        assert str(err) == "table too large (would need 12 states)"

    def test_state_cap_in_a_worker_arrives_as_itself(self):
        # three blocks on two workers: each worker's table refuses the start
        c = cfg(start=999_990, horizon=10, replicas=8193, seed=1)
        with pytest.raises(StateCapError) as exc:
            local_time_counts(c, threads=2)
        assert exc.value.required == 1_000_002
        assert str(exc.value) == (
            "sampling-row table exceeds the state cap 1000000 (would need 1000002 states)"
        )
        assert multiprocessing.active_children() == []


class TestLocalTimeSamples:
    def _samples(self):
        return local_time_counts(cfg(horizon=12, replicas=40, targets=(0, 2), seed=9))

    def test_csv_shape(self):
        lt = self._samples()
        lines = lt.to_csv().splitlines()
        assert lines[0] == "replica,y,count"
        assert len(lines) == 1 + 40 * 2
        r, y, count = lines[1].split(",")
        assert (r, y) == ("0", "0") and int(count) >= 1

    def test_summary_moments(self):
        lt = self._samples()
        s = lt.summary(scale=2.0)
        x = lt.counts[:, 0] / 2.0
        block = s["targets"]["0"]
        assert block["scaled_moments"]["m1"] == pytest.approx(x.mean())
        assert block["scaled_moments"]["m2"] == pytest.approx(np.mean(x**2))
        assert sum(block["histogram"].values()) == lt.replicas
        assert s["replicas"] == 40 and s["horizon"] == 12

    def test_summary_scale_validation(self):
        lt = self._samples()
        for scale in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                lt.summary(scale=scale)

    def test_summary_json_deterministic(self):
        lt = self._samples()
        assert lt.summary_json() == lt.summary_json()


def _row_by_row_csv(lt):
    """to_csv's text, one string per row (the format's reference)."""
    lines = ["replica,y,count"]
    for r, row in enumerate(lt.counts.tolist()):
        lines.extend(f"{r},{y},{c}" for y, c in zip(lt.targets, row))
    return "\n".join(lines) + "\n"


def _synthetic_samples(replicas, targets, seed=0):
    counts = np.random.default_rng(seed).integers(0, 10**6, (replicas, len(targets)))
    return LocalTimeSamples(tuple(targets), counts, np.zeros(replicas, np.int64), 10, seed)


class TestChunkedCsv:
    """to_csv formats max(1, 4096 // K) replicas at a time; the text is
    the row-by-row one at every cut."""

    @pytest.mark.parametrize("K", [3, 20])
    def test_equals_row_by_row_at_chunk_edges(self, K):
        chunk = max(1, walk_sim._CSV_LINES // K)
        for R in (1, chunk - 1, chunk, chunk + 1):
            lt = _synthetic_samples(R, range(0, 2 * K, 2), seed=R)
            assert lt.to_csv() == _row_by_row_csv(lt)

    def test_more_targets_than_the_line_budget(self):
        K = walk_sim._CSV_LINES + 5
        for R in (1, 2, 3):
            lt = _synthetic_samples(R, range(K), seed=R)
            assert lt.to_csv() == _row_by_row_csv(lt)

    def test_peak_memory_is_a_small_multiple_of_the_text(self):
        # a string per row would take about 8x the text at this size
        lt = _synthetic_samples(8192, range(0, 40, 2))
        tracemalloc.start()
        try:
            text = lt.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)


class TestBlockMemory:
    def test_block_peak(self):
        # one full block of 20 targets: the step-major chunk of uniforms
        # (16 MiB) is the one buffer of its size; a second B x chunk copy
        # of the uniforms would take the peak to about 42 MiB
        c = cfg(horizon=1024, replicas=walk_sim._BLOCK, targets=tuple(range(0, 40, 2)))
        tracemalloc.start()
        try:
            _run_block(c, 0, c.replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestMeanVisitsCurve:
    def test_reflected_mean_visits_scale(self):
        # mean visits to 0 grow like sqrt(2 n / pi) for the reflected walk
        n = 10_000
        lt = local_time_counts(cfg(horizon=n, replicas=2000, seed=67))
        ratio = lt.counts[:, 0].mean() / math.sqrt(2 * n / math.pi)
        assert 0.9 < ratio < 1.1


# SHA-256 of counts.tobytes() + terminal.tobytes() and of to_csv() for each
# case below, recorded from the per-step engine before the count moved out
# of its step loop (odd_steps: from the binary-search tally, before the
# lookup-array tally and the merged CDF columns).  Horizons avoid multiples
# of 64 and 512; the mixed case spans two full 4096-replica blocks and a
# one-replica block.  The last three were recorded before the uniforms
# were filled one tile at a time and the tally keyed by one lookup.
ENGINE_CASES = {
    "unit": cfg(targets=tuple(range(0, 40, 2)) + (0, 10**12), horizon=1100,
                replicas=600, seed=3),
    "mixed": cfg(idx=QUARTER, mu=MIX, horizon=577, replicas=8193, seed=4),
    "three_atoms": cfg(idx=HypergroupIndex(0.5),
                       mu=SparseMeasure({1: 0.25, 2: 0.5, 3: 0.25}), start=5,
                       horizon=37, replicas=3000, targets=(5, 3, 5, 3000), seed=5),
    "even_far": cfg(mu=SparseMeasure({2: 0.5, 4: 0.5}), start=2000, horizon=37,
                    replicas=700, targets=(2000, 1990, 2040), seed=6),
    "no_steps": cfg(mu=SparseMeasure({2: 0.5, 4: 0.5}), start=2000, horizon=0,
                    replicas=70, targets=(2000, 2002), seed=7),
    # a step on odd states from 0: its row's cut points come in equal
    # adjacent pairs at every state, with the table starting at lo = 0
    "odd_steps": cfg(idx=QUARTER, mu=SparseMeasure({1: 0.5, 3: 0.5}), horizon=613,
                     replicas=4500, targets=(0, 1, 4, 3, 12, 0, 2000), seed=8),
    # the last block has 130 replicas, so its last tile has 2
    "tile_tail": cfg(idx=QUARTER, mu=MIX, horizon=203, replicas=4096 + 130,
                     targets=(0, 3, 8), seed=9),
    # a last chunk of 488 steps, whose last slice has 40
    "chunk_tail": cfg(start=1, horizon=1000, replicas=300, targets=(1, 0, 4, 30),
                      seed=10),
    # repeated targets, and two past the reach 3 + 150 * 3 = 453
    "dup_targets": cfg(idx=HypergroupIndex(0.0),
                       mu=SparseMeasure({1: 0.5, 2: 0.25, 3: 0.25}), start=3,
                       horizon=150, replicas=1000,
                       targets=(7, 3, 7, 0, 3, 5000, 5000, 454), seed=12),
}
ENGINE_SHA256 = {
    "unit": (
        "42e7bf0f7f9919099a0d2c85c270d575495550faf1c200a8b4958716a4fdc305",
        "fc10e6f7169283f447a31aa65a0544e485af9d2c800d64c6563d55983cee8159",
    ),
    "mixed": (
        "939114aed01896ee887cbb40ea060c397816df1d82a41d38788e5f7554325bfd",
        "ede6fa4b4f5ab91015742da907efbd7e4a4de763a7fe1aab06fcc00989685779",
    ),
    "three_atoms": (
        "c7975a9badcf2558ea042b2d5736b40cca634be9e2f00674898e718f67cb2fba",
        "022ee42985f4ec15a22806f62cdfc678f53a7e42b271ee4a7760a201f8234603",
    ),
    "even_far": (
        "4da01bed335277e9dfbcb000d45776294401f5ab222c33831fd703a7f16cdf4f",
        "65e20dc9dbb6b9c3fbbf1d58594c80316879a4c3e2f7f0d375e23f8a75a8672d",
    ),
    "no_steps": (
        "a80c8602e25c54d7c2f2b7e0db8becf4be3308c901f994d27d1ffc48096e15ab",
        "f30bac9caaf742c400abe6f96060d907fbceb7ea7f68f25ccd00a55a4b560968",
    ),
    "odd_steps": (
        "8b95edad9a9e759911a285d66bb8ab5f7755b7688134a13bf314b285ebd0292e",
        "015e4c1651cbab8dcb08e27bea103d5c1578dc254783d4f663eeee579c6cbfc8",
    ),
    "tile_tail": (
        "29c8b880caa1839b39aeb6d06da871deacd51bddd399d3a49ea7b349adf96370",
        "f45de4481d73997697121958c60c0f9fd54779c92f6fd03de01c2a8f771b9bf8",
    ),
    "chunk_tail": (
        "710fae8fd0092035d74354f181dc8ab5150e1450e5339ad1bf887748dd760263",
        "b428c48e8ebf5487a141664bd670ed2576bba867b2af4782ab2a4ff6beb960c5",
    ),
    "dup_targets": (
        "009038a77f38b0cc99aec9e55e023080ab8e93b4039acff3553159c31427faf8",
        "65121ddade7df2dfb351adcabf2561bd06a690ab8001fd963ac807f00711fc36",
    ),
}


class TestEngineBytes:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_engine_bytes(self, case, threads):
        lt = local_time_counts(ENGINE_CASES[case], threads=threads)
        arrays = hashlib.sha256(lt.counts.tobytes() + lt.terminal.tobytes())
        csv = hashlib.sha256(lt.to_csv().encode())
        assert (arrays.hexdigest(), csv.hexdigest()) == ENGINE_SHA256[case]
