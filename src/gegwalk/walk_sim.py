"""Monte Carlo simulation of the walk and its local time at chosen states.

The local time N_n(y) counts visits to y during times 0..n inclusive.
The k=0 term is counted: the start state begins with one visit before
any step is taken.  Everything downstream (moments, limit-law checks)
shifts if this off-by-one is introduced, so it is asserted in tests.

Reproducibility contract: replica r draws from its own Philox stream
keyed (seed, r).  Streams never interact, so results are bit-identical
for any worker count and any batching of the replicas, and the scalar
reference path in `simulate_replica` reproduces the vectorized engine
replica for replica.  Blocks of replicas run on forked worker
processes: each step is many short numpy and `Generator.random` calls,
which threads would run one at a time under the interpreter lock.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from typing import Iterable

import numpy as np

from .errors import StateCapError
from .gegenbauer import HypergroupIndex
from .hypergroup import DEFAULT_STATE_CAP, GegenbauerKernel, SparseMeasure, kernel_row

_BLOCK = 4096   # replicas advanced together by the vectorized engine
# Uniforms buffered per replica between refills.  A full block holds
# B x _CHUNK of them once, in the step-major chunk Ut that is reused for
# every chunk: 16 MiB per block.
_CHUNK = 512
# Steps recorded between visit tallies.  The int32 slice buffer and the
# replica of each of its positions take 1 MiB each per block, and the
# tally's temporaries are a few times that.
_SLICE = 64
# Replicas per tile: each tile fills a _TILE x _CHUNK buffer (512 KiB)
# from its own streams and copies it, transposed, into Ut while it is
# still in cache.
_TILE = 128
_ROW_CACHE = 4096
# CSV lines formatted and joined at a time by `_join_lines`.
_CSV_LINES = 4096


@dataclass(frozen=True)
class WalkConfig:
    """Full description of one simulation run.

    Fixing every field, including the seed, pins the output exactly.
    """

    idx: HypergroupIndex
    mu: SparseMeasure
    start: int
    horizon: int
    replicas: int
    target_states: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("WalkConfig: start state must be >= 0")
        if self.horizon < 0:
            raise ValueError("WalkConfig: horizon must be >= 0")
        if self.replicas < 1:
            raise ValueError("WalkConfig: need at least one replica")
        targets = tuple(int(y) for y in self.target_states)
        if not targets or any(y < 0 for y in targets):
            raise ValueError("WalkConfig: target states must be a nonempty list of states")
        object.__setattr__(self, "target_states", targets)
        _check_seed(self.seed)


@dataclass
class LocalTimeSamples:
    """Per-replica visit counts at the target states, plus terminal states.

    counts[r, j] = N_horizon(targets[j]) for replica r, as 64-bit ints;
    statistics are formed in double precision only at readout.
    """

    targets: tuple[int, ...]
    counts: np.ndarray
    terminal: np.ndarray
    horizon: int
    seed: int

    @property
    def replicas(self) -> int:
        return self.counts.shape[0]

    def to_csv(self) -> str:
        """Rows ``replica,y,count``, replica-major, targets in given order.

        The counts are read max(1, 4096 // K) replicas at a time and
        joined by `_join_lines`, so the text is built without a string
        per row, or a Python int per count, for the whole run at once.
        """
        cells = [f",{y}," for y in self.targets]
        step = max(1, _CSV_LINES // len(cells))
        lines = (
            f"{r}{cell}{c}"
            for r0 in range(0, self.replicas, step)
            for r, row in enumerate(self.counts[r0 : r0 + step].tolist(), r0)
            for cell, c in zip(cells, row)
        )
        return _join_lines("replica,y,count", lines)

    def summary(self, scale: float = 1.0) -> dict:
        """Moments and a unit-width histogram of count/scale per target."""
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be finite and positive, got {scale!r}")
        out: dict = {
            "replicas": self.replicas,
            "horizon": self.horizon,
            "seed": self.seed,
            "scale": scale,
            "targets": {},
        }
        for j, y in enumerate(self.targets):
            x = self.counts[:, j].astype(float) / scale
            bins = np.floor(x).astype(np.int64)
            uniq, freq = np.unique(bins, return_counts=True)
            out["targets"][str(y)] = {
                "mean_count": float(self.counts[:, j].mean()),
                "scaled_moments": {
                    "m1": float(x.mean()),
                    "m2": float(np.mean(x**2)),
                    "m3": float(np.mean(x**3)),
                },
                "histogram": {str(int(b)): int(c) for b, c in zip(uniq, freq)},
            }
        return out

    def summary_json(self, scale: float = 1.0) -> str:
        return json.dumps(self.summary(scale), indent=2, sort_keys=True)


def _join_lines(header: str, lines: Iterable[str]) -> str:
    """``header`` and each of ``lines``, every one ended by a newline.

    The lines are joined `_CSV_LINES` at a time and the chunks once at
    the end, so beside the text only one chunk's strings are held: a
    list of every line's string would take several times the text.
    """
    lines = iter(lines)
    parts = [header]
    while chunk := list(islice(lines, _CSV_LINES)):
        parts.append("\n".join(chunk))
    parts.append("")  # the last newline, without copying the text again
    return "\n".join(parts)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


def _replica_rng(seed: int, r: int) -> np.random.Generator:
    """Replica r's Philox stream, keyed by the two 64-bit words (seed, r).

    The key is built as uint64: from a list of ints numpy would pass a
    seed of 2^63 or more through float64, so neighbouring seeds would
    share one stream.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))


@lru_cache(maxsize=_ROW_CACHE)
def _row_cdf(alpha: float, mu_items: tuple, x: int) -> tuple:
    """Sampling CDF of the kernel row at x over offsets -smax..+smax.

    The row holds 2 smax cut points: entry j is the cumulative mass of
    states x - smax .. x - smax + j.  A uniform u moves the walker by
    (number of entries <= u) - smax, so past the last cut it lands on
    x + smax.  Offsets that fall outside the row (negative states,
    parity gaps) carry no new mass and can never be selected.  The unit
    step's row is the closed form (p, p) with down-probability
    p = x / (2x + 2 alpha + 1).
    """
    kernel = GegenbauerKernel(HypergroupIndex(alpha), SparseMeasure(dict(mu_items)))
    if kernel.is_unit_step:
        p = x / (2.0 * x + (2.0 * alpha + 1.0)) if x > 0 else 0.0
        return (p, p)
    row = kernel_row(kernel, x)
    smax = kernel.step_measure.max_state
    run = 0.0
    cdf = []
    for d in range(-smax, smax):
        if x + d >= 0:
            run += row[x + d]
        cdf.append(run)
    return tuple(cdf)


def simulate_replica(config: WalkConfig, replica: int) -> tuple[int, dict]:
    """Scalar reference simulation of one replica.

    Walks step by step, sampling each transition by inverse CDF on the
    `_row_cdf` row of the current state (rows held in a bounded
    read-through cache); the unit step's closed-form row takes the same
    path.  One uniform is consumed per step, including forced moves.
    Returns the terminal state and the visit count of each target.
    """
    if not 0 <= replica < config.replicas:
        raise ValueError("replica index out of range")
    rng = _replica_rng(config.seed, replica)
    a = config.idx.alpha
    mu_items = tuple(config.mu.items())
    smax = config.mu.max_state
    targets = config.target_states

    s = config.start
    counts = {y: 0 for y in targets}
    if s in counts:
        counts[s] += 1  # the k = 0 visit
    for _ in range(config.horizon):
        u = rng.random()
        s += bisect_right(_row_cdf(a, mu_items, s), u) - smax
        if s in counts:
            counts[s] += 1
    return s, counts


class _RowTable:
    """Sampling-CDF table over states lo, lo + 1, ..., stored by column.

    Entry j of `_row_cdf(x)`, the same doubles the scalar path reads, is
    `full[j][x - lo]`.  Adjacent entries that are equal at every built
    state (the unit step's (p, p), the parity gaps of a step on one
    parity) are merged: `cols` holds each distinct column once and
    `mult` how many entries it stands for, so a uniform u moves the
    walker by sum(k * (col[x - lo] <= u)) - smax.  A walk of `horizon`
    steps from `start` stays within lo = max(0, start - horizon * smax)
    and start + horizon * smax, so no row under lo is built, and the top
    grows on demand, 64 steps ahead, but never past `reach` + smax.
    """

    def __init__(self, config: WalkConfig):
        self.alpha = config.idx.alpha
        self.mu_items = tuple(config.mu.items())
        self.smax = config.mu.max_state
        self.lo = max(0, config.start - config.horizon * self.smax)
        self.reach = config.start + config.horizon * self.smax
        self.full = np.empty((2 * self.smax, 0))
        self.grow(config.start + 64 * self.smax)

    def grow(self, needed: int) -> None:
        needed = min(needed, self.reach + self.smax)
        if needed + 1 > DEFAULT_STATE_CAP:
            raise StateCapError(
                f"sampling-row table exceeds the state cap {DEFAULT_STATE_CAP}",
                required=needed + 1,
            )
        old = self.full.shape[1]
        full = np.empty((2 * self.smax, needed + 1 - self.lo))
        full[:, :old] = self.full
        for i in range(old, full.shape[1]):
            full[:, i] = _row_cdf(self.alpha, self.mu_items, self.lo + i)
        self.full = full
        first = [j for j in range(len(full)) if j == 0 or (full[j] != full[j - 1]).any()]
        self.cols = full[first]
        self.mult = np.diff(first + [len(full)]).tolist()

    def ensure(self, max_state: int) -> None:
        if max_state + self.smax >= self.lo + self.full.shape[1]:
            self.grow(max_state + 64 * self.smax)


def _run_block(config: WalkConfig, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance replicas r0..r1-1 in lockstep to the configured horizon.

    Uniforms are drawn a chunk at a time: each tile of `_TILE` replicas
    fills a small buffer from its own streams, which is copied,
    transposed, into the step-major chunk `Ut` while it is still in
    cache.  The step loop only steps: a step gathers and compares each
    distinct cut-point column, adds the compares, as small ints, into
    one move that starts at -smax, and moves S once.  It records each
    step's states in a slice buffer of at most `_SLICE` steps.  After
    each slice one tally adds the visits of the recorded states up to
    the largest target with one bincount, keyed by a lookup array over
    states 0..largest target (row offset j * B of target j, a spare row
    elsewhere) plus the replica of each slice position; the k = 0 visit
    goes through the same tally.  The row table grows once per slice,
    to the highest state the slice can reach.  Returns per-replica
    counts (B x K int64) and terminal states.
    """
    B = r1 - r0
    horizon = config.horizon
    gens = [_replica_rng(config.seed, r) for r in range(r0, r1)]
    table = _RowTable(config)
    smax = table.smax

    # Targets above every reachable state collapse into one column of
    # zeros at `unreached`, so every target fits the int32 state buffer
    # and the lookup array stays within the state cap.
    unreached = min(config.start + horizon * smax, DEFAULT_STATE_CAP) + 1
    ys = [min(y, unreached) for y in config.target_states]
    uniq, column = np.unique(np.array(ys, dtype=np.int32), return_inverse=True)
    Ku, top = len(uniq), int(uniq[-1])
    key = np.full(top + 1, Ku * B)  # row Ku is the spare: visits off the targets
    key[uniq] = np.arange(Ku) * B
    owner = np.tile(np.arange(B, dtype=np.int32), _SLICE)  # replica of each slice position
    hits = np.zeros((Ku + 1) * B, dtype=np.int64)

    def tally(states: np.ndarray) -> None:
        flat = states.ravel()
        p = np.flatnonzero(flat <= top)
        hits[:] += np.bincount(key.take(flat.take(p)) + owner.take(p), minlength=len(hits))

    S = np.full(B, config.start, dtype=np.int64)
    tally(S[None, :])  # the k = 0 visit

    chunk = min(_CHUNK, horizon)
    tile = np.empty((_TILE, chunk))
    Ut = np.empty((chunk, B))
    buf = np.empty((_SLICE, B), dtype=np.int32)
    g = np.empty(B)
    m = np.empty(B, dtype=bool)
    m8 = m.view(np.int8)
    move = np.empty(B, dtype=np.min_scalar_type(-smax - 1))  # holds -smax..smax
    done = 0
    while done < horizon:
        T = min(chunk, horizon - done)
        for i in range(0, B, _TILE):
            rows = tile[: min(_TILE, B - i), :T]
            for row, gen in zip(rows, gens[i : i + _TILE]):
                gen.random(out=row)
            np.copyto(Ut[:T, i : i + len(rows)], rows.T)
        for s0 in range(0, T, _SLICE):
            L = min(_SLICE, T - s0)
            table.ensure(int(S.max()) + L * smax)
            lo, cols, mult = table.lo, table.cols, table.mult
            for t in range(L):
                u = Ut[s0 + t]
                here = S - lo if lo else S
                move.fill(-smax)
                for col, k in zip(cols, mult):
                    # every index is inside the table; "clip" fills g
                    # without the buffered copy that "raise" makes
                    col.take(here, out=g, mode="clip")
                    np.less_equal(g, u, out=m)
                    for _ in range(k):
                        move += m8
                S += move
                buf[t] = S
            tally(buf[:L])
        done += T
    return hits.reshape(Ku + 1, B)[column].T, S.copy()


def local_time_counts(config: WalkConfig, *, threads: int = 1) -> LocalTimeSamples:
    """Visit counts at the target states for every replica.

    Replicas run in fixed blocks of 4096 on min(`threads`, blocks)
    forked worker processes, or in this process when that is one.  Each
    block's counts come back to be copied into disjoint rows of the
    result, so the output is bit-identical for any `threads`.  Every
    worker has exited when this returns or raises.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    R = config.replicas
    K = len(config.target_states)
    counts = np.empty((R, K), dtype=np.int64)
    terminal = np.empty(R, dtype=np.int64)
    starts = range(0, R, _BLOCK)
    ends = [min(r0 + _BLOCK, R) for r0 in starts]
    workers = min(threads, len(starts))

    def collect(results) -> None:
        for r0, r1, (c, term) in zip(starts, ends, results):
            counts[r0:r1] = c
            terminal[r0:r1] = term

    if workers == 1:
        collect(map(_run_block, repeat(config), starts, ends))
    else:
        # Imported here: they cost about 17 ms, which a one-worker run
        # need not pay.  With "fork" the pool starts every worker on the
        # first submit, before its own manager thread.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            collect(pool.map(_run_block, repeat(config), starts, ends))

    return LocalTimeSamples(
        config.target_states, counts, terminal, config.horizon, config.seed
    )
