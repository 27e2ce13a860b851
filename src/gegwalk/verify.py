"""Desk-scale quantitative checks of the walk's limit behaviour.

Each checker compares exact or simulated quantities against the
predicted asymptote and returns a `VerifyReport`: rows of
(label, value, prediction, ratio), where selected rows carry a pass
band for their ratio.  The verdict is a pure function of the rows.

Tolerance policy.  Exact-vs-asymptote checks window the ratio at the
largest n (default [0.95, 1.05]; the theorems give no convergence
rates, so earlier rows are informational).  Monte Carlo moment checks
use 3 standard errors plus a 2% model-error floor.  Predictions are
always computed from special functions and `drift_constant`, never
fitted to the data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .gegenbauer import HypergroupIndex, weight
from .hypergroup import GegenbauerKernel, SparseMeasure, drift_constant, n_step_sequence
from .specfun import MittagLefflerDist, gamma_fn
from .walk_sim import WalkConfig, local_time_counts

# Scaled local-time samples are clipped here before CDF evaluation, so
# the density series is evaluated only where it converges and a larger
# sample reads the CDF at 12.  The Mittag-Leffler mass beyond 12 (by
# quad) is 2e-17 at order 1/2, 1.7e-10 at 0.4, 4.9e-7 at 1/4 and 5.7e-6
# at 0.1; the clip moves the KS distance by at most that mass, far below
# the default ks_threshold of 0.02.
_ML_CDF_CLIP = 12.0
_ML_CDF_NODES = 1025


@lru_cache(maxsize=8)
def _ml_cdf_table(order: float) -> tuple[tuple, tuple]:
    """Cached CDF nodes for the Mittag-Leffler law of a given order.

    One density pass per order; every later goodness-of-fit check
    interpolates.  1025 trapezoid nodes keep the CDF error ~1e-4,
    orders of magnitude below the KS tolerances in use.
    """
    grid = np.linspace(0.0, _ML_CDF_CLIP, _ML_CDF_NODES)
    vals = MittagLefflerDist(order).cdf_grid(grid, npoints=_ML_CDF_NODES)
    return tuple(grid), tuple(vals)


@dataclass(frozen=True)
class ReportRow:
    """One comparison: a value, its prediction, and their ratio.

    `window`, when set, is the inclusive pass band for the ratio; rows
    without a window are informational.  Exact-zero checks encode as
    prediction 0 with ratio 0 (pass) or inf (fail) and window (0, 0).
    """

    label: str
    value: float
    prediction: float
    ratio: float
    window: tuple[float, float] | None = None

    @property
    def passed(self) -> bool:
        if self.window is None:
            return True
        lo, hi = self.window
        return lo <= self.ratio <= hi


def _make_row(label, value, prediction, window=None) -> ReportRow:
    if prediction == 0.0:
        ratio = 0.0 if value == 0.0 else math.inf
    else:
        ratio = value / prediction
    return ReportRow(str(label), float(value), float(prediction), ratio, window)


@dataclass
class VerifyReport:
    """Machine-readable outcome of one limit-theorem check."""

    theorem: str
    params: dict
    rows: list[ReportRow]
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> str:
        doc = {
            "theorem": self.theorem,
            "params": self.params,
            "rows": [
                {
                    "label": r.label,
                    "value": r.value,
                    "prediction": r.prediction,
                    "ratio": r.ratio,
                    "window": list(r.window) if r.window else None,
                }
                for r in self.rows
            ],
            "notes": self.notes,
            "verdict": self.verdict,
        }
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        lines = ["n,value,prediction,ratio"]
        for r in self.rows:
            lines.append(f"{r.label},{r.value!r},{r.prediction!r},{r.ratio!r}")
        return "\n".join(lines) + "\n"


def _validate_horizons(n_list: Sequence[int]) -> list[int]:
    ns = [int(n) for n in n_list]
    if not ns or any(n <= 0 for n in ns):
        raise ValueError("n_list must be nonempty positive step counts")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly ascending")
    return ns


def _require_aperiodic(kernel: GegenbauerKernel) -> None:
    parity = kernel.parity
    if parity != "mixed":
        raise ValueError(
            f"step measure is supported on {parity} states only, so the "
            "n-step laws vanish on a parity class and the plain asymptote "
            "does not apply: give mu both an odd and an even state; the unit step "
            "mu = delta_1 (--mu 1:1) has parity-refined checks in verify-llt and verify-lt"
        )


def _ratio_trend(rows: Sequence[ReportRow], k: int = 4) -> str:
    tail = [abs(r.ratio - 1.0) for r in rows[-k:]]
    ok = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    return "approaching-1" if ok else "not-monotone"


def llt_prediction(idx: HypergroupIndex, C: float, y: int, n: int) -> float:
    """Asymptotic return probability w_y Gamma(a+1) / (2 (C n)^(a+1))."""
    a = idx.alpha
    return weight(idx, y) * gamma_fn(a + 1.0) / (2.0 * (C * n) ** (a + 1.0))


def check_llt(
    idx: HypergroupIndex,
    mu: SparseMeasure,
    x: int,
    y: int,
    n_list: Sequence[int],
    *,
    ratio_window: tuple[float, float] = (0.95, 1.05),
) -> VerifyReport:
    """Exact p^(n)(x, y) against the local limit theorem's asymptote.

    Aperiodic steps: the power law w_y Gamma(a+1) / (2 (C n)^(a+1)),
    with the ratio at the largest n windowed and earlier n reported for
    trend inspection only.  The unit step mu = delta_1: the
    parity-refined form w_y 2^(a+1) Gamma(a+1) n^-(a+1) when n + x + y
    is even, windowed at the largest such n, and an exact zero when it
    is odd.  Any other one-parity step raises ValueError.
    """
    ns = _validate_horizons(n_list)
    kernel = GegenbauerKernel(idx, mu)
    if not kernel.is_unit_step:
        _require_aperiodic(kernel)
    laws = n_step_sequence(kernel, x, ns)
    a = idx.alpha
    if kernel.is_unit_step:
        even_ns = [n for n in ns if (n + x + y) % 2 == 0]
        last_even = even_ns[-1] if even_ns else None
        rows = []
        for n in ns:
            p = laws[n][y]
            if (n + x + y) % 2 == 0:
                pred = weight(idx, y) * 2.0 ** (a + 1.0) * gamma_fn(a + 1.0) * n ** (-(a + 1.0))
                rows.append(_make_row(n, p, pred, ratio_window if n == last_even else None))
            else:
                rows.append(_make_row(n, p, 0.0, (0.0, 0.0)))
        return VerifyReport(
            theorem="unit-step-llt",
            params={
                "alpha": a,
                "x": x,
                "y": y,
                "n_list": ns,
                "ratio_window": list(ratio_window),
            },
            rows=rows,
            notes={"even_rows": len(even_ns), "odd_rows": len(ns) - len(even_ns)},
        )

    C = drift_constant(idx, mu)
    rows = [
        _make_row(
            n,
            laws[n][y],
            llt_prediction(idx, C, y, n),
            ratio_window if n == ns[-1] else None,
        )
        for n in ns
    ]
    return VerifyReport(
        theorem="aperiodic-llt",
        params={
            "alpha": a,
            "mu": mu.as_dict(),
            "x": x,
            "y": y,
            "n_list": ns,
            "C": C,
            "ratio_window": list(ratio_window),
        },
        rows=rows,
        notes={"ratio_trend": _ratio_trend(rows)},
    )


def local_time_scale_constant(idx: HypergroupIndex, mu: SparseMeasure, y: int) -> float:
    """Multiplier K in the local-time limit N_n(y)/n^|a| -> K M(|a|), a < 0.

    For the unit step this reduces to the birth-death closed form
    (2y+2a+1) Gamma(y+2a+1) Gamma(|a|) / (2^(a+1) Gamma(y+1) Gamma(a+1))
    including its 0 * Gamma(0) = 1 convention at y = 0, a = -1/2: the
    weight formula takes the pole-free route through Gamma(2a+2).
    """
    a = idx.alpha
    if not a < 0.0:
        raise ValueError("power-law local-time scaling needs a < 0")
    C = drift_constant(idx, mu)
    return weight(idx, y) * gamma_fn(a + 1.0) * gamma_fn(-a) / (2.0 * C ** (a + 1.0))


def local_time_scale(alpha: float, horizon: int) -> float:
    """Divisor of N_n(y) in its limit law: n^|alpha| for alpha < 0, log n
    for alpha = 0; 1.0 for alpha > 0 and for alpha = 0 with n < 2.
    """
    if alpha < 0.0:
        return float(horizon) ** (-alpha)
    if alpha == 0.0 and horizon >= 2:
        return math.log(horizon)
    return 1.0


def check_local_time_limit(
    idx: HypergroupIndex,
    mu: SparseMeasure,
    x: int,
    y: int,
    horizon: int,
    replicas: int,
    seed: int,
    *,
    threads: int = 1,
    n_moments: int = 3,
    moment_floor: float = 0.02,
    ks_threshold: float = 0.02,
) -> VerifyReport:
    """Monte Carlo local time against its limit law.

    For a < 0 the scaled statistic N_n(y)/n^|a| is compared with
    K M(|a|); for a = 0, N_n(y)/log n with an exponential law of mean
    (2y+1)/(4C).  Checks the first `n_moments` moments (window: 3
    standard errors + `moment_floor` relative) and the KS distance to
    the limit CDF.  A `ks_threshold` that is not finite and positive, a
    `moment_floor` that is not finite and nonnegative, a negative
    `n_moments`, or fewer than the 100 replicas the KS statistic needs
    raises ValueError, before any simulation.

    The theorems hold from any start x; finite-n error as a function of
    x is not quantified, so reports from different starts should be
    compared side by side rather than asserted equal.
    """
    a = idx.alpha
    if a > 0.0:
        raise ValueError(
            "the walk is transient for alpha > 0: each state is visited "
            "finitely often and the local time has no scaling limit"
        )
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if n_moments < 0:
        raise ValueError(f"n_moments must be >= 0, got {n_moments}")
    if not (math.isfinite(moment_floor) and moment_floor >= 0.0):
        raise ValueError(f"moment_floor must be finite and >= 0, got {moment_floor!r}")
    if not (math.isfinite(ks_threshold) and ks_threshold > 0.0):
        raise ValueError(f"ks_threshold must be finite and > 0, got {ks_threshold!r}")
    kernel = GegenbauerKernel(idx, mu)
    if not kernel.is_unit_step:
        _require_aperiodic(kernel)

    cfg = WalkConfig(idx, mu, x, horizon, replicas, (y,), seed)
    _require_ks_samples(replicas)
    counts = local_time_counts(cfg, threads=threads).counts[:, 0]

    C = drift_constant(idx, mu)
    scale = local_time_scale(a, horizon)
    if a < 0.0:
        K = local_time_scale_constant(idx, mu, y)
        dist = MittagLefflerDist(-a)
        moment_pred = [K**p * dist.moment(p) for p in range(1, n_moments + 1)]
        grid, cdf_vals = (np.array(t) for t in _ml_cdf_table(-a))

        def limit_cdf(t):
            u = np.minimum(np.asarray(t, dtype=float) / K, _ML_CDF_CLIP)
            return np.interp(u, grid, cdf_vals)

        law_desc = {"limit": "mittag-leffler", "order": -a, "K": K}
    else:
        mean = (2.0 * y + 1.0) / (4.0 * C)
        moment_pred = [math.factorial(p) * mean**p for p in range(1, n_moments + 1)]

        def limit_cdf(t):
            t = np.asarray(t, dtype=float)
            return np.where(t <= 0.0, 0.0, 1.0 - np.exp(-t / mean))

        law_desc = {"limit": "exponential", "mean": mean}

    z = counts.astype(float) / scale
    R = len(z)
    rows = []
    for p in range(1, n_moments + 1):
        emp = float(np.mean(z**p))
        pred = moment_pred[p - 1]
        se = float(np.std(z**p, ddof=1)) / math.sqrt(R)
        half = (3.0 * se + moment_floor * abs(pred)) / abs(pred)
        rows.append(_make_row(f"m{p}", emp, pred, (1.0 - half, 1.0 + half)))
    ks = ks_statistic(z, limit_cdf)
    rows.append(_make_row("ks", ks, ks_threshold, (0.0, 1.0)))

    return VerifyReport(
        theorem="local-time-limit",
        params={
            "alpha": a,
            "mu": mu.as_dict(),
            "x": x,
            "y": y,
            "horizon": horizon,
            "replicas": replicas,
            "seed": seed,
            "C": C,
            "scale": scale,
            "moment_floor": moment_floor,
            "ks_threshold": ks_threshold,
            **law_desc,
        },
        rows=rows,
    )


def _require_ks_samples(n: int) -> None:
    if n < 100:
        raise ValueError("need at least 100 samples for a KS statistic")


def ks_statistic(samples: Sequence[float], cdf: Callable) -> float:
    """Sup distance between the empirical CDF and a reference CDF.

    Evaluated at the sample points with a tie-aware empirical CDF:
    exact when the reference shares the empirical atoms (a step
    reference matching constant samples scores ~0), and within
    1/#samples of the full supremum for a continuous reference, which
    is far below every tolerance used here.  `cdf` is vectorised: it is
    called once, on the sorted samples, and must return an array of
    their shape.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    _require_ks_samples(n)
    F = np.asarray(cdf(xs), dtype=float)
    if F.shape != xs.shape:
        raise ValueError(f"cdf returned shape {F.shape} for {xs.shape} samples")
    emp = np.searchsorted(xs, xs, side="right") / n
    return float(np.max(np.abs(emp - F)))
