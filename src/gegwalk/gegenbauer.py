"""Gegenbauer polynomials normalized to P_n(1) = 1.

The family P_n^(a) on [-1, 1] satisfies P_0 = 1, P_1 = x and the
multiplication formula

    x P_n = n/(2n+2a+1) P_{n-1} + (n+2a+1)/(2n+2a+1) P_{n+1},

read here as an upward recurrence.  For a >= -1/2 the product of two
family members expands with nonnegative coefficients summing to one,
which is what turns index space N into a hypergroup and drives every
kernel computation in this package.  a = -1/2 recovers the Chebyshev
case P_n(cos t) = cos(n t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from gegwalk.errors import ConsistencyError

__all__ = [
    "HypergroupIndex",
    "LinearizationRow",
    "weight",
    "linearization",
]

# the most states an array indexed by state may hold: a computation that
# needs more refuses before allocating, with a StateCapError
DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class HypergroupIndex:
    """Family parameter a >= -1/2."""

    alpha: float

    def __post_init__(self):
        if not self.alpha >= -0.5:
            raise ValueError("HypergroupIndex: alpha must be >= -1/2")


def _recurrence(
    a: float, smax: int, v: np.ndarray, times_x: Callable[[float, np.ndarray], np.ndarray]
) -> Iterator[np.ndarray]:
    """Yield P_0 v, P_1 v, ..., P_smax v by the upward recurrence.

    ``times_x(c, u)`` returns c x u as an array at least as long as u:
    x acts pointwise in value space and as the Jacobi operator in
    coefficient space.  P_1 v = times_x(1.0, v) exactly, and P_{s-1} v
    enters the later steps zero-padded to the length of x P_s v.
    """
    yield v
    if smax == 0:
        return
    prev, cur = v, times_x(1.0, v)
    yield cur
    for s in range(1, smax):
        nxt = times_x(2 * s + 2 * a + 1, cur)
        nxt[: prev.size] -= s * prev
        nxt /= s + 2 * a + 1
        prev, cur = cur, nxt
        yield cur


def weight(idx: HypergroupIndex, n: int) -> float:
    """Orthogonality weight w_n = 1 / integral of P_n^2 (1-x^2)^a dx over [-1, 1].

    w_n = (2n+2a+1) Gamma(n+2a+1) / (2^(2a+1) Gamma(n+1) Gamma(a+1)^2)
    for n >= 1.  At n = 0 the prefactor (2a+1)Gamma(2a+1) is rewritten as
    Gamma(2a+2), which also covers a = -1/2 (value 1/pi) by continuity.
    For 2 <= n < DEFAULT_STATE_CAP, every state a sweep can hold, the
    value is entry n of _haar_weights bit for bit, so a prediction reads
    the w_y the sweeps read.  Otherwise the gamma ratio is taken in log
    space, in O(1) time and memory and without overflow.
    """
    if n < 0:
        raise ValueError("weight: n must be >= 0")
    if 2 <= n < DEFAULT_STATE_CAP:
        return float(_haar_weights(idx, n + 1)[n])
    a = idx.alpha
    denom = 2.0 ** (2 * a + 1) * math.gamma(a + 1.0) ** 2
    if n == 0:
        return math.gamma(2 * a + 2.0) / denom
    log_ratio = math.lgamma(n + 2 * a + 1.0) - math.lgamma(n + 1.0)
    return (2 * n + 2 * a + 1) * math.exp(log_ratio) / denom


def _haar_weights(idx: HypergroupIndex, size: int) -> np.ndarray:
    """The weights w_0..w_(size-1) of `weight` as one array, size >= 1.

    w_0 and w_1 are the gamma-form ones; the rest follow by the ratio
    w_(z+1)/w_z = (2z+2a+3)(z+2a+1) / ((2z+2a+1)(z+1)), taken from z = 1
    because at a = -1/2 the ratio at z = 0 is 0/0.  The running product
    is sequential, so entry n does not depend on size, and at a = -1/2
    every ratio is exactly 1.  Up to 2*10^4 states it stays within
    5e-13 relative of the exact gamma form (a = -1/2 .. 1.7), where a
    log-gamma difference is off by up to 7e-11.
    """
    a = idx.alpha
    w = np.empty(size)
    w[0] = weight(idx, 0)
    if size > 1:
        w[1] = weight(idx, 1)
        z = np.arange(1.0, size - 1)
        ratio = (2 * z + 2 * a + 3) * (z + 2 * a + 1) / ((2 * z + 2 * a + 1) * (z + 1))
        w[2:] = w[1] * np.cumprod(ratio)
    return w


@dataclass(frozen=True)
class LinearizationRow:
    """Expansion of a product P_m P_n back into the family.

    ``coeffs`` maps k in {n-m, n-m+2, ..., n+m} to the coefficient of P_k;
    the coefficients are nonnegative and sum to 1, so each row is a
    probability vector on the parity sublattice.
    """

    m: int
    n: int
    coeffs: Mapping[int, float]

    def __getitem__(self, k: int) -> float:
        return self.coeffs.get(k, 0.0)


def _poly_apply(a: float, weights: list[tuple[int, float]], v: np.ndarray) -> np.ndarray:
    """The sum of w_s P_s(J) v over the (s, w_s) pairs, as a new array of
    length len(v) + smax, for a vector v in the P_n basis.

    J is multiplication by x in that basis: column j feeds j/(2j+2a+1)
    into j-1 and (j+2a+1)/(2j+2a+1) into j+1; column 0 feeds 1 into
    index 1 (the a = -1/2 limit of the same ratio).  _recurrence in
    coefficient space then builds P_s(J) v, so the cost is
    O(smax * len(v)) however many pairs there are.
    """
    smax = max((s for s, _ in weights), default=0)
    j = np.arange(1, v.size + smax)
    denom = 2 * j + 2 * a + 1
    down, up = j / denom, (j + 2 * a + 1) / denom

    def times_x(c: float, u: np.ndarray) -> np.ndarray:  # c J u, one entry longer than u
        n = u.size - 1
        ju = np.zeros(n + 2)
        ju[:-2] += u[1:] * down[:n]
        ju[2:] += u[1:] * up[:n]
        ju[1] += u[0]
        ju *= c
        return ju

    out = np.zeros(v.size + smax)
    lookup = dict(weights)
    for s, p in enumerate(_recurrence(a, smax, v, times_x)):
        if s in lookup:
            out[: p.size] += p * lookup[s]
    return out


@lru_cache(maxsize=4096)
def _linearization_cached(alpha: float, m: int, n: int) -> LinearizationRow:
    a = alpha
    e_n = np.zeros(n + 1)
    e_n[n] = 1.0
    raw = _poly_apply(a, [(m, 1.0)], e_n)
    support = range(n - m, n + m + 1, 2)
    neg = raw.min()
    if neg < -1e-14:
        raise ConsistencyError(
            f"linearization({m},{n}) at alpha={a:g}: coefficient {neg:.3e} "
            "below the round-off floor"
        )
    raw = np.maximum(raw, 0.0)
    total = raw.sum()
    if abs(total - 1.0) > 1e-10:
        raise ConsistencyError(
            f"linearization({m},{n}) at alpha={a:g}: row sum {total!r} far from 1"
        )
    raw /= total
    coeffs = {k: float(raw[k]) for k in support if raw[k] != 0.0}
    return LinearizationRow(m=m, n=n, coeffs=MappingProxyType(coeffs))


def linearization(idx: HypergroupIndex, m: int, n: int) -> LinearizationRow:
    """Coefficients of P_m P_n in the basis {P_k}.

    Computed as the m-step polynomial recurrence applied to the
    multiplication-by-x operator acting on the n-th basis vector; only
    the recurrence itself is needed, no closed form.  Rows are cached;
    the cache is guarded by the lru_cache internal lock and results are
    deterministic, so cached and fresh rows are bit-identical.
    """
    if m < 0 or n < 0:
        raise ValueError("linearization: indices must be >= 0")
    if m > n:
        m, n = n, m  # the product is symmetric
    return _linearization_cached(idx.alpha, m, n)
