"""Special functions used throughout the package.

Provides the Gamma function, the Bessel function J of real order > -1
(evaluated by mpmath), the Mittag-Leffler function

    E_a(x) = sum_{p>=0} (-x)^p / Gamma(a*p + 1),      0 < a <= 1,

and the Mittag-Leffler distribution with moments p!/Gamma(a*p+1), which
appears as the limit law of renormalized local times of recurrent walks.
A reference sampler (via one-sided positive stable variates) rounds out
the module.

The Mittag-Leffler density series caches its x-free factors per (order,
term, binary precision); a density value is the same float with the
cache cold or warm.

mpmath is imported on first use, inside the functions that sum in it
(the Bessel function and the Mittag-Leffler series), so importing this
module, or a command that never calls them, does not pay for it.

All functions are pure; samplers take a caller-owned ``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "gamma_fn",
    "bessel_j",
    "ml_function",
    "ml_density",
    "ml_moment",
    "ml_sample",
    "MittagLefflerDist",
]

# Mittag-Leffler series are cut after three consecutive negligible terms,
# with a hard cap of 500 terms.
_TERM_CAP = 500
_QUIET_RUN = 3

# Mittag-Leffler density below which `_density_cutoff` ends the tail.
_TAIL_DENSITY = 1e-12


def gamma_fn(x: float) -> float:
    """Gamma function for finite real x, poles excluded.

    Raises ValueError at non-positive integers and at a non-finite x.
    Returns ``inf`` if the result overflows float range (x > ~171.6).
    """
    if not math.isfinite(x):
        raise ValueError(f"gamma_fn: x must be finite, got {x!r}")
    if x <= 0.0 and float(x).is_integer():
        raise ValueError(f"gamma_fn: pole at non-positive integer x={x:g}")
    return _or_inf(math.gamma, x)


def _or_inf(fn: Callable[[float], float], x: float) -> float:
    """fn(x), or inf where the result overflows float range."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def bessel_j(order: float, x: float) -> float:
    """Bessel function J_order(x) for order > -1 and finite x >= 0, from mpmath."""
    if not order > -1.0:
        raise ValueError("bessel_j: order must be > -1")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"bessel_j: x must be finite and >= 0, got {x!r}")
    from mpmath import mp

    return float(mp.besselj(order, x))


def _certified_sum(
    name: str, order: float, x: float, start: int, terms: Callable, divisor=1
) -> float:
    """start + sum of terms(mpf(x)), divided by ``divisor``, certified in float64.

    ``terms`` yields the series terms at the working precision, or None
    for a term that vanishes exactly; a None is skipped and leaves the
    run of quiet terms as it stands.  The series is cut after three
    consecutive terms below 10^-dps of the running sum, at most 500 terms
    in all, or ArithmeticError is raised.  The digits lost to
    cancellation are estimated from the largest term against the divided
    sum; unless 14 digits remain, the sum is redone at dps + lost + 10.
    """
    from mpmath import mp, mpf

    dps = 20
    while True:
        with mp.workdps(dps):
            s = mpf(start)
            peak = abs(s)
            quiet = 0
            tiny = mpf(10) ** (-dps)
            for t in itertools.islice(terms(mpf(x)), _TERM_CAP):
                if t is None:
                    continue
                s += t
                peak = max(peak, abs(t))
                if abs(t) < tiny * max(abs(s), tiny):
                    quiet += 1
                    if quiet >= _QUIET_RUN:
                        break
                else:
                    quiet = 0
            else:
                raise ArithmeticError(
                    f"{name}: series did not converge within {_TERM_CAP} terms "
                    f"(order={order:g}, x={x:g})"
                )
            s /= divisor
            lost = float(mp.log10(peak / abs(s))) if s != 0 else float(dps)
        if lost + 14.0 < dps:
            return float(s)
        dps = int(dps + lost + 10.0)


def ml_function(order: float, x: float) -> float:
    """Mittag-Leffler function E_order(x) = sum (-x)^p / Gamma(order*p+1).

    The alternating series cancels heavily for large x, so it is summed
    by _certified_sum.  For small ``order`` and moderate x the 500-term
    cap can be reached first, and an ArithmeticError is raised, as
    ml_density raises (order 1/4 at x = 3, order 0.1 at x = 2).
    Non-finite x raises ValueError.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError("ml_function: order must lie in (0, 1]")
    if not math.isfinite(x):
        raise ValueError(f"ml_function: x must be finite, got {x!r}")
    if x < 0.0:
        raise ValueError("ml_function: x must be >= 0")
    from mpmath import mp, mpf

    def terms(xm):
        xpow = mpf(1)
        for p in itertools.count(1):
            xpow *= -xm
            yield xpow / mp.gamma(mpf(order) * p + 1)

    return _certified_sum("ml_function", order, x, 1, terms)


@functools.lru_cache(maxsize=1 << 14)
def _density_factor(order: float, k: int, prec: int) -> tuple | None:
    """x-free factors of term k of the ml_density series at ``prec`` bits.

    Returns the mpf pair ``((-1)^(k-1) sin(pi k order) Gamma(k order),
    (k-1)!)``, each rounded as ml_density's term expression rounds it, or
    None where the sine is exactly 0.  The key holds the binary precision
    because every escalation re-runs the series at a higher one.
    """
    from mpmath import mp, mpf

    with mp.workprec(prec):
        sp = mp.sinpi(mpf(k) * mpf(order))
        if sp == 0:
            return None
        c = mpf(-1) ** (k - 1) * sp * mp.gamma(mpf(k) * mpf(order))
        return c, mp.factorial(k - 1)


def ml_density(order: float, x: float) -> float:
    """Density of the Mittag-Leffler distribution of given order in (0, 1).

    Power series (1/pi) * sum_{k>=1} (-1)^{k-1}/(k-1)! sin(pi k order)
    Gamma(k order) x^{k-1}, summed by _certified_sum; terms with
    sin(pi k order) = 0 are skipped exactly.  At x = 0 the continuity
    value sin(pi order) Gamma(order)/pi is returned.  order = 1 is the
    point mass at 1 and has no density.

    The term ratio scales like x * k^(order-1), so the tail of the series
    outlives the 500-term cap once x is large enough and an
    ArithmeticError is raised: at moderate x for order above roughly
    0.65, and for the orders <= 1/2 that local-time limit laws need, just
    past the tail cutoff `_density_cutoff` (from about x = 13.2 at order
    1/2, cutoff 12; at x = 20 at order 0.4, cutoff 16).  Non-finite x
    raises ValueError.

    The x-free factors of each term are cached by _density_factor, so a
    grid of x at one order pays for them once per working precision.
    """
    if not 0.0 < order < 1.0:
        if order == 1.0:
            raise ValueError(
                "ml_density: order 1 is degenerate (point mass at 1), "
                "with no density"
            )
        raise ValueError("ml_density: order must lie in (0, 1)")
    if not math.isfinite(x):
        raise ValueError(f"ml_density: x must be finite, got {x!r}")
    if x < 0.0:
        raise ValueError("ml_density: x must be >= 0")
    if x == 0.0:
        return math.sin(math.pi * order) * math.gamma(order) / math.pi
    from mpmath import mp

    def terms(xm):
        for k in itertools.count(1):
            factor = _density_factor(order, k, mp.prec)
            yield None if factor is None else factor[0] * xm ** (k - 1) / factor[1]

    return _certified_sum("ml_density", order, x, 0, terms, mp.pi)


def ml_moment(order: float, p: int) -> float:
    """p-th moment of the Mittag-Leffler distribution: p!/Gamma(order*p+1).

    Past p = 170, where p! no longer fits a float, the ratio is taken in
    log space; a moment past float range is inf.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError("ml_moment: order must lie in (0, 1]")
    if p < 0 or p != int(p):
        raise ValueError("ml_moment: p must be a nonnegative integer")
    if p <= 170:
        return math.factorial(int(p)) / gamma_fn(order * p + 1.0)
    return _or_inf(math.exp, math.lgamma(p + 1.0) - math.lgamma(order * p + 1.0))


def ml_sample(order: float, rng: np.random.Generator, size: int | None = None):
    """Draw from the Mittag-Leffler distribution of the given order.

    Generates a one-sided positive stable variate S of index ``order`` by
    the trigonometric method (ratio of powers of sines of a uniform angle,
    divided by an exponential) and returns S**(-order), whose moments are
    p!/Gamma(order*p+1).  With ``size=None`` a scalar float is returned,
    otherwise an array of that shape.  order = 1 gives the constant 1.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError("ml_sample: order must lie in (0, 1]")
    if order == 1.0:
        return 1.0 if size is None else np.ones(size)
    n = 1 if size is None else size
    u = rng.uniform(0.0, math.pi, n)
    # endpoints have probability 0 but would produce 0/0 below
    np.clip(u, 1e-12, math.pi - 1e-12, out=u)
    e = rng.standard_exponential(n)
    a = (
        np.sin((1.0 - order) * u)
        * np.sin(order * u) ** (order / (1.0 - order))
        / np.sin(u) ** (1.0 / (1.0 - order))
    )
    m = (e / a) ** (1.0 - order)
    return float(m[0]) if size is None else m


def _density_cutoff(order: float) -> float:
    """First even X >= 4 with ml_density(order, X) below _TAIL_DENSITY.

    The density decays like exp(-c x^(1/(1-order))), so a linear scan in
    steps of 2 terminates quickly (12 at order 1/2, 22 at 1/4, 28 at 0.1);
    used to pick finite quadrature windows.  Doubling instead would
    overshoot into the far tail where the series needs more terms than
    the cap allows.
    """
    x = 4.0
    while ml_density(order, x) > _TAIL_DENSITY:
        x += 2.0
        if x > 256.0:  # pragma: no cover - defensive
            raise ArithmeticError("_density_cutoff: no decay found")
    return x


@dataclass(frozen=True)
class MittagLefflerDist:
    """Mittag-Leffler distribution of a given order in (0, 1).

    Nonnegative law with moments p!/Gamma(order*p+1) (ml_moment) and
    density ml_density; ml_sample draws from it.
    """

    order: float

    def __post_init__(self):
        if not 0.0 < self.order < 1.0:
            raise ValueError("MittagLefflerDist: order must lie in (0, 1)")

    def cdf_grid(self, xs: np.ndarray, npoints: int = 4097) -> np.ndarray:
        """CDF at many points via one dense cumulative integral.

        Builds a trapezoid cumulative of the density on a uniform grid
        from 0 to the tail cutoff, then interpolates.  Points past the
        cutoff, where the density is below 1e-12 and the series may not
        converge, get 1.  The density is evaluated only up to the first
        node at or past max(xs): the cumulative at a node depends only on
        the nodes before it, so the values read are those of the full
        grid.  `verify`'s CDF table relies on this prefix property to
        evaluate the density only as far as its sample reaches.  Suited
        to goodness-of-fit statistics over large samples.
        """
        xs = np.asarray(xs, dtype=float)
        grid = np.linspace(0.0, _density_cutoff(self.order), npoints)
        if xs.size:
            grid = grid[: np.searchsorted(grid, xs.max()) + 1]
        dens = np.array([ml_density(self.order, g) for g in grid])
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
        cum = np.minimum(cum, 1.0)
        return np.interp(xs, grid, cum, left=0.0, right=1.0)
