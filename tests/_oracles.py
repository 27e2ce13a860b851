"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: closed
forms, quadrature, and brute-force enumeration only.  The one exception
is `eval_poly_table`, which runs the package's three-term recurrence in
value space, where x acts pointwise; the kernel engine runs the same
recurrence in coefficient space, where x acts as the Jacobi operator.
"""

import math

import numpy as np
from scipy.integrate import quad


def erfc_quad(x: float) -> float:
    """Complementary error function by direct numerical integration."""
    val, _ = quad(lambda t: math.exp(-t * t), x, np.inf, epsabs=1e-13)
    return 2.0 / math.sqrt(math.pi) * val


# Half-integer Bessel J closed forms.

def j_half(x: float) -> float:
    return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)


def j_minus_half(x: float) -> float:
    return math.sqrt(2.0 / (math.pi * x)) * math.cos(x)


def reflected_walk_law(n: int) -> dict:
    """Law of the reflected unit-step chain at time n, exact dyadic.

    Transition rules p(0,1) = 1 and p(i, i+-1) = 1/2 applied as a forward
    recursion with Fraction arithmetic (a collapsed enumeration of all
    2^n step sequences).  Returns {state: Fraction}.
    """
    from fractions import Fraction

    law = {0: Fraction(1)}
    half = Fraction(1, 2)
    for _ in range(n):
        nxt: dict = {}
        for s, p in law.items():
            if s == 0:
                nxt[1] = nxt.get(1, Fraction(0)) + p
            else:
                nxt[s - 1] = nxt.get(s - 1, Fraction(0)) + p * half
                nxt[s + 1] = nxt.get(s + 1, Fraction(0)) + p * half
        law = nxt
    return law


def reflected_return_probability(m: int) -> float:
    """p^(2m)(0,0) for the reflected chain: C(2m, m) / 4^m, exact in binary."""
    return math.comb(2 * m, m) / 4**m


def local_time_distribution(row_fn, n: int, y: int, start: int = 0) -> dict:
    """Exact law of the visit count N_n(y) by forward recursion.

    Tracks the joint mass of (state, visits so far) pairs through n
    steps; `row_fn(state)` must return the one-step law as (state, prob)
    pairs.  Counting starts at time 0.  Returns {count: probability}.
    """
    dist = {(start, 1 if start == y else 0): 1.0}
    for _ in range(n):
        nxt: dict = {}
        for (s, c), p in dist.items():
            for s2, q in row_fn(s):
                key = (s2, c + (1 if s2 == y else 0))
                nxt[key] = nxt.get(key, 0.0) + p * q
        dist = nxt
    marg: dict = {}
    for (_, c), p in dist.items():
        marg[c] = marg.get(c, 0.0) + p
    return marg


def unit_step_row(alpha: float):
    """Closed-form birth-death rows for the unit-step walk."""

    def row(s: int):
        if s == 0:
            return [(1, 1.0)]
        down = s / (2 * s + 2 * alpha + 1)
        return [(s - 1, down), (s + 1, 1.0 - down)]

    return row


def unit_step_lt_constant(alpha: float, y: int) -> float:
    """Local-time limit multiplier for the unit-step walk, alpha < 0.

    (2y+2a+1) Gamma(y+2a+1) Gamma(-a) / (2^(a+1) Gamma(y+1) Gamma(a+1)),
    reading the 0 * Gamma(0) factor at y = 0, a = -1/2 as 1.
    """
    a = alpha
    front = 2 * y + 2 * a + 1
    prod = 1.0 if front == 0.0 else front * math.gamma(y + 2 * a + 1)
    return prod * math.gamma(-a) / (2 ** (a + 1) * math.gamma(y + 1) * math.gamma(a + 1))


def unit_step_mean_visits(alpha: float, n: int) -> float:
    """E N_n(0) for the unit-step walk started at 0, counting time 0.

    The walk returns only at even times, with r_2m = p^(2m)(0, 0) =
    prod_{j<m} (1/2 + j) / (alpha + 3/2 + j), the coefficients of
    2F1(1/2, 1; alpha + 3/2; t).  Returns sum_{m <= n/2} r_2m.
    """
    j = np.arange(n // 2, dtype=float)
    r = np.cumprod((0.5 + j) / (alpha + 1.5 + j))
    return 1.0 + float(np.sum(r))


def eval_poly_table(idx, nmax: int, xs) -> np.ndarray:
    """P_0 .. P_nmax of index idx.alpha at the points xs in [-1, 1].

    Returns an array of shape (nmax+1, len(xs)); row n is P_n at xs.
    """
    from gegwalk.gegenbauer import _recurrence

    if nmax < 0:
        raise ValueError("eval_poly_table: nmax must be >= 0")
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < -1.0 or xs.max() > 1.0):
        raise ValueError("eval_poly_table: points must lie in [-1, 1]")
    rows = _recurrence(idx.alpha, nmax, np.ones(xs.size), lambda c, u: c * xs * u)
    return np.array(list(rows))


def space_scaled_from_origin(alpha: float, C: float, x: float) -> float:
    """Limit of sqrt(n) p^(n)(0, floor(x sqrt n)), the Bessel-type density
    x^(2a+1) e^(-x^2/4C) / (2^(2a+1) C^(a+1) Gamma(a+1))."""
    a = alpha
    return (
        x ** (2.0 * a + 1.0)
        * math.exp(-x * x / (4.0 * C))
        / (2.0 ** (2.0 * a + 1.0) * C ** (a + 1.0) * math.gamma(a + 1.0))
    )


def linearization_by_projection(alpha: float, m: int, n: int) -> dict:
    """Product expansion coefficients via weighted quadrature projection.

    c(m, n, k) = w_k * integral of P_m P_n P_k against (1-x^2)^alpha dx.
    Independent of the recurrence-based construction under test.
    """
    from scipy.special import roots_jacobi

    from gegwalk.gegenbauer import HypergroupIndex, weight

    idx = HypergroupIndex(alpha)
    nodes, wts = roots_jacobi(2 * (n + m) + 16, alpha, alpha)
    table = eval_poly_table(idx, n + m, nodes)
    return {
        k: weight(idx, k) * float(np.sum(wts * table[m] * table[n] * table[k]))
        for k in range(abs(n - m), n + m + 1, 2)
    }


def exact_return_probabilities(alpha: float, n: int, mu1: float, mu2: float):
    """r_k = p^(k)(0, 0), k = 0..n, for the step law mu1 delta_1 + mu2 delta_2.

    The step-1 transition is the closed-form birth-death kernel U of
    `unit_step_row`; the step-2 transition is P_2(U) with
    P_2(x) = ((2a+3) x^2 - 1) / (2a+2), so the kernel is
    mu1 U + mu2 P_2(U).  States are cut at L = ceil(8 sqrt(2 C n)) with
    C the drift constant, and the mass each step pushes past L is added
    up.  The kernel is a positive contraction, so that sum bounds the
    error of every r_k.  Returns (r, dropped_mass).
    """
    from scipy.sparse import diags, identity

    a = alpha
    drift = (mu1 * (2 * a + 2) + mu2 * 2 * (2 * a + 3)) / (4.0 * (a + 1.0))
    size = math.ceil(8.0 * math.sqrt(2.0 * drift * n))
    # two states of margin make the rows 0..size-1 of U^2 exact
    s = np.arange(1, size + 2, dtype=float)
    down = np.concatenate(([0.0], s / (2 * s + 2 * a + 1)))
    unit = diags([down[1:], 1.0 - down[:-1]], [-1, 1], format="csr")
    two = ((2 * a + 3) * (unit @ unit) - identity(size + 2)) / (2 * a + 2)
    kernel = (mu1 * unit + mu2 * two).tocsr()
    past = np.asarray(kernel[:size, size:].sum(axis=1)).ravel()
    forward = kernel[:size, :size].T.tocsr()
    v = np.zeros(size)
    v[0] = 1.0
    r = np.empty(n + 1)
    dropped = 0.0
    for k in range(n + 1):
        r[k] = v[0]
        if k < n:
            dropped += float(v @ past)
            v = forward @ v
    return r, dropped


def local_time_moments(r: np.ndarray, n: int) -> tuple[float, float]:
    """E N_n(0) and E N_n(0)^2 from the return probabilities r, start at 0.

    Counting starts at time 0, so E N_n = sum_{k<=n} r_k, and the renewal
    identity gives E N_n^2 = E N_n + 2 sum_{0<=j<k<=n} r_j r_{k-j}
    (Feller, vol. I, ch. XIII).
    """
    head = r[: n + 1]
    cum = np.cumsum(head)
    m1 = float(cum[-1])
    # sum_j r_j * (r_1 + ... + r_(n-j))
    cross = float(np.sum(head * (cum[::-1] - head[0])))
    return m1, m1 + 2.0 * cross
