"""Measures on N, the generalized convolution, and exact walk kernels.

The product formula for Gegenbauer polynomials induces a convolution of
point masses, delta_m * delta_n = sum_k c(m,n,k) delta_k, with the
linearization coefficients as weights.  Extended bilinearly this gives a
commutative convolution of probability measures on N, a transition
kernel p(x, .) = delta_x * mu for any step measure mu, and a Fourier
calculus in which mu_hat(theta) = sum mu(n) P_n(cos theta) turns
convolution into pointwise products.

Exact n-step laws are computed by iterating the one-step operator on a
dense coefficient vector.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Mapping, NamedTuple

import numpy as np

from gegwalk.errors import ConsistencyError, QuadratureError, StateCapError
from gegwalk.gegenbauer import (
    HypergroupIndex,
    _jacobi_nodes,
    _poly_apply,
    eval_poly_table,
    linearization,
    weight,
)

__all__ = [
    "SparseMeasure",
    "GegenbauerKernel",
    "MembershipResult",
    "convolve",
    "kernel_row",
    "n_step",
    "n_step_sequence",
    "fourier",
    "inverse_fourier",
    "classify",
    "drift_constant",
    "is_gegenbauer_walk",
    "transition_matrix",
]

DEFAULT_STATE_CAP = 1_000_000

# hand-typed masses may carry decimal round-off; within this tolerance
# SparseMeasure.parse accepts them and renormalizes to an exact probability vector
_PARSE_SUM_TOL = 1e-9


class SparseMeasure:
    """Finitely supported probability measure on the nonnegative integers.

    Masses must be nonnegative and sum to 1 within ``total_tol``; pairs
    naming the same state are added.  Instances are immutable.
    """

    __slots__ = ("_map",)

    def __init__(
        self,
        entries: Mapping[int, float] | Iterable[tuple[int, float]],
        *,
        total_tol: float = 1e-12,
    ):
        items: dict[int, float] = {}
        pairs = entries.items() if hasattr(entries, "items") else entries
        for s, m in pairs:
            state = int(s)
            mass = float(m)
            if state != s:
                raise ValueError(f"SparseMeasure: non-integer state {s!r}")
            if state < 0:
                raise ValueError(f"SparseMeasure: negative state {state}")
            if not mass >= 0.0:
                raise ValueError(
                    f"SparseMeasure: negative mass or NaN {mass!r} at state {state}"
                )
            if mass != 0.0:
                items[state] = items.get(state, 0.0) + mass
        total = math.fsum(items.values())
        if not abs(total - 1.0) <= total_tol:
            raise ValueError(
                f"SparseMeasure: total mass {total!r} differs from 1 "
                f"by more than {total_tol:g}"
            )
        self._map = items

    @classmethod
    def point(cls, state: int) -> "SparseMeasure":
        """Unit mass at a single state."""
        return cls({state: 1.0})

    @classmethod
    def from_array(cls, masses: np.ndarray, **kwargs) -> "SparseMeasure":
        arr = np.asarray(masses, dtype=float)
        return cls({i: float(v) for i, v in enumerate(arr) if v != 0.0}, **kwargs)

    # -- read access -------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._map))

    @property
    def max_state(self) -> int:
        sup = self.support
        return sup[-1] if sup else 0

    @property
    def total(self) -> float:
        return math.fsum(self._map.values())

    def mass(self, state: int) -> float:
        if state < 0:
            return 0.0
        return self._map.get(state, 0.0)

    __getitem__ = mass

    def items(self):
        """(state, mass) pairs in increasing state order."""
        for s in sorted(self._map):
            yield s, self._map[s]

    def as_dict(self) -> dict[int, float]:
        return dict(self.items())

    def as_array(self, length: int | None = None) -> np.ndarray:
        n = (self.max_state + 1) if length is None else length
        out = np.zeros(n)
        for s, m in self.items():
            if s < n:
                out[s] = m
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMeasure):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None

    def __repr__(self):
        return f"SparseMeasure({self.as_dict()!r})"

    # -- serialization -----------------------------------------------

    def to_csv(self) -> str:
        """Two-column text, ``state,mass``, one row per support point.

        Masses use shortest round-trip decimals, so parsing the text
        recovers the exact doubles.
        """
        lines = ["state,mass"]
        lines += [f"{s},{m!r}" for s, m in self.items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, **kwargs) -> "SparseMeasure":
        rows = [ln for ln in text.splitlines() if ln.strip()]
        if not rows or rows[0].strip() != "state,mass":
            raise ValueError("SparseMeasure.from_csv: expected 'state,mass' header")
        pairs = []
        for ln in rows[1:]:
            s, _, m = ln.partition(",")
            pairs.append((int(s), float(m)))
        return cls(pairs, **kwargs)

    def to_json(self, alpha: float | None = None) -> str:
        """JSON object {alpha, entries:{state: mass}}; keys in state order."""
        doc = {
            "alpha": alpha,
            "entries": {str(s): m for s, m in self.items()},
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str, **kwargs) -> tuple["SparseMeasure", float | None]:
        """Inverse of to_json; returns the measure and the stored alpha."""
        doc = json.loads(text)
        mu = cls({int(s): float(m) for s, m in doc["entries"].items()}, **kwargs)
        return mu, doc.get("alpha")

    @classmethod
    def parse(cls, spec: str) -> "SparseMeasure":
        """Step measure from ``state:mass,...`` or from a CSV/JSON file path.

        Hand-typed masses may carry decimal round-off: they must sum to 1
        within 1e-9 and are renormalized by their exact sum.
        """
        if os.path.isfile(spec):
            with open(spec) as fh:
                text = fh.read()
            if text.lstrip().startswith("{"):
                read, _ = cls.from_json(text, total_tol=_PARSE_SUM_TOL)
            else:
                read = cls.from_csv(text, total_tol=_PARSE_SUM_TOL)
            pairs = list(read.items())
        else:
            pairs = []
            for item in spec.split(","):
                state, sep, mass = item.partition(":")
                if not sep:
                    raise ValueError(f"bad step-measure entry {item!r}: want state:mass")
                pairs.append((int(state), float(mass)))
        total = math.fsum(m for _, m in pairs)
        if not abs(total - 1.0) <= _PARSE_SUM_TOL:
            raise ValueError(f"step-measure masses sum to {total!r}; must be 1 within 1e-9")
        return cls([(s, m / total) for s, m in pairs])


@dataclass(frozen=True)
class GegenbauerKernel:
    """Transition kernel p(x, .) = delta_x * mu of the walk with step mu."""

    idx: HypergroupIndex
    step_measure: SparseMeasure

    @property
    def parity(self) -> Literal["mixed", "odd", "even"]:
        """Parity classes the support of mu meets.

        ``"mixed"`` is the aperiodic case.  On ``"odd"`` (the unit step,
        say) the walk alternates parity class at every step, so its n-step
        laws vanish on alternating classes; on ``"even"`` it never leaves
        the class it starts in.
        """
        classes = {s % 2 for s in self.step_measure.support}
        if len(classes) == 2:
            return "mixed"
        return "odd" if 1 in classes else "even"

    @property
    def is_unit_step(self) -> bool:
        """True for the unit step mu = delta_1, whose rows have a closed form."""
        return self.step_measure.support == (1,)


def _clamp_roundoff(v: np.ndarray) -> np.ndarray:
    """Floor negative round-off at 0 in a law vector, in place.

    Entries that should vanish by exact cancellation can come out at
    either sign of magnitude ~eps * max; genuinely negative values beyond
    that scale indicate a bug and raise.
    """
    mn = v.min()
    if mn < 0.0:
        if mn < -1e-12 * max(float(v.max()), 0.0):
            raise ConsistencyError(
                f"law vector has negative entry {mn:.3e} beyond round-off scale"
            )
        np.maximum(v, 0.0, out=v)
    return v


def convolve(idx: HypergroupIndex, mu: SparseMeasure, nu: SparseMeasure) -> SparseMeasure:
    """Generalized convolution mu * nu of two probability measures.

    The operands are ordered canonically before the sweep (smaller max
    support drives the Jacobi recurrence), so both argument orders run
    the identical computation and commutativity holds bit for bit.
    """

    def order_key(m: SparseMeasure):
        return (m.max_state, m.support, tuple(v for _, v in m.items()))

    if order_key(mu) > order_key(nu):
        mu, nu = nu, mu
    out = _poly_apply(idx.alpha, list(mu.items()), nu.as_array())
    return SparseMeasure.from_array(_clamp_roundoff(out), total_tol=1e-10)


def kernel_row(kernel: GegenbauerKernel, x: int) -> SparseMeasure:
    """Row x of the transition kernel: delta_x * mu.

    Assembled atom by atom from cached linearization rows (each of which
    is one Jacobi-recurrence sweep of cost O(x * (x + s))), so the row
    inherits their exact parity supports: for the unit step the row is
    exactly two-point.
    """
    if x < 0:
        raise ValueError("kernel_row: state must be >= 0")
    mu = kernel.step_measure
    if x == 0:
        return mu
    acc: dict[int, float] = {}
    for s, m in mu.items():
        for k, c in linearization(kernel.idx, x, s).coeffs.items():
            acc[k] = acc.get(k, 0.0) + m * c
    return SparseMeasure(acc, total_tol=1e-10)


def _n_step_laws(
    kernel: GegenbauerKernel, x: int, horizons: list[int]
) -> dict[int, SparseMeasure]:
    """Laws at the ascending horizons from one sweep of the one-step operator."""
    if x < 0 or horizons[0] < 0:
        raise ValueError("n_step: x and n must be >= 0")
    n = horizons[-1]
    needed = x + n * kernel.step_measure.max_state + 1
    if needed > DEFAULT_STATE_CAP:
        raise StateCapError(
            f"n_step(x={x}, n={n}) exceeds the state cap {DEFAULT_STATE_CAP}",
            required=needed,
        )
    a = kernel.idx.alpha
    mu_items = list(kernel.step_measure.items())
    v = np.zeros(x + 1)
    v[x] = 1.0
    out: dict[int, SparseMeasure] = {}
    step = 0
    for target in horizons:
        while step < target:
            v = _clamp_roundoff(_poly_apply(a, mu_items, v))
            step += 1
        out[target] = SparseMeasure.from_array(v, total_tol=1e-10)
    return out


def n_step(kernel: GegenbauerKernel, x: int, n: int) -> SparseMeasure:
    """Exact law of the walk after n steps started at x.

    Applies the one-step operator n times to delta_x.  The support can
    reach x + n * max(support of mu); if that exceeds DEFAULT_STATE_CAP
    the computation refuses loudly rather than truncating, since
    truncation would corrupt the far tail.  Round-off lets the total mass
    drift from 1 by O(n * eps); outputs are accepted within 1e-10.
    """
    return _n_step_laws(kernel, x, [n])[n]


def n_step_sequence(
    kernel: GegenbauerKernel, x: int, checkpoints: Iterable[int]
) -> dict[int, SparseMeasure]:
    """Exact laws at several horizons from one iteration sweep.

    Equivalent to {n: n_step(kernel, x, n) for n in checkpoints} but runs
    the iteration once up to max(checkpoints).
    """
    ns = sorted(set(int(n) for n in checkpoints))
    if not ns:
        return {}
    return _n_step_laws(kernel, x, ns)


def fourier(idx: HypergroupIndex, mu: SparseMeasure, theta: float) -> float:
    """Generalized Fourier transform sum_n mu(n) P_n(cos theta)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("fourier: theta must lie in [0, pi]")
    table = eval_poly_table(idx, mu.max_state, np.array([math.cos(theta)]))
    return math.fsum(m * table[s, 0] for s, m in mu.items())


def inverse_fourier(
    idx: HypergroupIndex, f: Callable[[float], float], n: int
) -> float:
    """Coefficient recovery: w_n * integral of f(theta) P_n(cos theta)
    sin^(2a+1)(theta) dtheta over [0, pi].

    Substituting x = cos(theta) turns the weight into (1-x^2)^alpha, so
    Gauss nodes for that weight apply directly; node counts are doubled
    until two successive levels agree within 1e-9.
    """
    if n < 0:
        raise ValueError("inverse_fourier: n must be >= 0")
    prev = None
    for npoints in (64, 128, 256, 512, 1024, 2048, 4096):
        nodes, wts = _jacobi_nodes(idx.alpha, npoints)
        pn = eval_poly_table(idx, n, nodes)[n]
        fv = np.array([f(math.acos(min(1.0, max(-1.0, t)))) for t in nodes])
        val = weight(idx, n) * float(np.sum(wts * fv * pn))
        if prev is not None and abs(val - prev) <= 1e-9:
            return val
        prev = val
    raise QuadratureError(
        f"inverse_fourier(n={n}) did not stabilize", achieved_tol=abs(val - prev)
    )


def classify(idx: HypergroupIndex) -> Literal["recurrent", "transient"]:
    """Recurrence dichotomy of the walk: recurrent iff alpha <= 0."""
    return "recurrent" if idx.alpha <= 0.0 else "transient"


def drift_constant(idx: HypergroupIndex, mu: SparseMeasure) -> float:
    """Scale constant C = 1/(4(alpha+1)) * sum mu(n) n (n+2 alpha+1).

    Appears in every limit theorem as the time normalization of the walk.
    """
    a = idx.alpha
    return math.fsum(m * s * (s + 2 * a + 1) for s, m in mu.items()) / (4.0 * (a + 1.0))


def transition_matrix(kernel: GegenbauerKernel, nmax: int) -> np.ndarray:
    """Dense kernel rows 0..nmax, columns truncated to 0..nmax.

    Rows near nmax lose the mass their support carries past the edge;
    consumers are expected to ignore the last few rows.
    """
    out = np.zeros((nmax + 1, nmax + 1))
    for x in range(nmax + 1):
        out[x] = kernel_row(kernel, x).as_array(nmax + 1)
    return out


class MembershipResult(NamedTuple):
    """Outcome of the structural test for Gegenbauer-walk kernels."""

    is_member: bool
    max_residual: float
    recovered_step: SparseMeasure


def is_gegenbauer_walk(transition: np.ndarray, lam: float) -> MembershipResult:
    """Test whether a kernel matrix is a Gegenbauer walk with parameter lam.

    Checks, for interior states i and columns j, the cross-relation

        i/(2(i+lam)) p(i-1,j) + (i+2lam)/(2(i+lam)) p(i+1,j)
          = (j+2lam-1)/(2(j+lam-1)) p(i,j-1) + (j+1)/(2(j+lam+1)) p(i,j+1)

    which holds if and only if the kernel is delta_x * mu for some step
    measure mu; that mu is then row 0 and is returned.  Exposed for
    lam in [0, 1/2] as the relation is stated on that range.

    Boundary conventions: at j = 0 the left neighbor term multiplies
    p(i,-1) = 0 and is dropped; at j = 1 with lam = 0 its coefficient is
    the 0/0 limit of (2 lam)/(2 lam) and is taken as 1 by continuity
    (dropping it instead breaks the unit-step chain at alpha = -1/2).
    The last two rows and columns are excluded: truncation makes them
    unreliable for step supports reaching up to 2.
    """
    if not 0.0 <= lam <= 0.5:
        raise ValueError("is_gegenbauer_walk: lam must lie in [0, 1/2]")
    P = np.asarray(transition, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("is_gegenbauer_walk: transition must be a square matrix")
    N = P.shape[0] - 1
    if N < 4:
        raise ValueError("is_gegenbauer_walk: need at least states 0..4")
    body = P[: N - 1]  # rows N-1, N may be truncation-deficient
    if body.min() < -1e-12:
        raise ValueError("is_gegenbauer_walk: negative transition probability")
    sums = body.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-8:
        raise ValueError("is_gegenbauer_walk: rows are not probability vectors")

    # center rows i = 1..N-3 so every referenced row stays <= N-2
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
    residual = float(np.abs(lhs - rhs).max())
    mu = SparseMeasure.from_array(P[0], total_tol=1e-8)
    return MembershipResult(residual <= 1e-10, residual, mu)
