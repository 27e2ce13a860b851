"""Measures on N, the generalized convolution, and exact walk kernels.

The product formula for Gegenbauer polynomials induces a convolution of
point masses, delta_m * delta_n = sum_k c(m,n,k) delta_k, with the
linearization coefficients as weights.  Extended bilinearly this gives a
transition kernel p(x, .) = delta_x * mu for any step measure mu.

Exact n-step laws come from one sweep, the private generator `_sweep`.
It builds the one-step operator once, as the band of its diagonals
p(x, x + d), d = -smax..smax, and then steps the live window of a dense
law vector: the states up to the last mass of at least tau = 2^-1022,
the smallest normal double.  After each step the trailing masses below
tau are flushed to zero, so a transient walk's far tail underflows
instead of sitting in subnormals, which are slow to compute with.  The
operator is a positive l1 contraction, so the flushed total bounds the
l1 distance of every law from the unflushed iteration; a priori it is
at most n * (x + n * smax + 1) * tau, below 3e-296 under the state cap.
`n_step` reads the whole law at the end of one sweep, and
`return_probabilities` the one entry p^(k)(x, y) after every step k.

`transition_probabilities` reads p^(n)(x, y) at a few horizons from half
sweeps.  The walk is reversible with respect to the Haar weights w of
`gegenbauer.weight`, w_x p(x, y) = w_y p(y, x), so with a = ceil(n/2)
and b = floor(n/2), p^(n)(x, y) = w_y sum_z p^(a)(x, z) p^(b)(y, z) / w_z.
For x = y that is one sweep to ceil(n/2) instead of a sweep to n, whose
cost grows like n^1.5.  For x != y a second sweep runs from y, and the
two make as many numpy calls per step as one sweep to n; at moderate
horizons a step's cost is mostly those calls, so there that path is no
faster than the full sweep.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Mapping

import numpy as np

from gegwalk.errors import ConsistencyError, StateCapError
from gegwalk.gegenbauer import HypergroupIndex, _poly_apply, linearization, weight

__all__ = [
    "SparseMeasure",
    "GegenbauerKernel",
    "kernel_row",
    "n_step",
    "transition_probabilities",
    "return_probabilities",
    "drift_constant",
]

DEFAULT_STATE_CAP = 1_000_000

# n-step laws flush trailing masses below the smallest normal double, 2^-1022
_FLUSH_FLOOR = np.finfo(float).tiny
# round-off lets an n-step law's total mass drift from 1 by O(n * eps)
_MASS_DRIFT_TOL = 1e-10
# caps a band's (2*smax+1) doubles per state times the smax+1 passes its build
# makes over them: at most 7e6 doubles (56 MB) and 2^25 element updates
_BAND_CAP = 2**25

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
    def from_array(cls, masses: np.ndarray, **kwargs) -> "SparseMeasure":
        arr = np.asarray(masses, dtype=float)
        nz = np.flatnonzero(arr)
        return cls(dict(zip(nz.tolist(), arr[nz].tolist())), **kwargs)

    # -- read access -------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._map))

    @property
    def max_state(self) -> int:
        sup = self.support
        return sup[-1] if sup else 0

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

    def __eq__(self, other):
        if not isinstance(other, SparseMeasure):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None

    def __repr__(self):
        return f"SparseMeasure({self.as_dict()!r})"

    # -- serialization -----------------------------------------------

    def to_json(self, alpha: float | None = None) -> str:
        """JSON object {alpha, entries:{state: mass}}; keys in state order."""
        doc = {
            "alpha": alpha,
            "entries": {str(s): m for s, m in self.items()},
        }
        return json.dumps(doc)

    @classmethod
    def parse(cls, spec: str) -> "SparseMeasure":
        """Step measure from ``state:mass,...`` or from a file path.

        A file holds the JSON of to_json (its alpha is not read) or CSV
        text under a ``state,mass`` header.  Hand-typed masses may carry
        decimal round-off: they must sum to 1 within 1e-9 and are
        renormalized by their exact sum.
        """
        if os.path.isfile(spec):
            with open(spec) as fh:
                text = fh.read()
            if text.lstrip().startswith("{"):
                entries = json.loads(text).get("entries")
                if not isinstance(entries, dict):
                    raise ValueError("a JSON step measure needs an 'entries' object")
                pairs = [(int(s), float(m)) for s, m in entries.items()]
            else:
                rows = [ln for ln in text.splitlines() if ln.strip()]
                if not rows or rows[0].strip() != "state,mass":
                    raise ValueError("a CSV step measure needs a 'state,mass' header")
                pairs = [(int(s), float(m)) for s, _, m in (ln.partition(",") for ln in rows[1:])]
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
    """Floor negative round-off at 0 in an array of probabilities, in place.

    Entries that should vanish by exact cancellation can come out at
    either sign of magnitude ~eps * max; genuinely negative values beyond
    that scale indicate a bug and raise.
    """
    mn = v.min()
    if mn < 0.0:
        if mn < -1e-12 * max(float(v.max()), 0.0):
            raise ConsistencyError(
                f"negative probability {mn:.3e} beyond round-off scale"
            )
        np.maximum(v, 0.0, out=v)
    return v


def kernel_row(kernel: GegenbauerKernel, x: int) -> SparseMeasure:
    """Row x of the transition kernel: delta_x * mu.

    Assembled atom by atom from cached linearization rows (each of which
    is one Jacobi-recurrence sweep of cost O(x * (x + s))), so the row
    inherits their exact parity supports: for the unit step the row is
    exactly two-point.
    """
    if x < 0:
        raise ValueError("kernel_row: state must be >= 0")
    acc: dict[int, float] = {}
    for s, m in kernel.step_measure.items():
        for k, c in linearization(kernel.idx, x, s).coeffs.items():
            acc[k] = acc.get(k, 0.0) + m * c
    return SparseMeasure(acc, total_tol=1e-10)


def _band(kernel: GegenbauerKernel, size: int) -> np.ndarray:
    """The one-step operator on states 0..size-1 as its 2*smax+1 diagonals,
    band[smax + d, j] = p(j, j + d), which is 0 where j + d < 0.

    Basis vectors 2*smax+1 apart have disjoint images, so one _poly_apply
    of their sum (a comb) gives each of their columns bit for bit.  The
    round-off floor is checked and applied once, here.  The build costs
    O(smax^2) per state, so it refuses, before allocating, past a state
    cap of _BAND_CAP // ((smax+1) * (2*smax+1)), which binds from smax = 4.
    """
    smax = kernel.step_measure.max_state
    width = 2 * smax + 1
    cap = _BAND_CAP // ((smax + 1) * width)
    if size > cap:
        raise StateCapError(f"a step up to {smax} has a band state cap of {cap}", required=size)
    band = np.empty((width, size))
    image = np.zeros(size + 2 * smax)  # image[smax + i] is entry i of a comb's image
    for r in range(min(width, size)):  # a comb from r >= size would be empty
        comb = np.zeros(size)
        comb[r::width] = 1.0
        image[smax:] = _poly_apply(kernel.idx.alpha, list(kernel.step_measure.items()), comb)
        for k in range(width):
            band[k, r::width] = image[r + k : size + k : width]
    return _clamp_roundoff(band)


def _reach(kernel: GegenbauerKernel, x: int, n: int, caller: str) -> int:
    """The x + n*smax + 1 states that n steps from x can reach.

    Past DEFAULT_STATE_CAP the caller refuses, before allocating, rather
    than cut to fit.
    """
    needed = x + n * kernel.step_measure.max_state + 1
    if needed > DEFAULT_STATE_CAP:
        raise StateCapError(
            f"{caller}(x={x}, n={n}) exceeds the state cap {DEFAULT_STATE_CAP}",
            required=needed,
        )
    return needed


def _sweep(
    kernel: GegenbauerKernel, x: int, n: int, band: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield (the law on states 0..hi, flushed mass so far) after each of steps 0..n.

    One sweep of the one-step operator from delta_x.  For n >= 1 the
    operator is its band on at least the x + n*smax + 1 states the sweep
    can reach, (2*smax+1) doubles per state, with its round-off floor
    checked there; it is built here unless the caller shares one.  Each
    step is then one shifted multiply-add on the live window per
    diagonal that is not zero throughout.  The yielded window is a view
    of a buffer that the next step overwrites.
    """
    smax = kernel.step_measure.max_state
    needed = _reach(kernel, x, n, "n_step")
    if band is None and n:  # step 0 needs no operator
        band = _band(kernel, needed)
    # Diagonals that are zero throughout (d = 0 for the unit step, every
    # even d for a step on odd states, every odd d for one on even states)
    # would only add +0.0; skip them.
    live = [k for k in range(2 * smax + 1) if band[k].any()] if n else []
    # v, w ping-pong and hold state i at index smax + i: a diagonal's
    # products from states j with j + d < 0, all +0.0, land in the unread
    # padding below smax
    v, w, prod = np.zeros(needed + smax), np.zeros(needed + smax), np.empty(needed)
    v[smax + x] = 1.0
    hi = x  # only states 0..hi are read; entries past hi are not kept at zero
    flushed = 0.0  # mass set to zero at the trailing edge so far
    yield v[smax : smax + hi + 1], flushed
    for _ in range(n):
        w[: hi + 2 * smax + 1] = 0.0
        for k in live:  # p(j, j + d) v[j] lands on j + d, d = k - smax
            np.multiply(band[k, : hi + 1], v[smax : smax + hi + 1], out=prod[: hi + 1])
            w[k : k + hi + 1] += prod[: hi + 1]
        v, w = w, v
        hi += smax
        while hi > 0 and v[smax + hi] < _FLUSH_FLOOR:
            flushed += v[smax + hi]
            v[smax + hi] = 0.0
            hi -= 1
        yield v[smax : smax + hi + 1], flushed


def _check_mass(law: np.ndarray, n: int, flushed: float) -> None:
    """Raise ConsistencyError if the total of the law at n drifted from 1."""
    drift = math.fsum(law.tolist()) - 1.0
    if not abs(drift) <= _MASS_DRIFT_TOL:
        raise ConsistencyError(
            f"n_step: the law at n={n} has total mass 1{drift:+.3e}, "
            f"beyond {_MASS_DRIFT_TOL:g} (flushed mass {flushed:.3e})"
        )


def _haar_weights(idx: HypergroupIndex, size: int) -> np.ndarray:
    """The weights w_0..w_(size-1) of gegenbauer.weight as one array.

    w_0 and w_1 are the scalar ones; the rest follow by the ratio
    w_(z+1)/w_z = (2z+2a+3)(z+2a+1) / ((2z+2a+1)(z+1)), taken from z = 1
    because at a = -1/2 the ratio at z = 0 is 0/0.  Up to 2*10^4 states
    the running product stays within 5e-13 relative of the gamma form
    (a = -1/2 .. 1.7), where the scalar weight's log-gamma difference is
    off by up to 7e-11.
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


def n_step(kernel: GegenbauerKernel, x: int, n: int) -> SparseMeasure:
    """Exact law of the walk after n steps started at x, from one full sweep.

    The support can reach x + n * smax, with smax = max(support of mu);
    past DEFAULT_STATE_CAP states the computation refuses loudly, before
    allocating, rather than cut to fit.  For n >= 1 the band of the
    one-step operator, (2*smax+1) * (x + n*smax + 1) doubles, is built
    once per sweep (it pays off when n is large against smax; from
    smax = 4 its state cap is lower, see _band), and a negative entry
    beyond round-off raises ConsistencyError there, before any step.
    Each step runs on the live window [0, hi]; then the trailing masses
    below tau = 2^-1022 are set to zero and hi moves back to the last
    mass of at least tau.  The flushed total, at most
    n * (x + n * smax + 1) * tau, bounds the l1 error of the law.  A drift
    of the total mass from 1 beyond 1e-10 raises ConsistencyError.  For
    single entries p^(n)(x, y), transition_probabilities sweeps half as far
    when x = y; for x != y its two half sweeps make as many numpy calls
    per step as this one does.
    """
    if x < 0 or n < 0:
        raise ValueError("n_step: x and n must be >= 0")
    for law, flushed in _sweep(kernel, x, n):
        pass
    _check_mass(law, n, flushed)
    return SparseMeasure.from_array(law, total_tol=_MASS_DRIFT_TOL)


def transition_probabilities(
    kernel: GegenbauerKernel, x: int, y: int, horizons: Iterable[int]
) -> tuple[np.ndarray, float]:
    """p^(n)(x, y) for each of the horizons, in their order, from half sweeps.

    The walk is reversible with respect to the weights w of
    gegenbauer.weight, w_x p(x, y) = w_y p(y, x), so with a = ceil(n/2)
    and b = floor(n/2)

        p^(n)(x, y) = w_y sum_z p^(a)(x, z) p^(b)(y, z) / w_z,

    one weighted dot product of two laws.  For x = y one sweep from x to
    ceil(max n / 2) serves every horizon; for x != y a sweep from x and
    one from y share one band.  Only the laws at the a and b that the
    horizons need are kept, and each is checked for drift as n_step
    checks its law.  The state cap counts each start's half reach,
    x + ceil(max n / 2) * smax + 1 from x.  On the unit step a horizon
    with n + x + y odd gives exactly 0.0: the two laws sit on disjoint
    parity classes.

    Returns (values, bound).  Beyond round-off, every value is within
    bound = F_x + max_z(w_y / w_z) F_y of the exact one, where F_x and
    F_y are the masses flushed below 2^-1022 on the sweeps from x and
    from y (the same sweep when x = y).
    """
    ns = [int(n) for n in horizons]
    if x < 0 or y < 0 or any(n < 0 for n in ns):
        raise ValueError("transition_probabilities: x, y and n must be >= 0")
    if not ns:
        return np.zeros(0), 0.0
    # start -> the steps whose law is read; one entry when x = y
    steps = {x: {(n + 1) // 2 for n in ns}}
    steps.setdefault(y, set()).update(n // 2 for n in ns)
    size = max(_reach(kernel, s, max(ks), "transition_probabilities") for s, ks in steps.items())
    band = _band(kernel, size) if max(ns) else None  # horizon 0 needs no operator
    laws: dict[tuple[int, int], np.ndarray] = {}
    flushed: dict[int, float] = {}
    for s, ks in steps.items():
        for k, (law, f) in enumerate(_sweep(kernel, s, max(ks), band)):
            if k in ks:
                _check_mass(law, k, f)
                laws[s, k] = law.copy()
        flushed[s] = f
    w = _haar_weights(kernel.idx, size)
    values = np.empty(len(ns))
    for i, n in enumerate(ns):
        la, lb = laws[x, (n + 1) // 2], laws[y, n // 2]
        m = min(la.size, lb.size)
        values[i] = w[y] * np.dot(la[:m], lb[:m] / w[:m])
    bound = float(flushed[x] + w[y] / w.min() * flushed[y])
    return values, bound


def return_probabilities(
    kernel: GegenbauerKernel, x: int, y: int, n: int
) -> tuple[np.ndarray, float]:
    """p^(k)(x, y) for k = 0..n from one sweep of the one-step operator.

    Each r_k is bit-identical to n_step(kernel, x, k)[y], and the same
    state cap and drift check (at n) apply.  Returns (r, flushed): the
    flushed mass bounds the error of every r_k, as it bounds the l1
    error of every law up to n.
    """
    if x < 0 or y < 0 or n < 0:
        raise ValueError("return_probabilities: x, y and n must be >= 0")
    r = np.zeros(n + 1)
    for k, (law, flushed) in enumerate(_sweep(kernel, x, n)):
        if y < law.size:
            r[k] = law[y]
    _check_mass(law, n, flushed)
    return r, float(flushed)


def drift_constant(idx: HypergroupIndex, mu: SparseMeasure) -> float:
    """Scale constant C = 1/(4(alpha+1)) * sum mu(n) n (n+2 alpha+1).

    Appears in every limit theorem as the time normalization of the walk.
    """
    a = idx.alpha
    return math.fsum(m * s * (s + 2 * a + 1) for s, m in mu.items()) / (4.0 * (a + 1.0))
