"""Measures on N, the generalized convolution, and exact walk kernels.

The product formula for Gegenbauer polynomials induces a convolution of
point masses, delta_m * delta_n = sum_k c(m,n,k) delta_k, with the
linearization coefficients as weights.  Extended bilinearly this gives a
transition kernel p(x, .) = delta_x * mu for any step measure mu.

Exact n-step laws are computed by iterating the one-step operator on
the live window of a dense coefficient vector: the states up to the last
mass of at least tau = 2^-1022, the smallest normal double.  After each
step the trailing masses below tau are flushed to zero, so a transient
walk's far tail underflows instead of sitting in subnormals, which are
slow to compute with.  Everything past the window is exactly zero.  The
one-step operator is a positive l1 contraction, so the flushed total
bounds the l1 distance of every law from the unflushed iteration; a
priori it is at most n * (x + n * smax + 1) * tau, below 3e-296 under
the state cap.

That iteration is written once, as the private generator `_sweep`:
`n_step` and `n_step_sequence` read whole laws from it at their
horizons, and `return_probabilities` reads the one entry p^(k)(x, y)
after every step k, with the flushed mass as the bound on its error.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Mapping

import numpy as np

from gegwalk.errors import ConsistencyError, StateCapError
from gegwalk.gegenbauer import HypergroupIndex, _poly_operator, linearization

__all__ = [
    "SparseMeasure",
    "GegenbauerKernel",
    "kernel_row",
    "n_step",
    "n_step_sequence",
    "return_probabilities",
    "drift_constant",
]

DEFAULT_STATE_CAP = 1_000_000

# n-step laws flush trailing masses below the smallest normal double, 2^-1022
_FLUSH_FLOOR = np.finfo(float).tiny
# round-off lets an n-step law's total mass drift from 1 by O(n * eps)
_MASS_DRIFT_TOL = 1e-10

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


def _sweep(kernel: GegenbauerKernel, x: int, n: int) -> Iterator[tuple[np.ndarray, float]]:
    """Yield (v[:hi + 1], flushed mass so far) after each of steps 0..n.

    One sweep of the one-step operator from delta_x.  The yielded window
    is a view of a buffer that the next step overwrites.
    """
    smax = kernel.step_measure.max_state
    needed = x + n * smax + 1
    if needed > DEFAULT_STATE_CAP:
        raise StateCapError(
            f"n_step(x={x}, n={n}) exceeds the state cap {DEFAULT_STATE_CAP}",
            required=needed,
        )
    apply = _poly_operator(kernel.idx.alpha, list(kernel.step_measure.items()), needed)
    v, w = np.zeros(needed), np.empty(needed)  # ping-pong law buffers
    v[x] = 1.0
    hi = x  # v[hi + 1:] is exactly zero, so each step runs on the live window v[:hi + 1]
    flushed = 0.0  # mass set to zero at the trailing edge so far
    yield v[: hi + 1], flushed
    for _ in range(n):
        _clamp_roundoff(apply(v[: hi + 1], w))
        v, w = w, v
        hi += smax
        while hi > 0 and v[hi] < _FLUSH_FLOOR:
            flushed += v[hi]
            v[hi] = 0.0
            hi -= 1
        yield v[: hi + 1], flushed


def _check_mass(law: np.ndarray, n: int, flushed: float) -> None:
    """Raise ConsistencyError if the total of the law at n drifted from 1."""
    drift = math.fsum(law.tolist()) - 1.0
    if not abs(drift) <= _MASS_DRIFT_TOL:
        raise ConsistencyError(
            f"n_step: the law at n={n} has total mass 1{drift:+.3e}, "
            f"beyond {_MASS_DRIFT_TOL:g} (flushed mass {flushed:.3e})"
        )


def _n_step_laws(
    kernel: GegenbauerKernel, x: int, horizons: list[int]
) -> dict[int, SparseMeasure]:
    """Laws at the ascending horizons from one sweep of the one-step operator."""
    if x < 0 or horizons[0] < 0:
        raise ValueError("n_step: x and n must be >= 0")
    wanted = set(horizons)
    out: dict[int, SparseMeasure] = {}
    for step, (law, flushed) in enumerate(_sweep(kernel, x, horizons[-1])):
        if step in wanted:
            _check_mass(law, step, flushed)
            out[step] = SparseMeasure.from_array(law, total_tol=_MASS_DRIFT_TOL)
    return out


def n_step(kernel: GegenbauerKernel, x: int, n: int) -> SparseMeasure:
    """Exact law of the walk after n steps started at x.

    Applies the one-step operator n times to delta_x, each time on the
    live window [0, hi] and into two law buffers allocated once.  After
    each step the trailing masses below tau = 2^-1022 are set to zero
    and hi moves back to the last mass of at least tau.  The flushed
    total bounds the l1 error of the law; it is at most
    n * (x + n * smax + 1) * tau, with smax = max(support of mu).  The
    support can reach x + n * smax; if that exceeds DEFAULT_STATE_CAP
    the computation refuses loudly, before allocating, rather than cut
    the window to fit.  Round-off lets the total mass drift from 1 by
    O(n * eps); a drift beyond 1e-10 raises ConsistencyError.
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
