#!/usr/bin/env python3
"""Exact finite-n local-time moments against their limit predictions.

No simulation: the mean visit count is E N_n = sum_k r_k with
r_k = p^(k)(0,0), and the second moment follows from the renewal-type
identity E N_n^2 = E N_n + 2 sum_{0<=j<k<=n} r_j r_{k-j}.  The return
probabilities come from a sparse truncation of the kernel, and the
limits are K^p p!/Gamma(|a|p+1) n^(p|a|).  Emits CSV
(n, m1, m1_ratio, m2, m2_ratio) on stdout; the ratio columns show the
~n^-|a| approach to 1 that bounds what any Monte Carlo check can see.
The mass the truncation drops, a bound on the error of every r_k, goes
to stderr.

Example:
    python3 scripts/moment_bias_curve.py --alpha -0.25 --mu 1:0.5,2:0.5 \
        --kmax 14
"""

import argparse
import math
import sys

import numpy as np
from scipy.sparse import csr_matrix

from gegwalk.gegenbauer import HypergroupIndex
from gegwalk.hypergroup import GegenbauerKernel, SparseMeasure, drift_constant, kernel_row
from gegwalk.specfun import ml_moment
from gegwalk.verify import local_time_scale_constant


def return_probabilities(idx, mu, nmax):
    """r_k = p^(k)(0, 0) for k = 0..nmax via sparse kernel iteration.

    States are cut at ``size``, and the mass each step pushes past the
    cut is added up.  The kernel is a positive contraction, so that sum
    bounds the error of every r_k.  Returns (r, dropped_mass).
    """
    C = drift_constant(idx, mu)
    # keep ~8 diffusive standard deviations of states; mass beyond the
    # edge never returns within the horizon anyway
    size = max(1000, int(8.0 * math.sqrt(2.0 * C * nmax)) + mu.max_state + 1)
    kernel = GegenbauerKernel(idx, mu)
    rows, cols, vals = [], [], []
    past = np.zeros(size)
    for x in range(size):
        for s, m in kernel_row(kernel, x).items():
            if s < size:
                rows.append(s)
                cols.append(x)
                vals.append(m)
            else:
                past[x] += m
    step = csr_matrix((vals, (rows, cols)), shape=(size, size))
    v = np.zeros(size)
    v[0] = 1.0
    r = np.empty(nmax + 1)
    dropped = 0.0
    for k in range(nmax + 1):
        r[k] = v[0]
        if k < nmax:
            dropped += float(v @ past)
            v = step @ v
    return r, dropped


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=-0.25,
                    help="polynomial index, must be negative")
    ap.add_argument("--mu", default="1:0.5,2:0.5",
                    help="step measure: state:mass,... or a CSV/JSON file")
    ap.add_argument("--kmax", type=int, default=14,
                    help="horizons are 2^6 .. 2^kmax")
    args = ap.parse_args()

    idx = HypergroupIndex(args.alpha)
    mu = SparseMeasure.parse(args.mu)
    a = args.alpha
    if not a < 0.0:
        ap.error("--alpha must be negative (recurrent, power-law regime)")
    K = local_time_scale_constant(idx, mu, 0)
    ns = [2**k for k in range(6, args.kmax + 1)]
    r, dropped = return_probabilities(idx, mu, ns[-1])
    print(f"truncation dropped mass {dropped!r} "
          "(l1 bound on the error of every r_k)", file=sys.stderr)

    # prefix sums make the convolution-style double sum O(n) per horizon
    cum = np.concatenate(([0.0], np.cumsum(r)))
    print("n,m1,m1_ratio,m2,m2_ratio")
    for n in ns:
        m1 = float(cum[n + 1])
        # sum over 0 <= j < k <= n of r_j r_(k-j), via inner prefix sums
        cross = float(np.sum(r[: n + 1] * (cum[n + 1 - np.arange(n + 1)] - r[0])))
        m2 = m1 + 2.0 * cross
        p1 = K * ml_moment(-a, 1) * n ** (-a)
        p2 = K**2 * ml_moment(-a, 2) * n ** (-2 * a)
        print(f"{n},{m1!r},{m1 / p1!r},{m2!r},{m2 / p2!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
