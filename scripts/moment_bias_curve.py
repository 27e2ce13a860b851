#!/usr/bin/env python3
"""Exact finite-n local-time moments against their limit predictions.

No simulation: the mean visit count is E N_n = sum_k r_k with
r_k = p^(k)(0,0), and the second moment follows from the renewal-type
identity E N_n^2 = E N_n + 2 sum_{0<=j<k<=n} r_j r_{k-j}.  The return
probabilities come from the library's exact kernel iteration
(gegwalk.hypergroup.return_probabilities), and the limits are
K^p p!/Gamma(|a|p+1) n^(p|a|).  Emits CSV
(n, m1, m1_ratio, m2, m2_ratio) on stdout; the ratio columns show the
~n^-|a| approach to 1 that bounds what any Monte Carlo check can see.
The mass the iteration flushes below 2^-1022, a bound on the error of
every r_k, goes to stderr.

Example:
    python3 scripts/moment_bias_curve.py --alpha -0.25 --mu 1:0.5,2:0.5 \
        --kmax 14
"""

import argparse
import sys

import numpy as np

from gegwalk.gegenbauer import HypergroupIndex
from gegwalk.hypergroup import GegenbauerKernel, SparseMeasure, return_probabilities
from gegwalk.specfun import ml_moment
from gegwalk.verify import local_time_scale_constant


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
    r, flushed = return_probabilities(GegenbauerKernel(idx, mu), 0, 0, ns[-1])
    print(f"flushed mass {flushed!r} "
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
