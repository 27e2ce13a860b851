#!/usr/bin/env python3
"""Ratio of exact return probabilities to the local limit theorem.

Sweeps several polynomial indices at once and emits long-format CSV
(alpha, n, probability, prediction, ratio) on stdout, one row per
horizon, for external plotting.  For an aperiodic step the asymptote is
w_0 Gamma(a+1) / (2 (C n)^(a+1)) with C from drift_constant; for the
unit step (--mu 1:1) it is the parity-refined w_0 2^(a+1) Gamma(a+1)
n^-(a+1), which applies at the even horizons swept here.

Example:
    python3 scripts/convergence_study.py --alphas -0.5,-0.25,0,0.5 \
        --mu 1:0.5,2:0.5 --kmax 13
"""

import argparse
import sys

from gegwalk.gegenbauer import HypergroupIndex
from gegwalk.hypergroup import SparseMeasure
from gegwalk.verify import check_llt


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", default="-0.5,-0.25,0,0.5",
                    help="comma-separated polynomial indices")
    ap.add_argument("--mu", default="1:0.5,2:0.5",
                    help="step measure: state:mass,... or a CSV/JSON file "
                         "(aperiodic, or the unit step 1:1)")
    ap.add_argument("--kmax", type=int, default=13,
                    help="horizons are 2^6 .. 2^kmax")
    args = ap.parse_args()

    mu = SparseMeasure.parse(args.mu)
    ns = [2**k for k in range(6, args.kmax + 1)]

    print("alpha,n,probability,prediction,ratio")
    for tok in args.alphas.split(","):
        a = float(tok)
        rep = check_llt(HypergroupIndex(a), mu, 0, 0, ns)
        for row in rep.rows:
            print(f"{a},{row.label},{row.value!r},{row.prediction!r},{row.ratio!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
