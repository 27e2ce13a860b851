#!/usr/bin/env python3
"""Histogram of scaled local times against the limit density.

Simulates N_n(y)/n^|a| at one or more horizons and emits long-format
CSV (series, x, value) on stdout: one histogram-density series per
horizon plus a "limit" series sampling the limiting density
K^-1 f(x/K), where f is the Mittag-Leffler density of order |a| and
K the walk's scale constant.  Feed the output to any plotter to watch
the histograms converge onto the curve.

Example:
    python3 scripts/local_time_histogram.py --alpha -0.5 --mu 1:1 \
        --y 0 --horizons 1000,10000 --replicas 20000 --seed 42
"""

import argparse
import sys

import numpy as np

from gegwalk.gegenbauer import HypergroupIndex
from gegwalk.hypergroup import SparseMeasure
from gegwalk.specfun import ml_density
from gegwalk.verify import local_time_scale, local_time_scale_constant
from gegwalk.walk_sim import WalkConfig, local_time_counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=-0.5,
                    help="polynomial index, must be negative")
    ap.add_argument("--mu", default="1:1",
                    help="step measure: state:mass,... or a CSV/JSON file")
    ap.add_argument("--y", type=int, default=0, help="target state")
    ap.add_argument("--horizons", default="1000,10000",
                    help="comma-separated step counts")
    ap.add_argument("--replicas", type=int, default=20_000)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--bins", type=int, default=60)
    args = ap.parse_args()

    idx = HypergroupIndex(args.alpha)
    mu = SparseMeasure.parse(args.mu)
    K = local_time_scale_constant(idx, mu, args.y)

    print("series,x,value")
    hi = 0.0
    for n in (int(t) for t in args.horizons.split(",")):
        cfg = WalkConfig(idx, mu, 0, n, args.replicas, (args.y,), args.seed)
        counts = local_time_counts(cfg, threads=args.threads).counts[:, 0]
        z = counts / local_time_scale(args.alpha, n)
        hi = max(hi, float(z.max()))
        dens, edges = np.histogram(z, bins=args.bins, density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        for x, v in zip(mids, dens):
            print(f"n={n},{float(x)!r},{float(v)!r}")

    for x in np.linspace(1e-3, hi, 200):
        print(f"limit,{float(x)!r},{ml_density(-args.alpha, float(x) / K) / K!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
