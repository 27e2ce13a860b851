"""Command-line front end: kernels, simulation, and limit-law checks.

Each command parses its flags and calls the library; every model
decision, such as which form of the local limit theorem applies to a
step measure, is made there.  Commands write CSV or JSON (``specfun``:
one number per line) to stdout or ``--output``.  Monte Carlo commands
require ``--seed``; with the seed fixed, repeat invocations produce
byte-identical output at any ``--threads``.

Exit codes: 0 on success (and on a passing verification), 1 when a
verification ran and failed, 2 for invalid flags or values.  `main` is
the one error boundary: a UsageError, any GegwalkError from the library
(a StateCapError, or a ConsistencyError such as an exact law whose mass
drifts from 1), or any ValueError or ArithmeticError (such as a
special-function series that does not converge within its term cap)
becomes ``gegwalk: <message>`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import GegwalkError
from .gegenbauer import HypergroupIndex
from .hypergroup import GegenbauerKernel, SparseMeasure, n_step
from .specfun import (
    bessel_j,
    gamma_fn,
    ml_density,
    ml_function,
    ml_moment,
    ml_sample,
)
from .verify import check_llt, check_local_time_limit, local_time_scale
from .walk_sim import WalkConfig, _check_seed, _join_lines, _replica_rng, local_time_counts

import numpy as np


class UsageError(Exception):
    """Bad flag value or combination; reported on stderr, exit code 2."""


def _parse_mu(spec: str) -> SparseMeasure:
    """SparseMeasure.parse, with a bad spec reported as a usage error."""
    try:
        return SparseMeasure.parse(spec)
    except ValueError as e:
        raise UsageError(f"cannot parse step measure {spec!r}: {e}")


def _parse_n_list(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise UsageError(f"bad step-count list {spec!r}: want n1,n2,...")


def _fmt(value: float, full: bool) -> str:
    return f"{value:.17g}" if full else f"{value:.10g}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _make_config(args, targets) -> WalkConfig:
    return WalkConfig(HypergroupIndex(args.alpha), _parse_mu(args.mu), args.x,
                      args.n, args.replicas, tuple(targets), args.seed)


# -- commands --------------------------------------------------------


def cmd_kernel(args) -> int:
    if args.full_precision and args.format == "json":
        raise UsageError("--full-precision applies to CSV only: JSON masses are "
                         "shortest round-trip doubles")
    kernel = GegenbauerKernel(HypergroupIndex(args.alpha), _parse_mu(args.mu))
    law = n_step(kernel, args.x, args.n)
    if args.format == "json":
        _emit(law.to_json(alpha=args.alpha) + "\n", args.output)
    else:
        lines = (f"{s},{_fmt(m, args.full_precision)}" for s, m in law.items())
        _emit(_join_lines("state,mass", lines), args.output)
    return 0


def cmd_simulate(args) -> int:
    cfg = _make_config(args, (0,))
    lt = local_time_counts(cfg, threads=args.threads)
    if args.format == "json":
        doc = {
            "alpha": args.alpha,
            "mu": cfg.mu.as_dict(),
            "start": args.x,
            "horizon": args.n,
            "replicas": args.replicas,
            "seed": args.seed,
            "terminal": [int(t) for t in lt.terminal],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        lines = (f"{r},{t}" for r, t in enumerate(lt.terminal.tolist()))
        _emit(_join_lines("replica,terminal", lines), args.output)
    return 0


def cmd_localtime(args) -> int:
    if args.scale is not None and args.format != "json":
        raise UsageError("--scale applies to the --format json summary only")
    targets = _parse_n_list(args.y)
    cfg = _make_config(args, targets)
    lt = local_time_counts(cfg, threads=args.threads)
    if args.format == "json":
        scale = args.scale if args.scale is not None else local_time_scale(
            args.alpha, args.n
        )
        _emit(lt.summary_json(scale) + "\n", args.output)
    else:
        _emit(lt.to_csv(), args.output)
    return 0


def _emit_report(rep, args) -> int:
    if args.format == "json":
        _emit(rep.to_json() + "\n", args.output)
    else:
        _emit(rep.to_csv(), args.output)
    print(f"{rep.theorem}: {rep.verdict}", file=sys.stderr)
    return 0 if rep.passed else 1


def cmd_verify_llt(args) -> int:
    rep = check_llt(HypergroupIndex(args.alpha), _parse_mu(args.mu), args.x,
                    args.y, _parse_n_list(args.n))
    return _emit_report(rep, args)


def cmd_verify_lt(args) -> int:
    rep = check_local_time_limit(
        HypergroupIndex(args.alpha),
        _parse_mu(args.mu),
        args.x,
        args.y,
        args.n,
        args.replicas,
        args.seed,
        threads=args.threads,
        n_moments=args.moments,
        moment_floor=args.moment_floor,
        ks_threshold=args.ks_threshold,
    )
    return _emit_report(rep, args)


def _ml_draws(order: float, size: int, seed: int) -> np.ndarray:
    if size < 1:
        raise UsageError(f"--size must be >= 1, got {size}")
    _check_seed(seed)
    return ml_sample(order, _replica_rng(seed, 0), size)


# op -> (function, the flags it requires, in argument order); each op's
# sub-parser declares exactly these flags, all required
_SPECFUN = {
    "ml-moment": (ml_moment, ("order", "p")),
    "ml-density": (ml_density, ("order", "x")),
    "ml-function": (ml_function, ("order", "x")),
    "ml-sample": (_ml_draws, ("order", "size", "seed")),
    "bessel-j": (bessel_j, ("order", "x")),
    "gamma": (gamma_fn, ("x",)),
}


# specfun flag -> (type, help)
_SPECFUN_FLAGS = {
    "order": (float, "distribution or Bessel order"),
    "p": (int, "moment index"),
    "x": (float, "evaluation point"),
    "size": (int, "number of draws"),
    "seed": (int, "root seed, below 2^64"),
}


def cmd_specfun(args) -> int:
    fn, flags = _SPECFUN[args.op]
    result = fn(*(getattr(args, f) for f in flags))
    # ml-sample prints one draw per line; every other op one value
    values = result if args.op == "ml-sample" else [result]
    _emit("\n".join(_fmt(v, args.full_precision) for v in values) + "\n",
          args.output)
    return 0


# -- parser ----------------------------------------------------------


def _add_output(sp, *, fmt_default="csv", full_precision=False):
    """--output on every command; --format unless fmt_default is None;
    --full-precision where numbers are printed with _fmt."""
    if fmt_default is not None:
        sp.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                        help=f"output format (default {fmt_default})")
    sp.add_argument("--output", metavar="PATH",
                    help="write to PATH instead of stdout")
    if full_precision:
        sp.add_argument("--full-precision", action="store_true",
                        help="17 significant digits instead of 10")


def _add_model(sp):
    sp.add_argument("--alpha", type=float, required=True,
                    help="polynomial family index (>= -1/2)")
    sp.add_argument("--mu", required=True, metavar="SPEC",
                    help="step measure: state:mass,... or a CSV/JSON file")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or the CPU count
    on a platform without one (``os.cpu_count`` ignores the mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _add_mc(sp):
    sp.add_argument("--replicas", type=int, required=True,
                    help="number of independent walks")
    sp.add_argument("--seed", type=int, required=True,
                    help="root seed (required: no silent nondeterminism)")
    sp.add_argument("--threads", type=int, default=_usable_cpus(),
                    help="replica fan-out: worker processes (default: the "
                         "CPUs this process may run on; never changes the "
                         "output)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gegwalk",
        description="Random walks driven by orthogonal-polynomial "
                    "convolution: exact kernels, Monte Carlo local times, "
                    "and limit-theorem checks.",
    )
    p.add_argument("--version", action="version", version=f"gegwalk {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser(
        "kernel",
        help="exact n-step law of the walk",
        description="Exact n-step law p^(n)(x, .) computed by iterating "
                    "the convolution kernel; rows are probability vectors "
                    "on the nonnegative integers, sorted by state.  Trailing "
                    "masses below 2^-1022 are flushed to zero at each step; "
                    "the law is off by at most n (x + n max(mu) + 1) 2^-1022 "
                    "in l1.",
    )
    _add_model(sp)
    sp.add_argument("--x", type=int, required=True, help="start state")
    sp.add_argument("--n", type=int, required=True, help="number of steps")
    _add_output(sp, full_precision=True)
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser(
        "simulate",
        help="Monte Carlo endpoints of the walk",
        description="Simulates independent replicas of the walk and "
                    "reports each terminal state after n steps.",
    )
    _add_model(sp)
    sp.add_argument("--x", type=int, default=0, help="start state (default 0)")
    sp.add_argument("--n", type=int, required=True, help="number of steps")
    _add_mc(sp)
    _add_output(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser(
        "localtime",
        help="Monte Carlo visit counts N_n(y)",
        description="Simulates replicas and counts visits to the target "
                    "states during steps 0..n (the local time).  CSV gives "
                    "one row per replica and target; JSON gives moments of "
                    "count/scale and a histogram, with scale defaulting to "
                    "n^|alpha| for alpha < 0 and log n for alpha = 0.",
    )
    _add_model(sp)
    sp.add_argument("--x", type=int, default=0, help="start state (default 0)")
    sp.add_argument("--y", required=True, metavar="LIST",
                    help="target states, comma separated")
    sp.add_argument("--n", type=int, required=True, help="number of steps")
    sp.add_argument("--scale", type=float, default=None,
                    help="divide counts by this in the JSON summary")
    _add_mc(sp)
    _add_output(sp)
    sp.set_defaults(func=cmd_localtime)

    sp = sub.add_parser(
        "verify-llt",
        help="check the local limit theorem for p^(n)(x,y)",
        description="Local limit theorem check.  Compares the exact "
                    "n-step probabilities p^(n)(x,y) with the power-law "
                    "asymptote w_y Gamma(a+1) / (2 (C n)^(a+1)) for "
                    "aperiodic step measures, or with the parity-refined "
                    "form w_y 2^(a+1) Gamma(a+1) n^-(a+1) (and exact "
                    "parity zeros) for the unit step.  Exit 0 iff the "
                    "ratio at the largest n lands in the pass window.",
    )
    _add_model(sp)
    sp.add_argument("--x", type=int, required=True, help="start state")
    sp.add_argument("--y", type=int, required=True, help="target state")
    sp.add_argument("--n", required=True, metavar="LIST",
                    help="step counts, comma separated, ascending")
    _add_output(sp)
    sp.set_defaults(func=cmd_verify_llt)

    sp = sub.add_parser(
        "verify-lt",
        help="check the local-time scaling limit",
        description="Local-time limit check.  Simulates N_n(y) and "
                    "compares N_n(y)/n^|a| with K times the Mittag-Leffler "
                    "law of order |a| (for a < 0), or N_n(y)/log n with an "
                    "exponential law of mean (2y+1)/(4C) (for a = 0).  "
                    "Gates the first --moments moments and the KS distance "
                    "to the limit CDF.  Exit 0 iff every gate passes.",
    )
    _add_model(sp)
    sp.add_argument("--x", type=int, default=0, help="start state (default 0)")
    sp.add_argument("--y", type=int, required=True, help="target state")
    sp.add_argument("--n", type=int, required=True, help="number of steps")
    _add_mc(sp)
    sp.add_argument("--moments", type=int, default=3,
                    help="number of moments to gate (default 3)")
    sp.add_argument("--moment-floor", type=float, default=0.02,
                    help="relative model-error floor per moment (default 0.02)")
    sp.add_argument("--ks-threshold", type=float, default=0.02,
                    help="maximum KS distance (default 0.02)")
    _add_output(sp, fmt_default="json")
    sp.set_defaults(func=cmd_verify_lt)

    sp = sub.add_parser(
        "specfun",
        help="evaluate the special functions behind the limit laws",
        description="Scalar special-function evaluations: Mittag-Leffler "
                    "moments p!/Gamma(order p + 1), density, function "
                    "values and samples; Bessel J; Gamma.",
    )
    ops = sp.add_subparsers(dest="op", required=True)
    for op, (_, flags) in _SPECFUN.items():
        osp = ops.add_parser(op)
        for flag in flags:
            kind, text = _SPECFUN_FLAGS[flag]
            osp.add_argument(f"--{flag}", type=kind, required=True, help=text)
        _add_output(osp, fmt_default=None, full_precision=True)
    sp.set_defaults(func=cmd_specfun)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, GegwalkError, ValueError, ArithmeticError) as e:
        print(f"gegwalk: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
