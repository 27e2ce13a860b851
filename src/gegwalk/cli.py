"""Command-line front end: kernels, simulation, and limit-law checks.

Every command writes CSV or JSON to stdout or ``--output``.  Monte Carlo
commands require ``--seed``; with the seed fixed, repeat invocations
produce byte-identical output at any thread count.  Exit codes: 0 on
success (and on a passing verification), 1 when a verification ran and
failed, 2 for invalid flags or values, including a special-function
series that does not converge within its term cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import StateCapError
from .gegenbauer import HypergroupIndex
from .hypergroup import GegenbauerKernel, SparseMeasure, n_step
from .specfun import (
    bessel_i,
    bessel_j,
    bessel_marginal_density,
    gamma_fn,
    ml_density,
    ml_function,
    ml_moment,
    ml_sample,
)
from .verify import (check_llt_aperiodic, check_llt_periodic,
                     check_local_time_limit, local_time_scale)
from .walk_sim import WalkConfig, local_time_counts

import numpy as np

_THREADS_ENV = "GEGWALK_THREADS"


class UsageError(Exception):
    """Bad flag value or combination; reported on stderr, exit code 2."""


def _default_threads() -> int:
    env = os.environ.get(_THREADS_ENV)
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"{_THREADS_ENV} must be an integer, got {env!r}")
        if n < 1:
            raise UsageError(f"{_THREADS_ENV} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        return args.threads
    return _default_threads()


def _parse_index(alpha: float) -> HypergroupIndex:
    try:
        return HypergroupIndex(alpha)
    except ValueError as e:
        raise UsageError(str(e))


def _parse_mu(spec: str) -> SparseMeasure:
    """SparseMeasure.parse, with a bad spec reported as a usage error."""
    try:
        return SparseMeasure.parse(spec)
    except (ValueError, KeyError) as e:
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
    idx = _parse_index(args.alpha)
    mu = _parse_mu(args.mu)
    try:
        return WalkConfig(
            idx, mu, args.x, args.n, args.replicas, tuple(targets), args.seed
        )
    except ValueError as e:
        raise UsageError(str(e))


# -- commands --------------------------------------------------------


def cmd_kernel(args) -> int:
    idx = _parse_index(args.alpha)
    mu = _parse_mu(args.mu)
    kernel = GegenbauerKernel(idx, mu)
    try:
        law = n_step(kernel, args.x, args.n)
    except ValueError as e:
        raise UsageError(str(e))
    if args.format == "json":
        _emit(law.to_json(alpha=args.alpha) + "\n", args.output)
    else:
        lines = ["state,mass"]
        lines += [f"{s},{_fmt(m, args.full_precision)}" for s, m in law.items()]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_simulate(args) -> int:
    cfg = _make_config(args, (0,))
    lt = local_time_counts(cfg, threads=_resolve_threads(args))
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
        lines = ["replica,terminal"]
        lines += [f"{r},{t}" for r, t in enumerate(lt.terminal)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_localtime(args) -> int:
    targets = _parse_n_list(args.y)
    cfg = _make_config(args, targets)
    lt = local_time_counts(cfg, threads=_resolve_threads(args))
    if args.format == "json":
        scale = args.scale if args.scale is not None else local_time_scale(
            args.alpha, args.n
        )
        try:
            _emit(lt.summary_json(scale) + "\n", args.output)
        except ValueError as e:
            raise UsageError(str(e))
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
    idx = _parse_index(args.alpha)
    mu = _parse_mu(args.mu)
    ns = _parse_n_list(args.n)
    try:
        if GegenbauerKernel(idx, mu).is_unit_step:
            rep = check_llt_periodic(idx, args.x, args.y, ns)
        else:
            rep = check_llt_aperiodic(idx, mu, args.x, args.y, ns)
    except ValueError as e:
        raise UsageError(str(e))
    return _emit_report(rep, args)


def cmd_verify_lt(args) -> int:
    idx = _parse_index(args.alpha)
    mu = _parse_mu(args.mu)
    try:
        rep = check_local_time_limit(
            idx,
            mu,
            args.x,
            args.y,
            args.n,
            args.replicas,
            args.seed,
            threads=_resolve_threads(args),
            n_moments=args.moments,
            moment_floor=args.moment_floor,
            ks_threshold=args.ks_threshold,
        )
    except ValueError as e:
        raise UsageError(str(e))
    return _emit_report(rep, args)


def cmd_specfun(args) -> int:
    full = args.full_precision

    def need(**kw):
        missing = [f"--{k.replace('_', '-')}" for k, v in kw.items() if v is None]
        if missing:
            raise UsageError(f"{args.op} requires {', '.join(missing)}")

    try:
        if args.op == "ml-moment":
            need(order=args.order, p=args.p)
            out = _fmt(ml_moment(args.order, args.p), full)
        elif args.op == "ml-density":
            need(order=args.order, x=args.x)
            out = _fmt(ml_density(args.order, args.x), full)
        elif args.op == "ml-function":
            need(order=args.order, x=args.x)
            out = _fmt(ml_function(args.order, args.x), full)
        elif args.op == "ml-sample":
            need(order=args.order, size=args.size, seed=args.seed)
            rng = np.random.Generator(np.random.Philox(key=[args.seed, 0]))
            draws = ml_sample(args.order, rng, args.size)
            out = "\n".join(_fmt(v, full) for v in draws)
        elif args.op == "bessel-i":
            need(order=args.order, x=args.x)
            out = _fmt(bessel_i(args.order, args.x), full)
        elif args.op == "bessel-j":
            need(order=args.order, x=args.x)
            out = _fmt(bessel_j(args.order, args.x), full)
        elif args.op == "bessel-marginal":
            need(order=args.order, x=args.x)
            out = _fmt(bessel_marginal_density(args.order, args.x), full)
        elif args.op == "gamma":
            need(x=args.x)
            out = _fmt(gamma_fn(args.x), full)
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown specfun op {args.op!r}")
    except (ValueError, ArithmeticError) as e:
        raise UsageError(str(e))
    _emit(out + "\n", args.output)
    return 0


# -- parser ----------------------------------------------------------


def _add_common(sp, *, fmt_default="csv"):
    sp.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                    help=f"output format (default {fmt_default})")
    sp.add_argument("--output", metavar="PATH",
                    help="write to PATH instead of stdout")
    sp.add_argument("--full-precision", action="store_true",
                    help="17 significant digits instead of 10")


def _add_model(sp):
    sp.add_argument("--alpha", type=float, required=True,
                    help="polynomial family index (>= -1/2)")
    sp.add_argument("--mu", required=True, metavar="SPEC",
                    help="step measure: state:mass,... or a CSV/JSON file")


def _add_mc(sp):
    sp.add_argument("--replicas", type=int, required=True,
                    help="number of independent walks")
    sp.add_argument("--seed", type=int, required=True,
                    help="root seed (required: no silent nondeterminism)")
    sp.add_argument("--threads", type=int, default=None,
                    help=f"replica fan-out (default: {_THREADS_ENV} or "
                         "hardware count; never changes the output)")


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
                    "on the nonnegative integers, sorted by state.",
    )
    _add_model(sp)
    sp.add_argument("--x", type=int, required=True, help="start state")
    sp.add_argument("--n", type=int, required=True, help="number of steps")
    _add_common(sp)
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
    _add_common(sp)
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
    _add_common(sp)
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
    _add_common(sp)
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
    _add_common(sp, fmt_default="json")
    sp.set_defaults(func=cmd_verify_lt)

    sp = sub.add_parser(
        "specfun",
        help="evaluate the special functions behind the limit laws",
        description="Scalar special-function evaluations: Mittag-Leffler "
                    "moments p!/Gamma(order p + 1), density, function "
                    "values and samples; Bessel I/J; the Bessel-process "
                    "marginal density; Gamma.",
    )
    sp.add_argument("op", choices=(
        "ml-moment", "ml-density", "ml-function", "ml-sample",
        "bessel-i", "bessel-j", "bessel-marginal", "gamma",
    ))
    sp.add_argument("--order", type=float, help="distribution or Bessel order")
    sp.add_argument("--p", type=int, help="moment index (ml-moment)")
    sp.add_argument("--x", type=float, help="evaluation point")
    sp.add_argument("--size", type=int, help="number of draws (ml-sample)")
    sp.add_argument("--seed", type=int, help="root seed (ml-sample)")
    _add_common(sp)
    sp.set_defaults(func=cmd_specfun)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, StateCapError) as e:
        print(f"gegwalk: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
