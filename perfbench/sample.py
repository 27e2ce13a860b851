"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/sample.py SPEC.json RESULT.json

SPEC names the workload, seed, thread count, output directory, sizes and
whether to trace.  The sample imports ``gegwalk.cli``, builds the argument
lists, then runs each through ``cli.main`` as a user would and checks its
output.  RESULT receives the set-up end time, the solve time, the peak
RSS, one outcome per invocation and, when traced, the per-layer metrics
(the spans themselves go to the spec's ``spans_path``).  A ``probe`` spec
stops after set-up.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import gegwalk.cli as cli

    from workloads import invocations

    invs = invocations(
        spec["workload"], spec["seed"], spec["outdir"], spec["threads"], spec["sizes"]
    )
    argvs = [inv.argv for inv in invs]
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "gegwalk_file": cli.__file__}
    if spec["probe"]:
        return _write(result_path, result)

    import checks

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    refs = checks.load_references()

    t0 = time.monotonic()
    outcomes = [_run_one(cli, checks, inv, argv, refs, recorder) for inv, argv in zip(invs, argvs)]
    result["solve_s"] = time.monotonic() - t0
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["outcomes"] = outcomes
    if recorder is not None:
        with recorder.suspended():
            result["layers"] = layer_metrics(recorder)
        recorder.write(spec["spans_path"])
    return _write(result_path, result)


def _write(path: str, doc: dict) -> int:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return 0


def _run_one(cli, checks, inv, argv, refs, recorder) -> dict:
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects bad flags this way
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        return {"key": inv.key, "ok": False, "reason": traceback.format_exc(), "sha256": None}
    with recorder.suspended() if recorder else nullcontext():
        reason = checks.check(inv, rc, err.getvalue(), refs)
        try:
            digest = checks.sha256_file(inv.output)
        except OSError:
            digest = None
    return {"key": inv.key, "rc": rc, "ok": reason is None, "reason": reason, "sha256": digest}


# -- per-layer metrics ------------------------------------------------


def _cache_stats(module_name: str, attr: str) -> tuple[int, int]:
    """(hits, misses) of an lru_cache in the program; (0, 0) if it is gone."""
    fn = getattr(sys.modules.get(module_name), attr, None)
    info = fn.cache_info() if hasattr(fn, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder) -> dict:
    """Per-layer numbers of one traced sample (see README.md, "Metrics").

    ``state_steps`` and ``replica_steps`` are computed from the call
    arguments; the live and subnormal fractions are read from the
    returned laws; everything ending in ``.s`` is measured.
    """
    import inspect

    from spans import busy_seconds, layer_of, self_times

    sp = recorder.spans
    selfs = self_times(sp)

    def busy(*names):
        return busy_seconds(sp, set(names))

    def calls(name):
        return sum(1 for s in sp if s["name"] == name)

    def layer_self(layer):
        return sum(selfs[s["id"]] for s in sp if layer_of(s["name"]) == layer)

    state_steps = live = subnormal = length = 0
    replica_steps = readout_bytes = 0
    for name, args, kwargs, result in recorder.kept:
        if name in ("hypergroup.n_step", "hypergroup.n_step_sequence"):
            fn = getattr(sys.modules["gegwalk.hypergroup"], name.split(".")[1])
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            x = bound["x"]
            n = bound["n"] if "n" in bound else max(bound["checkpoints"])
            law = result if "n" in bound else result[n]
            smax = bound["kernel"].step_measure.max_state
            state_steps += n * (x + 1) + smax * n * (n + 1) // 2
            length += x + n * smax + 1
            masses = [m for _, m in law.items()]
            live += len(masses)
            subnormal += sum(1 for m in masses if m < sys.float_info.min)
        elif name == "walk_sim.local_time_counts":
            cfg = args[0] if args else kwargs["config"]
            replica_steps += cfg.replicas * cfg.horizon
        else:  # readout strings
            readout_bytes += len(result.encode())

    n_step_s = busy("hypergroup.n_step", "hypergroup.n_step_sequence")
    ltc_s = busy("walk_sim.local_time_counts")
    lin_hits, lin_misses = _cache_stats("gegwalk.gegenbauer", "_linearization_cached")
    row_hits, row_misses = _cache_stats("gegwalk.walk_sim", "_row_cdf")
    return {
        "specfun.ml_density.calls": calls("specfun.ml_density"),
        "specfun.ml_density.s": busy("specfun.ml_density"),
        "specfun.cdf_grid.s": busy("specfun.MittagLefflerDist.cdf_grid"),
        "gegenbauer.linearization.calls": calls("gegenbauer.linearization"),
        "gegenbauer.linearization.s": busy("gegenbauer.linearization"),
        "gegenbauer.linearization.hit_ratio": _ratio(lin_hits, lin_hits + lin_misses),
        "hypergroup.kernel_row.calls": calls("hypergroup.kernel_row"),
        "hypergroup.kernel_row.s": busy("hypergroup.kernel_row"),
        "walk_sim.row_cdf.misses": row_misses,
        "walk_sim.row_cdf.hit_ratio": _ratio(row_hits, row_hits + row_misses),
        "hypergroup.n_step.s": n_step_s,
        "hypergroup.n_step.state_steps": state_steps,
        "hypergroup.n_step.ns_per_state_step": _ratio(n_step_s * 1e9, state_steps),
        "hypergroup.n_step.live_fraction": _ratio(live, length),
        "hypergroup.n_step.subnormal_fraction": _ratio(subnormal, length),
        "walk_sim.local_time_counts.s": ltc_s,
        "walk_sim.replica_steps": replica_steps,
        "walk_sim.ns_per_replica_step": _ratio(ltc_s * 1e9, replica_steps),
        "walk_sim.readout.s": busy(
            "walk_sim.LocalTimeSamples.to_csv", "walk_sim.LocalTimeSamples.summary_json"
        ),
        "walk_sim.readout.bytes": readout_bytes,
        "cli.self_s": layer_self("cli"),
        "verify.self_s": layer_self("verify"),
        "verify.ks_statistic.s": busy("verify.ks_statistic"),
        "span_names": sorted({s["name"] for s in sp}),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
