"""gegwalk benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
``src/`` beside this directory.  Every sample runs in a fresh interpreter
(perfbench/sample.py) with ``--threads`` equal to the usable CPU count.

--trace 0 repeats the workload until S seconds are spent and reports the
medians of setup_s and solve_s and the largest peak_rss_mb.  --trace 1 makes one
untraced pass, one traced pass and, for Monte Carlo workloads, one traced
single-threaded pass, and reports the per-layer metrics.  The last line of
stdout is the result object; the lines before it give the run metadata,
the sample counts and fail_frac.  README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS, is_monte_carlo  # noqa: E402

# Set-up is cheap and noisy, so each run also starts this many
# interpreters that stop after set-up.
SETUP_PROBES = 3
MIN_SAMPLES = 2
# every run, including its slowest child, must end well inside 180 s
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "specfun.ml_density.calls": "count",
    "specfun.ml_density.s": "s",
    "specfun.cdf_grid.s": "s",
    "gegenbauer.linearization.calls": "count",
    "gegenbauer.linearization.s": "s",
    "gegenbauer.linearization.hit_ratio": "ratio",
    "hypergroup.kernel_row.calls": "count",
    "hypergroup.kernel_row.s": "s",
    "walk_sim.row_cdf.misses": "count",
    "walk_sim.row_cdf.hit_ratio": "ratio",
    "hypergroup.n_step.s": "s",
    "hypergroup.n_step.state_steps": "count",
    "hypergroup.n_step.ns_per_state_step": "ns",
    "hypergroup.n_step.live_fraction": "ratio",
    "hypergroup.n_step.subnormal_fraction": "ratio",
    "walk_sim.local_time_counts.s": "s",
    "walk_sim.replica_steps": "count",
    "walk_sim.ns_per_replica_step": "ns",
    "walk_sim.thread_speedup": "x",
    "walk_sim.readout.s": "s",
    "walk_sim.readout.bytes": "bytes",
    "cli.self_s": "s",
    "verify.self_s": "s",
    "verify.ks_statistic.s": "s",
    "trace.overhead_frac": "ratio",
}
COUNTED = [k for k, u in PER_LAYER_UNITS.items() if u in ("count", "bytes")] + [
    "gegenbauer.linearization.hit_ratio",
    "walk_sim.row_cdf.hit_ratio",
]


class Runner:
    """Starts sample interpreters for one workload and collects results."""

    def __init__(self, workload: str, seed: int, threads: int, workdir: Path, sizes: dict):
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.workdir = workdir
        self.sizes = sizes
        self.started = time.monotonic()
        self._count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def spans_path(self, threads: int) -> Path:
        """Where a traced sample at `threads` threads leaves its spans (kept after the run)."""
        return self.workdir.parent / f"{self.workload}-{threads}t.spans.json"

    def sample(self, *, trace: bool = False, threads: int | None = None, probe: bool = False) -> dict:
        """Run one fresh interpreter; returns its result plus ``setup_s``."""
        self._count += 1
        tag = f"s{self._count}"
        outdir = self.workdir / tag
        outdir.mkdir()
        spec = {
            "workload": self.workload, "seed": self.seed,
            "threads": threads or self.threads, "outdir": str(outdir),
            "sizes": self.sizes, "trace": trace, "probe": probe,
            "spans_path": str(self.spans_path(threads or self.threads)),
        }
        spec_path = self.workdir / f"{tag}.spec.json"
        result_path = self.workdir / f"{tag}.json"
        spec_path.write_text(json.dumps(spec))
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise RuntimeError("run time limit reached")
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), str(spec_path), str(result_path)],
            cwd=CHECKOUT, env=self.env, capture_output=True, text=True, timeout=budget,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"sample exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(result_path.read_text())
        if not Path(result["gegwalk_file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"gegwalk imported from {result['gegwalk_file']}, not {SRC}")
        result["setup_s"] = result["t_ready"] - t_spawn
        shutil.rmtree(outdir)  # outputs are checked inside the sample
        return result


def _mark_mismatches(base: dict, others: list[dict], what: str) -> None:
    """Fail every invocation of `others` whose output bytes differ from `base`."""
    for res in others:
        for a, b in zip(base["outcomes"], res["outcomes"], strict=True):
            if b["ok"] and a["sha256"] != b["sha256"]:
                b["ok"] = False
                b["reason"] = f"output bytes differ {what}"


def _tally(samples: list[dict]) -> tuple[int, int, list[str]]:
    outcomes = [o for s in samples for o in s["outcomes"]]
    reasons = [f"{o['key']}: {o['reason']}" for o in outcomes if not o["ok"]]
    return len(outcomes), len(reasons), reasons


def timed_run(runner: Runner, seconds: int) -> tuple[dict, list[dict], int]:
    """Untraced samples for `seconds`; returns metrics, samples, setup count."""
    setups = [runner.sample(probe=True)["setup_s"] for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    samples: list[dict] = []
    while True:
        samples.append(runner.sample())
        setups.append(samples[-1]["setup_s"])
        elapsed = time.monotonic() - t0
        per_sample = elapsed / len(samples)
        if len(samples) >= MIN_SAMPLES and elapsed + per_sample > seconds:
            break
    _mark_mismatches(samples[0], samples[1:], "between repeat runs of one seed")
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(s["solve_s"] for s in samples),
        # the largest over the run: the memory a user must provision (the
        # engine's transient buffers overlap differently from run to run)
        "peak_rss_mb": max(s["peak_rss_kb"] for s in samples) / 1024.0,
    }
    return metrics, samples, len(setups)


def traced_run(runner: Runner, monte_carlo: bool) -> tuple[dict, list[dict]]:
    """Per-layer metrics from one traced pass at full and at one thread."""
    plain = runner.sample()
    traced = runner.sample(trace=True)
    samples = [plain, traced]
    _mark_mismatches(plain, [traced], "with tracing on")
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["solve_s"] / plain["solve_s"] - 1.0
    layers["walk_sim.thread_speedup"] = 0.0
    if monte_carlo:
        single = runner.sample(trace=True, threads=1)
        samples.append(single)
        _mark_mismatches(traced, [single], f"between 1 and {runner.threads} threads")
        layers["walk_sim.thread_speedup"] = (
            single["layers"]["walk_sim.local_time_counts.s"]
            / layers["walk_sim.local_time_counts.s"]
        )
        # Pool threads that miss the row cache at the same moment build the
        # same row twice, so these vary between runs at nproc threads; the
        # single-threaded pass gives counts that repeat exactly.
        for k in COUNTED:
            layers[k] = single["layers"][k]
    return layers, samples


def metadata(workload: str, seed: int, seconds: int, threads: int, sizes: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)), "threads": threads, "cpu_model": cpu,
        "python": platform.python_version(), **versions, "sizes": sizes[workload],
    }


def run(workload: str, seed: int, seconds: int, trace: bool, sizes: dict = SIZES) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, report for the lines above it)."""
    threads = len(os.sched_getaffinity(0))
    workdir = CHECKOUT / ".perfbench_out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workload, seed, threads, workdir, sizes)
    try:
        runner.sample(probe=True)  # warm the byte-code and file caches; not counted
        if trace:
            values, samples = traced_run(runner, is_monte_carlo(workload))
            units, counts = PER_LAYER_UNITS, {"samples": len(samples)}
        else:
            values, samples, n_setups = timed_run(runner, seconds)
            units, counts = END_TO_END_UNITS, {"samples": len(samples), "setup_samples": n_setups}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, reasons = _tally(samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    report = {
        "metadata": metadata(workload, seed, seconds, threads, sizes),
        **counts,
        "fail_frac": failed / attempted,
        "failures": reasons,
        "samples_detail": [
            {k: s.get(k) for k in ("setup_s", "solve_s", "peak_rss_kb")} for s in samples
        ],
    }
    if trace:
        report["span_names"] = samples[1]["layers"]["span_names"]
        report["spans_file"] = str(runner.spans_path(threads))
    return result, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "gegwalk" / "cli.py").is_file():
        print(f"perfbench: no gegwalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac = {report['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
