"""Workload definitions: the CLI invocations each benchmark workload runs.

A workload is a short, fixed list of ``gegwalk.cli.main`` argument lists.
Sizes live in SIZES (the measured configuration) and SMALL_SIZES (the same
workloads shrunk for the benchmark's own tests); both have stored
references in references.json.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Monte Carlo outputs at this seed must match references.json byte for byte.
DEFAULT_SEED = 7

SIZES = {
    "exact_llt": {
        "llt_mixed_n": [64 * 2**k for k in range(9)],  # 64 .. 16384
        "llt_unit_n": [9, 99, 100, 999, 1000, 9999, 10000],
        "kernel_n": 3000,
    },
    "localtime_unit": {"targets": 20, "n": 10000, "replicas": 8192},
    "verify_lt_mixed": {"n": 10000, "replicas": 16384},
}

SMALL_SIZES = {
    "exact_llt": {
        "llt_mixed_n": [64, 128, 256, 512, 1024],
        "llt_unit_n": [9, 99, 100, 999, 1000],
        "kernel_n": 300,
    },
    "localtime_unit": {"targets": 5, "n": 500, "replicas": 8192},
    "verify_lt_mixed": {"n": 500, "replicas": 8192},
}

WORKLOADS = tuple(SIZES)

# Layers each workload must record spans in, and the spans the layer map
# predicts never occur on it (README.md, "Layer map").
LAYERS_USED = {
    "exact_llt": {"cli", "verify", "hypergroup", "gegenbauer", "specfun"},
    "localtime_unit": {"cli", "walk_sim"},
    "verify_lt_mixed": {"cli", "verify", "hypergroup", "gegenbauer", "specfun", "walk_sim"},
}
_MC_SPANS = {"walk_sim.local_time_counts", "hypergroup.kernel_row", "gegenbauer.linearization"}
_ML_SPANS = {"specfun.ml_density", "specfun.MittagLefflerDist.cdf_grid"}
_NSTEP_SPANS = {"hypergroup.n_step", "hypergroup.n_step_sequence"}
ZERO_SPANS = {
    "exact_llt": _MC_SPANS | _ML_SPANS,
    "localtime_unit": _ML_SPANS | _NSTEP_SPANS
    | {"hypergroup.kernel_row", "gegenbauer.linearization", "verify.ks_statistic"},
    "verify_lt_mixed": _NSTEP_SPANS
    | {"walk_sim.LocalTimeSamples.to_csv", "walk_sim.LocalTimeSamples.summary_json"},
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, where it writes, and how it is checked.

    ``kind`` selects the output check in checks.py; ``key`` names the
    reference entry (the arguments without output, thread and seed flags).
    """

    kind: str
    args: tuple[str, ...]
    output: str
    monte_carlo: bool = False
    seed: int | None = None
    threads: int | None = None

    @property
    def argv(self) -> list[str]:
        argv = list(self.args) + ["--output", self.output]
        if self.monte_carlo:
            argv += ["--seed", str(self.seed), "--threads", str(self.threads)]
        return argv

    @property
    def key(self) -> str:
        return " ".join(self.args)


def invocations(
    workload: str, seed: int, outdir: str, threads: int, sizes: dict | None = None
) -> list[Invocation]:
    """The argument lists of one pass over `workload`.

    `seed` reaches only the Monte Carlo commands; exact_llt has no
    randomness.  Outputs go to files under `outdir`.
    """
    sz = (sizes or SIZES)[workload]

    def out(name: str) -> str:
        return os.path.join(outdir, name)

    if workload == "exact_llt":
        return [
            Invocation("llt", (
                "verify-llt", "--alpha", "-0.25", "--mu", "1:0.5,2:0.5",
                "--x", "0", "--y", "0",
                "--n", ",".join(map(str, sz["llt_mixed_n"])),
            ), out("llt_mixed.csv")),
            Invocation("llt", (
                "verify-llt", "--alpha", "-0.5", "--mu", "1:1",
                "--x", "0", "--y", "0",
                "--n", ",".join(map(str, sz["llt_unit_n"])),
            ), out("llt_unit.csv")),
            Invocation("law", (
                "kernel", "--alpha", "0.5",
                "--mu", "1:0.3333333333333333,2:0.3333333333333333,3:0.3333333333333334",
                "--x", "0", "--n", str(sz["kernel_n"]), "--full-precision",
            ), out("kernel.csv")),
        ]
    if workload == "localtime_unit":
        return [
            Invocation("localtime_csv", (
                "localtime", "--alpha", "-0.5", "--mu", "1:1",
                "--y", ",".join(str(2 * k) for k in range(sz["targets"])),
                "--n", str(sz["n"]), "--replicas", str(sz["replicas"]),
            ), out("localtime.csv"), True, seed, threads),
        ]
    if workload == "verify_lt_mixed":
        return [
            Invocation("verify_lt", (
                "verify-lt", "--alpha", "-0.25", "--mu", "1:0.5,2:0.5", "--y", "0",
                "--n", str(sz["n"]), "--replicas", str(sz["replicas"]),
            ), out("verify_lt.json"), True, seed, threads),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def is_monte_carlo(workload: str) -> bool:
    return any(inv.monte_carlo for inv in invocations(workload, DEFAULT_SEED, ".", 1))
