"""Output checks that decide whether an invocation counts as failed.

References live in references.json, keyed by `Invocation.key`, and are
written by make_references.py.

- Exact laws (``kernel``, ``verify-llt``) must lie within l1 distance
  1e-12 of the reference, every state or row that is an exact zero in the
  reference must still be exactly zero, and verdict and exit code must
  match.
- Monte Carlo outputs at the reference seed must match the stored SHA-256
  byte for byte.  At any other seed there is no stored output: ``localtime``
  rows are replayed for two replicas with the scalar reference engine
  `walk_sim.simulate_replica`, and a ``verify-lt`` report must keep the
  reference's parameters, predictions and verdict with each statistic
  within sampling error of the reference value.  The runner adds the
  cross-run checks (repeat runs, tracing and thread count leave the bytes
  unchanged).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

LAW_L1_TOL = 1e-12
# a verify-lt moment may sit this many combined standard errors from the
# reference value; the KS distance may move by KS_TOL
MOMENT_SIGMAS = 6.0
KS_TOL = 0.02


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def verdict_from_stderr(text: str) -> str | None:
    """The ``theorem: verdict`` line verification commands print last."""
    lines = [ln for ln in text.splitlines() if ": " in ln]
    return lines[-1].rsplit(": ", 1)[1] if lines else None


def check(inv, rc: int, stderr_text: str, refs: dict) -> str | None:
    """None if the invocation's outcome matches its reference, else why not."""
    ref = refs.get(inv.key)
    if ref is None:
        return f"no reference for {inv.key!r}"
    if rc != ref["rc"]:
        return f"exit code {rc}, reference {ref['rc']}"
    try:
        with open(inv.output) as fh:
            text = fh.read()
    except OSError as e:
        return f"no output: {e}"
    if inv.monte_carlo and inv.seed == ref["seed"]:
        if hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
            return "output differs from the reference digest"
        return None
    return _CHECKS[inv.kind](inv, text, stderr_text, ref)


def _l1_and_zeros(got: dict, want: dict) -> str | None:
    l1 = math.fsum(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want))
    if not l1 <= LAW_L1_TOL:
        return f"l1 distance {l1:.3e} to the reference exceeds {LAW_L1_TOL:g}"
    for k, v in got.items():
        if v != 0.0 and want.get(k, 0.0) == 0.0:
            return f"entry {k} is an exact zero in the reference but {v!r} here"
    return None


def _check_law(inv, text, stderr_text, ref) -> str | None:
    rows = text.splitlines()
    if not rows or rows[0] != "state,mass":
        return "kernel output lacks the state,mass header"
    got = {}
    for ln in rows[1:]:
        s, _, m = ln.partition(",")
        got[s] = float(m)
    return _l1_and_zeros(got, ref["law"])


def _check_llt(inv, text, stderr_text, ref) -> str | None:
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    if [r[0] for r in rows] != [str(r[0]) for r in ref["rows"]]:
        return "verify-llt rows differ from the reference horizons"
    for col, name in ((1, "value"), (2, "prediction")):
        bad = _l1_and_zeros(
            {r[0]: float(r[col]) for r in rows},
            {str(r[0]): r[col] for r in ref["rows"]},
        )
        if bad:
            return f"{name} column: {bad}"
    verdict = verdict_from_stderr(stderr_text)
    if verdict != ref["verdict"]:
        return f"verdict {verdict!r}, reference {ref['verdict']!r}"
    return None


def _flag_values(args) -> dict:
    return {k.lstrip("-"): v for k, v in zip(args[1::2], args[2::2])}


def _check_localtime_csv(inv, text, stderr_text, ref) -> str | None:
    from gegwalk.gegenbauer import HypergroupIndex
    from gegwalk.hypergroup import SparseMeasure
    from gegwalk.walk_sim import WalkConfig, simulate_replica

    flags = _flag_values(inv.args)
    targets = [int(y) for y in flags["y"].split(",")]
    mu = {int(s): float(m) for s, m in (p.split(":") for p in flags["mu"].split(","))}
    total = math.fsum(mu.values())
    cfg = WalkConfig(
        HypergroupIndex(float(flags["alpha"])),
        SparseMeasure({s: m / total for s, m in mu.items()}),
        int(flags.get("x", 0)), int(flags["n"]), int(flags["replicas"]),
        tuple(targets), inv.seed,
    )
    lines = text.splitlines()
    K = len(targets)
    if lines[0] != "replica,y,count" or len(lines) != 1 + cfg.replicas * K:
        return "localtime CSV has the wrong header or row count"
    for r in (0, cfg.replicas - 1):
        _, counts = simulate_replica(cfg, r)
        want = [f"{r},{y},{counts[y]}" for y in targets]
        if lines[1 + r * K: 1 + (r + 1) * K] != want:
            return f"replica {r} differs from the scalar reference engine"
    return None


def _check_verify_lt(inv, text, stderr_text, ref) -> str | None:
    doc, want = json.loads(text), ref["report"]
    params = dict(doc["params"], seed=want["params"]["seed"])
    if doc["params"]["seed"] != inv.seed or params != want["params"]:
        return "verify-lt parameters differ from the reference"
    if doc["verdict"] != want["verdict"]:
        return f"verdict {doc['verdict']!r}, reference {want['verdict']!r}"
    floor = want["params"]["moment_floor"]
    for got, exp in zip(doc["rows"], want["rows"], strict=True):
        if got["label"] != exp["label"] or got["prediction"] != exp["prediction"]:
            return f"row {got['label']}: prediction differs from the reference"
        if got["label"] == "ks":
            if abs(got["value"] - exp["value"]) > KS_TOL:
                return f"KS distance {got['value']:.4f}, reference {exp['value']:.4f}"
            continue
        # the moment window is 1 +- (3 se + floor |pred|)/|pred|
        se = [(r["window"][1] - 1.0 - floor) * abs(r["prediction"]) / 3.0 for r in (got, exp)]
        if abs(got["value"] - exp["value"]) > MOMENT_SIGMAS * math.hypot(*se):
            return f"moment {got['label']} = {got['value']!r} is far from the reference"
    return None


_CHECKS = {
    "law": _check_law,
    "llt": _check_llt,
    "localtime_csv": _check_localtime_csv,
    "verify_lt": _check_verify_lt,
}
