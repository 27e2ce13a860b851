"""Tests of the benchmark itself, on the SMALL_SIZES workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    LAYERS_USED,
    SMALL_SIZES,
    WORKLOADS,
    ZERO_SPANS,
    Invocation,
    is_monte_carlo,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OTHER_SEED = 11


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: two traced runs, (layers, samples) each, at a non-reference seed."""
    out = {}
    for w in WORKLOADS:
        runner = run.Runner(w, OTHER_SEED, 2, tmp_path_factory.mktemp(w), SMALL_SIZES)
        out[w] = [run.traced_run(runner, is_monte_carlo(w)) for _ in range(2)]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_layer_records_spans_and_no_predicted_zero_does(traced, workload):
    for _, samples in traced[workload]:
        names = set(samples[1]["layers"]["span_names"])
        assert LAYERS_USED[workload] <= {spans.layer_of(n) for n in names}
        assert not names & ZERO_SPANS[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_across_traced_runs(traced, workload):
    (a, _), (b, _) = traced[workload]
    counted = {k: a[k] for k in run.COUNTED}
    assert counted == {k: b[k] for k in run.COUNTED}
    assert any(counted.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_every_output_byte_unchanged(traced, workload):
    for _, samples in traced[workload]:
        plain, *rest = ([o["sha256"] for o in s["outcomes"]] for s in samples)
        assert None not in plain and all(r == plain for r in rest)
        assert all(o["ok"] for s in samples for o in s["outcomes"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_emitted_with_its_unit(trace):
    result, report = run.run("exact_llt", DEFAULT_SEED, 1, trace, SMALL_SIZES)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "mpmath", "threads", "seed", "sizes"):
        assert key in report["metadata"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "exact_llt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- span arithmetic and output checks, without the program -----------


def _span(sid, parent, t0, t1, name="cli.main"):
    return {"id": sid, "parent": parent, "root": 1, "name": name, "t0": t0, "t1": t1, "thread": 0}


def test_self_time_subtracts_the_union_of_overlapping_children():
    sp = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0, "walk_sim.kernel_row"),
        _span(3, 1, 3.0, 6.0, "walk_sim.kernel_row"),  # overlaps 2 (another thread)
        _span(4, 1, 8.0, 12.0, "walk_sim.kernel_row"),  # runs past its parent
    ]
    assert spans.self_times(sp)[1] == pytest.approx(10.0 - 5.0 - 2.0)
    # concurrent spans count in full, nested spans of the same set do not
    sp.append(_span(5, 2, 1.5, 2.0, "walk_sim.kernel_row"))
    assert spans.busy_seconds(sp, {"walk_sim.kernel_row"}) == pytest.approx(3.0 + 3.0 + 4.0)


def test_recorder_attributes_pool_thread_spans_to_the_enclosing_span():
    from concurrent.futures import ThreadPoolExecutor

    rec = spans.Recorder()
    inner = rec.wrap("hypergroup.kernel_row", lambda x: x)

    def outer():
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(inner, range(16)))

    assert rec.wrap("walk_sim.local_time_counts", outer)() == list(range(16))
    (top,) = [s for s in rec.spans if s["parent"] is None]
    kids = [s for s in rec.spans if s["name"] == "hypergroup.kernel_row"]
    assert len(kids) == 16 and all(s["parent"] == top["id"] == s["root"] for s in kids)


def _law_invocation(tmp_path, text):
    path = tmp_path / "law.csv"
    path.write_text(text)
    return Invocation("law", ("kernel", "--n", "2"), str(path))


def test_law_check_catches_drift_and_broken_zeros(tmp_path):
    refs = {"kernel --n 2": {"rc": 0, "law": {"0": 0.5, "2": 0.5}}}
    good = _law_invocation(tmp_path, "state,mass\n0,0.5\n2,0.5\n")
    assert checks.check(good, 0, "", refs) is None
    assert "exit code" in checks.check(good, 1, "", refs)
    drift = _law_invocation(tmp_path, "state,mass\n0,0.5000000001\n2,0.4999999999\n")
    assert "l1 distance" in checks.check(drift, 0, "", refs)
    zero = _law_invocation(tmp_path, "state,mass\n0,0.5\n1,1e-300\n2,0.5\n")
    assert "exact zero" in checks.check(zero, 0, "", refs)
