"""Smoke tests of scripts/: each study runs at a tiny size and prints its CSV.

The scripts are not part of the package, so a library change can break
them without any other test noticing.  Each one runs in a subprocess
with ``PYTHONPATH=src`` and with scipy made unimportable, so that the
scripts stay free of it as the package is.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sys.argv arrives as [-c, script, args...]; the script sees [script, args...]
WITHOUT_SCIPY = (
    "import runpy, sys; sys.modules['scipy'] = None; sys.argv = sys.argv[1:]; "
    "runpy.run_path(sys.argv[0], run_name='__main__')"
)

CASES = {
    "convergence_study.py": (
        ["--alphas=-0.25,0", "--kmax", "7"],
        "alpha,n,probability,prediction,ratio",
    ),
    "local_time_histogram.py": (
        ["--horizons", "100", "--replicas", "200", "--seed", "1", "--bins", "5"],
        "series,x,value",
    ),
    "moment_bias_curve.py": (["--kmax", "7"], "n,m1,m1_ratio,m2,m2_ratio"),
}


def test_every_script_has_a_case():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs_without_scipy(script):
    args, header = CASES[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header and len(lines) > 1
