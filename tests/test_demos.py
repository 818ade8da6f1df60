"""Each demo script runs to completion and prints its key result line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

KEY_LINES = {
    "01_pair_statistics.py":
        "asymmetry: d_c(victim, extracted)=0.315 vs d_c(extracted, victim)=0.206",
    "02_query_samplers.py": "negative:    40 points, 100% of them victim mistakes",
    "03_fingerprint_schemes.py": "scheme distance 0.04 == 1 - baseline match 0.04",
    # the summary line of pair_distance_report on the desk build
    "04_benchmark_evaluation.py": "positive pairs above the negative 5th percentile: 4%",
    "05_budget_sweep.py":
        "negative->adversarial     0.70(0.03)  0.79(0.04)  0.84(0.03)  0.91(0.01)",
}


def test_every_demo_has_a_key_line():
    assert sorted(KEY_LINES) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", sorted(KEY_LINES))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert KEY_LINES[script] in result.stdout.splitlines(), result.stdout
