"""Smoke runs of the example scripts on small inputs: each exits 0 and ends
its output with one JSON line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("lorenz96_forecast.py", ["--steps", "4000", "--val-windows", "4"]),
        ("teacher_forcing_sweep.py", ["--rollout-starts", "1", "--alphas", "0,1", "--windows", "2"]),
        ("lyapunov_table.py", ["--steps", "6000"]),
    ],
    ids=["lorenz96_forecast", "teacher_forcing_sweep", "lyapunov_table"],
)
def test_script_runs_and_reports_json(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if script == "lorenz96_forecast.py":
        for strategy in ("frequency", "direct", "hopfield"):
            assert report[strategy]["model_mb"] > 0
