"""The walkthrough scripts under demos/ run to completion and leave no temp files."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_dynamics_and_features.py",
    "02_game_policies_and_conditioning.py",
    "03_weight_recovery.py",
    "04_baselines.py",
    "05_pipeline_and_reports.py",
]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert list(tmp_path.iterdir()) == []
