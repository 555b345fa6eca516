"""The demos run end to end: each exits 0 with its artefacts under a
temporary directory.  Demo 04, the results table, takes several seconds
and is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_spiral_identification.py",
    "02_pendulum_identification.py",
    "03_control_energy_tradeoff.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path) == ["out"]  # the demo wrote under argv[1] alone
