"""Smoke test of the benchmark harness: one sample of the cheapest workload,
plain and traced, must run and pass its own output checks.  No timing bound:
this only keeps the harness and the tracer working against the package, and
pins the traced call counts the per-layer metrics are read from."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE = os.path.join(ROOT, "benchmarks", "sample.py")


@pytest.mark.parametrize("extra", [[], ["--trace"]], ids=["plain", "traced"])
def test_sample_runs_clean(tmp_path, extra):
    cmd = [sys.executable, SAMPLE, "--workload", "control-eki", "--seed", "0",
           "--out", str(tmp_path / "out")] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    if extra:
        assert result["trace"]["problems"] == []
        # The tracer finds the update rule and the forward maps by name; a
        # rename would read 0 here rather than fail.  control-eki@4, seed 0:
        metrics = result["trace"]["metrics"]
        assert metrics["eki.step.calls"] == 4
        assert metrics["problems.forward_map.calls"] == 6
