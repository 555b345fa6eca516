"""Smoke test of the benchmark harness: one sample of the cheapest workload,
plain and traced, must run and pass its own output checks.  No timing bound:
this only keeps the harness and the tracer working against the package."""

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
