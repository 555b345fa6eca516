"""Smoke test of the benchmark harness: one sample of each workload (EKI
control, EKI system identification and the gradient run), plain and traced,
must run and pass their own output checks.  No timing bound: this only keeps
the harness and the tracer working against the package, and pins the traced
call counts the per-layer metrics are read from."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE = os.path.join(ROOT, "benchmarks", "sample.py")


# Traced call counts per workload at seed 0; the tracer finds each function
# by name, so a rename would read 0 here rather than fail.
# The metric evaluations and the network calls pin the logged error path:
# a row that gained or lost an evaluation shows.
TRACED_COUNTS = {
    # control-eki@4: the update rule and the forward maps, one controller
    # pass each; the two error columns of all 5 rows are one control_mse
    # pass each.
    "control-eki": {
        "eki.step.calls": 4,
        "problems.forward_map.calls": 6,
        "problems.metrics.calls": 2,
        "nnet.mlp_apply.calls": 6 + 2,
    },
    # spiral-eki@15: one forward map per epoch plus the last row's, one
    # 9-interval rk4 shooting pass of 4 network calls per step each; one
    # update per epoch; the test column of all 16 rows is one test_mse
    # call, as for spiral-adam.  One reference grid, built once.
    "spiral-eki": {
        "ode.integrate.calls": 1,
        "problems.forward_map.calls": 16,
        "eki.step.calls": 15,
        "problems.metrics.calls": 1,
        "nnet.mlp_apply.calls": 16 * 36 + 499 * 4,
    },
    # spiral-adam@50: one BPTT per epoch plus the last row, 36 network calls
    # each.  The train column is the BPTT loss, so no forward map runs;
    # the test column of all 51 rows is one test_mse call, one 499-step rk4
    # pass of 4 network calls per step.  runner.run builds the reference
    # grid exactly once; a grid cached across builds would read 0.
    "spiral-adam": {
        "ode.integrate.calls": 1,
        "gradbase.bptt.calls": 51,
        "problems.forward_map.calls": 0,
        "problems.metrics.calls": 1,
        "nnet.mlp_apply.calls": 51 * 36 + 499 * 4,
    },
}


@pytest.mark.parametrize(
    "workload, extra",
    [
        ("control-eki", []),
        ("control-eki", ["--trace"]),
        ("spiral-eki", []),
        ("spiral-eki", ["--trace"]),
        ("spiral-adam", []),
        ("spiral-adam", ["--trace"]),
    ],
    ids=["plain", "traced", "spiral-eki-plain", "spiral-eki-traced", "spiral-adam-plain",
         "spiral-adam-traced"],
)
def test_sample_runs_clean(tmp_path, workload, extra):
    cmd = [sys.executable, SAMPLE, "--workload", workload, "--seed", "0",
           "--out", str(tmp_path / "out")] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    if workload == "spiral-adam":
        # The logged train error is the BPTT loss, which reevaluate's
        # forward map reproduces bitwise.
        assert result["reevaluate_bitwise"] is True
    if extra:
        assert result["trace"]["problems"] == []
        metrics = result["trace"]["metrics"]
        for name, count in TRACED_COUNTS[workload].items():
            assert metrics[name] == count, name
