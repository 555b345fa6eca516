"""Identify the nonlinear pendulum from short observation windows.

The pendulum field (v, -sin x) is nonlinear, so there is no closed-form
reference; the data come from a tight-tolerance Dormand-Prince run whose
quality we can audit through energy conservation.  Training uses the
shooting assembly: each of the ten observation subsets is re-initialized
at its first observed state, which keeps residuals bounded and lets the
aggressive covariance schedule (gamma0 = 2.0, alpha = 0.4) stay stable.

Run from the repository root:  python demos/02_pendulum_identification.py
"""

import dataclasses
import os
import sys
import time

import numpy as np

from ekinode import problems, runner

out_root = sys.argv[1] if len(sys.argv) > 1 else os.path.join("runs", "demo-pendulum")

config = dataclasses.replace(runner.preset("pendulum-eki"), epochs=100)
prob = runner.build_problem(config)
obs = prob.observations

energies = np.array([problems.pendulum_energy(s) for s in obs.grid_states])
print("=== pendulum reference data ===")
print(f"grid points:        {obs.grid_times.size} over [0, {obs.grid_times[-1]:g}]")
print(f"observation layout: {obs.num_subsets} subsets x {obs.subset_length} consecutive samples")
print(f"energy drift:       {np.max(np.abs(energies - energies[0])):.2e} (integrator audit)")

print("\n=== EKI training (shooting assembly) ===")
started = time.perf_counter()
report = runner.run(config, out_dir=out_root)
elapsed = time.perf_counter() - started
print(f"epochs:    {report.epochs_run}")
print(f"train MSE: {report.final_train_error:.3e}")
print(f"test MSE:  {report.final_test_error:.3e}   (held-out grid points)")
print(f"runtime:   {elapsed:.1f}s")
for event in report.events:
    print(f"event:     {event}")
print(f"artifacts: {out_root}/(report.json, log.csv)")
