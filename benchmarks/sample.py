"""One benchmark sample: set up, train and check one workload in this process.

``bench.py`` starts this script in a fresh interpreter for every sample, so
set-up cost and peak memory are those of a single ``eki-node run``.  The
last line of standard output is one JSON object describing the sample.

    python3 benchmarks/sample.py --workload spiral-eki --seed 0 --out DIR [--trace]

Only the standard library is imported before the clock starts: ``setup_s``
covers ``import ekinode`` (NumPy included) plus ``runner.build_problem``.

A shared machine's speed can drift by 1.7x over minutes (a 2-vCPU virtual
machine did).  So the sample also times a fixed reference loop of small
NumPy operations, independent of ekinode, right before and right after the
run: ``run_rel`` is the run's wall time in units of that loop's.  A change
to ekinode moves it; a change in the machine's speed largely cancels.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Workload name -> (preset, epochs).  The seed is the only other input, and
# at these lengths the work done does not depend on it: control-eki stops
# before epoch 5, from where backtracking makes the number of forward maps
# vary from seed to seed (184 to 294 over the whole 10-epoch preset).
WORKLOADS = {
    "spiral-eki": ("spiral-eki", 15),
    "control-eki": ("control-eki-mu0.001", 4),
    "spiral-adam": ("spiral-adam-0.01", 50),
}


def check_outputs(runner, config, report, out_dir) -> tuple[list[str], bool]:
    """Every way the sample's outputs can be wrong, as messages, and whether
    re-evaluation reproduced the reported errors bitwise."""
    problems = []
    if report.error is not None:
        problems.append(f"report.error: {report.error}")
    train, test = report.final_train_error, report.final_test_error
    if not (math.isfinite(train) and math.isfinite(test)):
        problems.append(f"non-finite final errors {train!r}, {test!r}")
    with open(os.path.join(out_dir, "log.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != config.epochs + 1:
        problems.append(f"log.csv has {len(rows)} rows, expected {config.epochs + 1}")
    # Report integrity: the serialized parameters give back the reported
    # errors, within the relative 1e-12 of the package's own report-integrity
    # test.  EKI system identification logs the best member's loss, summed
    # in another order than ``problems.mse``, so the last bit can differ.
    loaded = runner.load_report(out_dir)
    if (loaded.final_train_error, loaded.final_test_error) != (train, test):
        problems.append("report.json errors differ from the returned report")
    again = runner.reevaluate(loaded.config, loaded.theta)
    for label, got, want in zip(("train", "test"), again, (train, test)):
        if not abs(got - want) <= 1e-12 * max(1.0, abs(got)):
            problems.append(f"reevaluate {label} error {got!r}, report has {want!r}")
    return problems, again == (train, test)


def reference_loop() -> float:
    """Wall seconds of a fixed loop shaped like the workloads' hot path:
    one small tanh MLP evaluation and state update per iteration."""
    import numpy as np

    rng = np.random.default_rng(0)
    w1, b1 = rng.normal(size=(10, 2)), rng.normal(size=10)
    w2, b2 = rng.normal(size=(2, 10)), rng.normal(size=2)
    x = np.array([1.0, 0.0])
    t0 = time.perf_counter()
    for _ in range(15_000):
        x = 0.99 * x + 0.005 * (w2 @ np.tanh(w1 @ x + b1) + b2)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import ekinode
    from ekinode import runner

    if not os.path.abspath(ekinode.__file__).startswith(SRC + os.sep):
        print(f"ekinode was imported from {ekinode.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    preset, epochs = WORKLOADS[args.workload]
    config = dataclasses.replace(runner.preset(preset), seed=args.seed, epochs=epochs)
    runner.build_problem(config)
    setup_s = time.perf_counter() - t0

    ref_before = reference_loop()
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(ekinode)
        recorder.install()
    t1 = time.perf_counter()
    try:
        report = runner.run(config, out_dir=args.out)
    finally:
        run_s = time.perf_counter() - t1
        if recorder is not None:
            recorder.uninstall()
    ref_s = 0.5 * (ref_before + reference_loop())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, bitwise = check_outputs(runner, config, report, args.out)
    result = {
        "problems": problems,
        "reevaluate_bitwise": bitwise,
        "setup_s": setup_s,
        "run_s": run_s,
        "ref_s": ref_s,
        "run_rel": run_s / ref_s,
        "peak_rss_mb": peak_rss_mb,
        "final_train_error": report.final_train_error,
        "final_test_error": report.final_test_error,
        "theta_sha256": hashlib.sha256(report.theta.tobytes()).hexdigest(),
    }
    if recorder is not None:
        with open(os.path.join(args.out, "log.csv"), newline="") as fh:
            logged_members = sum(int(row["J"]) for row in csv.DictReader(fh))
        result["trace"] = recorder.summary(logged_members)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
