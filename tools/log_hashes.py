"""Print the SHA-256 of each run's ``log.csv`` and ``report.json`` over a
fixed list of short runs, to show that a change leaves every log bitwise.

The list is every preset at 3 epochs for seeds 0 and 1, plus the failure
paths a config can reach: a pass past ``max_steps`` (through
``integrator.dt``), epochs without an update, a non-finite update, a noise
variance that underflows, diverged gradient runs, and stalls.  A stall needs
the EKI step control's module constants in ``runner``, which these runs
patch for their duration.  ``report.json`` is hashed without
``runtime_seconds`` and ``log_path``, which differ between reruns.  Each
reference grid of ``problems.SYSID_BENCHMARKS`` is hashed too, at its
default size, so a change to the data generator shows on its own line.  So
is every file ``runner.plot_script`` writes for four inputs of those runs
(:data:`PLOTS`): one system-identification report, a control mu sweep, and
each family's run past ``max_steps``, whose learned trajectory is the failed
pass's (NaN on the whole grid, or the control start alone).

Each run's line reads ``<case> <log.csv sha256> <report.json sha256>``,
each grid's ``grid:<name> <states sha256>``, and each plot file's
``plot:<input>/<file> <sha256>``.  Runs in process, in a temporary
directory, in a few seconds:

    PYTHONPATH=src python tools/log_hashes.py [--write]

The bits depend on the BLAS kernel and the CPU features, so the committed
listings in ``log_hashes.json`` are keyed by :func:`environment_key`: the
OpenBLAS core, NumPy's enabled CPU features, and the NumPy and Python
versions.  ``--write`` stores this listing under the current key, as a
change that moves logs on purpose does; ``tests/test_log_hashes.py``
compares against the entry for the key it runs under.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from ekinode import ode, problems, runner

# Fields of report.json that differ between reruns of one config.
VOLATILE = ("runtime_seconds", "log_path")

# The committed listings, by environment key.
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "log_hashes.json")

# The plot inputs: a label, and the cases whose reports runner.plot_script
# reads together.
PLOTS = (
    ("spiral-eki@3-seed0", ("spiral-eki@3-seed0",)),
    ("control-eki-mu@3-seed0", ("control-eki-mu0.001@3-seed0", "control-eki-mu0.01@3-seed0")),
    ("no-update-spiral", ("no-update-spiral",)),
    ("no-update-control", ("no-update-control",)),
)


def openblas_core():
    """The kernel OpenBLAS picked, read from NumPy's bundled library; None
    where NumPy links another BLAS or the library does not say."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def environment_key() -> str:
    """What decides the listing's bits in this process, as one string."""
    from numpy._core._multiarray_umath import __cpu_features__

    features = ",".join(name for name, enabled in __cpu_features__.items() if enabled)
    return (f"openblas={openblas_core()} numpy={np.__version__} "
            f"python={platform.python_version()} features={features}")


def _config(base, epochs, **blocks):
    # A preset at ``epochs``, with fields of its option blocks replaced.
    config = dataclasses.replace(runner.preset(base), epochs=epochs)
    for block, values in blocks.items():
        config = dataclasses.replace(config, **{block: dataclasses.replace(getattr(config, block), **values)})
    return config


def cases():
    """``(name, config, patches)`` per run; ``patches`` maps names of
    ``runner`` module constants to the values the run takes."""
    out = [(f"{name}@3-seed{seed}", dataclasses.replace(config, epochs=3, seed=seed), {})
           for name, config in sorted(runner.presets().items()) for seed in (0, 1)]
    out += [
        # The first BPTT pass is past max_steps: no row, no parameters.
        ("max-steps-spiral-adam", _config("spiral-adam-0.01", 2, integrator={"dt": 1e-300}), {}),
        # Every member past max_steps: each epoch is a no_update event.
        ("no-update-spiral", _config("spiral-eki", 3, integrator={"dt": 1e-12}), {}),
        ("no-update-control", _config("control-eki-mu0.001", 3, integrator={"dt": 1e-12}), {}),
        ("non-finite-update", _config("control-eki-mu0.001", 3, problem_options={"mu": 1e308}), {}),
        ("variance-schedule-underflow", _config("spiral-eki", 3, eki={"alpha": 1000.0}), {}),
        ("variance-energy-underflow",
         _config("control-eki-mu0.001", 3, eki={"gamma_prime": 5e-324}, problem_options={"mu": 2.0}), {}),
        ("diverged-sgd", _config("spiral-sgd-0.1", 3, gradient={"eta": 1e8}), {}),
        ("diverged-adam", _config("spiral-adam-0.01", 3, gradient={"eta": 10.0}), {}),
        ("non-finite-adam", _config("control-adam-mu0.001", 2, gradient={"eta": 1e308}), {}),
        ("stall-spiral", _config("spiral-eki", 2), {"ACCEPT_FACTOR": 1e-12, "MAX_BACKTRACKS": 0}),
        ("stall-control", _config("control-eki-mu0.001", 5), {"ACCEPT_FACTOR": 1e-12, "MAX_BACKTRACKS": 1}),
        ("stall-vanishing-step", _config("spiral-eki", 2),
         {"STEP_SIZE": 1e-16, "ACCEPT_FACTOR": 0.5, "MAX_BACKTRACKS": 1000}),
    ]
    return out


def report_bytes(raw: dict) -> bytes:
    """A loaded report.json without its volatile fields, serialized as
    :func:`runner.run` writes it."""
    raw = {key: value for key, value in raw.items() if key not in VOLATILE}
    return (json.dumps(raw, indent=2) + "\n").encode()


def run_case(config, patches, out_dir) -> tuple[str, str]:
    """The hex digests of the run's log.csv and report.json."""
    saved = {name: getattr(runner, name) for name in patches}
    try:
        for name, value in patches.items():
            setattr(runner, name, value)
        runner.run(config, out_dir=out_dir)
    finally:
        for name, value in saved.items():
            setattr(runner, name, value)
    with open(os.path.join(out_dir, "log.csv"), "rb") as fh:
        log = fh.read()
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = report_bytes(json.load(fh))
    return hashlib.sha256(log).hexdigest(), hashlib.sha256(report).hexdigest()


def grid_digests() -> list[tuple[str, str]]:
    """``(grid:<name>, digest)`` of the states of each benchmark's reference
    grid, built as :func:`problems.make_sysid_problem` builds it by default."""
    out = []
    for name, bench in problems.SYSID_BENCHMARKS.items():
        times = np.linspace(0.0, bench.t_final, bench.grid_size)
        states = ode.integrate(bench.field, np.array(bench.x0), times, problems.DATA_INTEGRATOR)
        out.append((f"grid:{name}", hashlib.sha256(states.tobytes()).hexdigest()))
    return out


def plot_digests(run_dirs: dict, out_dir) -> list[tuple[str, str]]:
    """``(plot:<input>/<file>, digest)`` of every file :func:`runner.plot_script`
    writes for each input of :data:`PLOTS`, from the cases' run directories."""
    out = []
    for label, names in PLOTS:
        plot_dir = os.path.join(out_dir, label)
        for name in runner.plot_script([run_dirs[case] for case in names], plot_dir):
            with open(os.path.join(plot_dir, name), "rb") as fh:
                out.append((f"plot:{label}/{name}", hashlib.sha256(fh.read()).hexdigest()))
    return out


def listing(out_dir) -> list[str]:
    """Every case's line, each run in a fresh directory under ``out_dir``,
    then every grid's, then every plot file's."""
    run_dirs, runs = {}, []
    for i, (name, config, patches) in enumerate(cases()):
        run_dirs[name] = os.path.join(out_dir, str(i))
        runs.append(" ".join((name, *run_case(config, patches, run_dirs[name]))))
    plots = plot_digests(run_dirs, os.path.join(out_dir, "plots"))
    return runs + [f"{name} {digest}" for name, digest in grid_digests() + plots]


def golden() -> dict:
    """The committed listings, by environment key."""
    with open(GOLDEN) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Hash every log of a fixed list of short runs.")
    parser.add_argument("--write", action="store_true",
                        help="store the listing under this environment's key in log_hashes.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = listing(tmp)
    print("\n".join(lines))
    if args.write:
        entries = golden()
        entries[environment_key()] = lines
        with open(GOLDEN, "w") as fh:
            fh.write(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
