"""tools/log_hashes.py run twice in one process: a rerun of every case,
each run in a fresh directory, hashes its log.csv and report.json the same,
a rebuilt reference grid hashes its states the same, and so does each file
plotted from the runs.  That holds under any BLAS kernel.  The first
listing must also equal the committed lines (tools/log_hashes.json) for the
environment the test runs in: its group's shared lines, which no committed
kernel decides, and its key's own lines.  Where the group has no entry for
the key, the test says so and checks the shared lines and the rerun.
Either way it keeps the tool working against the runner constants its
stall cases patch.  The reference grids are also built under a second
kernel in a child process, and must come out byte for byte the same."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "log_hashes.py")
_SPEC = importlib.util.spec_from_file_location("log_hashes", TOOL)
log_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(log_hashes)


def test_every_case_reruns_bitwise(tmp_path):
    first = log_hashes.listing(str(tmp_path / "first"))
    assert first and first == log_hashes.listing(str(tmp_path / "second"))
    shared, keyed = log_hashes.committed()
    got = dict(line.split(" ", 1) for line in first)
    want = dict(line.split(" ", 1) for line in shared + (keyed or []))
    if keyed is None:
        warnings.warn(f"tools/log_hashes.json has no listing for {log_hashes.environment_key()!r};"
                      f" only its {len(shared)} shared lines and the rerun are checked")
    else:
        assert sorted(got) == sorted(want)
    moved = [name for name, digests in want.items() if got.get(name) != digests]
    assert not moved, f"moved against the committed listing: {moved}"


def test_committed_groups_are_their_own_split():
    # Each group stores a line once, as shared or under one key, and every
    # key lists the same names; a hand edit that breaks that shows here.
    for group in log_hashes.golden().values():
        full = log_hashes.full_listings(group)
        assert log_hashes.split(full) == group
        names = [sorted(line.split()[0] for line in lines) for lines in full.values()]
        assert all(n == names[0] for n in names)


def test_split_shares_what_every_key_lists():
    group = log_hashes.split({"a": ["x 1", "y 2", "z 3"], "b": ["z 3", "y 5", "x 1"]})
    assert group == {"shared": ["x 1", "z 3"], "keyed": {"a": ["y 2"], "b": ["y 5"]}}
    assert log_hashes.split({"a": ["y 2", "x 1"]}) == {"shared": [], "keyed": {"a": ["x 1", "y 2"]}}


def test_reference_grids_are_the_same_under_another_kernel(tmp_path):
    # OPENBLAS_CORETYPE is read when OpenBLAS loads, so the second kernel
    # runs in a child process, and only there.
    path = tmp_path / "grids.npz"
    code = ("import importlib.util, sys, numpy as np;"
            f"spec = importlib.util.spec_from_file_location('log_hashes', {TOOL!r});"
            "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool);"
            f"np.savez({str(path)!r}, **tool.grids()); print(tool.openblas_core())")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))}
    core = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                          text=True).stdout.strip()
    if log_hashes.openblas_core() is not None:
        assert core == "Nehalem"
    here = log_hashes.grids()
    with np.load(path) as there:
        assert sorted(there.files) == sorted(here)
        for name, states in here.items():
            assert there[name].tobytes() == states.tobytes(), name
