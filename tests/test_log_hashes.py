"""tools/log_hashes.py run twice in one process: a rerun of every case,
each run in a fresh directory, hashes its log.csv and report.json the same,
a rebuilt reference grid hashes its states the same, and so does each file
plotted from the runs.  That holds under any BLAS kernel.  The first
listing must also equal the committed one (tools/log_hashes.json) for the
environment the test runs in; where no entry has that key, the test says so
and checks the rerun alone.  Either way it keeps the tool working against
the runner constants its stall cases patch."""

import importlib.util
import os
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("log_hashes", os.path.join(ROOT, "tools", "log_hashes.py"))
log_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(log_hashes)


def test_every_case_reruns_bitwise(tmp_path):
    first = log_hashes.listing(str(tmp_path / "first"))
    assert first and first == log_hashes.listing(str(tmp_path / "second"))
    key = log_hashes.environment_key()
    committed = log_hashes.golden().get(key)
    if committed is None:
        warnings.warn(f"tools/log_hashes.json has no listing for {key!r}; only the rerun is checked")
        return
    moved = [line.split()[0] for line, want in zip(first, committed) if line != want]
    assert len(first) == len(committed) and not moved, f"moved against the committed listing: {moved}"
