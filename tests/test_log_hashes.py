"""tools/log_hashes.py run twice in one process: a rerun of every case,
each run in a fresh directory, hashes its log.csv and report.json the same,
and a rebuilt reference grid hashes its states the same.
That holds under any BLAS kernel, so it needs no committed hash list, and it
keeps the tool working against the runner constants its stall cases patch."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("log_hashes", os.path.join(ROOT, "tools", "log_hashes.py"))
log_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(log_hashes)


def _listing(out_dir):
    return [(name, *log_hashes.run_case(config, patches, str(out_dir / str(i))))
            for i, (name, config, patches) in enumerate(log_hashes.cases())] + log_hashes.grid_digests()


def test_every_case_reruns_bitwise(tmp_path):
    first = _listing(tmp_path / "first")
    assert first and first == _listing(tmp_path / "second")
