"""List the statements of ``src/ekinode`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` and prints, per module,
the line of every statement no test executed; docstrings are not counted.
A compound statement (``if``, ``for``, ``def``, ...) counts as run when any
line it spans ran.  Code that tests run in a subprocess is not traced.
Stdlib only; tracing roughly doubles the suite's time, so this is a tool
to run by hand, not a test.

    python tools/unrun_statements.py            # the whole suite
    python tools/unrun_statements.py tests/test_eki.py -x

Arguments are passed to pytest (default: ``-q -p no:cacheprovider``).  Exit
status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ekinode")


def statements(path: str) -> dict[int, int]:
    """First line -> last line of each statement in the file, docstrings
    excluded; a decorated definition starts at its first decorator."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                docstrings.add(body[0])
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in docstrings:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans[start] = node.end_lineno
    return spans


def main(argv: list[str]) -> int:
    import pytest

    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE + os.sep):
            return None
        hit.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun_total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = hit.get(path, set())
        spans = statements(path)
        unrun = sorted(s for s, e in spans.items() if not any(n in lines for n in range(s, e + 1)))
        total += len(spans)
        unrun_total += len(unrun)
        if unrun:
            print(f"{name}: {', '.join(map(str, unrun))}")
    print(f"{total - unrun_total} of {total} statements run; {unrun_total} unrun")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
