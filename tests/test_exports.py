"""The package's public names: the package holds ``__version__`` alone,
every name a module exports exists, and every record field has a reader."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import ekinode

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # The package re-exports nothing; these modules declare __all__.
    assert not hasattr(ekinode, "__all__")
    modules = [importlib.import_module(f"ekinode.{info.name}") for info in pkgutil.iter_modules(ekinode.__path__)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert sorted(module.__name__ for module in exporting) == [
        "ekinode.eki", "ekinode.gradbase", "ekinode.nnet", "ekinode.ode", "ekinode.problems",
    ]
    for module in exporting:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        for name in names:
            getattr(module, name)


def test_import_loads_the_modules_a_run_reads():
    # A bare import loads no module and no NumPy; importing the runner, as
    # the CLI and the benchmark do, sets every layer as a package attribute.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import ekinode\n"
        "print(sorted(m for m in sys.modules if m.startswith('ekinode.') or m == 'numpy'))\n"
        "from ekinode import runner\n"
        "print([n for n in ('eki', 'gradbase', 'nnet', 'ode', 'problems', 'runner') if not hasattr(ekinode, n)])\n"
        "print(ekinode.__file__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, missing, path = proc.stdout.splitlines()
    assert loaded == "[]"
    assert missing == "[]"
    assert (ROOT / "src") in pathlib.Path(path).resolve().parents


def test_version_matches_the_project_metadata():
    # report.json records ekinode.__version__; pyproject.toml declares it.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert ekinode.__version__ == tomllib.load(fh)["project"]["version"]


def _is_record(node: ast.ClassDef) -> bool:
    # A dataclass (bare or called decorator) or a NamedTuple subclass.
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names = [getattr(d, "id", getattr(d, "attr", None)) for d in decorators + node.bases]
    return "dataclass" in names or "NamedTuple" in names


def test_every_record_field_has_a_reader():
    # No field without a reader: each dataclass or NamedTuple field in the
    # package is read as an attribute somewhere in the repository's code.
    # RunReport is exempt: to_dict serializes it in a loop over its fields.
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "demos", "benchmarks")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    read = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls.name, stmt.target.id)
        for path, tree in trees.items() if ROOT / "src" / "ekinode" in path.parents
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_record(cls)
        and cls.name != "RunReport"
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    # Both kinds of record are found: dataclasses and NamedTuples.
    assert {"SysIdProblem", "ControlProblem", "ForwardMapOutput"} <= {cls for cls, _ in fields}
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []
