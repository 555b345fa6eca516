"""The package's public names: every name a module exports exists, and
every record field has a reader."""

import ast
import importlib
import pathlib
import pkgutil

import ekinode


def test_every_exported_name_resolves():
    # The package and each of its modules that declares __all__.
    modules = [ekinode] + [
        importlib.import_module(f"ekinode.{info.name}") for info in pkgutil.iter_modules(ekinode.__path__)
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 6
    for module in exporting:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        for name in names:
            getattr(module, name)


def _is_record(node: ast.ClassDef) -> bool:
    # A dataclass (bare or called decorator) or a NamedTuple subclass.
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names = [getattr(d, "id", getattr(d, "attr", None)) for d in decorators + node.bases]
    return "dataclass" in names or "NamedTuple" in names


def test_every_record_field_has_a_reader():
    # No field without a reader: each dataclass or NamedTuple field in the
    # package is read as an attribute somewhere in the repository's code.
    # RunReport is exempt: to_dict serializes it in a loop over its fields.
    root = pathlib.Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "demos", "benchmarks")
        for path in sorted((root / folder).rglob("*.py"))
    }
    read = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls.name, stmt.target.id)
        for path, tree in trees.items() if root / "src" / "ekinode" in path.parents
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_record(cls)
        and cls.name != "RunReport"
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    # Both kinds of record are found: dataclasses and NamedTuples.
    assert {"SysIdProblem", "ControlProblem", "ForwardMapOutput"} <= {cls for cls, _ in fields}
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []
