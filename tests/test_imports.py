"""Static check: no module of the package imports a name it never uses."""

import ast
import pathlib

import mstok

PACKAGE = pathlib.Path(mstok.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_imports():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["os (line 1)", "c (line 2)"]
    assert unused_imports("from .t import T\n__all__ = ['T']\n") == []
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
