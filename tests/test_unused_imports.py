"""Every name a library module imports is used in that module.

An AST scan, so the check needs no linter; `__init__.py` only re-exports
and is left out, but its `__all__` must name exactly what it imports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "wienercub"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") == [
        "line 1: math", "line 2: path"]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_names_exactly_the_public_names_the_package_imports():
    # __init__.py lists each export twice, once imported and once in __all__
    import wienercub

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert len(set(wienercub.__all__)) == len(wienercub.__all__)
    assert sorted(wienercub.__all__) == sorted(public + ["__version__"])
    for name in wienercub.__all__:
        assert getattr(wienercub, name) is not None, name
