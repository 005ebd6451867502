"""The library imports only the standard library, numpy and itself.

An AST scan over every module of `src/wienercub`, so the check needs no
installed tooling: scipy and mpmath are test extras, and an import of
them, or of anything else outside the standard library, fails here.
"""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "wienercub").glob("*.py"))
ALLOWED = {"numpy", "wienercub"}


def foreign_imports(source: str) -> list[str]:
    """'line n: module' for every absolute import whose top-level package is
    neither in the standard library nor in ALLOWED; relative imports are the
    package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ALLOWED:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_scan_finds_a_foreign_import():
    source = ("import math, scipy.linalg\nfrom mpmath import mp\n"
              "from . import cubature\nfrom numpy.linalg import norm\n"
              "from __future__ import annotations\nimport wienercub.cli\n")
    assert foreign_imports(source) == ["line 1: scipy.linalg", "line 2: mpmath"]


def test_scan_sees_imports_inside_functions():
    assert foreign_imports("def f():\n    import scipy\n") == ["line 2: scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_only_stdlib_numpy_and_itself(path):
    assert foreign_imports(path.read_text()) == []
