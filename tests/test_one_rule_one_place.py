"""Each input rule is raised from one function of the library.

An AST scan over all modules of `src/wienercub`: the message text of a rule
may appear in the `raise` statements of exactly one function, so a second,
inline copy of a rule (grid, positivity, config integer, count, control
dimension, unit horizon, letter range, tolerance, coefficient count, flow
time, partition gamma) fails here instead of drifting apart from the first.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "wienercub").glob("*.py"))

RULES = ("must increase strictly", "must start at 0", "must be positive and finite",
         "must be integer", "must be an integer >=", "controls, system has",
         "rescale expects a unit-horizon", "outside alphabet",
         "must be finite and >= 0", "coefficients, got shape",
         "flow time must be finite", "gamma must be finite and >= 1")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def raising_functions(sources: dict[str, str], text: str) -> list[str]:
    """'file:Class.function' of every function with a `raise` whose string
    constants (f-string parts included) contain `text`."""
    found = set()

    def visit(node, where, scope):
        if isinstance(node, _SCOPES):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str) and text in n.value
            for n in ast.walk(node)
        ):
            found.add(f"{where}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, scope)

    for where, source in sources.items():
        visit(ast.parse(source), where, "")
    return sorted(found)


def test_scan_finds_a_second_copy_of_a_rule():
    sources = {
        "a.py": "def check(t):\n    raise ValueError(f'{t} must start at 0')\n",
        "b.py": "class P:\n    def __post_init__(self):\n"
                "        if self.t:\n            raise ValueError('p must start at 0, got')\n"
                "        print('must start at 0')\n",
    }
    assert raising_functions(sources, "must start at 0") == [
        "a.py:check", "b.py:P.__post_init__"]


@pytest.mark.parametrize("text", RULES)
def test_each_rule_is_raised_from_one_function(text):
    sources = {p.name: p.read_text() for p in SOURCES}
    found = raising_functions(sources, text)
    assert len(found) == 1, found
