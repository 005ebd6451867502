"""Every private function, class or method defined in the library is
referenced somewhere in the library.

An AST scan over all modules of `src/wienercub`: a name defined with one
leading underscore (dunder methods excepted) must appear as a name or an
attribute outside its own definition, so a helper left behind by a
refactor fails here instead of lingering.
"""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "wienercub").glob("*.py"))

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unused_private_names(sources: dict[str, str]) -> list[str]:
    defined = []
    used = set()

    def visit(node, where, owner):
        if isinstance(node, _DEFINITIONS) and _private(node.name):
            defined.append((where, node.lineno, node.name))
            owner = node.name
        # a use inside the definition itself (recursion) does not count
        if isinstance(node, ast.Name) and node.id != owner:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, where, owner)

    for where, source in sources.items():
        visit(ast.parse(source), where, None)
    return [f"{where}:{line}: {name}" for where, line, name in defined
            if name not in used]


def test_scan_finds_an_unused_private_name():
    sources = {
        "a.py": "def _kept():\n    pass\n\nclass _Gone:\n"
                "    def _method(self):\n        return self._method()\n",
        "b.py": "from a import _kept\n_kept()\n",
    }
    assert unused_private_names(sources) == ["a.py:4: _Gone", "a.py:5: _method"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unused_private_names(sources) == []
