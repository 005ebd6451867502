"""No classmethod is only a second name for its class's constructor.

An AST scan over all modules of `src/wienercub`: a `@classmethod` whose
body, docstring aside, is one `return cls(...)` or `return cls.<name>(...)`
adds a second way to build the same object and no rule of its own, so it
fails here; callers build the object with the call it wraps.
"""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "wienercub").glob("*.py"))


def _is_classmethod(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)


def _calls_cls(node: ast.AST, cls: str) -> bool:
    """node is cls(...) or cls.<name>(...)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == cls


def one_call_constructors(sources: dict[str, str]) -> list[str]:
    """'file:Class.method' of every classmethod that only returns a call of cls."""
    found = []
    for where, source in sources.items():
        for owner in ast.walk(ast.parse(source)):
            if not isinstance(owner, ast.ClassDef):
                continue
            for node in owner.body:
                if not _is_classmethod(node) or not node.args.args:
                    continue
                body = node.body
                if ast.get_docstring(node) is not None:
                    body = body[1:]
                if (len(body) == 1 and isinstance(body[0], ast.Return)
                        and _calls_cls(body[0].value, node.args.args[0].arg)):
                    found.append(f"{where}:{owner.name}.{node.name}")
    return sorted(found)


def test_scan_finds_a_one_call_constructor():
    source = (
        "class A:\n"
        "    @classmethod\n    def bare(cls, n):\n        return cls(n)\n"
        "    @classmethod\n    def told(cls, n):\n        '''doc'''\n"
        "        return cls.bare(n, 2)\n"
        "    @classmethod\n    def checked(cls, n):\n"
        "        if n < 0:\n            raise ValueError(n)\n        return cls(n)\n"
        "    @classmethod\n    def other(cls, n):\n        return B(n)\n"
        "    @staticmethod\n    def static(n):\n        return A(n)\n"
        "    def plain(self, n):\n        return type(self)(n)\n"
    )
    assert one_call_constructors({"a.py": source}) == ["a.py:A.bare", "a.py:A.told"]


def test_no_classmethod_only_calls_its_class():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert one_call_constructors(sources) == []
