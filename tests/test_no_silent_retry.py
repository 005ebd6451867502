"""A flow divergence is never swallowed on its way out of the library.

An AST scan over all modules of `src/wienercub`: every `except` handler that
can catch a FlowDivergence (one that names it or a base class of it, or a
bare `except:`) must end in `raise`, so that a retry or a fallback cannot
return a value silently. Only `cli.main` may turn the error into its one
`error:` line.
"""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "wienercub").glob("*.py"))

CATCHES_DIVERGENCE = {"FlowDivergence", "RuntimeError", "Exception", "BaseException"}

ALLOWED = {"cli.py:main"}


def _names(node) -> set[str]:
    if node is None:  # a bare except
        return {"BaseException"}
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def silent_handlers(sources: dict[str, str]) -> list[str]:
    """'file:function:line' of every handler that can catch a FlowDivergence
    and does not end in `raise`."""
    found = []

    def visit(node, where, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.ExceptHandler)
                and _names(node.type) & CATCHES_DIVERGENCE
                and f"{where}:{scope}" not in ALLOWED
                and not isinstance(node.body[-1], ast.Raise)):
            found.append(f"{where}:{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, scope)

    for where, source in sources.items():
        visit(ast.parse(source), where, "")
    return found


def test_scan_finds_a_retry_that_swallows_the_divergence():
    sources = {"a.py": (
        "def along(y):\n"
        "    try:\n"
        "        try:\n"
        "            y = flow(y)\n"
        "        except FlowDivergence:\n"
        "            y = reflow(y)\n"
        "    except FlowDivergence as exc:\n"
        "        raise FlowDivergence(str(exc)) from exc\n"
        "    try:\n"
        "        y = flow(y)\n"
        "    except (ValueError, vector_fields.FlowDivergence):\n"
        "        pass\n"
        "    try:\n"
        "        y = flow(y)\n"
        "    except:\n"
        "        y = None\n"
        "    try:\n"
        "        y = flow(y)\n"
        "    except KeyError:\n"
        "        y = None\n"
        "    return y\n")}
    assert silent_handlers(sources) == ["a.py:along:5", "a.py:along:11", "a.py:along:15"]


def test_every_handler_that_can_catch_a_divergence_raises():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert silent_handlers(sources) == []
