"""The solvers never differentiate a field.

The cubature tree flows fields and `euler_mc` takes its Stratonovich
correction from an Euler-Heun predictor, so `klv_solver.py` reads no
`.jacobian` attribute: a per-row Jacobian, one Python call per state, cannot
come back onto a solver path unnoticed. In `vector_fields.py` only
`bracket_field` reads one: a combination of fields carries no Jacobian of
its own. An AST scan, so comments and strings do not count.
"""
import ast
from pathlib import Path

SOURCES = Path(__file__).parents[1] / "src" / "wienercub"


def _reads(tree: ast.AST) -> list[ast.Attribute]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "jacobian"]


def jacobian_reads(source: str) -> list[int]:
    """Line of every `.jacobian` attribute access in source."""
    return [node.lineno for node in _reads(ast.parse(source))]


def jacobian_readers(source: str) -> set[str]:
    """Name of every top-level definition of source that reads `.jacobian`
    ('<module>' for a read outside any definition)."""
    return {getattr(top, "name", "<module>") for top in ast.parse(source).body
            if _reads(top)}


def test_scan_finds_a_jacobian_read():
    source = ("def drift(v, x):\n    # v.jacobian is not read here\n"
              "    j = v.jacobian\n    return j(x) @ getattr(v, 'jacobian_func')\n")
    assert jacobian_reads(source) == [3]
    source += ("class F:\n    def jacobian(self, x):\n        return x\n"
               "def flow(v):\n    return v.jacobian_func\nJ = F().jacobian\n")
    assert jacobian_readers(source) == {"drift", "<module>"}


def test_the_solvers_read_no_jacobian():
    assert jacobian_reads((SOURCES / "klv_solver.py").read_text()) == []


def test_only_bracket_field_reads_a_jacobian_in_vector_fields():
    assert jacobian_readers((SOURCES / "vector_fields.py").read_text()) == {"bracket_field"}
