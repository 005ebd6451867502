"""The solvers never differentiate a field.

The cubature tree flows fields and `euler_mc` takes its Stratonovich
correction from an Euler-Heun predictor, so `klv_solver.py` reads no
`.jacobian` attribute: a per-row Jacobian, one Python call per state, cannot
come back onto a solver path unnoticed. An AST scan, so comments and strings
do not count.
"""
import ast
from pathlib import Path

SOLVER = Path(__file__).parents[1] / "src" / "wienercub" / "klv_solver.py"


def jacobian_reads(source: str) -> list[int]:
    """Line of every `.jacobian` attribute access in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "jacobian"]


def test_scan_finds_a_jacobian_read():
    source = ("def drift(v, x):\n    # v.jacobian is not read here\n"
              "    j = v.jacobian\n    return j(x) @ getattr(v, 'jacobian_func')\n")
    assert jacobian_reads(source) == [3]


def test_the_solvers_read_no_jacobian():
    assert jacobian_reads(SOLVER.read_text()) == []
