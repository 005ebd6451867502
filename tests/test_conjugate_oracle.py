"""An exact oracle for solves on generic fields, by conjugation.

Stratonovich calculus obeys the chain rule: if Y solves an affine system and
phi is a diffeomorphism, X = phi(Y) solves the system of the pushed fields
V_i(x) = Dphi(phi^-1 x) A_i(phi^-1 x) (Doss 1977, Sussmann 1978). Every flow
along a path commutes with phi, so the cubature tree of f = g o phi^-1 on X
equals the tree of g on Y node by node, up to the RK4 error of the generic
flows; the sampled tree draws the same branches from the same seed. Here phi
is sinh componentwise, Dphi(y) = cosh y = sqrt(1 + x^2). Brackets of pushed
fields are the pushed brackets, so the same holds for Lie support.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

import wienercub
from wienercub import (
    AffineField,
    FlowConfig,
    GenericField,
    MultiPoly,
    SolverConfig,
    VectorFieldSystem,
    degree3,
    degree5_d1,
    flow_along_path,
    gamma_partition,
    klv_full,
    klv_sampled,
    lie_form,
    rescale,
)

from conftest import A0, A1, B0, B1, X_START

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from workloads import generator_oracle  # noqa: E402

FINE = FlowConfig(substeps=256)
RTOL = 1e-11


def pushed_by_sinh(sys: VectorFieldSystem, g: MultiPoly):
    """The generic system whose fields are sys's pushed through sinh, and the
    payoff g o asinh, called one state at a time."""
    fields = tuple(
        GenericField(lambda x, v=v: np.sqrt(1.0 + x * x) * v(np.arcsinh(x)), sys.dimension)
        for v in sys.fields)
    return VectorFieldSystem(fields), (lambda x: g(np.arcsinh(x)))


CASES = {
    # N: (affine system with one control, polynomial payoff g, start y0)
    1: (VectorFieldSystem((AffineField([[0.1]], [0.05]), AffineField([[0.3]], [0.2]))),
        MultiPoly(1, {(3,): 1.0, (1,): -0.5, (0,): 1.0}), np.array([0.4])),
    2: (VectorFieldSystem((AffineField(A0, B0), AffineField(A1, B1))),
        MultiPoly(2, {(3, 0): 1.0, (0, 2): 0.5, (1, 1): -1.0}), np.array(X_START)),
}


def _close(got, want):
    assert abs(got - want) <= RTOL * abs(want), (got, want)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("formula", [degree3(1), degree5_d1()],
                         ids=["degree3_1", "degree5_d1"])
@pytest.mark.parametrize("n", sorted(CASES))
def test_trees_on_a_pushed_system_equal_the_affine_trees(n, formula, k):
    affine, g, y0 = CASES[n]
    pushed, f = pushed_by_sinh(affine, g)
    x0, part = np.sinh(y0), gamma_partition(1.0, k, 2.0)
    fine = SolverConfig(flow=FINE)
    _close(klv_full(formula, pushed, f, x0, part, fine).value,
           klv_full(formula, affine, g, y0, part).value)
    got = klv_sampled(formula, pushed, f, x0, part, 500, 7, fine)
    want = klv_sampled(formula, affine, g, y0, part, 500, 7)
    _close(got.value, want.value)
    assert got.diagnostics["nodes_per_level"] == want.diagnostics["nodes_per_level"]


@pytest.mark.parametrize("formula", [degree3(1), degree5_d1()],
                         ids=["degree3_1", "degree5_d1"])
@pytest.mark.parametrize("n", sorted(CASES))
def test_flows_along_paths_commute_with_sinh(n, formula):
    # the support of the first level of a k = 2 tree: at horizon 1, 256 RK4
    # substeps leave up to 6.5e-11 of flow error on the bent degree-5 paths
    affine, g, y0 = CASES[n]
    pushed, _ = pushed_by_sinh(affine, g)
    states = y0 + np.random.default_rng(n).uniform(-0.5, 0.5, (5, n))
    for path in rescale(formula, 0.5).paths:
        got = flow_along_path(path, pushed, np.sinh(states), FINE)
        want = np.sinh(flow_along_path(path, affine, states))
        # relative to each state's largest entry: a component may pass near 0
        gap = np.abs(got - want).max(axis=1)
        assert np.all(gap <= RTOL * np.abs(want).max(axis=1)), (got, want)


# (N, Lie-support formula, k): at 64 RK4 substeps the worst gap is 3.6e-10
# relative; truncation 5 costs about 2 s a level, so it runs at k = 1 only
LIE_CASES = [(1, "degree5_d1 m=3", k) for k in (1, 2, 4)] + [(1, "degree5_d1 m=5", 1)] + [
    (2, "degree3_1 m=3", k) for k in (1, 2)]
LIE_FORMULAS = {"degree5_d1 m=3": lambda: lie_form(degree5_d1(), 3),
                "degree5_d1 m=5": lambda: lie_form(degree5_d1(), 5),
                "degree3_1 m=3": lambda: lie_form(degree3(1), 3)}


def _lie_trees(n, name, k, cfg):
    """The uniform k-level tree of Lie support on CASES[n], pushed (with
    cfg) and affine, and the exact value P_T g of the affine model."""
    affine, g, y0 = CASES[n]
    pushed, f = pushed_by_sinh(affine, g)
    formula, part = LIE_FORMULAS[name](), gamma_partition(1.0, k, 1.0)
    return (klv_full(formula, pushed, f, np.sinh(y0), part, cfg).value,
            klv_full(formula, affine, g, y0, part).value,
            generator_oracle(wienercub, affine, g, y0, 1.0))


@pytest.mark.parametrize("n, name, k", LIE_CASES)
def test_lie_support_trees_on_a_pushed_system_equal_the_affine_trees(n, name, k):
    got, want, _ = _lie_trees(n, name, k, SolverConfig(flow=FlowConfig(substeps=64)))
    assert abs(got - want) <= 1e-8 * abs(want), (got, want)


@pytest.mark.parametrize("n, name, k", LIE_CASES)
def test_the_default_flow_error_of_lie_support_is_under_1pct_of_its_scheme_error(n, name, k):
    # measured: at most 0.02%
    got, want, exact = _lie_trees(n, name, k, SolverConfig())
    assert abs(got - want) <= 0.01 * abs(want - exact), (got, want, exact)
