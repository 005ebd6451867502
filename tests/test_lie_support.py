"""Lie support through the tree solvers' level step.

kusuoka_step is klv_full's one-level tree of Lie support; these tests hold
it to the per-point loop it replaced (gamma_field, an exact or RK4 flow of
each dilated element, math.fsum), and run Lie support through klv_full,
klv_sampled, klv_sweep and the CLI.
"""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from wienercub import cli
from wienercub.cubature import CubatureFormula, degree3, degree5_d1, lie_form, to_file
from wienercub.klv_solver import (
    Partition,
    SolverConfig,
    gamma_partition,
    klv_full,
    klv_sampled,
    klv_sweep,
    kusuoka_step,
)
from wienercub.lie_structures import certify
from wienercub.operator_calculus import MultiPoly
from wienercub.tensor_algebra import GradedTensor
from wienercub.vector_fields import (
    AffineField,
    FlowConfig,
    GenericField,
    VectorFieldSystem,
    combine_fields,
    flow_exp,
    gbm,
    nested_bracket_field,
)

# criterion 7's noncommuting affine pair, start point and cubic payoff
NC_SYSTEM = VectorFieldSystem((
    AffineField([[0.2, -0.4], [0.3, 0.1]], [0.1, -0.2]),
    AffineField([[0.0, 0.5], [-0.3, 0.2]], [0.4, 0.3]),
))
X_NC = np.array([0.7, -0.3])
CUBIC = MultiPoly(2, {(3, 0): 1.0, (0, 2): 0.5, (1, 1): -1.0})
EXACT = FlowConfig(substeps=1, exact_affine=True)


def generic_system():
    """dX = c(X)(0.1 dt + o dW), c(x) = sqrt(1 + x^2), as block callbacks."""
    c = lambda x: np.sqrt(1.0 + x * x)
    return VectorFieldSystem((GenericField(lambda x: 0.1 * c(x), 1), GenericField(c, 1)))


def per_point_step(formula, sys, f, x, s, cfg):
    """The per-point loop kusuoka_step ran before it became klv_full's
    one-level tree, with the field of each element built word by word."""
    root = math.sqrt(s)
    exact = replace(cfg, exact_affine=True)
    total = []
    for lam, poly in zip(formula.weights, formula.lie_polys):
        terms = [(c / len(w), nested_bracket_field(sys, w))
                 for w, c in poly.dilate(root).tensor.sorted_items()]
        fld = (combine_fields([v for _, v in terms], np.array([c for c, _ in terms]))
               if terms else AffineField.zero(sys.dimension))
        total.append(lam * float(f(flow_exp(fld, 1.0, x, exact))))
    return math.fsum(total)


LIE_FORMS = {
    "degree5_d1": lambda: lie_form(degree5_d1()),
    "degree5_d1_m7": lambda: lie_form(degree5_d1(), 7),
    "degree3": lambda: lie_form(degree3(1)),
}
CASES = {
    "criterion7": lambda: (NC_SYSTEM, lambda y: float(CUBIC(y)), X_NC, EXACT),
    "gbm": lambda: (gbm(0.05, 0.3), lambda y: float(y[0]), np.array([1.0]), EXACT),
    "generic": lambda: (generic_system(), lambda y: float(y[0] ** 2), np.array([0.4]),
                        FlowConfig(substeps=8)),
}


# generic fields take their brackets' Jacobians by nested finite
# differences, whose cost grows fast with the word length: no truncation 7
@pytest.mark.parametrize("form, case", [
    (form, case) for form in sorted(LIE_FORMS) for case in sorted(CASES)
    if (form, case) != ("degree5_d1_m7", "generic")])
def test_kusuoka_step_equals_the_per_point_loop_bit_for_bit(form, case):
    formula = LIE_FORMS[form]()
    sys, f, x, cfg = CASES[case]()
    for s in (0.4, 0.2, 0.1, 0.05):
        assert kusuoka_step(formula, sys, f, x, s, cfg) == per_point_step(
            formula, sys, f, x, s, cfg), s


def test_kusuoka_step_with_a_multipoly_payoff_is_within_two_ulp_of_the_loop():
    formula = lie_form(degree5_d1())
    for s in (0.4, 0.2, 0.1, 0.05):
        got = kusuoka_step(formula, NC_SYSTEM, CUBIC, X_NC, s, EXACT)
        want = per_point_step(formula, NC_SYSTEM, CUBIC, X_NC, s, EXACT)
        assert abs(got - want) <= 2 * math.ulp(want), s


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_level_lie_tree_is_kusuoka_step(case):
    sys, f, x, cfg = CASES[case]()
    formula = lie_form(degree5_d1())
    for s in (0.3, 0.05):
        tree = klv_full(formula, sys, f, x, Partition((0.0, s)), SolverConfig(flow=cfg))
        assert tree.value == kusuoka_step(formula, sys, f, x, s, cfg)
        assert tree.leaves_evaluated == formula.n_points


def test_lie_tree_equals_path_tree_when_fields_commute():
    # on gbm every bracket vanishes, so a log-signature flows its path exactly
    sys, f, x = gbm(0.05, 0.3), lambda y: float(y[0]), np.array([1.0])
    for k in range(2, 7):
        part = gamma_partition(1.0, k, 2.0)
        lie = klv_full(lie_form(degree5_d1()), sys, f, x, part).value
        path = klv_full(degree5_d1(), sys, f, x, part).value
        assert abs(lie - path) <= 1e-12, k


def test_lie_and_path_trees_differ_by_a_gap_that_shrinks_with_k():
    gaps = []
    for k in (2, 4, 8):
        part = gamma_partition(1.0, k, 4.0)
        lie = klv_full(lie_form(degree5_d1()), NC_SYSTEM, CUBIC, X_NC, part).value
        path = klv_full(degree5_d1(), NC_SYSTEM, CUBIC, X_NC, part).value
        gaps.append(abs(lie - path))
    assert 0.0 < gaps[2] < gaps[1] < gaps[0] < 1e-3, gaps


@pytest.mark.parametrize("case, form", [("criterion7", "degree5_d1"),
                                        ("generic", "degree3")])
def test_sweep_and_sampler_accept_lie_support(case, form):
    sys, f, x, cfg = CASES[case]()
    formula = LIE_FORMS[form]()
    solver = SolverConfig(flow=cfg)
    parts = [gamma_partition(1.0, k, 2.0) for k in (1, 2, 3)]
    full = klv_sweep(formula, sys, f, x, parts, solver)
    assert [r.value for r in full] == [
        klv_full(formula, sys, f, x, p, solver).value for p in parts]
    sampled = klv_sweep(formula, sys, f, x, parts, solver, n_samples=400, seed=3)
    for part, r in zip(parts, sampled):
        alone = klv_sampled(formula, sys, f, x, part, 400, 3, solver)
        assert (r.value, r.stderr) == (alone.value, alone.stderr)
    assert abs(sampled[-1].value - full[-1].value) < 5.0 * sampled[-1].stderr


def _with_zero_element(other):
    zero = certify(GradedTensor.zero(1, 5))
    return CubatureFormula(dimension=1, degree=1, weights=(0.25, 0.75),
                           lie_polys=(zero, other))


@pytest.mark.parametrize("case", ["gbm", "generic"])
def test_a_lie_element_with_no_words_flows_as_the_identity(case):
    sys, f, x, cfg = CASES[case]()
    only_zero = _with_zero_element(certify(GradedTensor.zero(1, 5)))
    assert kusuoka_step(only_zero, sys, f, x, 0.3, cfg) == f(x)
    assert klv_full(only_zero, sys, f, x, gamma_partition(1.0, 3, 2.0),
                    SolverConfig(flow=cfg)).value == f(x)
    # beside an element that does use words, the zero row is still exact
    mixed = _with_zero_element(lie_form(degree3(1)).lie_polys[0])
    assert kusuoka_step(mixed, sys, f, x, 0.3, cfg) == per_point_step(
        mixed, sys, f, x, 0.3, cfg)


def test_cli_solves_a_lie_support_formula_file(tmp_path, capsys):
    formula_path = tmp_path / "lie.json"
    to_file(lie_form(degree5_d1()), str(formula_path))
    config = {
        "system": {"name": "gbm", "mu": 0.05, "sigma": 0.3},
        "x0": [1.0], "T": 1.0,
        "cubature": {"file": str(formula_path)},
        "partition": {"gamma": 2.0, "k": 4},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["solve", "--config", str(config_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    path = klv_full(degree5_d1(), gbm(0.05, 0.3), lambda y: float(y[0]),
                    np.array([1.0]), gamma_partition(1.0, 4, 2.0)).value
    assert out["leaves"] == 3**4 and abs(out["value"] - path) <= 1e-12
