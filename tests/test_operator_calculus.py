import math
from itertools import product

import numpy as np
import pytest

from wienercub.tensor_algebra import GradedTensor, exp
from wienercub.lie_structures import bracket, certify
from wienercub.path_signature import PiecewiseLinearPath, signature
from wienercub.vector_fields import (
    AffineField,
    GenericField,
    VectorFieldSystem,
    FlowConfig,
    bracket_field,
    flow_along_path,
)
from wienercub.operator_calculus import (
    MultiPoly,
    lie_derivative,
    monomial_program,
    word_operator,
    taylor_operator,
    flow_tensor_gap,
    remainder_box_bound,
)


def test_multipoly_terms_and_values():
    f = MultiPoly(2, {(2, 1): 1.0, (0, 1): -2.0, (1, 0): 0.0})  # x^2 y - 2 y
    assert f.coeff((2, 1)) == 1.0
    assert f.coeff((0, 1)) == -2.0
    assert f.coeff((1, 0)) == 0.0 and len(f) == 2
    assert f(np.array([3.0, 0.5])) == pytest.approx(9 * 0.5 - 1.0)
    assert f.degree == 3
    assert MultiPoly(2, {(4.0, 0): 1.5}).coeff((4, 0)) == 1.5
    assert MultiPoly.coordinate(2, 1).max_coeff_difference(MultiPoly(2, {(0, 1): 1.0})) == 0.0
    assert MultiPoly.constant(2, 5.0).coeff((0, 0)) == 5.0
    assert MultiPoly.constant(2, 0.0).max_coeff_difference(MultiPoly(2)) == 0.0
    assert f.max_coeff_difference(MultiPoly(2, {(2, 1): 1.0})) == 2.0


@pytest.mark.parametrize("exps", [(1.5, 0), (-1, 0), (float("inf"), 0), ("1", 0), (1,),
                                  (True, 0), (0, False)])
def test_multipoly_refuses_an_exponent_that_is_not_a_nonnegative_integer(exps):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MultiPoly(2, {exps: 1.0})


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
def test_multipoly_refuses_a_coefficient_that_is_not_finite(c):
    with pytest.raises(ValueError, match=r"coefficient of \(1, 0\) is not finite"):
        MultiPoly(2, {(1, 0): c})


@pytest.mark.parametrize("poly", [
    MultiPoly(3),
    MultiPoly.constant(3, -2.5),
    MultiPoly(3, {(3, 0, 0): 1.5, (1, 1, 1): -2.0, (0, 2, 1): 0.75,
                  (0, 0, 2): -0.3, (1, 0, 0): 4.0, (0, 0, 0): 0.2}),
])
def test_multipoly_block_matches_point_evaluation(poly):
    # a block is summed term by term, a point exactly: they may differ only
    # by rounding, at most 8 ulp of the sum of the absolute terms
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (500, 3))
    block = poly(pts)
    assert block.shape == (500,)
    for row, got in zip(pts, block):
        size = math.fsum(abs(c * math.prod(row**np.array(e)))
                         for e, c in poly.items())
        assert abs(got - poly(row)) <= 8 * math.ulp(size)
    # a row's value does not depend on the block it sits in
    assert np.array_equal(np.concatenate([poly(pts[:7]), poly(pts[7:])]), block)


def test_multipoly_block_does_not_depend_on_its_memory_layout():
    poly = MultiPoly(3, {(3, 0, 0): 1.5, (1, 1, 1): -2.0, (0, 2, 1): 0.75,
                         (0, 0, 0): 0.2})
    strided = np.random.default_rng(8).uniform(-2.0, 2.0, (400, 7))[::2, 1::2]
    assert strided.shape == (200, 3) and not strided.flags.c_contiguous
    block = poly(np.ascontiguousarray(strided))
    assert np.array_equal(poly(strided), block)
    assert np.array_equal(poly(np.asfortranarray(strided)), block)


def test_multipoly_rejects_a_block_of_the_wrong_width():
    poly = MultiPoly(2, {(1, 2): 1.0})
    with pytest.raises(ValueError, match=r"\(P, 2\)"):
        poly(np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"\(2,\)"):
        poly(np.zeros(3))


def test_lie_derivative_by_hand():
    # V(x, y) = (y, -x), f = x^2 + y^2 is invariant under the rotation
    v = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])
    f = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert lie_derivative(v, f).max_coeff_difference(MultiPoly(2)) == 0.0
    # and a generic check: V = (x + 1) d/dx applied to x^2 gives 2x^2 + 2x
    w = AffineField([[1.0]], [1.0])
    g = lie_derivative(w, MultiPoly(1, {(2,): 1.0}))
    assert g.coeff((2,)) == 2.0 and g.coeff((1,)) == 2.0


def test_word_operator_applies_rightmost_letter_first(noncommuting_system):
    f = MultiPoly(2, {(1, 0): 1.0})
    v0, v1 = noncommuting_system.fields
    direct = lie_derivative(v0, lie_derivative(v1, f))
    assert word_operator((0, 1), noncommuting_system, f).max_coeff_difference(
        direct
    ) < 1e-15
    other = lie_derivative(v1, lie_derivative(v0, f))
    assert word_operator((1, 0), noncommuting_system, f).max_coeff_difference(
        other
    ) < 1e-15
    # the two orders genuinely differ on this system
    assert direct.max_coeff_difference(other) > 1e-3


def test_operator_commutator_matches_bracket_field(noncommuting_system, cubic_payoff):
    # L_i L_j - L_j L_i is the first-order operator of the field bracket
    v0, v1 = noncommuting_system.fields
    e0, e1 = GradedTensor.basis(1, 3, (0,)), GradedTensor.basis(1, 3, (1,))
    lhs = taylor_operator(bracket(e0, e1), noncommuting_system, cubic_payoff)
    rhs = lie_derivative(bracket_field(v0, v1), cubic_payoff)
    assert lhs.max_coeff_difference(rhs) < 1e-15


def test_word_operator_requires_affine_system():
    sys = VectorFieldSystem(
        (AffineField([[0.0]], [1.0]), GenericField(lambda x: x**2, 1))
    )
    with pytest.raises(TypeError):
        word_operator((1,), sys, MultiPoly(1, {(1,): 1.0}))


def test_taylor_operator_reproduces_exponential_series():
    # system V0 = 0, V1 = d/dx; exp(t e1) as operator shifts by t, so on
    # f = x^2 the truncated series gives (x + t)^2 exactly once the degree
    # covers it
    sys = VectorFieldSystem(
        (AffineField([[0.0]], [0.0]), AffineField([[0.0]], [1.0]))
    )
    t = 0.3
    w = exp(GradedTensor.basis(1, 3, (1,), t))
    f = MultiPoly(1, {(2,): 1.0})
    shifted = taylor_operator(w, sys, f)
    expected = MultiPoly(1, {(2,): 1.0, (1,): 2 * t, (0,): t**2})
    assert shifted.max_coeff_difference(expected) < 1e-15


def test_signature_pairing_matches_path_flow(noncommuting_system, cubic_payoff, x_start):
    # pairing identity: f(flow along path) = sum_w S(w) (word operator f)(x)
    # up to the truncation remainder; on this short path the measured gap at
    # truncation 10 is 5.9e-9, so 1e-7 leaves an order of magnitude of slack
    path = PiecewiseLinearPath.from_increments([(0.05, (0.0625,)), (0.075, (-0.0375,))])
    s = signature(path, 10)
    total = math.fsum(c * word_operator(w, noncommuting_system, cubic_payoff)(x_start)
                      for w, c in s.items())
    flowed = flow_along_path(
        path, noncommuting_system, x_start, FlowConfig(substeps=1, exact_affine=True)
    )
    assert total == pytest.approx(float(cubic_payoff(flowed)), abs=1e-7)


def test_flow_tensor_gap_shrinks_with_scale(noncommuting_system, cubic_payoff, x_start):
    lie = certify(
        GradedTensor.basis(1, 3, (1,))
        + bracket(GradedTensor.basis(1, 3, (0,)), GradedTensor.basis(1, 3, (1,))).scale(0.6)
    )
    g_large = flow_tensor_gap(lie, noncommuting_system, cubic_payoff, x_start, 0.4)
    g_small = flow_tensor_gap(lie, noncommuting_system, cubic_payoff, x_start, 0.05)
    assert 0.0 < g_small < g_large
    # a factor-8 scale drop at order (m+1)/2 = 2 cuts the gap by >= 30x
    assert g_large / g_small > 30.0


def test_remainder_bound_dominates_gap(noncommuting_system, cubic_payoff, x_start):
    lie = certify(
        GradedTensor.basis(1, 3, (1,))
        + bracket(GradedTensor.basis(1, 3, (0,)), GradedTensor.basis(1, 3, (1,))).scale(0.6)
    )
    s = 0.05
    gap = flow_tensor_gap(lie, noncommuting_system, cubic_payoff, x_start, s)
    bound = remainder_box_bound(lie, noncommuting_system, cubic_payoff, s)
    assert gap <= bound


def dict_lie_derivative(v, terms):
    """The dict Lie derivative the matrices replaced, kept as their oracle:
    sum_j V^j df/dx_j with V^j(x) = sum_k M_jk x_k + c_j, expanded term by
    term over exponent dicts."""
    out = {}
    for e, c in terms.items():
        for j in range(v.dimension):
            if e[j] == 0:
                continue
            down = e[:j] + (e[j] - 1,) + e[j + 1:]
            factors = [(down[:k] + (down[k] + 1,) + down[k + 1:], v.matrix[j, k])
                       for k in range(v.dimension)] + [(down, v.offset[j])]
            for target, a in factors:
                out[target] = out.get(target, 0.0) + a * c * e[j]
    return out


def assert_matches_reference(poly, reference):
    scale = max((abs(c) for c in reference.values()), default=0.0)
    for e in set(reference) | {e for e, _ in poly.items()}:
        assert abs(poly.coeff(e) - reference.get(e, 0.0)) <= 1e-13 * scale, e


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_matrix_operators_match_the_dict_reference(n, p):
    rng = np.random.default_rng(10 * n + p)
    program = monomial_program(n, p)
    assert len(program.monomials) == math.comb(n + p, p)
    # shift[i] raises every monomial below degree p and drops those of degree p
    for k, e in enumerate(program.monomials):
        for i in range(n):
            up = e[:i] + (e[i] + 1,) + e[i + 1:]
            column = np.zeros(len(program.monomials))
            if sum(e) < p:
                column[program.index[up]] = 1.0
            assert np.array_equal(program.shift[i][:, k], column)
    d = int(rng.integers(1, 3))
    sys = VectorFieldSystem(tuple(AffineField(rng.normal(size=(n, n)), rng.normal(size=n))
                                  for _ in range(d + 1)))
    terms = {e: float(rng.normal()) for e in program.monomials if rng.random() < 0.7}
    terms[program.monomials[-1]] = 1.0  # f has degree p
    f = MultiPoly(n, terms)
    for v in sys.fields:
        assert_matches_reference(lie_derivative(v, f), dict_lie_derivative(v, terms))
    words = [w for length in range(1, 5) for w in product(range(d + 1), repeat=length)]
    reference = {(): terms}
    for w in words:  # shorter words first, so every tail is known
        reference[w] = dict_lie_derivative(sys.fields[w[0]], reference[w[1:]])
        assert_matches_reference(word_operator(w, sys, f), reference[w])
    lie = certify(GradedTensor(d, 4, {(a,): float(rng.normal()) for a in range(1, d + 1)})
                  + bracket(GradedTensor.basis(d, 4, (0,)), GradedTensor.basis(d, 4, (d,)))
                  .scale(float(rng.normal())))
    g = exp(lie.tensor)
    expected = {}
    for w, c in g.items():
        for e, a in reference[w].items():
            expected[e] = expected.get(e, 0.0) + c * a
    assert_matches_reference(taylor_operator(g, sys, f), expected)
