import ast
import inspect
import math
import re

import numpy as np
import pytest

from wienercub.cubature import degree3, degree5_d1, rescale
from wienercub.tensor_algebra import GradedTensor
from wienercub.lie_structures import bracket, certify
from wienercub.path_signature import PiecewiseLinearPath, log_signature
from wienercub.vector_fields import (
    AffineField,
    GenericField,
    VectorFieldSystem,
    FlowConfig,
    FlowDivergence,
    bracket_field,
    combine_fields,
    gbm,
    ou,
    affine_from_file,
    nested_bracket_field,
    gamma_field,
    affine_flow_exact,
    expm,
    flow_exp,
    flow_along_path,
    _affine_map,
    _LevelStep,
)


def test_affine_field_evaluation_and_batching():
    v = AffineField([[1.0, 2.0], [0.0, -1.0]], [0.5, 0.0])
    np.testing.assert_allclose(v(np.array([1.0, 1.0])), [3.5, -1.0])
    batch = v(np.array([[1.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(batch, [[3.5, -1.0], [0.5, 0.0]])
    np.testing.assert_allclose(v.jacobian(np.zeros(2)), [[1.0, 2.0], [0.0, -1.0]])


def test_affine_field_rejects_non_finite_entries():
    for matrix, offset in (([[math.inf]], [0.0]), ([[0.0]], [math.nan]),
                           ([[1.0, -math.inf], [0.0, 1.0]], [0.0, 0.0])):
        with pytest.raises(ValueError, match="must be finite"):
            AffineField(matrix, offset)


def test_an_affine_field_keeps_read_only_copies_of_its_arrays():
    a, b = np.array([[0.5]]), np.array([0.25])
    g = AffineField(a, b)
    a[0, 0], b[0] = 9.0, 9.0
    assert g.matrix.tolist() == [[0.5]] and g.offset.tolist() == [0.25]
    h = AffineField([[0.2, 0.1], [0.0, -0.3]], [0.1, 0.4])
    fields = {"AffineField": g, "combine_fields": combine_fields([g, g], [0.5, 2.0]),
              "bracket_field": bracket_field(h, AffineField(h.matrix.T, h.offset))}
    for name, field in fields.items():
        assert isinstance(field, AffineField), name
        for arr in (field.matrix, field.offset):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0


def test_affine_bracket_by_hand():
    # [V, W](x) = JW V - JV W = (BA - AB) x + (B a - A b)
    a, av = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0])
    b, bv = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 2.0])
    lie = bracket_field(AffineField(a, av), AffineField(b, bv))
    assert isinstance(lie, AffineField)
    np.testing.assert_allclose(lie.matrix, b @ a - a @ b)
    np.testing.assert_allclose(lie.offset, b @ av - a @ bv)


def test_generic_bracket_matches_affine():
    a = AffineField([[0.2, -0.4], [0.3, 0.1]], [0.1, -0.2])
    b = AffineField([[0.0, 0.5], [-0.3, 0.2]], [0.4, 0.3])
    ga = GenericField(a, 2)
    gb = GenericField(b, 2)
    exact = bracket_field(a, b)
    approx = bracket_field(ga, gb)
    assert isinstance(approx, GenericField)
    for x in (np.zeros(2), np.array([0.7, -0.3]), np.array([-1.2, 0.4])):
        np.testing.assert_allclose(approx(x), exact(x), atol=1e-7)


def test_generic_jacobian_finite_differences():
    cube = GenericField(lambda x: np.array([x[0] ** 3, x[0] * x[1]]), 2)
    x = np.array([0.8, -0.5])
    expected = np.array([[3 * 0.8**2, 0.0], [-0.5, 0.8]])
    np.testing.assert_allclose(cube.jacobian(x), expected, atol=1e-9)


def _cube(x):
    return np.stack([x[..., 0] ** 3, x[..., 0] * x[..., 1]], axis=-1)


def test_block_finite_difference_jacobian_rows_equal_point_jacobians():
    block = np.array([[0.8, -0.5], [-1.3, 2.0], [0.0, 0.25]])
    default, coarse = GenericField(_cube, 2), GenericField(_cube, 2, fd_step=1e-3)
    for field in (default, coarse):
        jac = field.jacobian(block)
        assert jac.shape == (3, 2, 2)
        for row, x in zip(jac, block):
            assert np.array_equal(row, field.jacobian(x))
    assert not np.array_equal(coarse.jacobian(block), default.jacobian(block))
    bracket = bracket_field(GenericField(np.sin, 2), GenericField(_cube, 2))
    values = bracket(block)
    for row, x in zip(values, block):
        assert np.array_equal(row, bracket(x))


def test_jacobian_func_is_called_once_per_row():
    calls = []

    def jac(x):
        calls.append(x.shape)
        return np.array([[3 * x[0] ** 2, 0.0], [x[1], x[0]]])

    field = GenericField(_cube, 2, jacobian_func=jac)
    block = np.array([[0.8, -0.5], [-1.3, 2.0], [0.0, 0.25], [1.0, 1.0]])
    got = field.jacobian(block)
    assert calls == [(2,)] * 4
    np.testing.assert_array_equal(got, np.stack([jac(x) for x in block]))


def test_combine_fields_with_one_coefficient_row_per_state():
    def never(x):
        raise AssertionError("a field with zero coefficients was called")

    fields = [GenericField(np.sin, 1), AffineField([[2.0]], [1.0]),
              GenericField(never, 1)]
    coefficients = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    block = np.array([[0.3], [-0.7], [1.1]])
    v = combine_fields(fields, coefficients)
    np.testing.assert_allclose(
        v(block), [[math.sin(0.3) + 0.5 * 1.6], [0.0], [2.0 * 3.2]], rtol=1e-15)
    assert np.array_equal(v(block)[1], [0.0])
    np.testing.assert_allclose(
        v.jacobian(block), [[[math.cos(0.3) + 1.0]], [[0.0]], [[4.0]]], rtol=1e-9)


def test_a_zero_coefficient_adds_exactly_zero_where_its_field_is_nan():
    # 0 * nan is nan: row 1 must still be the sum of its other terms, bit
    # for bit, and row 2 (one nonzero coefficient) that term alone
    def nan_on_row_1(x):
        out = np.ones_like(x)
        out[1] = np.nan
        return out

    fields = [GenericField(np.sin, 1), GenericField(nan_on_row_1, 1),
              AffineField([[2.0]], [1.0])]
    coefficients = np.array([[0.3, 1.5, -0.25], [0.7, 0.0, 0.4], [0.0, 2.0, 0.0]])
    block = np.array([[0.3], [-0.7], [1.1]])
    got = combine_fields(fields, coefficients)(block)
    row = block[1:2]
    assert np.array_equal(got[1:2], 0.7 * fields[0](row) + 0.4 * fields[2](row))
    assert np.array_equal(got[2], [2.0])
    assert np.isfinite(got).all()


def test_combine_fields_affine_stays_affine():
    sys = gbm(0.05, 0.3)
    combined = sys.combine(np.array([0.5, 2.0]))
    assert isinstance(combined, AffineField)
    # 0.5 * (0.05 x) + 2.0 * (0.3 x) = 0.625 x
    np.testing.assert_allclose(combined(np.array([1.0])), [0.625])


@pytest.mark.parametrize("coefficients", [[1.0, 2.0, 5.0], [1.0], [[1.0, 2.0, 5.0]] * 3,
                                          [[1.0]] * 3, 1.0, [[[1.0, 2.0]]]])
@pytest.mark.parametrize("kind", ["affine", "generic"])
def test_combine_fields_refuses_a_wrong_coefficient_count(coefficients, kind):
    fields = gbm(0.1, 0.2).fields
    if kind == "generic":
        fields = tuple(GenericField(f, 1) for f in fields)
    shape = np.shape(coefficients)
    with pytest.raises(ValueError, match=re.escape(f"need 2 coefficients, got shape {shape}")):
        combine_fields(fields, coefficients)


def test_combine_fields_affine_sum_is_the_zero_skipping_sum():
    # the sum before the augmented matrices, which skipped zero coefficients:
    # ±0 products of finite entries add no bit to it
    rng = np.random.default_rng(4)
    fields = [AffineField(rng.normal(size=(3, 3)), rng.normal(size=3)) for _ in range(4)]
    for c in ([0.0, -0.7, 0.0, 1.3], [-0.0, 2.5, 0.1, 0.0], [0.0] * 4, [0.3, -1.1, 4.0, -2.0]):
        a, b = np.zeros((3, 3)), np.zeros(3)
        for cj, f in zip(c, fields):
            if cj != 0.0:
                a += cj * f.matrix
                b += cj * f.offset
        combined = combine_fields(fields, np.array(c))
        assert isinstance(combined, AffineField)
        assert combined.matrix.tobytes() == a.tobytes()
        assert combined.offset.tobytes() == b.tobytes()


def test_system_properties():
    sys = ou(0.8, 0.2)
    assert sys.dimension == 1 and sys.n_controls == 1 and sys.is_affine
    with pytest.raises(ValueError):
        VectorFieldSystem((AffineField([[0.0]], [1.0]),))  # needs drift + noise
    mixed = VectorFieldSystem(
        (AffineField([[0.0]], [1.0]), GenericField(lambda x: x**2, 1))
    )
    assert not mixed.is_affine


def test_affine_from_file_roundtrip(tmp_path, noncommuting_system):
    import json

    target = tmp_path / "system.json"
    target.write_text(
        json.dumps(
            {
                "fields": [
                    {"matrix": f.matrix.tolist(), "offset": f.offset.tolist()}
                    for f in noncommuting_system.fields
                ]
            }
        )
    )
    sys = affine_from_file(str(target))
    assert sys.dimension == 2 and sys.n_controls == 1
    x = np.array([0.3, 0.9])
    for mine, theirs in zip(sys.fields, noncommuting_system.fields):
        np.testing.assert_allclose(mine(x), theirs(x))


def test_scalar_affine_flow_closed_form():
    # dx/dt = a x + b has flow x e^{at} + b (e^{at} - 1) / a
    a, b, t, x = 0.3, -0.2, 0.7, 1.1
    v = AffineField([[a]], [b])
    expected = x * math.exp(a * t) + b * (math.exp(a * t) - 1.0) / a
    np.testing.assert_allclose(affine_flow_exact(v, t, np.array([x])), [expected])
    got = flow_exp(v, t, np.array([x]), FlowConfig(substeps=128))
    np.testing.assert_allclose(got, [expected], atol=1e-12)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("flow", [
    affine_flow_exact, flow_exp,
    lambda v, t, x: flow_exp(v, t, x, FlowConfig(exact_affine=True))])
def test_flows_refuse_a_time_that_is_not_finite(flow, t):
    with pytest.raises(ValueError, match="flow time must be finite"):
        flow(AffineField([[0.3]], [-0.2]), t, np.array([1.1]))


@pytest.mark.parametrize("sigma", [1e-3, 0.1, 1.0, 5.0])
def test_expm_matches_mpmath_on_augmented_stacks(sigma):
    mpmath = pytest.importorskip("mpmath")
    # augmented matrices of 2-D affine fields: the last row stays zero
    stack = np.zeros((16, 3, 3))
    stack[:, :2, :] = np.random.default_rng(5).normal(0.0, sigma, (16, 2, 3))
    got = expm(stack)
    with mpmath.workdps(40):
        for a, e in zip(stack, got):
            ref = mpmath.expm(mpmath.matrix(a.tolist()))
            err = mpmath.mnorm(ref - mpmath.matrix(e.tolist()), 1)
            assert err <= 1e-14 * mpmath.mnorm(ref, 1), (sigma, a)


def test_expm_of_zero_is_the_identity_and_keeps_the_shape():
    assert (expm(np.zeros((2, 4, 3, 3))) == np.eye(3)).all()
    assert expm(np.zeros((2, 4, 3, 3))).shape == (2, 4, 3, 3)
    assert (expm(np.zeros((2, 2))) == np.eye(2)).all()
    # an overflowed matrix stays non-finite, so a flow reports divergence
    assert not np.isfinite(expm(np.array([[[math.inf]], [[math.nan]]]))).any()
    # a one-matrix call and a stacked call agree with the scalar exponential
    assert expm(np.array([[0.3]]))[0, 0] == pytest.approx(math.exp(0.3), rel=1e-15)
    np.testing.assert_allclose(expm(np.array([[[-40.0]], [[2.5]]]))[:, 0, 0],
                               [math.exp(-40.0), math.exp(2.5)], rtol=1e-14)


def test_flow_exp_exact_affine_toggle():
    v = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])  # rotation
    x = np.array([1.0, 0.0])
    exact = flow_exp(v, math.pi / 2, x, FlowConfig(substeps=1, exact_affine=True))
    np.testing.assert_allclose(exact, [0.0, -1.0], atol=1e-14)


def test_flow_exp_negative_time_inverts():
    v = AffineField([[0.4, -0.1], [0.2, 0.3]], [0.1, -0.2])
    x = np.array([0.5, 1.5])
    cfg = FlowConfig(substeps=64)
    back = flow_exp(v, -1.0, flow_exp(v, 1.0, x, cfg), cfg)
    np.testing.assert_allclose(back, x, atol=1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_flow_divergence_detected():
    blowup = GenericField(lambda x: x**2, 1)
    with pytest.raises(FlowDivergence) as err:
        flow_exp(blowup, 5.0, np.array([3.0]), FlowConfig(substeps=8))
    assert err.value.substep is not None


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_a_diverging_path_names_its_first_non_finite_segment():
    def path(*w):
        return PiecewiseLinearPath((0.0, 0.25, 0.5, 1.0), tuple((v,) for v in w))

    # x e^w: along w = 0, 300, 700, 700 only x = 1e5 overflows, on segment 2;
    # along w = 0, 400, 800, 0 the composed map e^-800 e^800 is inf * 0, so
    # even x = 0 fails, though it stays finite on every segment, and the
    # path's last segment is named
    for w, x, row, segment in (((0, 300, 700, 700), [[0.5], [1e5], [1.0]], 1, 2),
                               ((0, 300, 700, 700), [1e5], 0, 2),
                               ((0, 400, 800, 0), [[0.0], [1.0]], 0, 3)):
        with pytest.raises(FlowDivergence, match=f"segment {segment}/3") as err:
            flow_along_path(path(*w), gbm(0.0, 1.0), np.array(x))
        assert (err.value.segment, err.value.row) == (segment, row)


def test_flow_along_path_gbm_closed_form():
    # for commuting linear fields the path flow is x exp(mu T + sigma x_T)
    sys = gbm(0.07, 0.25)
    path = PiecewiseLinearPath.from_increments([(0.5, (0.3,)), (0.5, (-0.8,))])
    got = flow_along_path(path, sys, np.array([2.0]), FlowConfig(substeps=64))
    expected = 2.0 * math.exp(0.07 * 1.0 + 0.25 * (-0.5))
    np.testing.assert_allclose(got, [expected], atol=1e-10)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per_row"])
def test_affine_map_is_the_row_sum_bit_for_bit(n, per_row):
    # numpy sums fewer than 8 terms of a row left to right, which is the
    # column-by-column order of _affine_map
    rng = np.random.default_rng(n)
    p = 33
    m = rng.standard_normal((p, n, n) if per_row else (n, n))
    b = rng.standard_normal((p, n) if per_row else n)
    x = rng.standard_normal((p, n)) * 10.0 ** rng.integers(-6, 7, (p, n))
    assert np.array_equal(_affine_map(m, b, x), (x[..., None, :] * m).sum(-1) + b)


def test_affine_map_of_nine_columns_is_the_matrix_product():
    rng = np.random.default_rng(9)
    m, b = rng.standard_normal((9, 9)), rng.standard_normal(9)
    x = rng.standard_normal((50, 9))
    ref = x @ m.T + b
    assert np.max(np.abs(_affine_map(m, b, x) - ref)) <= 1e-14 * np.max(np.abs(ref))


_PAIR = ([[0.2, -0.4], [0.3, 0.1]], [0.1, -0.2]), ([[0.0, 0.5], [-0.3, 0.2]], [0.4, 0.3])


@pytest.mark.parametrize("system", ["affine", "generic"])
def test_every_point_is_flow_along_path_point_by_point(system):
    # degree5_d1's paths have 3, 1 and 3 segments, so the rows of the middle
    # point ride through two zero segments
    v0 = AffineField(*_PAIR[0])
    v1 = AffineField(*_PAIR[1]) if system == "affine" else GenericField(np.sin, 2)
    sys = VectorFieldSystem((v0, v1))
    formula, gaps, cfg = degree5_d1(), (0.3, 0.7), FlowConfig(substeps=8)
    step = _LevelStep(sys, formula.paths, gaps, cfg)
    states = np.random.default_rng(3).standard_normal((5, 2))
    points = np.arange(formula.n_points)[:, None]
    for level, gap in enumerate(gaps):
        got = step.along(level, states.T[:, None], points)
        for i, path in enumerate(rescale(formula, gap).paths):
            assert np.array_equal(got[:, i].T, flow_along_path(path, sys, states, cfg))


@pytest.mark.parametrize("formula", [degree5_d1(), degree3(2)],
                         ids=["degree5_d1", "degree3_2"])
def test_every_point_is_along_on_the_repeated_block(formula):
    # the full tree's call broadcasts the composed maps where the sampled
    # tree's gathers one per row; both must give each row the same arithmetic
    fields = [AffineField(*_PAIR[0]), AffineField(*_PAIR[1]),
              AffineField([[0.1, 0.0], [0.2, -0.3]], [0.0, 0.5])]
    sys = VectorFieldSystem(tuple(fields[:formula.dimension + 1]))
    step = _LevelStep(sys, formula.paths, (0.3, 0.7), FlowConfig())
    states = np.random.default_rng(5).standard_normal((6, 2))
    n = formula.n_points
    for level in range(2):
        gathered = step.along(level, np.repeat(states, n, axis=0).T,
                              np.tile(np.arange(n), 6)).T
        every = step.along(level, states.T[:, None], np.arange(n)[:, None])
        assert np.array_equal(every.T.reshape(-1, 2), gathered)


def test_every_point_is_along_on_three_states_and_on_a_strided_block():
    rng = np.random.default_rng(11)
    sys = VectorFieldSystem(tuple(
        AffineField(rng.uniform(-0.4, 0.4, (3, 3)), rng.uniform(-0.4, 0.4, 3))
        for _ in range(3)))
    formula = degree3(2)
    step = _LevelStep(sys, formula.paths, (0.3, 0.7), FlowConfig())
    strided = rng.standard_normal((12, 6))[::2, ::2]
    assert not strided.flags.c_contiguous
    n, points = formula.n_points, np.arange(formula.n_points)[:, None]
    for level in range(2):
        gathered = step.along(level, np.repeat(strided, n, axis=0).T,
                              np.tile(np.arange(n), 6)).T
        assert np.array_equal(step.along(level, strided.T[:, None], points)
                              .T.reshape(-1, 3), gathered)
        assert np.array_equal(
            step.along(level, np.ascontiguousarray(strided.T)[:, None], points)
            .T.reshape(-1, 3), gathered)


def _tagged_clock(seen, nan_tag=None):
    # V_0 = e_1 on states (t, tag), V_1 = 0: the tag names a row and no
    # field moves it. V_0 records the tags of each call and is NaN on the
    # row tagged nan_tag once t > 0.5
    def v0(x):
        seen.append(x[:, 1].tolist())
        out = np.zeros_like(x)
        out[:, 0] = np.where((x[:, 1] == nan_tag) & (x[:, 0] > 0.5), np.nan, 1.0)
        return out

    return VectorFieldSystem((GenericField(v0, 2), GenericField(np.zeros_like, 2)))


def test_a_generic_level_step_calls_the_fields_on_the_live_rows_only():
    # degree5_d1's middle path has one segment, the other two three:
    # segments 2-3 see only the rows of points 0 and 2, and every path ends
    # at t = 1
    seen = []
    step = _LevelStep(_tagged_clock(seen), degree5_d1().paths, [1.0],
                      FlowConfig(substeps=2))
    point = np.array([0, 1, 2, 1, 2, 0])
    states = np.column_stack([np.zeros(6), np.arange(6.0)])
    y = step.along(0, states.T, point).T
    assert seen == [[0, 1, 2, 3, 4, 5]] * 8 + [[0, 2, 4, 5]] * 16
    np.testing.assert_allclose(y, np.column_stack([np.ones(6), np.arange(6.0)]),
                               rtol=1e-15)
    assert np.array_equal(states[:, 0], np.zeros(6))


def test_a_divergence_on_the_live_rows_names_its_row_in_the_block():
    # row 4 (point 2) is the third live row of segment 2; it passes t = 0.5
    # in that segment's second RK4 step
    step = _LevelStep(_tagged_clock([], nan_tag=4.0), degree5_d1().paths, [1.0],
                      FlowConfig(substeps=2))
    states = np.column_stack([np.zeros(6), np.arange(6.0)])
    with pytest.raises(FlowDivergence, match="^segment 2/3: state left") as err:
        step.along(0, states.T, np.array([0, 1, 2, 1, 2, 0]))
    assert (err.value.segment, err.value.substep, err.value.row) == (2, 2, 4)


def test_the_level_step_has_one_level_routine():
    # both trees and flow_along_path advance states over a level through
    # along; a second routine would be a second method here
    [cls] = ast.parse(inspect.getsource(_LevelStep)).body
    assert isinstance(cls.body[0], ast.Expr)  # the docstring
    assert [getattr(node, "name", type(node).__name__) for node in cls.body[1:]] == [
        "__init__", "along"]


@pytest.mark.parametrize("system", ["affine", "generic"])
def test_along_gives_each_layout_the_broadcast_shape_and_the_same_rows(system):
    # the three calls of the library: a block on one point (flow_along_path),
    # each column on its own point (the sampled tree) and every column on
    # every point (the full tree)
    v1 = AffineField(*_PAIR[1]) if system == "affine" else GenericField(np.sin, 2)
    sys = VectorFieldSystem((AffineField(*_PAIR[0]), v1))
    step = _LevelStep(sys, degree5_d1().paths, [0.5], FlowConfig(substeps=8))
    x = np.random.default_rng(1).standard_normal((2, 5))
    every = step.along(0, x[:, None], np.arange(3)[:, None])
    assert every.shape == (2, 3, 5)
    for i in range(3):
        assert np.array_equal(step.along(0, x, np.array([i])), every[:, i])
    own = np.array([2, 0, 1, 1, 2])
    assert np.array_equal(step.along(0, x, own), every[:, own, np.arange(5)])


def test_composed_path_flow_matches_segment_by_segment_flow(noncommuting_system):
    # composing a path's segment maps re-associates the products; the state
    # moves by a few ulp only
    states = np.random.default_rng(7).standard_normal((8, 2))
    for gap in (0.05, 0.4, 1.0):
        for path in rescale(degree5_d1(), gap).paths:
            ref = states
            for dt, dx in path.increments():
                field = noncommuting_system.combine(np.concatenate(([dt], dx)))
                ref = affine_flow_exact(field, 1.0, ref)
            got = flow_along_path(path, noncommuting_system, states)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_flow_along_path_keeps_the_shape_of_one_state():
    sys = VectorFieldSystem((AffineField(*_PAIR[0]), AffineField(*_PAIR[1])))
    path = degree5_d1().paths[0]
    x = np.array([0.7, -0.3])
    y = flow_along_path(path, sys, x)
    assert y.shape == (2,)
    assert np.array_equal(y, flow_along_path(path, sys, x[None, :])[0])


def test_nested_bracket_field_words():
    sys = gbm(0.1, 0.4)
    v = nested_bracket_field(sys, (1,))
    np.testing.assert_allclose(v(np.array([1.0])), [0.4])
    lie = nested_bracket_field(sys, (1, 1, 0))  # [V1, [V1, V0]] = 0 here
    np.testing.assert_allclose(lie(np.array([1.0])), [0.0], atol=1e-15)


def test_gamma_map_on_generators(noncommuting_system):
    e1 = certify(GradedTensor.basis(1, 3, (1,)))
    v = gamma_field(e1, noncommuting_system)
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(v(x), noncommuting_system.fields[1](x))


def test_gamma_map_sends_brackets_to_bracket_fields(noncommuting_system):
    lie = certify(bracket(GradedTensor.basis(1, 3, (0,)), GradedTensor.basis(1, 3, (1,))))
    via_gamma = gamma_field(lie, noncommuting_system)
    direct = bracket_field(*noncommuting_system.fields)
    for x in (np.zeros(2), np.array([0.7, -0.3]), np.array([1.1, 0.2])):
        np.testing.assert_allclose(via_gamma(x), direct(x), atol=1e-13)


def test_gamma_map_of_line_log_signature_is_segment_field():
    # the log-signature of a straight segment is dt e0 + dx e1, so its field
    # is the same combination that drives the segment flow
    sys = gbm(0.05, 0.3)
    path = PiecewiseLinearPath.straight_line((0.6,), 1.0)
    v = gamma_field(log_signature(path, 5), sys)
    w = combine_fields(list(sys.fields), np.array([1.0, 0.6]))
    for x in (np.array([0.5]), np.array([2.0])):
        np.testing.assert_allclose(v(x), w(x), atol=1e-12)
