import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from wienercub import vector_fields
from wienercub.cubature import degree3, degree5_d1, lie_form, rescale
from wienercub.vector_fields import (
    AffineField,
    GenericField,
    VectorFieldSystem,
    bracket_field,
    FlowConfig,
    FlowDivergence,
    _LevelStep,
    flow_along_path,
    flow_exp,
    gbm,
)
from wienercub.operator_calculus import MultiPoly
from wienercub.klv_solver import (
    Partition,
    gamma_partition,
    SolverConfig,
    LeafCapExceeded,
    klv_full,
    klv_sampled,
    klv_sweep,
    kusuoka_step,
    euler_mc,
    _exact_sum,
    _level_step,
)

from conftest import A0, A1, B0, B1, X_START

FLOW64 = SolverConfig(flow=FlowConfig(substeps=64))
# the count of flow_along_path's default, for trees compared against it
FLOW32 = SolverConfig(flow=FlowConfig(substeps=32))
EXACT = FlowConfig(substeps=1, exact_affine=True)


def test_gamma_partition_shapes():
    part = gamma_partition(1.0, 4, 2.0)
    expected = [1.0 - (1.0 - j / 4) ** 2 for j in range(5)]
    assert list(part.times) == pytest.approx(expected)
    assert part.times[0] == 0.0 and part.times[-1] == 1.0
    assert part.k == 4
    assert sum(part.gaps) == pytest.approx(1.0)
    uniform = gamma_partition(2.0, 5, 1.0)
    assert list(uniform.gaps) == pytest.approx([0.4] * 5)
    with pytest.raises(ValueError):
        gamma_partition(1.0, 4, 0.5)
    with pytest.raises(ValueError):
        Partition((0.0, 0.5, 0.5, 1.0))


def test_partitions_reject_non_finite_horizons():
    for horizon in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon must be positive"):
            gamma_partition(horizon, 3, 2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="partition times must be finite"):
            Partition((0.0, 0.5, bad))


def test_tree_value_matches_scalar_product_formula():
    # for dX = mu X dt + sigma X dB and the two-point formula, every step
    # multiplies the state by e^{mu s} e^{+/- sigma sqrt(s)}, so the full
    # tree value is the product of e^{mu s_j} cosh(sigma sqrt(s_j))
    mu, sigma = 0.05, 0.3
    part = gamma_partition(1.0, 6, 2.0)
    result = klv_full(
        degree3(1), gbm(mu, sigma), lambda y: float(y[0]), np.array([1.0]),
        part, FLOW64,
    )
    oracle = math.prod(
        math.exp(mu * s) * math.cosh(sigma * math.sqrt(s)) for s in part.gaps
    )
    assert result.value == pytest.approx(oracle, abs=1e-12)
    assert result.leaves_evaluated == 2**6
    assert result.mode == "full"


def test_unit_payoff_is_exactly_one():
    part = gamma_partition(1.0, 5, 2.0)
    result = klv_full(
        degree3(1), gbm(0.05, 0.3), lambda y: 1.0, np.array([1.0]), part, FLOW64
    )
    assert result.value == 1.0


def test_tree_factorizes_across_levels(noncommuting_system, cubic_payoff, x_start):
    # evaluating the two-level tree by hand must agree with the solver
    part = Partition((0.0, 0.4, 1.0))
    got = klv_full(
        degree3(1), noncommuting_system, lambda y: float(cubic_payoff(y)),
        x_start, part, FLOW64,
    ).value
    lvl1 = rescale(degree3(1), 0.4)
    lvl2 = rescale(degree3(1), 0.6)
    total = []
    for w1, p1 in zip(lvl1.weights, lvl1.paths):
        y1 = flow_along_path(p1, noncommuting_system, x_start, FLOW64.flow)
        for w2, p2 in zip(lvl2.weights, lvl2.paths):
            y2 = flow_along_path(p2, noncommuting_system, y1, FLOW64.flow)
            total.append(w1 * w2 * float(cubic_payoff(y2)))
    assert got == pytest.approx(math.fsum(total), abs=1e-13)


def test_full_tree_deterministic_across_threads_and_batches(
    noncommuting_system, cubic_payoff, x_start
):
    part = gamma_partition(1.0, 7, 2.0)
    f = lambda y: float(cubic_payoff(y))
    base = klv_full(
        degree3(1), noncommuting_system, f, x_start, part,
        SolverConfig(flow=FlowConfig(substeps=16)),
    ).value
    for threads, batch in ((4, 1 << 16), (1, 1), (1, 3), (1, 4), (8, 8)):
        other = klv_full(
            degree3(1), noncommuting_system, f, x_start, part,
            SolverConfig(flow=FlowConfig(substeps=16), threads=threads, batch=batch),
        ).value
        assert other == base  # bit-identical, not merely close


def test_full_tree_of_composed_affine_paths_is_batch_invariant(
    noncommuting_system, cubic_payoff, x_start
):
    # degree5_d1's paths have 3, 1 and 3 segments, composed into one map
    # per (level, point) on an affine system
    part = gamma_partition(1.0, 4, 2.0)
    values = {
        klv_full(degree5_d1(), noncommuting_system, cubic_payoff, x_start, part,
                 SolverConfig(batch=batch)).value
        for batch in (1, 3, 1 << 16)
    }
    assert len(values) == 1  # bit-identical, not merely close


def test_full_tree_polynomial_payoff_deterministic_across_batches(
    noncommuting_system, cubic_payoff, x_start
):
    part = gamma_partition(1.0, 6, 2.0)
    values = {
        klv_full(degree3(1), noncommuting_system, cubic_payoff, x_start, part,
                 SolverConfig(batch=batch)).value
        for batch in (1, 3, SolverConfig().batch)
    }
    assert len(values) == 1  # bit-identical, not merely close


def test_polynomial_payoff_matches_scalar_wrapper(
    noncommuting_system, cubic_payoff, x_start
):
    # the block path sums a leaf's terms in another order than the exact
    # point path, so the two agree to rounding only
    part = gamma_partition(1.0, 5, 2.0)
    scalar = lambda y: float(cubic_payoff(y))
    full = [klv_full(degree3(1), noncommuting_system, f, x_start, part).value
            for f in (cubic_payoff, scalar)]
    sampled = [
        klv_sampled(degree3(1), noncommuting_system, f, x_start, part, 500, 4)
        for f in (cubic_payoff, scalar)
    ]
    euler = [euler_mc(noncommuting_system, f, x_start, 1.0, 8, 500, 4, batch=128)
             for f in (cubic_payoff, scalar)]
    assert full[0] == pytest.approx(full[1], rel=1e-14, abs=0.0)
    assert sampled[0].value == pytest.approx(sampled[1].value, rel=1e-14, abs=0.0)
    assert sampled[0].stderr == pytest.approx(sampled[1].stderr, rel=1e-14, abs=0.0)
    assert euler[0] == pytest.approx(euler[1], rel=1e-14, abs=0.0)


def test_coordinate_payoff_is_bit_identical_to_scalar_coordinate():
    part = gamma_partition(1.0, 6, 2.0)
    args = (degree5_d1(), gbm(0.05, 0.3))
    poly = klv_full(*args, MultiPoly.coordinate(1, 0), np.array([1.0]), part)
    scalar = klv_full(*args, lambda y: float(y[0]), np.array([1.0]), part)
    assert poly.value == scalar.value


def test_per_point_generic_field_is_rejected():
    # a field written for one point, fed a (P, 1) block, reads only the first
    # row: before the solvers checked fields, klv_full returned 0.6051
    # silently instead of 0.6710
    part = gamma_partition(1.0, 4, 4.0)
    x0 = np.array([0.5])
    f = lambda y: float(y[0])
    drift = AffineField([[0.0]], [0.0])
    per_point = VectorFieldSystem(
        (drift, GenericField(lambda x: np.array([np.sin(x[0])]), 1))
    )
    with pytest.raises(ValueError, match="field V_1"):
        klv_full(degree5_d1(), per_point, f, x0, part)
    with pytest.raises(ValueError, match="field V_1"):
        klv_sampled(degree5_d1(), per_point, f, x0, part, 100, 1)
    mixing = VectorFieldSystem(
        (GenericField(lambda x: np.sin(x[:1]) + 0.0 * x, 1), drift)
    )
    with pytest.raises(ValueError, match="field V_0"):
        klv_full(degree5_d1(), mixing, f, x0, part)
    vectorized = VectorFieldSystem((drift, GenericField(np.sin, 1)))
    value = klv_full(degree5_d1(), vectorized, f, x0, part, FLOW32).value
    assert value == pytest.approx(0.6709710583409587, abs=1e-12)


def _blowup_system():
    # V_0(x) = x^2 explodes in finite time; V_1(x) = -x speeds up the branches
    # that take the falling support path (index 1 of degree3(1))
    return VectorFieldSystem(
        (GenericField(lambda x: x**2, 1), AffineField([[-1.0]], [0.0]))
    )


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("batch", [1 << 16, 1, 3])
def test_full_tree_divergence_names_a_diverging_branch(batch):
    sys = _blowup_system()
    part = gamma_partition(1.0, 4, 1.0)
    x0 = np.array([1.0])
    with pytest.raises(FlowDivergence) as err:
        klv_full(degree3(1), sys, lambda y: float(y[0]), x0, part,
                 SolverConfig(batch=batch))
    named = re.search(r"branch \(([\d, ]+)\) \(level (\d+)\)", str(err.value))
    assert named is not None, str(err.value)
    branch = tuple(int(i) for i in named.group(1).split(",") if i.strip())
    assert len(branch) == int(named.group(2))
    assert err.value.segment == 1
    # re-flowing the named branch stays finite up to its last level and
    # diverges there
    levels = [rescale(degree3(1), s).paths for s in part.gaps]
    y = x0
    for level, i in enumerate(branch[:-1]):
        y = flow_along_path(levels[level][i], sys, y)
    with pytest.raises(FlowDivergence):
        flow_along_path(levels[len(branch) - 1][branch[-1]], sys, y)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_full_tree_divergence_of_an_exact_affine_flow():
    # e^{2000 s} per level of gap 1/4 overflows at the second level
    with pytest.raises(FlowDivergence) as err:
        klv_full(degree3(1), gbm(2000.0, 1.0), lambda y: float(y[0]),
                 np.array([1.0]), gamma_partition(1.0, 4, 1.0))
    assert re.search(r"branch \(\d, \d\) \(level 2\)", str(err.value))
    assert err.value.segment == 1


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_full_tree_names_the_first_diverging_branch_in_branch_order():
    # x e^{300 (t - w)} from x = -1: at level 3 the branches (1, 2, 2),
    # (2, 1, 2), (2, 2, 1) and (2, 2, 2) overflow in one block; the first in
    # branch order is named, not the first of the lowest support point
    sys = VectorFieldSystem((AffineField([[300.0]], [0.0]), AffineField([[-300.0]], [0.0])))
    with pytest.raises(FlowDivergence) as err:
        klv_full(degree5_d1(), sys, lambda y: float(y[0]), np.array([-1.0]),
                 gamma_partition(1.0, 4, 1.0))
    assert str(err.value).startswith("flow diverged on branch (1, 2, 2) (level 3): ")
    assert (err.value.row, err.value.segment) == (5, 2)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_sampled_tree_divergence_names_level_and_support_point():
    with pytest.raises(FlowDivergence) as err:
        klv_sampled(degree3(1), _blowup_system(), lambda y: float(y[0]),
                    np.array([1.0]), gamma_partition(1.0, 4, 1.0), 200, 3)
    assert re.search(r"at level \d, support point [01]:", str(err.value))
    assert err.value.segment == 1
    assert 0 <= err.value.row < 200


def test_leaf_cap_reports_requirement():
    with pytest.raises(LeafCapExceeded) as err:
        klv_full(
            degree3(1), gbm(0.05, 0.3), lambda y: float(y[0]), np.array([1.0]),
            gamma_partition(1.0, 30, 1.0), FLOW64,
        )
    assert err.value.required_cap == 2**30


def test_sampled_tree_tracks_full_tree():
    part = gamma_partition(1.0, 6, 2.0)
    f = lambda y: float(y[0])
    full = klv_full(degree5_d1(), gbm(0.05, 0.3), f, np.array([1.0]), part, FLOW64)
    sampled = klv_sampled(
        degree5_d1(), gbm(0.05, 0.3), f, np.array([1.0]), part, 40_000, 99, FLOW64
    )
    assert sampled.mode == "sampled"
    assert sampled.stderr is not None and sampled.stderr > 0
    assert abs(sampled.value - full.value) < 4.0 * sampled.stderr
    again = klv_sampled(
        degree5_d1(), gbm(0.05, 0.3), f, np.array([1.0]), part, 40_000, 99, FLOW64
    )
    assert again.value == sampled.value  # same seed, same estimate


def test_flow_level_step_equals_tree_step_when_fields_commute():
    # commuting fields collapse the one-step tree onto the flow-level
    # operator exactly, for any formula
    d5 = lie_form(degree5_d1())
    sys = gbm(0.05, 0.3)
    f = lambda y: float(y[0])
    x = np.array([1.0])
    for s in (0.4, 0.1, 0.05):
        a = kusuoka_step(d5, sys, f, x, s, EXACT)
        b = klv_full(
            degree5_d1(), sys, f, x, Partition((0.0, s)), SolverConfig(flow=EXACT)
        ).value
        assert abs(a - b) < 1e-12


def test_flow_level_step_equals_tree_step_for_straight_lines(
    noncommuting_system, cubic_payoff, x_start
):
    # straight-line supports have level-one log-signatures, so the flow-level
    # field is the very combination the tree flows along: exact agreement
    # even for noncommuting fields
    d3 = lie_form(degree3(1))
    f = lambda y: float(cubic_payoff(y))
    for s in (0.4, 0.05):
        a = kusuoka_step(d3, noncommuting_system, f, x_start, s, EXACT)
        b = klv_full(
            degree3(1), noncommuting_system, f, x_start, Partition((0.0, s)),
            SolverConfig(flow=EXACT),
        ).value
        assert abs(a - b) < 1e-12


def test_flow_level_step_requires_lie_support():
    with pytest.raises(ValueError):
        kusuoka_step(
            degree3(1), gbm(0.05, 0.3), lambda y: float(y[0]), np.array([1.0]), 0.1
        )


@pytest.mark.parametrize("gap", [math.nan, math.inf, 0.0, -0.1])
def test_flow_level_step_rejects_a_gap_that_is_not_positive_and_finite(gap):
    with pytest.raises(ValueError, match="gap must be positive"):
        kusuoka_step(lie_form(degree3(1)), gbm(0.05, 0.3), lambda y: float(y[0]),
                     np.array([1.0]), gap)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_euler_rejects_a_horizon_that_is_not_positive_and_finite(horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        euler_mc(gbm(0.05, 0.3), lambda y: float(y[0]), np.array([1.0]),
                 horizon, 4, 10, 1)


def test_euler_mean_matches_discrete_closed_form():
    # linear dynamics make the Euler chain mean exact:
    # E[X_n] = x (1 + a h)^n with the drift correction a = mu + sigma^2/2;
    # omitting the correction would sit ~90 standard errors away
    mu, sigma, steps, paths = 0.05, 0.3, 4, 400_000
    mean, stderr = euler_mc(
        gbm(mu, sigma), lambda y: float(y[0]), np.array([1.0]),
        1.0, steps, paths, 123,
    )
    a = mu + 0.5 * sigma**2
    discrete = (1.0 + a / steps) ** steps
    assert abs(mean - discrete) < 4.0 * stderr
    uncorrected = (1.0 + mu / steps) ** steps
    assert abs(mean - uncorrected) > 20.0 * stderr


def test_euler_mean_on_a_2d_affine_system_follows_the_ito_mean_recursion():
    # on affine fields the Euler-Heun step's conditional mean is the Ito
    # Euler step's, so E[X_n] follows m <- m + h (A m + b) with the Ito drift
    # A = A_0 + 1/2 sum_i A_i^2, b = b_0 + 1/2 sum_i A_i b_i; the conftest
    # pair and a third field do not commute
    fields = [(np.array(A0), np.array(B0)), (np.array(A1), np.array(B1)),
              (np.array([[0.1, 0.0], [0.2, -0.1]]), np.array([0.0, 0.2]))]
    sys = VectorFieldSystem(tuple(AffineField(a, b) for a, b in fields))
    steps, paths, h = 8, 400_000, 1.0 / 8
    a_ito = fields[0][0] + 0.5 * sum(a @ a for a, _ in fields[1:])
    b_ito = fields[0][1] + 0.5 * sum(a @ b for a, b in fields[1:])
    ito = uncorrected = np.array(X_START)
    for _ in range(steps):
        ito = ito + h * (a_ito @ ito + b_ito)
        uncorrected = uncorrected + h * (fields[0][0] @ uncorrected + fields[0][1])
    for j in range(2):
        mean, stderr = euler_mc(sys, MultiPoly.coordinate(2, j), X_START, 1.0, steps,
                                paths, 11)
        assert abs(mean - ito[j]) < 4.0 * stderr, j
        assert abs(mean - uncorrected[j]) > 10.0 * stderr, j


def test_euler_heun_bias_on_the_sinh_system_is_within_weak_order_one():
    # asinh X_T = asinh x + mu T + W_T gives E[X_1]; the allowance is the
    # signature_mc benchmark check's, |truth| / steps plus 4 stderr
    x, steps = 0.4, 16
    truth = math.sinh(math.asinh(x) + 0.1) * math.exp(0.5)
    mean, stderr = euler_mc(_sinh_system(), lambda y: float(y[0]), [x], 1.0, steps,
                            20_000, 3)
    assert abs(mean - truth) <= 4.0 * stderr + abs(truth) / steps


def test_euler_calls_the_fields_on_blocks_and_never_a_jacobian():
    # per step: V_0 and V_1 at the states, V_1 at the predictor; plus the
    # probe's three calls per generic field
    calls = {"field": 0, "jacobian": 0}

    def counted(fn, kind):
        def call(x):
            calls[kind] += 1
            return fn(x)
        return call

    c = lambda x: np.sqrt(1.0 + x * x)
    dc = lambda x: np.reshape(x / c(x), (1, 1))
    sys = VectorFieldSystem((
        GenericField(counted(lambda x: 0.1 * c(x), "field"), 1,
                     jacobian_func=counted(lambda x: 0.1 * dc(x), "jacobian")),
        GenericField(counted(c, "field"), 1, jacobian_func=counted(dc, "jacobian")),
    ))
    euler_mc(sys, lambda y: float(y[0]), [0.4], 1.0, 16, 300, 1)
    assert calls == {"field": 2 * 3 + 16 * 3, "jacobian": 0}


def test_euler_reproducible_and_batched():
    args = (gbm(0.05, 0.3), lambda y: float(y[0]), np.array([1.0]), 1.0, 8, 10_000)
    m1, se1 = euler_mc(*args, 7, batch=1_000)
    m2, se2 = euler_mc(*args, 7, batch=1_000)
    assert (m1, se1) == (m2, se2)


def test_euler_stderr_does_not_cancel_against_the_mean():
    # sigma = 0 makes every path the same: the stderr is exactly 0
    f = MultiPoly.coordinate(1, 0)
    assert euler_mc(gbm(0.3, 0.0), f, [0.7], 1.0, 16, 300, 1)[1] == 0.0
    # at sigma = 1e-6 it is the two-pass standard error of the final states
    finals = []

    def payoff(y):
        finals.append(float(y[0]))
        return float(y[0])

    _, se = euler_mc(gbm(0.3, 1e-6), payoff, [0.7], 1.0, 16, 300, 1)
    assert se == pytest.approx(np.std(finals, ddof=1) / math.sqrt(300), rel=1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_euler_divergence_detection():
    blowup = VectorFieldSystem(
        (
            GenericField(lambda x: x**3, 1),
            AffineField([[0.0]], [0.1]),
        )
    )
    with pytest.raises(FlowDivergence):
        euler_mc(blowup, lambda y: float(y[0]), np.array([40.0]), 1.0, 8, 64, 1)


def test_euler_rejects_per_point_generic_field():
    per_point = VectorFieldSystem((
        AffineField([[0.0]], [0.0]),
        GenericField(lambda x: np.array([np.sin(x[0])]), 1),
    ))
    with pytest.raises(ValueError, match="field V_1"):
        euler_mc(per_point, lambda y: float(y[0]), np.array([0.5]), 1.0, 4, 16, 1)


def test_euler_block_field_calls_match_row_loop():
    # euler_mc calls fields on whole blocks; a field that loops over the rows
    # itself must give the same estimate bit for bit
    def c(x):
        return np.sqrt(1.0 + x * x)

    def rows(fn):
        return lambda x: fn(x) if x.ndim == 1 else np.array([fn(r) for r in x])

    def system(wrap):
        return VectorFieldSystem(
            (GenericField(wrap(lambda x: 0.1 * c(x)), 1), GenericField(wrap(c), 1))
        )

    args = (lambda y: float(y[0]), np.array([0.4]), 1.0, 8, 500, 3)
    vectorized = euler_mc(system(lambda fn: fn), *args, batch=128)
    looped = euler_mc(system(rows), *args, batch=128)
    assert vectorized == looped


def test_generic_bracket_field_drives_the_solvers():
    # [sin, cos] = -sin^2 - cos^2 = -1 by finite differences, so X is
    # dX = (0.1 X + 0.2) dt - dW and E[X_1] = (x + 2) e^0.1 - 2
    sys = VectorFieldSystem((
        AffineField([[0.1]], [0.2]),
        bracket_field(GenericField(np.sin, 1), GenericField(np.cos, 1)),
    ))
    f, x = (lambda y: float(y[0])), np.array([0.5])
    truth = 2.5 * math.exp(0.1) - 2.0
    formula, partition = degree5_d1(), gamma_partition(1.0, 2, 1.0)
    full = klv_full(formula, sys, f, x, partition, FLOW32)
    # the same tree, one branch at a time
    paths = [rescale(formula, gap).paths for gap in partition.gaps]
    terms = []
    for i, j in itertools.product(range(formula.n_points), repeat=2):
        y = flow_along_path(paths[1][j], sys, flow_along_path(
            paths[0][i], sys, x, FLOW32.flow), FLOW32.flow)
        terms.append(formula.weights[i] * formula.weights[j] * f(y))
    assert full.value == math.fsum(terms)
    assert full.value == pytest.approx(truth, abs=1e-8)
    sampled = klv_sampled(formula, sys, f, x, partition, 200, 3, FLOW32)
    assert (sampled.value, sampled.stderr) == _per_sample_reference(
        formula, sys, f, x, partition, 200, 3, FLOW32.flow)
    mean, se = euler_mc(sys, f, x, 1.0, 16, 2_000, 5)
    assert abs(mean - truth) < 4 * se + 1e-2


@pytest.mark.parametrize("gamma", [1.0, 2.0, 4.5])
@pytest.mark.parametrize("formula", [degree5_d1(), degree3(1), degree3(2), degree3(3)],
                         ids=["degree5_d1", "degree3_1", "degree3_2", "degree3_3"])
def test_level_step_table_equals_rescaled_path_increments(formula, gamma):
    sys = VectorFieldSystem(tuple(AffineField.zero(1)
                                  for _ in range(formula.dimension + 1)))
    for k in (1, 5, 12):
        gaps = gamma_partition(1.0, k, gamma).gaps
        table = _LevelStep(sys, formula.paths, gaps, FlowConfig()).coefficients
        for level, s in enumerate(gaps):
            for i, path in enumerate(rescale(formula, s).paths):
                rows = [np.concatenate(([dt], dx)) for dt, dx in path.increments()]
                assert (table[level, i, :len(rows)] == rows).all(), (k, level, i)
                assert not table[level, i, len(rows):].any()


def test_tree_solvers_reject_a_formula_off_the_unit_horizon():
    formula = rescale(degree3(1), 0.5)
    part = gamma_partition(1.0, 2, 1.0)
    message = "unit-horizon formula, got horizon 0.5"
    with pytest.raises(ValueError, match=message):
        klv_full(formula, gbm(0.1, 0.2), lambda y: float(y[0]), [1.0], part)
    with pytest.raises(ValueError, match=message):
        klv_sampled(formula, gbm(0.1, 0.2), lambda y: float(y[0]), [1.0], part,
                    10, 0)


def test_dimension_mismatch_rejected(noncommuting_system):
    with pytest.raises(ValueError):
        klv_full(
            degree3(2), noncommuting_system, lambda y: float(y[0]),
            np.array([1.0, 0.0]), gamma_partition(1.0, 2, 1.0), FLOW64,
        )


def _per_sample_reference(formula, sys, f, x, partition, n_samples, seed, flow):
    # the sampled solver as it was before it walked the drawn subtree: every
    # sample is flowed at every level (by flow), and the payoff runs on every
    # leaf
    lam = np.asarray(formula.weights, dtype=float)
    rng = np.random.default_rng(seed)
    draws = rng.choice(formula.n_points, size=(n_samples, partition.k),
                       p=lam / lam.sum())
    states = np.broadcast_to(x, (n_samples, x.shape[0])).copy()
    for level, gap in enumerate(partition.gaps):
        paths = rescale(formula, gap).paths
        for i in range(formula.n_points):
            rows = np.flatnonzero(draws[:, level] == i)
            if rows.size:
                states[rows] = flow_along_path(paths[i], sys, states[rows], flow)
    if isinstance(f, MultiPoly):
        vals = f(states)
    else:
        vals = np.array([f(row) for row in states], dtype=float)
    scale = math.fsum(formula.weights) ** partition.k
    return (scale * float(np.mean(vals)),
            scale * float(np.std(vals, ddof=1)) / math.sqrt(n_samples))


def _sqrt_system():
    c = lambda x: np.sqrt(1.0 + x * x)
    return VectorFieldSystem(
        (GenericField(lambda x: 0.1 * c(x), 1), GenericField(c, 1))
    )


_SAMPLED_CASES = {
    # name: (formula, system, payoff, x, k); every n^k is below 20 000
    "gbm": lambda pair: (degree5_d1(), gbm(0.05, 0.3), MultiPoly.coordinate(1, 0),
                         np.array([1.0]), 6),
    "noncommuting": lambda pair: (
        degree3(2),
        VectorFieldSystem(pair.fields + (AffineField([[0.1, 0.0], [0.2, -0.1]],
                                                     [0.0, 0.2]),)),
        MultiPoly(2, {(3, 0): 1.0, (0, 2): 0.5, (1, 1): -1.0}),
        np.array([0.7, -0.3]), 5),
    "generic": lambda pair: (degree5_d1(), _sqrt_system(), lambda y: float(y[0]),
                             np.array([0.4]), 4),
}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("n_samples", [2, 500, 20_000])
@pytest.mark.parametrize("case", sorted(_SAMPLED_CASES))
def test_sampled_tree_bit_identical_to_per_sample_reference(
    case, n_samples, seed, noncommuting_system
):
    formula, sys, f, x, k = _SAMPLED_CASES[case](noncommuting_system)
    part = gamma_partition(1.0, k, 2.0)
    result = klv_sampled(formula, sys, f, x, part, n_samples, seed, FLOW32)
    value, stderr = _per_sample_reference(formula, sys, f, x, part, n_samples, seed,
                                          FLOW32.flow)
    assert result.value == value
    assert result.stderr == stderr
    nodes = result.diagnostics["nodes_per_level"]
    assert len(nodes) == k
    assert all(1 <= m <= min(n_samples, formula.n_points ** (j + 1))
               for j, m in enumerate(nodes))
    assert result.diagnostics["distinct_leaves"] == nodes[-1]


def test_sampled_tree_calls_a_scalar_payoff_once_per_distinct_leaf():
    calls = []

    def f(y):
        calls.append(1)
        return float(y[0])

    result = klv_sampled(degree3(1), gbm(0.05, 0.3), f, np.array([1.0]),
                         gamma_partition(1.0, 3, 1.0), 10_000, 5)
    assert len(calls) <= 2**3
    assert len(calls) == result.diagnostics["distinct_leaves"]
    assert result.leaves_evaluated == 10_000


def test_sampled_tree_checks_dimension_before_drawing_or_probing(monkeypatch):
    calls = []

    def field(x):
        calls.append(1)
        return np.sin(x)

    def no_draws(*args, **kwargs):
        raise AssertionError("klv_sampled drew branches before its checks")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    one_control = VectorFieldSystem(
        (GenericField(field, 1), AffineField([[0.3]], [0.0]))
    )
    with pytest.raises(ValueError, match="formula drives 2 controls, system has 1"):
        klv_sampled(degree3(2), one_control, lambda y: float(y[0]),
                    np.array([0.5]), gamma_partition(1.0, 2, 1.0), 100, 1)
    assert calls == []


def test_tree_solvers_report_weight_mass():
    part = gamma_partition(1.0, 3, 2.0)
    f = lambda y: float(y[0])
    for formula in (degree3(1), degree5_d1()):
        mass = math.fsum(formula.weights)
        full = klv_full(formula, gbm(0.05, 0.3), f, np.array([1.0]), part)
        sampled = klv_sampled(formula, gbm(0.05, 0.3), f, np.array([1.0]),
                              part, 100, 2)
        assert full.diagnostics["weight_mass"] == mass
        assert sampled.diagnostics["weight_mass"] == mass
    assert mass == pytest.approx(1.0, abs=1e-14)


def _per_branch_reference(formula, sys, f, x, partition, flow):
    # the full tree as a sum over branches, each flowed on its own, one path
    # after another, by flow_along_path
    levels = [rescale(formula, s).paths for s in partition.gaps]
    terms = []
    for branch in itertools.product(range(formula.n_points), repeat=partition.k):
        y, weight = x, 1.0
        for level, i in enumerate(branch):
            y = flow_along_path(levels[level][i], sys, y, flow)
            weight = weight * formula.weights[i]
        terms.append(weight * f(y))
    return math.fsum(terms)


@pytest.mark.parametrize("batch", [1, 3, SolverConfig().batch])
@pytest.mark.parametrize("drift", ["affine", "generic"])
def test_full_tree_generic_fields_bit_identical_to_per_branch_flows(drift, batch):
    # degree5_d1 has paths of 3, 1 and 3 segments, so the one-pass level step
    # pads the middle path with zero segments; that must leave its rows as
    # they are, bit for bit
    v0 = (AffineField([[0.1]], [0.2]) if drift == "affine"
          else GenericField(lambda x: 0.2 * np.cos(x), 1))
    sys = VectorFieldSystem((v0, GenericField(np.sin, 1)))
    part = gamma_partition(1.0, 3, 2.0)
    cfg = SolverConfig(flow=FlowConfig(substeps=8), batch=batch)
    f = lambda y: float(y[0])
    x0 = np.array([0.5])
    got = klv_full(degree5_d1(), sys, f, x0, part, cfg).value
    assert got == _per_branch_reference(degree5_d1(), sys, f, x0, part, cfg.flow)


def test_sampled_tree_flows_a_level_in_one_rk4_pass():
    # each level is one RK4 pass per segment over its live rows, so V_0 runs
    # 4 * substeps times per segment of the longest path (3 for degree5_d1),
    # not once per segment of every path (3 + 1 + 3), plus the three calls
    # of the field probe (two states, then the block of both); segment 1
    # sees every node of the level, segments 2-3 only the nodes of the
    # two three-segment paths
    calls = []

    def v0(x):
        calls.append(x.shape)
        return 0.1 * np.sqrt(1.0 + x * x)

    sys = VectorFieldSystem(
        (GenericField(v0, 1), GenericField(lambda x: np.sqrt(1.0 + x * x), 1))
    )
    k, substeps = 3, 4
    result = klv_sampled(
        degree5_d1(), sys, lambda y: float(y[0]), np.array([0.4]),
        gamma_partition(1.0, k, 2.0), 2_000, 5,
        SolverConfig(flow=FlowConfig(substeps=substeps)),
    )
    assert len(calls) == k * 3 * 4 * substeps + 3
    nodes = result.diagnostics["nodes_per_level"]
    passes = np.array([shape[0] for shape in calls[3:]]).reshape(k, 3, 4 * substeps)
    assert (passes == passes[:, :, :1]).all()
    live = passes[:, :, 0]
    assert live[:, 0].tolist() == nodes
    assert (live[:, 1] == live[:, 2]).all() and (live[:, 1] < live[:, 0]).all()


def _reflow_divergence_segment(formula, sys, x, partition, branch,
                               flow=FlowConfig()):
    # flow the branch path by path; its last path must diverge, and the
    # segment it diverges on is returned
    levels = [rescale(formula, s).paths for s in partition.gaps]
    y = x
    for level, i in enumerate(branch[:-1]):
        y = flow_along_path(levels[level][i], sys, y, flow)
    with pytest.raises(FlowDivergence) as err:
        flow_along_path(levels[len(branch) - 1][branch[-1]], sys, y, flow)
    return err.value.segment


# a generic and an affine system whose degree5_d1 trees diverge inside a
# path: the affine one (x e^{-400 w}) overflows on segment 2 of point 2
_MULTI_SEGMENT_BLOWUPS = {"generic": _blowup_system, "affine": lambda: gbm(0.0, -400.0)}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("batch", [1 << 16, 1, 3])
@pytest.mark.parametrize("system", sorted(_MULTI_SEGMENT_BLOWUPS))
def test_full_tree_divergence_names_the_segment_of_a_multi_segment_path(
    system, batch
):
    sys = _MULTI_SEGMENT_BLOWUPS[system]()
    part = gamma_partition(1.0, 4, 1.0)
    x0 = np.array([1.0])
    with pytest.raises(FlowDivergence) as err:
        klv_full(degree5_d1(), sys, lambda y: float(y[0]), x0, part,
                 SolverConfig(flow=FLOW32.flow, batch=batch))
    named = re.search(r"branch \(([\d, ]+)\) \(level (\d+)\)", str(err.value))
    branch = tuple(int(i) for i in named.group(1).split(",") if i.strip())
    assert len(branch) == int(named.group(2))
    assert err.value.segment == _reflow_divergence_segment(
        degree5_d1(), sys, x0, part, branch, FLOW32.flow)
    assert err.value.segment > 1


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("system", sorted(_MULTI_SEGMENT_BLOWUPS))
def test_sampled_tree_divergence_names_the_segment_of_a_multi_segment_path(system):
    sys = _MULTI_SEGMENT_BLOWUPS[system]()
    part = gamma_partition(1.0, 4, 1.0)
    x0 = np.array([1.0])
    n_samples, seed = 200, 3
    formula = degree5_d1()
    with pytest.raises(FlowDivergence) as err:
        klv_sampled(formula, sys, lambda y: float(y[0]), x0, part,
                    n_samples, seed)
    named = re.search(r"at level (\d+), support point (\d+):", str(err.value))
    level, point = int(named.group(1)), int(named.group(2))
    # the draws klv_sampled makes for this seed; row is the failing sample
    lam = np.asarray(formula.weights, dtype=float)
    draws = np.random.default_rng(seed).choice(
        formula.n_points, size=(n_samples, part.k), p=lam / lam.sum())
    branch = tuple(int(i) for i in draws[err.value.row, :level])
    assert branch[-1] == point
    assert err.value.segment == _reflow_divergence_segment(
        formula, sys, x0, part, branch)
    assert err.value.segment > 1


def _same_result(a, b):
    assert (a.value, a.stderr, a.leaves_evaluated, a.mode, a.partition) == (
        b.value, b.stderr, b.leaves_evaluated, b.mode, b.partition)
    assert a.diagnostics == b.diagnostics


def test_sweep_equals_one_full_solve_per_partition_on_gbm():
    # one level step over the gaps of k = 4..7 (22 levels) serves every k
    sys, f, x0 = gbm(0.05, 0.3), MultiPoly.coordinate(1, 0), np.array([1.2])
    parts = [gamma_partition(1.0, k, 2.0) for k in (4, 5, 6, 7)]
    swept = klv_sweep(degree5_d1(), sys, f, x0, parts)
    assert len(swept) == len(parts)
    for part, got in zip(parts, swept):
        _same_result(got, klv_full(degree5_d1(), sys, f, x0, part))


def test_sweep_equals_one_solve_per_partition_on_a_two_control_system(
        noncommuting_system, cubic_payoff, x_start):
    sys = VectorFieldSystem(noncommuting_system.fields + (
        AffineField([[0.1, -0.2], [0.25, 0.05]], [-0.15, 0.2]),))
    parts = [gamma_partition(1.0, k, 2.0) for k in (2, 3, 4, 5)]
    cfg = SolverConfig(batch=37)
    full = klv_sweep(degree3(2), sys, cubic_payoff, x_start, parts, cfg)
    sampled = klv_sweep(degree3(2), sys, cubic_payoff, x_start, parts, cfg,
                        n_samples=400, seed=9)
    for part, got_full, got_sampled in zip(parts, full, sampled):
        _same_result(got_full, klv_full(degree3(2), sys, cubic_payoff, x_start,
                                        part, cfg))
        _same_result(got_sampled, klv_sampled(degree3(2), sys, cubic_payoff,
                                              x_start, part, 400, 9, cfg))


def test_sampled_sweep_equals_one_solve_per_partition_on_generic_fields():
    c = lambda x: np.sqrt(1.0 + x * x)
    sys = VectorFieldSystem((GenericField(lambda x: 0.1 * c(x), 1),
                             GenericField(c, 1)))
    f, x0 = (lambda y: float(y[0])), np.array([0.4])
    parts = [gamma_partition(1.0, k, 2.0) for k in (2, 3, 4)]
    cfg = SolverConfig(flow=FlowConfig(substeps=4))
    swept = klv_sweep(degree5_d1(), sys, f, x0, parts, cfg, n_samples=300, seed=3)
    for part, got in zip(parts, swept):
        _same_result(got, klv_sampled(degree5_d1(), sys, f, x0, part, 300, 3, cfg))


def test_sweep_checks_every_leaf_count_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr("wienercub.vector_fields.expm",
                        lambda a: calls.append(1))
    parts = [gamma_partition(1.0, k, 1.0) for k in (3, 4, 5)]
    with pytest.raises(LeafCapExceeded, match="full tree has 32 leaves") as err:
        klv_sweep(degree3(1), gbm(0.05, 0.3), MultiPoly.coordinate(1, 0),
                  np.array([1.0]), parts, SolverConfig(leaf_cap=16))
    assert err.value.required_cap == 32 and calls == []


def test_sweep_rejects_an_empty_sequence_of_partitions():
    with pytest.raises(ValueError, match="at least one partition"):
        klv_sweep(degree3(1), gbm(0.05, 0.3), MultiPoly.coordinate(1, 0),
                  np.array([1.0]), [])


# -- the level step is built once per model -----------------------------------


@pytest.fixture
def expm_calls(monkeypatch):
    """The shapes of every vector_fields.expm call from here on."""
    calls, expm = [], vector_fields.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(vector_fields, "expm", counted)
    return calls


DEGREE3, DEGREE5 = degree3(1), degree5_d1()
LIE_DEGREE3 = lie_form(DEGREE3)
SOLVES = {
    "klv_full": lambda sys, f, x: _result_bits(klv_full(
        DEGREE3, sys, f, x, gamma_partition(1.0, 3, 2.0))),
    "klv_sampled": lambda sys, f, x: _result_bits(klv_sampled(
        DEGREE5, sys, f, x, gamma_partition(1.0, 4, 2.0), 500, 3)),
    "klv_sweep": lambda sys, f, x: [_result_bits(r) for r in klv_sweep(
        DEGREE5, sys, f, x, [gamma_partition(1.0, k, 2.0) for k in (2, 3)])],
    "kusuoka_step": lambda sys, f, x: _bits(kusuoka_step(LIE_DEGREE3, sys, f, x, 0.25)),
}


@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_a_second_solve_on_one_model_reuses_its_level_step(solve, expm_calls):
    sys, f = gbm(0.05, 0.3), MultiPoly.coordinate(1, 0)
    first = SOLVES[solve](sys, f, np.array([1.0]))
    assert len(expm_calls) == 1
    assert SOLVES[solve](sys, f, np.array([1.0])) == first
    # another payoff and start point on the same objects: still no rebuild
    other = SOLVES[solve](sys, MultiPoly(1, {(2,): 1.0}), np.array([0.5]))
    assert len(expm_calls) == 1 and other != first


def test_an_equal_but_new_model_builds_its_own_step(expm_calls):
    f, x, part = MultiPoly.coordinate(1, 0), np.array([1.0]), gamma_partition(1.0, 3, 2.0)
    first = klv_full(DEGREE3, gbm(0.05, 0.3), f, x, part)
    second = klv_full(DEGREE3, gbm(0.05, 0.3), f, x, part)
    assert len(expm_calls) == 2 and _result_bits(second) == _result_bits(first)


def test_a_lie_support_formula_keys_the_step_by_identity(expm_calls):
    sys, f, x = gbm(0.05, 0.3), MultiPoly.coordinate(1, 0), np.array([1.0])
    formula = lie_form(degree3(1))
    assert hash(formula) == hash(formula)
    first = kusuoka_step(formula, sys, f, x, 0.25)
    assert kusuoka_step(formula, sys, f, x, 0.25) == first and len(expm_calls) == 1
    # two conversions of one formula are two keys, though their values agree
    twin = lie_form(degree3(1))
    assert twin != formula
    assert kusuoka_step(twin, sys, f, x, 0.25) == first and len(expm_calls) == 2


def test_filling_the_step_cache_past_its_bound_rebuilds_the_oldest(expm_calls):
    bound = _level_step.cache_info().maxsize
    f, x, part = MultiPoly.coordinate(1, 0), np.array([1.0]), Partition((0.0, 1.0))
    oldest = gbm(0.05, 0.3)
    first = klv_full(DEGREE3, oldest, f, x, part)
    for _ in range(bound - 1):
        klv_full(DEGREE3, gbm(0.05, 0.3), f, x, part)
    assert len(expm_calls) == bound
    klv_full(DEGREE3, oldest, f, x, part)
    assert len(expm_calls) == bound            # the bound still holds it
    for _ in range(bound):
        klv_full(DEGREE3, gbm(0.05, 0.3), f, x, part)
    assert len(expm_calls) == 2 * bound
    again = klv_full(DEGREE3, oldest, f, x, part)
    assert len(expm_calls) == 2 * bound + 1 and _result_bits(again) == _result_bits(first)


def test_one_model_gets_a_step_per_partition_and_flow():
    c = lambda x: np.sqrt(1.0 + x * x)

    def sinh_like():
        return VectorFieldSystem((GenericField(lambda x: 0.1 * c(x), 1),
                                  GenericField(c, 1)))

    sys, f, x = sinh_like(), MultiPoly.coordinate(1, 0), np.array([0.4])
    cases = [(gamma_partition(1.0, 3, gamma), SolverConfig(flow=FlowConfig(substeps=n)))
             for gamma in (1.0, 2.0) for n in (1, 2)]
    shared = [_result_bits(klv_full(DEGREE5, sys, f, x, *case)) for case in cases]
    fresh = [_result_bits(klv_full(degree5_d1(), sinh_like(), f, x, *case))
             for case in cases]
    assert shared == fresh and len(set(shared)) == len(cases)


def test_a_level_step_keeps_its_arrays_read_only():
    step = _LevelStep(gbm(0.05, 0.3), DEGREE3.paths, [0.5, 0.5], FlowConfig())
    for arr in (step.coefficients, step.lengths, step.maps, step.composed):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0


@pytest.mark.parametrize("batch", [0, -3])
def test_euler_rejects_a_batch_below_one(batch):
    with pytest.raises(ValueError, match=f"batch must be an integer >= 1, got {batch}"):
        euler_mc(gbm(0.05, 0.3), lambda y: float(y[0]), [1.0], 1.0, 4, 10, 1,
                 batch=batch)


def _sum_cases():
    rng = np.random.default_rng(2008)
    for case in range(3000):
        # sizes 1..5000, log-uniform
        n = int(np.exp(rng.uniform(0.0, math.log(5000.5))))
        family = case % 4
        if family == 0:
            terms = rng.standard_normal(n)
        elif family == 1:
            terms = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
        elif family == 2:
            # pairs that cancel exactly, and one small residue
            half = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
            terms = np.concatenate([half, -half, [2.0**-60]])
            rng.shuffle(terms)
        else:
            terms = rng.standard_normal(n) * 2.0 ** rng.integers(-1074, -1000, n)
            terms[rng.random(n) < 0.5] = 0.0
        yield terms
    yield np.empty(0)
    yield rng.standard_normal(1 << 20) * 10.0 ** rng.integers(-30, 31, 1 << 20)


def test_exact_sum_is_fsum_to_the_bit():
    for terms in _sum_cases():
        assert _exact_sum(terms).hex() == math.fsum(terms.tolist()).hex()


def _outcome(total, terms):
    try:
        return repr(total(terms))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("terms", [
    [1.0, math.inf], [-math.inf, 2.0], [math.inf, -math.inf], [math.nan, 1.0],
    [1e308, 1e308], [2.0**901, -2.0**901, 1.0],
], ids=["inf", "-inf", "inf-inf", "nan", "overflow", "huge"])
def test_exact_sum_keeps_fsum_on_non_finite_and_huge_terms(terms):
    # [1e308, 1e308] raises OverflowError in both
    assert (_outcome(lambda t: _exact_sum(np.array(t)), terms)
            == _outcome(math.fsum, terms))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_full_tree_is_the_exact_sum_of_its_branch_terms(
        k, noncommuting_system, cubic_payoff, x_start):
    # every branch flowed on its own, one rescaled path per level
    formula = degree5_d1()
    part = gamma_partition(1.0, k, 2.0)
    paths = [rescale(formula, gap).paths for gap in part.gaps]
    weights, leaves = [], []
    for branch in itertools.product(range(formula.n_points), repeat=k):
        weight, state = 1.0, x_start
        for level, i in enumerate(branch):
            weight *= formula.weights[i]
            state = flow_along_path(paths[level][i], noncommuting_system, state)
        weights.append(weight)
        leaves.append(state)
    terms = np.array(weights) * cubic_payoff(np.array(leaves))
    got = klv_full(formula, noncommuting_system, cubic_payoff, x_start, part)
    assert got.value == math.fsum(terms.tolist())
    assert got.leaves_evaluated == formula.n_points**k


@pytest.mark.parametrize("f", [lambda y: y, lambda y: [float(y[0]), 1.0]],
                         ids=["state", "pair"])
def test_every_solver_refuses_a_payoff_that_is_not_one_number_per_state(f):
    args = degree5_d1(), gbm(0.05, 0.3), f, [1.0], gamma_partition(1.0, 3, 2.0)
    with pytest.raises(ValueError, match=r"one number per state.*\(27, \d\)"):
        klv_full(*args)
    with pytest.raises(ValueError, match="one number per state"):
        klv_sampled(*args, 500, 3)
    with pytest.raises(ValueError, match=r"one number per state.*\(10, \d\)"):
        euler_mc(gbm(0.05, 0.3), f, [1.0], 1.0, 4, 10, 1)


def test_sampled_stderr_of_identical_leaves_is_zero():
    result = klv_sampled(degree5_d1(), gbm(0.05, 0.3), lambda y: 0.1, [1.0],
                         gamma_partition(1.0, 4, 2.0), 5000, 0)
    assert result.stderr == 0.0


def _nan_where_only_the_middle_path_goes(x):
    # (0, nan) where x_1 > 0.9 and |x_2| < 0.01, (0, 1) elsewhere: of
    # degree5_d1's paths from 0 under V_0 = e_1, only the middle one (dx = 0)
    # enters that region, and it does not use V_1
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[..., 1] = np.where((x[..., 0] > 0.9) & (np.abs(x[..., 1]) < 0.01),
                           np.nan, 1.0)
    return out


def test_a_zero_coefficient_on_a_non_finite_field_adds_exactly_zero():
    sys = VectorFieldSystem((AffineField(np.zeros((2, 2)), [1.0, 0.0]),
                             GenericField(_nan_where_only_the_middle_path_goes, 2)))
    formula, x0, part = degree5_d1(), np.zeros(2), Partition((0.0, 1.0))
    f = lambda y: float(y[1])
    # each path on its own flows finitely
    terms = [w * f(flow_along_path(path, sys, x0))
             for w, path in zip(formula.weights, formula.paths)]
    assert klv_full(formula, sys, f, x0, part).value == math.fsum(terms)
    sampled = klv_sampled(formula, sys, f, x0, part, 200, 1)
    assert math.isfinite(sampled.value) and math.isfinite(sampled.stderr)


@pytest.mark.parametrize("payoff_vars, state_dim", [(2, 3), (3, 2)])
def test_full_tree_refuses_a_polynomial_payoff_of_another_dimension(
        payoff_vars, state_dim):
    # the leaves reach a MultiPoly as a strided view: a payoff over fewer
    # variables must not read only the first columns of it
    sys = VectorFieldSystem((
        AffineField(0.1 * np.eye(state_dim), np.full(state_dim, 0.2)),
        AffineField(np.diag(np.linspace(0.1, 0.3, state_dim)), np.zeros(state_dim)),
    ))
    f = MultiPoly(payoff_vars, {(1,) + (0,) * (payoff_vars - 1): 1.0})
    with pytest.raises(ValueError, match="expected point of shape"):
        klv_full(DEGREE3, sys, f, np.ones(state_dim), gamma_partition(1.0, 3, 2.0))


def test_full_tree_diagnostics_are_the_same_for_every_batch_size(
        noncommuting_system, cubic_payoff, x_start):
    # a block's leaves reach the payoff grouped by support point (i-major);
    # the naive sum and the extremes show whether their terms went back to
    # branch order, which batch 1 (one node's n children per block) has
    calls = []

    def scalar(y):
        calls.append(y)
        return float(cubic_payoff(y))

    part = gamma_partition(1.0, 4, 2.0)
    for f in (cubic_payoff, scalar):
        seen = set()
        for batch in (1, 3, 1 << 16):
            calls.clear()
            r = klv_full(degree5_d1(), noncommuting_system, f, x_start, part,
                         SolverConfig(batch=batch))
            d = r.diagnostics
            seen.add((r.value, d["compensation"], d["min_leaf"], d["max_leaf"],
                      r.leaves_evaluated))
            assert len(calls) == (3**4 if f is scalar else 0)
        assert len(seen) == 1  # bit-identical, not merely close


_BAD_STARTS = {"long": [1.0, 2.0], "empty": [], "scalar": 1.0, "nan": [np.nan]}


def _start_state_calls():
    sys, f, part = gbm(0.05, 0.3), MultiPoly.coordinate(1, 0), Partition((0.0, 1.0))
    return {
        "klv_full": lambda x: klv_full(DEGREE3, sys, f, x, part),
        "klv_sampled": lambda x: klv_sampled(degree3(1), sys, f, x, part, 10, 0),
        "klv_sweep": lambda x: klv_sweep(degree3(1), sys, f, x, [part, part]),
        "euler_mc": lambda x: euler_mc(sys, f, x, 1.0, 4, 10, 0),
        "kusuoka_step": lambda x: kusuoka_step(lie_form(degree3(1)), sys, f, x, 0.5),
    }


@pytest.mark.parametrize("start", sorted(_BAD_STARTS))
@pytest.mark.parametrize("entry", sorted(_start_state_calls()))
def test_every_solver_refuses_a_start_state_of_another_shape_or_not_finite(
        entry, start):
    x = _BAD_STARTS[start]
    expected = ("must be finite, got [nan]" if start == "nan" else
                f"must have shape (1,) for this system, got shape {np.shape(x)}")
    with pytest.raises(ValueError, match=re.escape(expected)):
        _start_state_calls()[entry](x)


@pytest.mark.parametrize("start", [[1.0, 2.0], [], 1.0, [[1.0, 2.0]]],
                         ids=["long", "empty", "scalar", "wide_block"])
def test_flow_along_path_refuses_states_of_another_width(start):
    with pytest.raises(ValueError, match=re.escape(
            f"last axis of length 1, got shape {np.shape(start)}")):
        flow_along_path(degree3(1).paths[0], gbm(0.05, 0.3), start)


def _parity_values():
    # solves whose values a sized default flow must leave as they are:
    # generic fields at an explicit count of 32, flow_exp and flow_along_path
    # at their default count, and affine systems, which flow in closed form
    f, x = (lambda y: float(y[0])), np.array([0.4])
    generic, part = _sqrt_system(), gamma_partition(1.0, 4, 2.0)
    pair = VectorFieldSystem((AffineField([[0.2, -0.4], [0.3, 0.1]], [0.1, -0.2]),
                              AffineField([[0.0, 0.5], [-0.3, 0.2]], [0.4, 0.3]),
                              AffineField([[0.1, 0.0], [0.2, -0.1]], [0.0, 0.2])))
    cubic = MultiPoly(2, {(3, 0): 1.0, (0, 2): 0.5, (1, 1): -1.0})
    xy = np.array([0.7, -0.3])
    parts = [gamma_partition(1.0, k, 2.0) for k in (2, 4)]
    sampled = [klv_sampled(degree5_d1(), generic, f, x, part, 500, 3, FLOW32),
               klv_sampled(degree3(2), pair, cubic, xy, part, 500, 3),
               *klv_sweep(degree3(1), generic, f, x, parts, FLOW32, 300, 5)]
    return [r.value for r in sampled] + [r.stderr for r in sampled] + [
        klv_full(degree5_d1(), generic, f, x, part, FLOW32).value,
        *(r.value for r in klv_sweep(degree3(1), generic, f, x, parts, FLOW32)),
        kusuoka_step(lie_form(degree3(1)), generic, f, x, 0.3, FLOW32.flow),
        *flow_exp(generic.fields[1], 0.7, np.array([[0.4], [-1.1]])).ravel(),
        *flow_along_path(degree5_d1().paths[0], generic, x),
        klv_full(degree5_d1(), gbm(0.05, 0.3), f, np.array([1.0]), part).value,
        *(r.value for r in klv_sweep(degree3(2), pair, cubic, xy, parts)),
        kusuoka_step(lie_form(degree5_d1()), gbm(0.05, 0.3), f, np.array([1.0]), 0.3),
    ]


def test_pinned_and_affine_flows_keep_their_values_bit_for_bit():
    # the digest was taken when every generic flow ran 32 RK4 substeps per
    # unit parameter: an explicit count and affine systems must not move
    digest = hashlib.sha256("\n".join(
        float(v).hex() for v in _parity_values()).encode()).hexdigest()
    assert digest == "ac8d7bc3c2d0c0310ae22882f7ddd64365f245218f3be5341a900ee532b8f824"


def test_euler_heun_keeps_its_bits():
    # the digest was taken when euler_mc moved to the Euler-Heun step: its
    # values on generic fields with Jacobians, on gbm and on a 2-D affine
    # system at two batch sizes must not move
    f, x = (lambda y: float(y[0])), np.array([0.4])
    sys, x0, payoff = _cubic_2d(0)
    values = [*euler_mc(_sinh_system(), f, x, 1.0, 8, 200, 7),
              *euler_mc(gbm(0.05, 0.3), f, np.array([1.0]), 1.0, 8, 200, 7),
              *(v for batch in (37, 65_536)
                for v in euler_mc(sys, payoff, x0, 1.0, 8, 200, 7, batch=batch))]
    digest = hashlib.sha256(_bits(values).encode()).hexdigest()
    assert digest == "86fa5bb4665dab94cc884e3652b458321b9a35703d2c3dbea0f9c8c2cf113d64"


def test_generic_solves_report_the_rk4_count_of_each_level():
    # degree5_d1: V_0 runs 3 segments * 4 stages * n_j times at level j,
    # plus the three calls of the field probe; n_j = ceil(8 s_j^(-1/8))
    calls = []

    def v0(x):
        calls.append(x.shape)
        return 0.1 * np.sqrt(1.0 + x * x)

    sys = VectorFieldSystem(
        (GenericField(v0, 1), GenericField(lambda x: np.sqrt(1.0 + x * x), 1))
    )
    part = gamma_partition(1.0, 8, 2.0)
    result = klv_sampled(DEGREE5, sys, lambda y: float(y[0]), np.array([0.4]),
                         part, 2_000, 5)
    counts = result.diagnostics["substeps"]
    assert counts == [10, 10, 10, 11, 11, 12, 12, 14]
    assert counts == [math.ceil(8.0 * s ** -0.125) for s in part.gaps]
    assert len(calls) == sum(3 * 4 * n for n in counts) + 3
    # a sweep reports each partition's own levels; an explicit count is
    # every level's
    swept = klv_sweep(DEGREE5, sys, lambda y: float(y[0]), np.array([0.4]),
                      [gamma_partition(1.0, k, 1.0) for k in (1, 3)])
    assert [r.diagnostics["substeps"] for r in swept] == [[8], [10, 10, 10]]
    pinned = klv_full(DEGREE3, sys, lambda y: float(y[0]), np.array([0.4]),
                      gamma_partition(1.0, 3, 1.0), FLOW64)
    assert pinned.diagnostics["substeps"] == [64, 64, 64]
    affine = klv_full(degree5_d1(), gbm(0.05, 0.3), lambda y: float(y[0]),
                      np.array([1.0]), part)
    assert "substeps" not in affine.diagnostics


@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("formula", [degree5_d1(), degree3(1)],
                         ids=["degree5_d1", "degree3_1"])
def test_sized_default_flow_error_is_small_against_the_scheme_error(formula, gamma):
    # dX = 0.1 c dt + c o dW, c = sqrt(1 + x^2): asinh X_t = asinh x + 0.1 t + W_t
    x, f = np.array([0.4]), (lambda y: float(y[0]))
    truth = math.sinh(math.asinh(0.4) + 0.1) * math.exp(0.5)
    fine = SolverConfig(flow=FlowConfig(substeps=256))
    for k in (2, 4, 6):
        part = gamma_partition(1.0, k, gamma)
        value = klv_full(formula, _sqrt_system(), f, x, part).value
        reference = klv_full(formula, _sqrt_system(), f, x, part, fine).value
        assert abs(value - reference) <= 0.01 * abs(reference - truth), k


def _cubic_2d(seed):
    # the conftest pair, a seeded third affine field, a seeded start and a
    # dense seeded cubic payoff on all ten monomials of degree <= 3
    rng = np.random.default_rng([seed, 2])
    a2, b2 = rng.uniform(-0.3, 0.3, (2, 2)), rng.uniform(-0.3, 0.3, 2)
    x0 = np.array([0.7, -0.3]) + rng.uniform(-0.2, 0.2, 2)
    sys = VectorFieldSystem((AffineField([[0.2, -0.4], [0.3, 0.1]], [0.1, -0.2]),
                             AffineField([[0.0, 0.5], [-0.3, 0.2]], [0.4, 0.3]),
                             AffineField(a2, b2)))
    exps = [e for e in np.ndindex(4, 4) if sum(e) <= 3]
    return sys, x0, MultiPoly(2, {e: float(rng.uniform(-1.0, 1.0)) for e in exps})


def _sinh_system(mu=0.1):
    # dX = c(X) (mu dt + o dW), c(x) = sqrt(1 + x^2), with exact Jacobians
    c = lambda x: np.sqrt(1.0 + x * x)
    return VectorFieldSystem((
        GenericField(lambda x: mu * c(x), 1,
                     jacobian_func=lambda x: np.reshape(mu * x / c(x), (1, 1))),
        GenericField(c, 1, jacobian_func=lambda x: np.reshape(x / c(x), (1, 1))),
    ))


def _bits(value) -> str:
    # floats by their hex digits, containers element by element
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_bits(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_bits(v) for v in value) + "]"
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return repr(value)


def _result_bits(result):
    return _bits([result.value, result.stderr, result.leaves_evaluated,
                  result.diagnostics])


def _divergence_bits(solve):
    with pytest.raises(FlowDivergence) as err:
        solve()
    return _bits([err.value.row, err.value.segment, err.value.substep, str(err.value)])


def _layout_values():
    # every way the level step is reached: both trees at several batch
    # sizes, path and Lie support, generic and affine fields, flow_along_path
    # on one state and on a block, and a divergence in each tree
    out, f = [], (lambda y: float(y[0]))
    for seed in range(3):
        sys, x0, payoff = _cubic_2d(seed)
        for k in (3, 7):
            part = gamma_partition(1.0, k, 2.0)
            for batch in (1 << 16, 37):
                out.append(_result_bits(klv_full(degree3(2), sys, payoff, x0, part,
                                                 SolverConfig(batch=batch))))
            out.append(_result_bits(klv_sampled(degree3(2), sys, payoff, x0, part,
                                                2_000, seed)))
            out.append(_result_bits(klv_full(lie_form(degree3(2)), sys, payoff, x0,
                                             part)))
        states = x0 + np.random.default_rng(seed).standard_normal((7, 2))
        for path in degree3(2).paths:
            out.append(_bits([flow_along_path(path, sys, x0),
                              flow_along_path(path, sys, states)]))
    sinh, x = _sinh_system(), np.array([0.4])
    part = gamma_partition(1.0, 4, 2.0)
    for batch in (5, 1 << 16):
        out.append(_result_bits(klv_full(degree5_d1(), sinh, f, x, part,
                                         SolverConfig(batch=batch))))
    out.append(_result_bits(klv_sampled(degree5_d1(), sinh, f, x,
                                        gamma_partition(1.0, 8, 2.0), 1_000, 4)))
    out.append(_bits([kusuoka_step(lie_form(degree3(1)), sinh, f, x, 0.3)]))
    states = np.linspace(-1.5, 1.5, 7)[:, None]
    for path in degree5_d1().paths:
        out.append(_bits([flow_along_path(path, sinh, x),
                          flow_along_path(path, sinh, states)]))
    blowup_part = gamma_partition(1.0, 4, 1.0)
    for system in sorted(_MULTI_SEGMENT_BLOWUPS):
        sys = _MULTI_SEGMENT_BLOWUPS[system]()
        for batch in (1 << 16, 3):
            out.append(_divergence_bits(lambda: klv_full(
                DEGREE5, sys, f, np.array([1.0]), blowup_part,
                SolverConfig(batch=batch))))
        out.append(_divergence_bits(lambda: klv_sampled(
            DEGREE5, sys, f, np.array([1.0]), blowup_part, 200, 3)))
    return out


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_layouts_keep_their_bits():
    # the digest was taken before the level step moved to one routine on
    # broadcast columns: values, stderrs, diagnostics and the (row, segment,
    # message) of each divergence must not move
    digest = hashlib.sha256("\n".join(_layout_values()).encode()).hexdigest()
    assert digest == "b53ea01586fc72a5056895b3af0ab47a9a666656fab9e065c0bcedfcdc542eac"
