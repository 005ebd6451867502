import math
import re

import numpy as np
import pytest

from wienercub.cubature import degree3, degree5_d1, lie_form, rescale
from wienercub.vector_fields import (
    AffineField,
    GenericField,
    VectorFieldSystem,
    FlowConfig,
    FlowDivergence,
    flow_along_path,
    gbm,
)
from wienercub.klv_solver import (
    Partition,
    gamma_partition,
    SolverConfig,
    LeafCapExceeded,
    klv_full,
    klv_sampled,
    kusuoka_step,
    euler_mc,
)

FLOW64 = SolverConfig(flow=FlowConfig(substeps=64))
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


def test_euler_reproducible_and_batched():
    args = (gbm(0.05, 0.3), lambda y: float(y[0]), np.array([1.0]), 1.0, 8, 10_000)
    m1, se1 = euler_mc(*args, 7, batch=1_000)
    m2, se2 = euler_mc(*args, 7, batch=1_000)
    assert (m1, se1) == (m2, se2)


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


def test_dimension_mismatch_rejected(noncommuting_system):
    with pytest.raises(ValueError):
        klv_full(
            degree3(2), noncommuting_system, lambda y: float(y[0]),
            np.array([1.0, 0.0]), gamma_partition(1.0, 2, 1.0), FLOW64,
        )
