import hashlib
import math

import numpy as np
import pytest

from wienercub.cubature import degree3, degree5_d1, validate
from wienercub.tensor_algebra import (AlgebraError, GradedTensor, all_words, exp, mul,
                                     word_program)
from wienercub.path_signature import (
    PiecewiseLinearPath,
    _chen_plan,
    _chen_step,
    concat,
    signature,
    log_signature,
    brownian_rescale,
    brownian_expected_signature,
    monte_carlo_expected_signature,
)
from wienercub.vector_fields import AffineField, FlowConfig, VectorFieldSystem, _LevelStep


def test_path_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearPath((0.0, 1.0), ((0.5,), (1.0,)))  # start off origin
    with pytest.raises(ValueError):
        PiecewiseLinearPath((0.1, 1.0), ((0.0,), (1.0,)))  # first knot not 0
    with pytest.raises(ValueError):
        PiecewiseLinearPath((0.0, 0.5, 0.5), ((0.0,), (1.0,), (2.0,)))  # stall
    with pytest.raises(ValueError):
        PiecewiseLinearPath((0.0, 1.0), ((0.0, 0.0), (1.0,)))  # ragged points
    for knots, points in (((0.0, math.inf), ((0.0,), (1.0,))),
                          ((0.0, 1.0), ((0.0,), (math.nan,))),
                          ((0.0, 1.0), ((0.0,), (-math.inf,)))):
        with pytest.raises(ValueError, match="must be finite"):
            PiecewiseLinearPath(knots, points)


def test_increments_and_constructors():
    path = PiecewiseLinearPath.from_increments([(0.5, (1.0, 0.0)), (0.5, (0.0, 2.0))])
    incs = path.increments()
    assert len(incs) == 2
    assert incs[0][0] == 0.5
    np.testing.assert_allclose(incs[1][1], [0.0, 2.0])
    assert path.horizon == 1.0 and path.dimension == 2
    line = PiecewiseLinearPath.straight_line((0.3,), horizon=2.0)
    assert line.n_segments == 1 and line.horizon == 2.0
    assert PiecewiseLinearPath.zero(3).points[-1] == (0.0, 0.0, 0.0)


def test_from_increments_refuses_increments_of_differing_lengths():
    with pytest.raises(ValueError, match="^inconsistent point dimensions$"):
        PiecewiseLinearPath.from_increments([(0.5, [1.0, 2.0]), (0.5, [3.0])])


def _running_sums(steps):
    """The knots and points of `steps`, summed one step at a time."""
    knots, points = [0.0], [np.zeros(len(steps[0][1]))]
    for dt, dx in steps:
        knots.append(knots[-1] + dt)
        points.append(points[-1] + dx)
    return np.array(knots), np.array(points)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_from_increments_sums_step_by_step_to_the_bit(d):
    rng = np.random.default_rng(d)
    steps = [(float(g), rng.uniform(-0.8, 0.8, d)) for g in rng.uniform(0.1, 1.0, 7)]
    path = PiecewiseLinearPath.from_increments(steps)
    knots, points = _running_sums(steps)
    assert np.array(path.knots).tobytes() == knots.tobytes()
    assert np.array(path.points).tobytes() == points.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_degree3_paths_round_trip_through_their_increments_to_the_bit(d):
    for path in degree3(d).paths:
        again = PiecewiseLinearPath.from_increments(path.increments())
        assert np.array(again.knots).tobytes() == np.array(path.knots).tobytes()
        assert np.array(again.points).tobytes() == np.array(path.points).tobytes()


def test_serialization_roundtrip_and_horizon_check():
    path = PiecewiseLinearPath.from_increments([(0.4, (0.1,)), (0.6, (-0.2,))])
    assert PiecewiseLinearPath.from_dict(path.to_dict()) == path
    bad = path.to_dict()
    bad["horizon"] = 2.0
    with pytest.raises(ValueError):
        PiecewiseLinearPath.from_dict(bad)


def test_straight_line_signature_closed_form():
    # one segment: S = exp(dt e0 + dx e1), so the level-k pure-space
    # coefficient is dx^k / k!
    dx = 0.5
    s = signature(PiecewiseLinearPath.straight_line((dx,), 1.0), 5)
    for k in range(6):
        assert s.coeff((1,) * k) == pytest.approx(dx**k / math.factorial(k), abs=1e-15)
    assert s.coeff((0,)) == pytest.approx(1.0)
    assert s.coeff((0, 1)) == pytest.approx(dx / 2.0)


def test_low_level_coefficients_match_direct_sums():
    # independent oracle: with segment increments D_p (time in slot 0),
    # S(i) = sum_p D_p[i] and S(i,j) = sum_{p<q} D_p[i] D_q[j]
    # + 1/2 sum_p D_p[i] D_p[j]; values below were evaluated that way.
    knots = (0.0, 0.3, 0.55, 1.0)
    points = ((0.0, 0.0), (0.4, -0.2), (0.1, 0.5), (-0.3, 0.9))
    frozen = {
        (0,): 1.0,
        (1,): -0.3,
        (2,): 0.9,
        (0, 0): 0.5,
        (0, 1): -0.3775,
        (0, 2): 0.5775,
        (1, 0): 0.0775,
        (1, 1): 0.045,
        (1, 2): 0.095,
        (2, 0): 0.3225,
        (2, 1): -0.365,
        (2, 2): 0.405,
    }
    s = signature(PiecewiseLinearPath(knots, points), 4)
    for w, expected in frozen.items():
        assert s.coeff(w) == pytest.approx(expected, abs=1e-14), w


def test_concatenation_multiplies_signatures():
    a = PiecewiseLinearPath.from_increments([(0.3, (0.2, -0.1)), (0.2, (0.1, 0.4))])
    b = PiecewiseLinearPath.from_increments([(0.5, (-0.3, 0.2))])
    joined = concat(a, b)
    assert joined.horizon == pytest.approx(1.0)
    prod = mul(signature(a, 4), signature(b, 4))
    assert signature(joined, 4).equals(prod, tol=1e-13)


def test_signature_is_group_like():
    s = signature(
        PiecewiseLinearPath.from_increments([(0.5, (0.4,)), (0.5, (-0.7,))]), 4
    )
    assert s.coeff(()) == 1.0


def test_log_signature_is_certified_and_tracks_time():
    path = PiecewiseLinearPath.from_increments([(0.4, (0.2,)), (0.3, (-0.5,))])
    poly = log_signature(path, 5)
    assert poly.certified
    assert poly.tensor.coeff((0,)) == pytest.approx(path.horizon, abs=1e-14)
    assert poly.tensor.coeff((1,)) == pytest.approx(-0.3, abs=1e-14)


def test_rescale_dilates_signature():
    path = PiecewiseLinearPath.from_increments([(0.6, (0.7,)), (0.4, (-0.2,))])
    for horizon in (0.25, 2.0):
        scaled = brownian_rescale(path, horizon)
        assert scaled.horizon == pytest.approx(horizon)
        expected = signature(path, 4).dilate(math.sqrt(horizon))
        assert signature(scaled, 4).equals(expected, tol=1e-13)
    with pytest.raises(ValueError):
        brownian_rescale(scaled, 1.0)  # needs a unit-horizon source


def test_expected_signature_closed_form_values():
    # exp(e0 + (1/2) e1 e1) for d=1, truncation 4
    t = brownian_expected_signature(1, 4)
    frozen = {
        (): 1.0,
        (0,): 1.0,
        (1, 1): 0.5,
        (0, 0): 0.5,
        (0, 1, 1): 0.25,
        (1, 1, 0): 0.25,
        (1, 0, 1): 0.0,
        (1, 1, 1, 1): 0.125,
    }
    for w, expected in frozen.items():
        assert t.coeff(w) == pytest.approx(expected, abs=1e-15), w
    # every odd-space-letter word has zero mean
    assert all(sum(1 for a in w if a != 0) % 2 == 0 for w, _ in t.items())


def test_expected_signature_horizon_is_dilation():
    base = brownian_expected_signature(2, 4, 1.0)
    scaled = brownian_expected_signature(2, 4, 0.3)
    assert scaled.equals(base.dilate(math.sqrt(0.3)), tol=1e-14)


def test_monte_carlo_estimator_converges_on_small_case():
    rng = np.random.default_rng(1234)
    est, stderr = monte_carlo_expected_signature(1, 3, 1.0, 4000, 64, rng)
    truth = brownian_expected_signature(1, 3)
    for w in {w for w, _ in truth.items()} | {w for w, _ in est.items()}:
        gap = abs(est.coeff(w) - truth.coeff(w))
        assert gap <= 5.0 * stderr.get(w, 0.0) + 5e-3, w


def test_monte_carlo_reproducible_and_batching_consistent():
    runs = [
        monte_carlo_expected_signature(
            1, 3, 1.0, 1000, 16, np.random.default_rng(77), batch_size=250
        )[0]
        for _ in range(2)
    ]
    assert runs[0].equals(runs[1], tol=0.0)  # same seed, same batching: exact
    # a different internal batching redistributes the draws; both estimates
    # must still sit within Monte Carlo error of the closed form
    other = monte_carlo_expected_signature(
        1, 3, 1.0, 1000, 16, np.random.default_rng(77), batch_size=1000
    )[0]
    truth = brownian_expected_signature(1, 3)
    for est in (runs[0], other):
        assert est.max_coeff_difference(truth) < 0.15


def _product_signature(path, m):
    """Chen's relation read literally: one tensor exponential per segment."""
    d = path.dimension
    sig = GradedTensor.unit(d, m)
    for dt, dx in path.increments():
        seg = {(0,): dt, **{(i + 1,): float(c) for i, c in enumerate(dx) if c != 0.0}}
        sig = mul(sig, exp(GradedTensor(d, m, seg)))
    return sig


@pytest.mark.parametrize("d,m", [(1, 9), (2, 6), (3, 4), (3, 5)])
def test_signature_matches_product_of_exponentials(d, m):
    rng = np.random.default_rng(100 * d + m)
    for _ in range(3):
        gaps = rng.uniform(0.2, 1.0, 6)
        path = PiecewiseLinearPath.from_increments(
            [(float(g), rng.uniform(-0.8, 0.8, d)) for g in gaps / gaps.sum()]
        )
        got, ref = dict(signature(path, m).items()), dict(_product_signature(path, m).items())
        assert got.keys() == ref.keys()
        for w, c in ref.items():
            assert abs(got[w] - c) <= 1e-14 * max(1.0, abs(c)), w


def test_signature_word_set_when_a_coordinate_never_moves():
    path = PiecewiseLinearPath.from_increments(
        [(0.3, (0.5, 0.0)), (0.2, (-0.4, 0.0)), (0.5, (0.9, 0.0))]
    )
    got = {w for w, _ in signature(path, 5).items()}
    assert got == {w for w, _ in _product_signature(path, 5).items()}
    assert got and not any(2 in w for w in got)
    with pytest.raises(AlgebraError):
        signature(path, -1)


def _split_recursion_estimate(d, m, horizon, n_paths, n_steps, rng, batch_size):
    """The estimator written as the splitting recursion behind Chen's
    relation: every split of a word into a prefix from the running signature
    and a suffix from the segment exponential, on the estimator's draws."""
    words = all_words(d, m)
    index = {w: i for i, w in enumerate(words)}
    h = horizon / n_steps
    sum_, sumsq, done = np.zeros(len(words)), np.zeros(len(words)), 0
    while done < n_paths:
        b = min(batch_size, n_paths - done)
        coeffs = [np.zeros(b) for _ in words]
        coeffs[0] = np.ones(b)
        for _ in range(n_steps):
            db = rng.standard_normal((b, d)) * math.sqrt(h)
            seg = []
            for w in words:
                c = 1.0 / math.factorial(len(w))
                for a in w:
                    c = c * (h if a == 0 else db[:, a - 1])
                seg.append(c)
            coeffs = [
                sum(coeffs[index[w[:j]]] * seg[index[w[j:]]] for j in range(len(w) + 1))
                for w in words
            ]
        sum_ += [c.sum() for c in coeffs]
        sumsq += [(c**2).sum() for c in coeffs]
        done += b
    mean = sum_ / n_paths
    var = np.maximum(sumsq / n_paths - mean**2, 0.0) * (n_paths / (n_paths - 1))
    return dict(zip(words, mean)), dict(zip(words, np.sqrt(var / n_paths)))


@pytest.mark.parametrize("d,m", [(1, 3), (2, 4), (3, 3)])
@pytest.mark.parametrize("batch_size", [600, 250])
def test_monte_carlo_matches_split_recursion_on_the_same_draws(d, m, batch_size):
    n = 600
    est, stderr = monte_carlo_expected_signature(
        d, m, 1.0, n, 12, np.random.default_rng(9), batch_size=batch_size
    )
    ref_mean, ref_se = _split_recursion_estimate(
        d, m, 1.0, n, 12, np.random.default_rng(9), batch_size
    )
    assert stderr.keys() == ref_se.keys()
    for w, mu in ref_mean.items():
        # scale of the per-path values averaged into the mean
        rms = math.sqrt(mu * mu + n * ref_se[w] ** 2)
        assert abs(est.coeff(w) - mu) <= 1e-13 * rms, w
        if any(w):
            assert abs(stderr[w] - ref_se[w]) <= 1e-13 * ref_se[w], w
        else:
            # a pure-time coefficient is the same on every path: both
            # stderrs are rounding of sumsq/n - mean^2, so bound their size
            assert max(stderr[w], ref_se[w]) <= 1e-7 * rms / math.sqrt(n), w


def test_monte_carlo_rejects_bad_batch_size():
    for batch_size in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            monte_carlo_expected_signature(
                1, 2, 1.0, 10, 4, np.random.default_rng(0), batch_size=batch_size
            )


def test_monte_carlo_and_closed_form_reject_bad_horizon():
    for horizon in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon must be positive"):
            monte_carlo_expected_signature(1, 2, horizon, 10, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="horizon must be positive"):
            brownian_expected_signature(1, 2, horizon)
        with pytest.raises(ValueError, match="horizon must be positive"):
            brownian_rescale(PiecewiseLinearPath.straight_line((0.3,)), horizon)


def test_monte_carlo_stderr_of_a_pure_time_word_is_zero():
    # (0, 0) is h^2/2 summed the same way on every path, so it has no spread
    _, stderr = monte_carlo_expected_signature(
        2, 4, 1.0, 600, 12, np.random.default_rng(9))
    assert stderr[(0, 0)] == 0.0
    assert stderr[(0,)] == 0.0
    assert stderr[(1, 1)] > 0.0


@pytest.mark.parametrize("d,m,horizon", [(1, 9, 1.0), (2, 6, 0.3), (3, 5, 2.5)])
def test_expected_signature_is_the_exponential_of_its_generator(d, m, horizon):
    gen = {(0,): horizon, **{(i, i): horizon / 2 for i in range(1, d + 1)}}
    ref = exp(GradedTensor(d, m, gen))
    got = brownian_expected_signature(d, m, horizon)
    assert {w for w, _ in got.items()} == {w for w, _ in ref.items()}
    assert got.max_coeff_difference(ref) <= 1e-15 * max(abs(c) for _, c in ref.items())


@pytest.mark.parametrize("d,m", [(1, 9), (2, 6), (3, 4)])
def test_one_chen_step_serves_float_lists_and_coefficient_arrays(d, m):
    # b = 3 paths of 4 segments: the (K, b) array is written over in place,
    # and each column is, bit for bit, the float-list step on its own path
    plan = _chen_plan(d, m)
    n_words = len(word_program(d, m).words)
    rng = np.random.default_rng(10 * d + m)
    segments = [(float(rng.uniform(0.1, 0.5)), rng.standard_normal((d, 3)))
                for _ in range(4)]
    coeffs = np.zeros((n_words, 3))
    coeffs[0] = 1.0
    for dt, dx in segments:
        assert _chen_step(coeffs, [dt, *dx], plan) is coeffs
    for path in range(3):
        column = [1.0] + [0.0] * (n_words - 1)
        for dt, dx in segments:
            assert _chen_step(column, [dt, *dx[:, path].tolist()], plan) is column
        assert coeffs[:, path].tolist() == column


def _random_path(rng, d):
    # 1 to 5 segments of random durations and Gaussian increments
    n = int(rng.integers(1, 6))
    knots = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, n))))
    points = np.vstack((np.zeros(d), np.cumsum(rng.standard_normal((n, d)), axis=0)))
    return PiecewiseLinearPath(tuple(knots.tolist()), tuple(map(tuple, points.tolist())))


def _increment_values():
    # float hex of signatures, increments and level-step tables of seeded
    # random paths (one of integer points), then the aggregate and validate
    # report of each builtin formula two degrees past its own
    out = []
    rng = np.random.default_rng(2011)
    integer = PiecewiseLinearPath((0, 1, 3), ((0, 0), (2, -1), (5, 4)))
    for d, m in ((1, 9), (2, 6), (3, 4)):
        paths = [_random_path(rng, d) for _ in range(20)]
        for path in paths + [integer] * (d == 2):
            out.append([c for _, c in signature(path, m).items()])
            out.append([v for dt, dx in path.increments() for v in (dt, *dx)])
        sys = VectorFieldSystem(tuple(AffineField.zero(1) for _ in range(d + 1)))
        gaps = np.diff(np.linspace(0.0, 1.0, 4) ** 1.5)
        out.append(_LevelStep(sys, paths, gaps, FlowConfig()).coefficients.ravel())
    for formula in (degree3(1), degree3(2), degree5_d1()):
        m = formula.degree + 2
        report = validate(formula, degree=m)
        out.append([c for _, c in formula.aggregate(m).items()])
        out.append([report.max_defect, *(c for _, c in report.failures)])
        out.append([str(report.worst_word), *(str(w) for w, _ in report.failures)])
    return out


def test_signatures_and_increments_keep_their_bits():
    # the digest was taken while increments, signature and the level-step
    # table each walked the segments by index and validate sorted twice
    text = "\n".join(",".join(v if isinstance(v, str) else float(v).hex() for v in row)
                     for row in _increment_values())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "ca4eb4cef28086ec1fcfd1abd9c8104e2daf8f3c3d1dc20577a4ec04b70c05c4"
