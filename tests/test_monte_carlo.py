"""The two Monte Carlo estimators share one batch loop, `_brownian_mean`.

Each is checked bit for bit against a copy of the loop it had before the
loops were merged, written out here: its own batches, its own draws
`rng.standard_normal((b, d))` scaled by sqrt(h) and moments about the
first path's values.
"""
import math
import tracemalloc

import numpy as np
import pytest

from wienercub.klv_solver import _block_payoff, _start_state, euler_mc
from wienercub.operator_calculus import MultiPoly
from wienercub.path_signature import (
    _chen_plan,
    _chen_step,
    monte_carlo_expected_signature,
)
from wienercub.tensor_algebra import word_program
from wienercub.vector_fields import (
    AffineField,
    FlowDivergence,
    GenericField,
    VectorFieldSystem,
    gbm,
)

from conftest import A0, A1, B0, B1, X_START


def looped_euler_mc(sys, f, x, horizon, steps, paths, seed, batch):
    x = _start_state(sys, x)
    payoff = _block_payoff(f)
    drift, space = sys.fields[0], sys.fields[1:]
    h = horizon / steps
    rt = math.sqrt(h)
    rng = np.random.default_rng(seed)
    total = 0.0
    shift = None
    shifted = 0.0
    shifted_sq = 0.0
    done = 0
    while done < paths:
        b = min(batch, paths - done)
        states = np.broadcast_to(x, (b, x.shape[0])).copy()
        for _ in range(steps):
            # one Euler-Heun step: predictor g, then the trapezoid of the
            # noise fields at states and states + g
            dw = rng.standard_normal((b, len(space))) * rt
            g = sum(v(states) * dw[:, i : i + 1] for i, v in enumerate(space))
            heun = sum(v(states + g) * dw[:, i : i + 1] for i, v in enumerate(space))
            states = states + drift(states) * h + 0.5 * (g + heun)
        vals = payoff(states)
        if shift is None:
            shift = float(vals[0])
        dev = vals - shift
        total += float(np.sum(vals))
        shifted += float(np.sum(dev))
        shifted_sq += float(np.sum(dev**2))
        done += b
    var = max(shifted_sq - shifted**2 / paths, 0.0) / (paths - 1)
    return total / paths, math.sqrt(var / paths)


def looped_expected_signature(dimension, truncation, horizon, n_paths, n_steps,
                              rng, batch_size):
    program = word_program(dimension, truncation)
    plan = _chen_plan(dimension, truncation)
    words = program.words
    h = horizon / n_steps
    sum_ = np.zeros(len(words))
    shift = None
    shifted_sum = np.zeros(len(words))
    shifted_sumsq = np.zeros(len(words))
    done = 0
    while done < n_paths:
        b = min(batch_size, n_paths - done)
        coeffs = [np.zeros(b) for _ in words]
        coeffs[0] = np.ones(b)
        for _ in range(n_steps):
            db = rng.standard_normal((b, dimension)) * math.sqrt(h)
            coeffs = _chen_step(coeffs, [h, *db.T], plan)
        if shift is None:
            shift = [c[0] for c in coeffs]
        for i, c in enumerate(coeffs):
            sum_[i] += c.sum()
            dev = c - shift[i]
            shifted_sum[i] += dev.sum()
            shifted_sumsq[i] += (dev**2).sum()
        done += b
    mean = sum_ / n_paths
    var = np.maximum(shifted_sumsq - shifted_sum**2 / n_paths, 0.0) / (n_paths - 1)
    return mean.tolist(), dict(zip(words, np.sqrt(var / n_paths).tolist()))


def _sqrt_system():
    """dX = c(X) (0.1 dt + dW), c(x) = sqrt(1 + x^2), with exact Jacobians."""
    def c(x):
        return np.sqrt(1.0 + x * x)

    def dc(x):
        return np.reshape(x / c(x), (1, 1))

    return VectorFieldSystem((
        GenericField(lambda x: 0.1 * c(x), 1, jacobian_func=lambda x: 0.1 * dc(x)),
        GenericField(c, 1, jacobian_func=dc),
    ))


PROBLEMS = {
    "gbm": (gbm(0.05, 0.3), lambda y: float(y[0]), [1.0]),
    "sqrt": (_sqrt_system(), lambda y: float(y[0]), [0.5]),
    "affine_2d_cubic": (
        VectorFieldSystem((AffineField(A0, B0), AffineField(A1, B1))),
        MultiPoly(2, {(3, 0): 1.0, (0, 2): 0.5, (1, 1): -1.0}),
        list(X_START),
    ),
}


@pytest.mark.parametrize("batch", [7, 128, 65_536])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_euler_mc_equals_its_own_batch_loop(name, batch):
    system, payoff, x0 = PROBLEMS[name]
    for seed in range(3):
        args = (system, payoff, x0, 1.0, 8, 301, seed, batch)
        assert euler_mc(*args) == looped_euler_mc(*args)


@pytest.mark.parametrize("batch_size", [250, 600, 20_000])
@pytest.mark.parametrize("dimension, truncation", [(1, 3), (2, 4), (3, 3)])
def test_expected_signature_equals_its_own_batch_loop(dimension, truncation,
                                                      batch_size):
    words = word_program(dimension, truncation).words
    args = (dimension, truncation, 1.0, 601, 12)
    for seed in range(2):
        estimate, stderr = monte_carlo_expected_signature(
            *args, np.random.default_rng(seed), batch_size)
        mean, looped_stderr = looped_expected_signature(
            *args, np.random.default_rng(seed), batch_size)
        assert [estimate.coeff(w) for w in words] == mean
        assert stderr == looped_stderr


def test_a_diverging_euler_path_names_its_step_and_row():
    # the drift is infinite above 0.5: a path that the first step moves
    # there leaves the finite range at step 2
    system = VectorFieldSystem((
        GenericField(lambda x: np.where(x > 0.5, np.inf, 0.0), 1),
        AffineField([[0.0]], [1.0]),
    ))
    steps, paths, seed = 4, 64, 1
    first = np.random.default_rng(seed).standard_normal((paths, 1)) * math.sqrt(1 / steps)
    row = int(np.argmax(first[:, 0] > 0.5))
    assert row > 0 and first[row, 0] > 0.5
    with pytest.raises(FlowDivergence, match="step 2/4") as err:
        euler_mc(system, lambda y: float(y[0]), [0.0], 1.0, steps, paths, seed)
    assert err.value.substep == 2
    assert err.value.row == row


def test_the_expected_signature_holds_one_batch_array_and_the_step_temps():
    # a batch of b paths is one (K, b) coefficient array, written over in
    # place, plus the T temps of one Chen step: a peak of 1.25 (K + T) b
    # floats leaves room for the draws and the scaled increments, not for a
    # second (K, b) copy
    dimension, truncation, paths = 2, 4, 2000
    words = word_program(dimension, truncation).words
    temps = _chen_plan(dimension, truncation).temps
    monte_carlo_expected_signature(dimension, truncation, 1.0, 10, 2,
                                   np.random.default_rng(0))
    tracemalloc.start()
    try:
        monte_carlo_expected_signature(dimension, truncation, 1.0, paths, 64,
                                       np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (len(words) + len(temps)) * paths * 8
