"""Tests of the benchmark's own oracles and arithmetic, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import wienercub as wc  # noqa: E402
from run import tail  # noqa: E402
from spans import PER_OP, Span, op_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    cubic_system,
    generator_oracle,
    sinh_system,
    sinh_truth,
    tree_oracle,
)

EXACT = wc.SolverConfig(flow=wc.FlowConfig(exact_affine=True))


def test_tree_cubic_oracle_error_shrinks_from_k2_to_k4():
    system, x0, payoff = cubic_system(wc, 0)
    truth = generator_oracle(wc, system, payoff, x0, 1.0)
    errors = []
    for k in (2, 4):
        part = wc.gamma_partition(1.0, k, 2.0)
        value = wc.klv_full(wc.degree3(2), system, payoff, x0, part, EXACT).value
        errors.append(abs(value - truth))
        # the coefficient backward induction is the same tree, without the tree
        assert tree_oracle(wc.degree3(2), system, payoff, x0, part) == pytest.approx(
            value, abs=1e-12)
    assert errors[1] < errors[0]


def test_sinh_closed_form_matches_klv_full():
    mu, x0 = 0.1, 0.5
    part = wc.gamma_partition(1.0, 4, 2.0)
    value = wc.klv_full(wc.degree5_d1(), sinh_system(wc, mu), lambda y: float(y[0]),
                        np.array([x0]), part).value
    assert abs(value - sinh_truth(x0, mu, 1.0)) <= 1e-2


def _spans():
    # main thread 1 waits in klv_full while threads 2 and 3 overlap each other
    return [
        Span(0, "bench.op", 1, 0, None, 0.0, 10.0, 0.0),
        Span(1, "klv_solver.klv_full", 1, 0, 0, 1.0, 9.0, 0.0),
        Span(2, "cubature.rescale", 1, 0, 1, 1.0, 2.0, 0.0),
        Span(3, "klv_solver.subtree", 2, 0, None, 2.0, 8.0, 0.0),
        Span(4, "vector_fields.flow_exp", 2, 0, 3, 3.0, 5.0, 0.5),
        Span(5, "klv_solver.subtree", 3, 0, None, 2.5, 8.5, 0.0),
    ]


def test_self_times_on_a_span_tree_with_overlapping_threads():
    times = self_times(_spans())
    assert times[0] == (2.0, 0.0)
    # the pool wait stays in klv_full's self time and is reported beside it
    assert times[1] == (7.0, 6.5)
    assert times[2] == (1.0, 0.0)
    assert times[3] == (4.0, 0.0)          # same-thread child only
    assert times[4] == (1.5, 0.0)          # minus its timed callbacks
    assert times[5] == (6.0, 0.0)


def test_op_metrics_split_busy_time_by_layer():
    m = op_metrics(_spans(), {(0, "vector_fields.flow_exp.rows"): 40.0})[0]
    assert set(m) == {name for name, _ in PER_OP}
    assert m["klv_solver.klv_full.self_s"] == 7.0
    assert m["layer.klv_solver.busy_s"] == pytest.approx(0.5 + 4.0 + 6.0)
    assert m["layer.vector_fields.busy_s"] == 1.5
    assert m["layer.bench.busy_s"] == 2.0
    assert m["vector_fields.flow_exp.rows_per_call"] == 40.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    # 60 samples: p83 is rank 50, leaving ten above it
    assert tail([float(i) for i in range(60, 0, -1)]) == (50.0, 83, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    reported = [name for name, _ in PER_OP] + ["klv_solver.pool_speedup", "trace.overhead"]
    assert [m["name"] for m in bench["per_layer"]] == reported
