"""The three input rules of the estimate, each refused by one function with
one message that names the bad value:

- time grids 0 = t_0 < ... < t_k (partitions and path knots), checked by
  path_signature._check_times;
- positive finite horizons and gaps, checked by
  path_signature._check_positive;
- cubature formulas, checked by CubatureFormula itself, also when a formula
  is loaded with from_dict.

Boundary values stay accepted. The CLI reports a config value of the wrong
JSON type as one error line.
"""
import json
import math
import re

import numpy as np
import pytest

from wienercub import (
    CubatureFormula,
    CubatureLoadError,
    Partition,
    PiecewiseLinearPath,
    brownian_expected_signature,
    brownian_rescale,
    cli,
    degree3,
    degree5_d1,
    euler_mc,
    flow_tensor_gap,
    gamma_partition,
    gbm,
    klv_sweep,
    kusuoka_step,
    lie_form,
    monte_carlo_expected_signature,
    remainder_box_bound,
    rescale,
)
from wienercub.cubature import from_dict

# -- time grids ------------------------------------------------------------

BAD_GRIDS = [
    ((0.0,), "need at least two entries, got (0.0,)"),
    ((0.0, math.nan, 1.0), "must be finite, got nan"),
    ((0.0, 1.0, math.inf), "must be finite, got inf"),
    ((1e-6, 1.0), "must start at 0, got 1e-06"),
    ((0.0, 0.5, 0.5), "must increase strictly: 0.5 !< 0.5"),
    ((0.0, 0.5, 0.25), "must increase strictly: 0.5 !< 0.25"),
]


def grid_path(knots):
    return PiecewiseLinearPath(knots, ((0.0,),) * len(knots))


@pytest.mark.parametrize("times, message", BAD_GRIDS)
def test_partition_refuses_a_bad_grid(times, message):
    with pytest.raises(ValueError, match=re.escape(f"partition times {message}")):
        Partition(times)


@pytest.mark.parametrize("times, message", BAD_GRIDS)
def test_path_refuses_bad_knots(times, message):
    with pytest.raises(ValueError, match=re.escape(f"knots {message}")):
        grid_path(times)


def test_a_first_time_within_the_tolerance_of_zero_is_accepted():
    assert Partition((5e-13, 1.0)).k == 1
    assert grid_path((5e-13, 1.0)).horizon == 1.0


def test_gamma_partition_refuses_fewer_than_one_step():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        gamma_partition(1.0, 0, 2.0)


# -- positive finite horizons and gaps --------------------------------------

LINE = PiecewiseLinearPath.straight_line((0.3,))
GBM = gbm(0.05, 0.3)
X1 = np.array([1.0])


def identity(y):
    return float(y[0])


HORIZON_USERS = {
    "gamma_partition": lambda h: gamma_partition(h, 3, 2.0),
    "brownian_rescale": lambda h: brownian_rescale(LINE, h),
    "brownian_expected_signature": lambda h: brownian_expected_signature(1, 2, h),
    "monte_carlo_expected_signature": lambda h: monte_carlo_expected_signature(
        1, 2, h, 10, 4, np.random.default_rng(0)),
    "euler_mc": lambda h: euler_mc(GBM, identity, X1, h, 4, 10, 1),
    "CubatureFormula": lambda h: CubatureFormula(
        1, 3, (1.0,), lie_polys=lie_form(degree3(1)).lie_polys[:1], horizon=h),
    "rescale": lambda h: rescale(degree3(1), h),
}


def gap_users():
    system, payoff, poly = cli._gap_experiment(3, None)
    x = np.asarray(cli._GAP_X)
    return {
        "kusuoka_step": lambda s: kusuoka_step(lie_form(degree3(1)), GBM, identity, X1, s),
        "flow_tensor_gap": lambda s: flow_tensor_gap(poly, system, payoff, x, s),
        "remainder_box_bound": lambda s: remainder_box_bound(poly, system, payoff, s),
    }


NOT_POSITIVE = [0.0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize("value", NOT_POSITIVE)
@pytest.mark.parametrize("user", sorted(HORIZON_USERS))
def test_a_horizon_must_be_positive_and_finite(user, value):
    with pytest.raises(ValueError, match=re.escape(
            f"horizon must be positive and finite, got {value!r}")):
        HORIZON_USERS[user](value)


@pytest.mark.parametrize("value", NOT_POSITIVE)
@pytest.mark.parametrize("user", ["kusuoka_step", "flow_tensor_gap", "remainder_box_bound"])
def test_a_gap_must_be_positive_and_finite(user, value):
    with pytest.raises(ValueError, match=re.escape(
            f"gap must be positive and finite, got {value!r}")):
        gap_users()[user](value)


@pytest.mark.parametrize("user", ["kusuoka_step", "flow_tensor_gap", "remainder_box_bound"])
def test_a_tiny_gap_is_accepted(user):
    assert math.isfinite(gap_users()[user](1e-300))


def test_klv_sweep_refuses_fewer_than_two_samples():
    with pytest.raises(ValueError, match="need n_samples >= 2, got 1"):
        klv_sweep(lie_form(degree3(1)), GBM, identity, X1,
                  (gamma_partition(1.0, 2, 1.0),), n_samples=1)


# -- cubature formulas ------------------------------------------------------


def lie_record():
    return lie_form(degree3(1)).to_dict()


def test_a_tiny_weight_is_accepted():
    record = degree5_d1().to_dict()
    record["weights"][0] = 1e-300
    assert from_dict(record).weights[0] == 1e-300
    assert CubatureFormula(1, 3, (1e-300,), paths=(LINE,)).n_points == 1


def test_loader_names_a_missing_key():
    record = degree5_d1().to_dict()
    del record["weights"]
    with pytest.raises(CubatureLoadError, match="^f.json: missing key 'weights'$"):
        from_dict(record, where="f.json")


@pytest.mark.parametrize("weight", [0.0, math.nan])
def test_loader_refuses_a_weight_that_is_not_positive(weight):
    record = degree5_d1().to_dict()
    record["weights"][1] = weight
    with pytest.raises(CubatureLoadError, match=re.escape(
            f"f.json: weight 1 must be strictly positive, got {weight!r}")):
        from_dict(record, where="f.json")


def test_loader_names_a_malformed_path():
    record = degree5_d1().to_dict()
    del record["support"]["paths"][2]["points"]
    with pytest.raises(CubatureLoadError,
                       match=r"^f.json: paths\[2\]: malformed path record: 'points'$"):
        from_dict(record, where="f.json")


def test_loader_names_a_non_lie_element():
    record = lie_record()
    record["support"]["lie_polys"][1]["terms"].append({"word": [1, 1], "coeff": 0.3})
    with pytest.raises(CubatureLoadError, match=r"^f.json: lie_polys\[1\]: .*defect"):
        from_dict(record, where="f.json")


@pytest.mark.parametrize("support", [{"curves": []}, {}])
def test_loader_refuses_support_without_paths_or_lie_polys(support):
    record = lie_record()
    record["support"] = support
    with pytest.raises(CubatureLoadError,
                       match="^f.json: support must hold 'paths' or 'lie_polys'$"):
        from_dict(record, where="f.json")


@pytest.mark.parametrize("key, value, message", [
    ("dimension", None, "int() argument"),
    ("support", 3, "argument of type 'int' is not iterable"),
    ("support", {"paths": None}, "'NoneType' object is not iterable"),
])
def test_loader_refuses_a_value_of_the_wrong_type(key, value, message):
    record = lie_record()
    record[key] = value
    with pytest.raises(CubatureLoadError, match="^" + re.escape(f"f.json: {message}")):
        from_dict(record, where="f.json")


# -- config values of the wrong JSON type -----------------------------------


def ou_config(tmp_path, **changes):
    config = {
        "system": {"name": "ou", "theta": 0.7, "sigma": 0.4},
        "payoff": {"name": "identity"},
        "x0": [0.8],
        "T": 1.0,
        "cubature": {"builtin": "degree3", "dimension": 1},
        "partition": {"gamma": 2.0, "k_list": [2, 3]},
        "reference": {"steps": 4, "paths": 200},
        "seed": 3,
    }
    config.update(changes)
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    return str(target)


@pytest.mark.parametrize("command, changes", [
    (["mc-reference"], {"reference": {"steps": None}}),
    (["solve"], {"system": {"name": "ou", "theta": [0.7], "sigma": 0.4}}),
    (["converge", "--out", "OUT"], {"caps": {"batch": None}}),
])
def test_a_config_value_of_the_wrong_type_is_one_error_line(tmp_path, capsys,
                                                          command, changes):
    argv = [str(tmp_path) if a == "OUT" else a for a in command]
    code = cli.main([*argv, "--config", ou_config(tmp_path, **changes)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
