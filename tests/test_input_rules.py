"""The input rules of the estimate and of the library, each refused by one
function with one message that names the bad value:

- time grids 0 = t_0 < ... < t_k (partitions and path knots), checked by
  path_signature._check_times;
- positive finite horizons and gaps, checked by
  path_signature._check_positive;
- cubature formulas, checked by CubatureFormula itself, also when a formula
  is loaded with from_dict;
- counts (integers, never bools, of at least a minimum), checked by
  tensor_algebra._check_count;
- control dimensions (one space letter per driving field), checked by
  vector_fields._check_controls;
- unit horizons of the support that rescaling starts from, checked by
  path_signature._check_unit_horizon through the horizon match
  (path_signature._horizons_match) that formulas and path records share;
- letters of words in 0..d, checked by tensor_algebra.check_word;
- numbers (an int or float, never a bool or a string), checked by
  tensor_algebra._is_real where a value is read, not converted: MultiPoly
  coefficients, scale and dilate factors, path increments, the gamma of
  gamma_partition and flow times;
- tensor, path and affine-system records, which their loaders only unpack:
  each value meets the rules of the constructor it is handed to.

Boundary values stay accepted. The CLI reports a config value of the wrong
JSON type, or a key it does not know, as one error line.
"""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from wienercub import (
    CubatureFormula,
    CubatureLoadError,
    FlowConfig,
    GradedTensor,
    MultiPoly,
    Partition,
    PiecewiseLinearPath,
    SolverConfig,
    brownian_expected_signature,
    brownian_rescale,
    cli,
    degree3,
    degree5_d1,
    euler_mc,
    flow_along_path,
    flow_exp,
    flow_tensor_gap,
    gamma_field,
    gamma_partition,
    gbm,
    klv_sampled,
    klv_sweep,
    kusuoka_step,
    lie_form,
    monte_carlo_expected_signature,
    nested_bracket_field,
    remainder_box_bound,
    rescale,
    taylor_operator,
    validate,
    word_operator,
)
from wienercub.cubature import from_dict
from wienercub.tensor_algebra import AlgebraError, word_program
from wienercub.vector_fields import affine_from_file

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
    with pytest.raises(ValueError, match="k must be an integer >= 1, got 0"):
        gamma_partition(1.0, 0, 2.0)


@pytest.mark.parametrize("gamma", [0.5, -1.0, math.nan, math.inf, -math.inf])
def test_gamma_partition_refuses_a_gamma_that_is_not_finite_and_at_least_one(gamma):
    with pytest.raises(ValueError, match=re.escape(
            f"gamma must be finite and >= 1, got {gamma!r}")):
        gamma_partition(1.0, 3, gamma)


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
    with pytest.raises(ValueError, match="n_samples must be an integer >= 2, got 1"):
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
    ("dimension", None, "dimension must be an integer >= 1, got None"),
    ("support", 3, "argument of type 'int' is not iterable"),
    ("support", {"paths": None}, "'NoneType' object is not iterable"),
    # the loader converts no value: 5.9 is not read as degree 5, nor true as
    # horizon 1.0, nor "0.5" as a weight
    ("degree", 5.9, "degree must be an integer >= 1, got 5.9"),
    ("degree", True, "degree must be an integer >= 1, got True"),
    ("degree", "5", "degree must be an integer >= 1, got '5'"),
    ("dimension", 1.7, "dimension must be an integer >= 1, got 1.7"),
    ("horizon", True, "horizon must be positive and finite, got True"),
    ("weights", ["0.5", "0.5"], "weight 0 must be strictly positive, got '0.5'"),
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


@pytest.mark.parametrize("changes, key", [
    ({"caps": {"leaf_caps": 1}}, "'caps.leaf_caps'"),
    ({"sample": 5}, "'sample'"),
    ({"reference": {"steps": 4, "path": 200}}, "'reference.path'"),
])
def test_a_config_key_the_cli_does_not_know_is_one_error_line(tmp_path, capsys,
                                                             changes, key):
    code = cli.main(["solve", "--config", ou_config(tmp_path, **changes)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: config has unknown key {key}\n"


def test_a_config_section_or_file_that_is_not_an_object_is_one_error_line(tmp_path,
                                                                         capsys):
    code = cli.main(["solve", "--config", ou_config(tmp_path, caps=5)])
    assert code == 1
    assert capsys.readouterr().err == "error: config caps must be a JSON object, got int\n"
    target = tmp_path / "list.json"
    target.write_text("[1, 2]")
    code = cli.main(["mc-reference", "--config", str(target)])
    assert code == 1
    assert capsys.readouterr().err == "error: config file must be a JSON object, got list\n"


def readme_config_section() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("### Config files", 1)[1].split("\n## ", 1)[0]


def test_the_readme_example_config_passes_the_key_check():
    section = readme_config_section()
    config = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert cli._read(config, cli._CONFIG, "") == config
    assert set(config) == set(cli._CONFIG)


def dotted_keys(kind, key=""):
    """Every dotted key of a config table; a list of sections is indexed [i]."""
    if isinstance(kind, list):
        yield from dotted_keys(kind[0], f"{key}[i]")
    elif isinstance(kind, dict):
        for name, sub in kind.items():
            dotted = f"{key}.{name}" if key else name
            yield dotted
            yield from dotted_keys(sub, dotted)


def test_the_readme_gives_every_config_key():
    section = readme_config_section()
    keys = list(dotted_keys(cli._CONFIG))
    assert "payoff.terms[i].coeff" in keys and len(keys) == 32
    assert [key for key in keys if f"`{key}`" not in section] == []


# -- counts -------------------------------------------------------------------

SMALL = gamma_partition(1.0, 2, 1.0)
TENSOR = GradedTensor(1, 2, {(1,): 1.0})

# user -> (call with the count, its name, its minimum, a valid count)
COUNT_USERS = {
    "CubatureFormula.dimension": (
        lambda n: CubatureFormula(n, 3, (1.0,), paths=(LINE,)), "dimension", 1, 1),
    "CubatureFormula.degree": (
        lambda n: CubatureFormula(1, n, (1.0,), paths=(LINE,)), "degree", 1, 3),
    "degree3": (degree3, "dimension", 1, 2),
    "gamma_partition": (lambda n: gamma_partition(1.0, n, 2.0), "k", 1, 3),
    "SolverConfig.leaf_cap": (lambda n: SolverConfig(leaf_cap=n), "leaf_cap", 1, 8),
    "SolverConfig.threads": (lambda n: SolverConfig(threads=n), "threads", 1, 2),
    "SolverConfig.batch": (lambda n: SolverConfig(batch=n), "batch", 1, 8),
    "klv_sweep.n_samples": (
        lambda n: klv_sweep(lie_form(degree3(1)), GBM, identity, X1, (SMALL,), n_samples=n),
        "n_samples", 2, 4),
    "euler_mc.steps": (lambda n: euler_mc(GBM, identity, X1, 1.0, n, 10, 1),
                       "steps", 1, 4),
    "euler_mc.paths": (lambda n: euler_mc(GBM, identity, X1, 1.0, 4, n, 1),
                       "paths", 2, 10),
    "euler_mc.batch": (lambda n: euler_mc(GBM, identity, X1, 1.0, 4, 10, 1, batch=n),
                       "batch", 1, 3),
    "euler_mc.seed": (lambda n: euler_mc(GBM, identity, X1, 1.0, 4, 10, n), "seed", 0, 3),
    "klv_sampled.seed": (
        lambda n: klv_sampled(lie_form(degree3(1)), GBM, identity, X1, SMALL, 4, n),
        "seed", 0, 3),
    "MultiPoly": (MultiPoly, "n_vars", 1, 2),
    "monte_carlo_expected_signature.n_paths": (
        lambda n: monte_carlo_expected_signature(1, 2, 1.0, n, 4, np.random.default_rng(0)),
        "n_paths", 2, 10),
    "monte_carlo_expected_signature.n_steps": (
        lambda n: monte_carlo_expected_signature(1, 2, 1.0, 10, n, np.random.default_rng(0)),
        "n_steps", 1, 4),
    "monte_carlo_expected_signature.batch_size": (
        lambda n: monte_carlo_expected_signature(1, 2, 1.0, 10, 4, np.random.default_rng(0),
                                                 batch_size=n),
        "batch_size", 1, 3),
    "GradedTensor.dimension": (lambda n: GradedTensor(n, 2), "dimension", 1, 2),
    "GradedTensor.truncation": (lambda n: GradedTensor(1, n), "truncation", 0, 3),
    "GradedTensor.project": (TENSOR.project, "projection degree", 0, 1),
    "FlowConfig.substeps": (lambda n: FlowConfig(substeps=n), "substeps", 1, 4),
    "brownian_expected_signature": (lambda n: brownian_expected_signature(1, n),
                                    "truncation", 0, 4),
    "validate.degree": (lambda n: validate(degree3(1), degree=n), "degree", 0, 3),
}


def not_counts(minimum):
    return [minimum - 1, 2.5, True]


@pytest.mark.parametrize("user, value", [
    (user, value) for user, (_, _, minimum, _) in COUNT_USERS.items()
    for value in not_counts(minimum)])
def test_a_count_must_be_an_integer_of_at_least_its_minimum(user, value):
    call, name, minimum, _ = COUNT_USERS[user]
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be an integer >= {minimum}, got {value!r}") + "$"):
        call(value)


@pytest.mark.parametrize("user", sorted(COUNT_USERS))
def test_a_numpy_integer_count_is_accepted(user):
    call, _, _, valid = COUNT_USERS[user]
    call(np.int64(valid))


def test_a_path_needs_at_least_one_space_coordinate():
    with pytest.raises(ValueError, match=re.escape(
            "path dimension must be an integer >= 1, got 0")):
        PiecewiseLinearPath((0.0, 1.0), ((), ()))


def test_a_bool_truncation_is_refused_after_its_program_is_cached():
    word_program(1, 1)
    with pytest.raises(ValueError, match="truncation must be an integer >= 0, got True"):
        GradedTensor(1, True)
    assert GradedTensor(np.int64(1), np.int64(1)).truncation == 1


# -- control dimensions --------------------------------------------------------

TWO_CONTROLS = lie_form(degree3(2))

CONTROL_USERS = {
    "formula": lambda: klv_sweep(TWO_CONTROLS, GBM, identity, X1, (SMALL,)),
    "path": lambda: flow_along_path(degree3(2).paths[0], GBM, X1),
    "Lie element": lambda: gamma_field(TWO_CONTROLS.lie_polys[0], GBM),
    "tensor": lambda: taylor_operator(GradedTensor(2, 2), GBM, MultiPoly.coordinate(1, 0)),
}


@pytest.mark.parametrize("what", sorted(CONTROL_USERS))
def test_support_must_drive_one_control_per_field(what):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{what} drives 2 controls, system has 1") + "$"):
        CONTROL_USERS[what]()


# -- unit horizons -------------------------------------------------------------


def line_at(horizon):
    return PiecewiseLinearPath.straight_line((0.3,), horizon)


def formula_at(horizon):
    return CubatureFormula(1, 3, (1.0,), paths=(line_at(horizon),), horizon=horizon)


UNIT_HORIZON_USERS = {
    "brownian_rescale": ("path", lambda h: brownian_rescale(line_at(h), 0.25)),
    "rescale": ("formula", lambda h: rescale(formula_at(h), 0.25)),
    "klv_sweep": ("formula", lambda h: klv_sweep(formula_at(h), GBM, identity, X1,
                                                 (SMALL,))),
}


@pytest.mark.parametrize("user", sorted(UNIT_HORIZON_USERS))
def test_rescaling_starts_from_a_unit_horizon_within_one_tolerance(user):
    what, call = UNIT_HORIZON_USERS[user]
    with pytest.raises(ValueError, match="^" + re.escape(
            f"rescale expects a unit-horizon {what}, got horizon 0.5") + "$"):
        call(0.5)
    call(1.0 + 5e-10)
    with pytest.raises(ValueError, match="unit-horizon"):
        call(1.0 + 2e-9)


@pytest.mark.parametrize("horizon", [0.25, 2.0, 1e6])
def test_a_formula_accepted_as_unit_horizon_rescales_to_any_horizon(horizon):
    # rescaling multiplies the path's deviation from the unit horizon by the
    # new horizon; the formula's own horizon match scales its tolerance alike
    formula = rescale(formula_at(1.0 + 5e-10), horizon)
    assert formula.horizon == horizon
    assert formula.paths[0].horizon == (1.0 + 5e-10) * horizon


# -- letters -------------------------------------------------------------------

LETTER_USERS = {
    "GradedTensor": lambda word: GradedTensor(1, 4, {word: 1.0}),
    "nested_bracket_field": lambda word: nested_bracket_field(GBM, word),
    "word_operator": lambda word: word_operator(word, GBM, MultiPoly.coordinate(1, 0)),
}


@pytest.mark.parametrize("word", [(0, 2), (-1,)])
@pytest.mark.parametrize("user", sorted(LETTER_USERS))
def test_a_letter_must_lie_in_the_alphabet(user, word):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"letter {word[-1]} outside alphabet 0..1 in word {word!r}") + "$"):
        LETTER_USERS[user](word)


# -- records read by the constructors' rules -------------------------------------


def tensor_term(record, key, value):
    record["terms"][0][key] = value


TENSOR_RECORDS = {
    "letter 1.9": (lambda r: tensor_term(r, "word", [1.9]),
                   "letter 1.9 outside alphabet 0..1 in word (1.9,)"),
    "letter true": (lambda r: tensor_term(r, "word", [True]),
                    "letter True outside alphabet 0..1 in word (True,)"),
    "coefficient '2'": (lambda r: tensor_term(r, "coeff", "2"),
                        "coefficient of word (1,) must be a number, got '2'"),
    "dimension 1.0": (lambda r: r.update(dimension=1.0),
                      "dimension must be an integer >= 1, got 1.0"),
    "dimension true": (lambda r: r.update(dimension=True),
                       "dimension must be an integer >= 1, got True"),
    "repeated word": (lambda r: r["terms"].append(dict(r["terms"][0])),
                      "word (1,) repeated in tensor record"),
    "no terms": (lambda r: r.pop("terms"), "malformed tensor record: 'terms'"),
}


@pytest.mark.parametrize("case", TENSOR_RECORDS)
def test_a_tensor_record_is_read_by_the_constructor_rules(case):
    change, message = TENSOR_RECORDS[case]
    record = lie_record()
    change(record["support"]["lie_polys"][0])
    with pytest.raises(AlgebraError, match="^" + re.escape(message) + "$"):
        GradedTensor.from_dict(record["support"]["lie_polys"][0])
    with pytest.raises(CubatureLoadError, match="^" + re.escape(
            f"f.json: lie_polys[0]: {message}") + "$"):
        from_dict(record, where="f.json")


PATH_RECORDS = {
    "knot '1'": (lambda r: r.update(knots=[0.0, "1"]), "knots must be numbers, got '1'"),
    "knot true": (lambda r: r.update(knots=[0.0, True]), "knots must be numbers, got True"),
    "point true": (lambda r: r["points"][1].__setitem__(0, True),
                   "points must be finite numbers, got True"),
    "point '0.5'": (lambda r: r["points"][1].__setitem__(0, "0.5"),
                    "points must be finite numbers, got '0.5'"),
    "horizon '1'": (lambda r: r.update(horizon="1"),
                    "declared horizon '1' != final knot 1.0"),
}


@pytest.mark.parametrize("case", PATH_RECORDS)
def test_a_path_record_is_read_by_the_constructor_rules(case):
    change, message = PATH_RECORDS[case]
    record = degree3(1).to_dict()
    change(record["support"]["paths"][0])
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        PiecewiseLinearPath.from_dict(record["support"]["paths"][0])
    with pytest.raises(CubatureLoadError, match="^" + re.escape(
            f"f.json: paths[0]: {message}") + "$"):
        from_dict(record, where="f.json")


TENSOR = GradedTensor(1, 2, {(1,): 1.0})
NUMBER_ARGS = {
    "MultiPoly coefficient '2'": (lambda: MultiPoly(1, {(1,): "2"}),
                                  "coefficient of (1,) is not finite or not a number: '2'"),
    "MultiPoly coefficient true": (lambda: MultiPoly(1, {(1,): True}),
                                   "coefficient of (1,) is not finite or not a number: True"),
    "scale '3'": (lambda: TENSOR.scale("3"), "scale factor must be a number, got '3'"),
    "dilate '2'": (lambda: TENSOR.dilate("2"), "dilation factor must be a number, got '2'"),
    "Lie dilate true": (lambda: lie_form(degree3(1)).lie_polys[0].dilate(True),
                        "dilation factor must be a number, got True"),
    "increment dt '0.5'": (lambda: PiecewiseLinearPath.from_increments([("0.5", [1.0])]),
                           "increments must be numbers, got '0.5'"),
    "increment dt true": (lambda: PiecewiseLinearPath.from_increments(
        [(0.5, [1.0]), (True, [1.0])]), "increments must be numbers, got True"),
    "increment dx '1'": (lambda: PiecewiseLinearPath.from_increments([(0.5, ["1"])]),
                         "increments must be numbers, got '1'"),
    "increment dx true": (lambda: PiecewiseLinearPath.from_increments(
        [(0.5, [1.0]), (0.5, [True])]), "increments must be numbers, got True"),
    "straight_line horizon true": (lambda: PiecewiseLinearPath.straight_line(
        [1.0], horizon=True), "increments must be numbers, got True"),
    "gamma_partition gamma true": (lambda: gamma_partition(1.0, 2, True),
                                   "gamma must be finite and >= 1, got True"),
    "flow_exp time true": (lambda: flow_exp(GBM.fields[1], True, X1),
                           "flow time must be finite, got True"),
}


@pytest.mark.parametrize("case", NUMBER_ARGS)
def test_a_numeric_argument_meets_the_number_rule(case):
    call, message = NUMBER_ARGS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("key", ["matrix", "offset"])
@pytest.mark.parametrize("value", ["1", True])
def test_an_affine_system_file_is_read_by_the_constructor_rules(tmp_path, key, value):
    # next to a float, numpy itself would read true as 1.0
    field = {"matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.25]}
    bad = dict(field)
    bad[key] = [[0.5, value], [0.0, 0.5]] if key == "matrix" else [0.0, value]
    target = tmp_path / "system.json"
    target.write_text(json.dumps({"fields": [field, bad]}))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{target}: malformed affine system: matrix and offset must be finite "
            f"numbers, got {value!r}") + "$"):
        affine_from_file(str(target))


@pytest.mark.parametrize("formula", [degree3(1), degree3(2), degree3(3), degree5_d1()])
@pytest.mark.parametrize("form", ["paths", "lie_polys"])
def test_records_read_back_to_the_same_values_bit_for_bit(formula, form):
    formula = formula if form == "paths" else lie_form(formula)
    record = json.loads(json.dumps(formula.to_dict()))
    again = from_dict(record)
    assert json.dumps(again.to_dict()) == json.dumps(formula.to_dict())
    m = formula.degree
    assert again.aggregate(m)._v.tobytes() == formula.aggregate(m)._v.tobytes()
