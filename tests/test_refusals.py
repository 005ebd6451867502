"""Inputs that the CLI and the library refuse with one clear message: the
Euler reference's step count in converge, and gaps that are not positive
and finite in the lemma-gap experiment."""
import json
import math

import numpy as np
import pytest

from wienercub import cli
from wienercub.cubature import degree3, validate
from wienercub.operator_calculus import flow_tensor_gap, remainder_box_bound


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ou_power_config(tmp_path, reference):
    # an ou system with a power payoff has no closed form: converge falls
    # back to the Euler reference
    config = {
        "system": {"name": "ou", "theta": 0.7, "sigma": 0.4},
        "payoff": {"name": "power", "exponent": 2},
        "x0": [0.8],
        "T": 1.0,
        "cubature": {"builtin": "degree3", "dimension": 1},
        "partition": {"gamma": 2.0, "k_list": [2, 3, 4]},
        "reference": reference,
        "seed": 3,
    }
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    return str(target)


@pytest.mark.parametrize("steps", [1, 3])
def test_converge_refuses_an_euler_reference_it_cannot_halve(tmp_path, capsys, steps):
    cfg = ou_power_config(tmp_path, {"steps": steps, "paths": 200})
    code, out, err = run(["converge", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err == ("error: config reference.steps must be an even integer >= 2, "
                   f"got {steps}\n")


@pytest.mark.parametrize("command", ["converge", "mc-reference"])
@pytest.mark.parametrize("reference", [{"steps": 4.5}, {"paths": 300.7}])
def test_a_reference_size_that_is_not_an_integer_is_refused(tmp_path, capsys,
                                                           command, reference):
    cfg = ou_power_config(tmp_path, reference)
    out_dir = ["--out", str(tmp_path)] if command == "converge" else []
    code, out, err = run([command, "--config", cfg, *out_dir], capsys)
    [(key, value)] = reference.items()
    assert code == 1 and out == ""
    assert err == f"error: config reference.{key} must be integer, got {value!r}\n"


def test_converge_runs_the_default_euler_reference(tmp_path, capsys):
    cfg = ou_power_config(tmp_path, {"paths": 2000})
    code, _, _ = run(["converge", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 0
    reference = json.loads((tmp_path / "converge.json").read_text())["reference"]
    assert reference["kind"] == "euler_richardson" and reference["steps"] == 256


def test_mc_reference_accepts_an_odd_step_count(tmp_path, capsys):
    cfg = ou_power_config(tmp_path, {"steps": 3, "paths": 200})
    code, out, _ = run(["mc-reference", "--config", cfg], capsys)
    assert code == 0 and json.loads(out)["steps"] == 3


@pytest.mark.parametrize("grid", ["0.4,0.2,0.1,nan", "0.4,0.2,0.1,inf",
                                  "0.4,0.2,0.1,0", "0.4,0.2", "0.4,0.2,abc"])
def test_lemma_gap_refuses_a_grid_that_is_not_positive_and_finite(capsys, grid):
    code, out, err = run(["lemma-gap", "--s-grid", grid], capsys)
    assert code == 1 and out == ""
    assert err == "error: --s-grid needs >= 3 positive finite values\n"


@pytest.mark.parametrize("m", ["1", "2"])
def test_lemma_gap_refuses_a_truncation_below_the_element(capsys, m):
    code, out, err = run(["lemma-gap", "--m", m], capsys)
    assert code == 1 and out == ""
    assert err == "error: --m must be >= 3\n"


@pytest.mark.parametrize("s", [0.0, -0.1, math.nan, math.inf])
def test_gap_functions_refuse_a_gap_that_is_not_positive_and_finite(s):
    system, payoff, poly = cli._gap_experiment(3, None)
    x = np.asarray(cli._GAP_X)
    with pytest.raises(ValueError, match="gap must be positive and finite"):
        flow_tensor_gap(poly, system, payoff, x, s)
    with pytest.raises(ValueError, match="gap must be positive and finite"):
        remainder_box_bound(poly, system, payoff, s)


def gbm_config(tmp_path, **overrides):
    config = {
        "system": {"name": "gbm", "mu": 0.05, "sigma": 0.3},
        "payoff": {"name": "identity"},
        "x0": [1.0],
        "T": 1.0,
        "cubature": {"builtin": "degree3"},
        "partition": {"gamma": 2.0, "k": 2},
        "seed": 3,
    }
    config.update(overrides)
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    return str(target)


def test_a_poly_payoff_with_a_fractional_exponent_is_refused(tmp_path, capsys):
    # the exponent was once cut to 1, which solved for E[X_T] instead
    payoff = {"name": "poly", "terms": [{"exps": [1.7], "coeff": 1.0}]}
    code, out, err = run(["solve", "--config", gbm_config(tmp_path, payoff=payoff)], capsys)
    assert code == 1 and out == ""
    assert err == "error: config payoff.terms[0].exps must be integers, got (1.7,)\n"


INTEGER_KEYS = {
    "payoff.index": lambda v: {"payoff": {"name": "identity", "index": v}},
    "partition.k": lambda v: {"partition": {"gamma": 2.0, "k": v}},
    "caps.batch": lambda v: {"caps": {"batch": v}},
    "samples": lambda v: {"mode": "sampled", "samples": v},
    "seed": lambda v: {"seed": v},
    "cubature.dimension": lambda v: {"cubature": {"builtin": "degree3", "dimension": v}},
}


@pytest.mark.parametrize("key", INTEGER_KEYS)
@pytest.mark.parametrize("value", [0.5, 2.7, [1]])
def test_a_config_integer_that_is_not_one_is_refused_by_name(tmp_path, capsys, key, value):
    cfg = gbm_config(tmp_path, **INTEGER_KEYS[key](value))
    code, out, err = run(["solve", "--config", cfg], capsys)
    assert code == 1 and out == ""
    assert err == f"error: config {key} must be integer, got {value!r}\n"


@pytest.mark.parametrize("k_list", [[4.5, 5], [[4], 5]])
def test_a_k_list_that_is_not_integers_is_refused_by_name(tmp_path, capsys, k_list):
    cfg = gbm_config(tmp_path, partition={"gamma": 2.0, "k_list": k_list})
    code, out, err = run(["solve", "--config", cfg], capsys)
    assert code == 1 and out == ""
    assert err == f"error: config partition.k_list must be integers, got {tuple(k_list)!r}\n"


@pytest.mark.parametrize("key", ["theta", "sigma"])
def test_a_config_number_of_the_wrong_type_is_refused_by_name(tmp_path, capsys, key):
    system = {"name": "ou", "theta": 0.7, "sigma": 0.4} | {key: [0.7]}
    code, out, err = run(["solve", "--config", gbm_config(tmp_path, system=system)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: config system.{key} must be a number, got [0.7]\n"


def test_integral_floats_read_as_integers(tmp_path, capsys):
    def solve(index, k, batch, seed):
        cfg = gbm_config(tmp_path, payoff={"name": "identity", "index": index},
                         partition={"gamma": 2.0, "k": k}, caps={"batch": batch}, seed=seed)
        return run(["solve", "--config", cfg], capsys)

    code, out, err = solve(0.0, 3.0, 64.0, 3.0)
    assert (code, err) == (0, "") and json.loads(out)["k"] == 3
    assert solve(0, 3, 64, 3) == (0, out, "")


# each value is of the wrong type for its key; the config reader refuses it
# before any file is opened or any solve runs
WRONG_TYPES = {
    "cubature.file": ({"cubature": {"file": 0}}, "must be a string, got 0"),
    "system.file": ({"system": {"name": "affine", "file": 5}}, "must be a string, got 5"),
    "partition.k_list": ({"partition": {"gamma": 2.0, "k_list": 5}},
                         "must be integers, got 5"),
    "payoff.terms": ({"payoff": {"name": "poly", "terms": 5}},
                     "must be a list of JSON objects, got 5"),
    "payoff.terms[0]": ({"payoff": {"name": "poly", "terms": [5]}},
                        "must be a JSON object, got int"),
    "payoff.terms[0].exps": ({"payoff": {"name": "poly", "terms": [{"exps": [True],
                                                                     "coeff": 1.0}]}},
                             "must be integers, got (True,)"),
    # an integer too large for a float; JSON sets no bound on it
    "T": ({"T": 10**400}, f"must be a number, got {10**400!r}"),
}
for coeff in (True, "2.5", "abc"):
    WRONG_TYPES[f"payoff.terms[0].coeff={coeff!r}"] = (
        {"payoff": {"name": "poly", "terms": [{"exps": [1], "coeff": coeff}]}},
        f"must be a number, got {coeff!r}")


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_a_config_value_of_the_wrong_type_is_one_line_naming_its_dotted_key(
        tmp_path, capsys, case):
    overrides, message = WRONG_TYPES[case]
    code, out, err = run(["solve", "--config", gbm_config(tmp_path, **overrides)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: config {case.split('=')[0]} {message}\n"


@pytest.mark.parametrize("argv", [
    ["expected-signature", "--dimension", "1", "--degree", "2", "--z-limit", "nan"],
    ["expected-signature", "--dimension", "1", "--degree", "2", "--tol", "inf"],
    ["validate-cubature", "degree3", "--tol", "nan"],
    ["lemma-gap", "--min-slope", "nan"],
    ["lemma-gap", "--min-slope", "inf"],
])
def test_a_limit_that_is_not_finite_is_a_usage_error_naming_its_flag(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert err.splitlines()[-1] == (f"wienercub {argv[0]}: error: argument {argv[-2]}: "
                                    f"expected a finite number, got {argv[-1]!r}")


@pytest.mark.parametrize("argv", [
    ["lemma-gap", "--seed", "-1"],
    ["expected-signature", "--dimension", "1", "--degree", "2", "--mc-paths", "10",
     "--seed", "-1"],
])
def test_a_negative_seed_is_refused_by_its_flag(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == "error: --seed must be an integer >= 0, got -1\n"


def test_a_builtin_spec_whose_dimension_is_not_an_integer_is_one_line(capsys):
    code, out, err = run(["validate-cubature", "degree3:abc"], capsys)
    assert code == 1 and out == ""
    assert err == "error: cubature spec 'degree3:abc': dimension is not an integer\n"


def test_converge_without_a_k_list_names_the_missing_key(tmp_path, capsys):
    cfg = gbm_config(tmp_path)
    code, out, err = run(["converge", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err == "error: config missing key 'k_list'\n"


@pytest.mark.parametrize("argv", [
    ["validate-cubature", "degree3:1", "--tol", "-1"],
    ["expected-signature", "--dimension", "1", "--degree", "3", "--mc-paths", "10",
     "--tol", "-1"],
])
def test_a_negative_tolerance_is_a_usage_error_naming_its_flag(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"wienercub {argv[0]}: error: argument --tol: tol must be finite and >= 0, got -1.0")


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_validate_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError) as err:
        validate(degree3(1), tol=tol)
    assert str(err.value) == f"tol must be finite and >= 0, got {tol!r}"


@pytest.mark.parametrize("flag, value, minimum", [("--mc-paths", "1", 2),
                                                  ("--mc-paths", "-3", 2),
                                                  ("--mc-steps", "0", 1)])
def test_monte_carlo_sizes_are_refused_by_their_flags(capsys, flag, value, minimum):
    argv = ["expected-signature", "--dimension", "1", "--degree", "3",
            "--mc-paths", "10", flag, value]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be an integer >= {minimum}, got {value}\n"


@pytest.mark.parametrize("argv, message", [
    (["expected-signature", "--dimension", "1", "--degree", "-1"],
     "--degree must be an integer >= 0, got -1"),
    (["expected-signature", "--dimension", "0", "--degree", "2"],
     "--dimension must be an integer >= 1, got 0"),
    (["expected-signature", "--dimension", "1", "--degree", "2", "--horizon", "0"],
     "--horizon must be positive and finite, got 0.0"),
    (["expected-signature", "--dimension", "1", "--degree", "2", "--horizon", "-0.5"],
     "--horizon must be positive and finite, got -0.5"),
    (["validate-cubature", "degree3:1", "--degree", "-1"],
     "--degree must be an integer >= 0, got -1"),
    (["validate-cubature", "degree3:0"],
     "cubature spec 'degree3:0': dimension must be an integer >= 1, got 0"),
    (["validate-cubature", "degree3:-2"],
     "cubature spec 'degree3:-2': dimension must be an integer >= 1, got -2"),
])
def test_a_flag_is_checked_under_its_own_name_before_the_library_sees_it(
        capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_a_config_builtin_of_dimension_zero_names_its_spec(tmp_path, capsys):
    cfg = gbm_config(tmp_path, cubature={"builtin": "degree3", "dimension": 0})
    code, out, err = run(["solve", "--config", cfg], capsys)
    assert code == 1 and out == ""
    assert err == "error: cubature spec 'degree3:0': dimension must be an integer >= 1, got 0\n"


@pytest.mark.parametrize("value", ["-1", "-0.001"])
def test_a_negative_z_limit_is_a_usage_error_naming_its_flag(capsys, value):
    # no z is below 0, so such a limit would fail every Monte Carlo check
    argv = ["expected-signature", "--dimension", "1", "--degree", "2", "--mc-paths", "50",
            "--mc-steps", "4", "--z-limit", value]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "wienercub expected-signature: error: argument --z-limit: "
        f"expected a number >= 0.0, got {value!r}")


def test_a_zero_z_limit_passes_without_a_monte_carlo_check(capsys):
    code, out, err = run(["expected-signature", "--dimension", "1", "--degree", "2",
                          "--z-limit", "0"], capsys)
    assert (code, err) == (0, "") and "monte_carlo" not in json.loads(out)


@pytest.mark.parametrize("command", ["solve", "converge", "mc-reference"])
def test_a_negative_seed_flag_is_refused_by_name_before_any_solve(tmp_path, capsys,
                                                                  command):
    # converge on this config derives seed + 1 and seed + 2 for its Euler
    # reference; the refusal names the seed as given, not a derived one
    cfg = ou_power_config(tmp_path, {"steps": 4, "paths": 200})
    out_dir = ["--out", str(tmp_path / "out")] if command == "converge" else []
    code, out, err = run([command, "--config", cfg, *out_dir, "--seed", "-2"], capsys)
    assert code == 1 and out == ""
    assert err == "error: --seed must be an integer >= 0, got -2\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["full", "sampled"])
def test_a_negative_config_seed_is_refused_by_its_key(tmp_path, capsys, mode):
    cfg = gbm_config(tmp_path, seed=-5, mode=mode, samples=100)
    code, out, err = run(["solve", "--config", cfg], capsys)
    assert code == 1 and out == ""
    assert err == "error: config seed must be an integer >= 0, got -5\n"


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_a_thread_count_below_one_is_refused_by_its_flag_before_any_solve(
        tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setattr(cli, "klv_sweep", lambda *args: pytest.fail("solved"))
    cfg = gbm_config(tmp_path, partition={"gamma": 2.0, "k_list": [1, 2, 3]})
    code, out, err = run(["converge", "--config", cfg, "--out", str(tmp_path / "out"),
                          "--threads", threads], capsys)
    assert code == 1 and out == ""
    assert err == f"error: --threads must be an integer >= 1, got {threads}\n"
    assert not (tmp_path / "out").exists()


def test_a_negative_value_in_exponent_notation_is_read_as_a_value(capsys):
    code, out, err = run(["lemma-gap", "--min-slope", "-1e-3"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["min_slope"] == -0.001


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-1E2"])
def test_a_negative_horizon_in_any_float_notation_is_refused_by_its_flag(capsys, value):
    code, out, err = run(["expected-signature", "--dimension", "1", "--degree", "2",
                          "--horizon", value], capsys)
    assert code == 1 and out == ""
    assert err == f"error: --horizon must be positive and finite, got {float(value)!r}\n"


def test_no_flag_could_be_read_as_a_negative_number():
    # every argument that float() reads is a value, so a flag such as -1 or
    # -i would be shadowed by the value -1 or taken for a prefix of -inf
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if a.choices]
    for name, p in [("wienercub", parser), *sub.choices.items()]:
        for action in p._actions:
            for flag in action.option_strings:
                assert flag == "-h" or flag.startswith("--"), (name, flag)
