import errno
import io
import json
import sys

import numpy as np
import pytest

from wienercub import MultiPoly, cli, degree3, degree5_d1, gamma_partition, gbm, ou
from wienercub import klv_full, klv_sampled, vector_fields


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    config = {
        "system": {"name": "gbm", "mu": 0.05, "sigma": 0.3},
        "payoff": {"name": "identity"},
        "x0": [1.0],
        "T": 1.0,
        "cubature": {"builtin": "degree3", "dimension": 1},
        "partition": {"gamma": 2.0, "k_list": [2, 3, 4, 5]},
        "mode": "full",
        "seed": 5,
    }
    config.update(overrides)
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    return str(target)


# -- slope fitting ---------------------------------------------------------------


def test_fit_slope_recovers_power_law():
    pairs = [(float(k), 3.0 * k**-1.5) for k in (2, 4, 8, 16)]
    slope, stderr = cli.fit_slope(pairs)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert stderr < 1e-12


def test_fit_slope_drops_nonpositive_and_requires_three(capsys):
    slope, _ = cli.fit_slope([(2.0, 1e-2), (4.0, 0.0), (8.0, 2e-3), (16.0, 1e-3)])
    assert "dropped k=4.0" in capsys.readouterr().err
    with pytest.raises(ValueError):
        cli.fit_slope([(2.0, 1.0), (4.0, 0.5)])


# -- subcommands -----------------------------------------------------------------


def test_validate_cubature_pass_and_fail(capsys):
    code, out, _ = run(["validate-cubature", "degree3:2"], capsys)
    assert code == 0 and "PASS" in out
    code, out, err = run(["validate-cubature", "degree5_d1", "--degree", "7"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert err.startswith("error:") and "\n" not in err.strip()


def test_validate_cubature_missing_file(capsys):
    code, _, err = run(["validate-cubature", "/no/such/file.json"], capsys)
    assert code == 1 and err.startswith("error:")


def test_expected_signature_json(capsys):
    code, out, _ = run(
        ["expected-signature", "--dimension", "1", "--degree", "4"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"]["0"] == 1.0
    assert data["coefficients"]["1.1"] == 0.5
    assert data["coefficients"]["1.1.1.1"] == 0.125


def test_expected_signature_monte_carlo_check(capsys):
    code, out, _ = run(
        [
            "expected-signature", "--dimension", "1", "--degree", "3",
            "--mc-paths", "2000", "--mc-steps", "32", "--seed", "4",
            "--z-limit", "6",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["monte_carlo"]["paths"] == 2000
    assert data["monte_carlo"]["worst_z"] < 6


def test_solve_reports_value_and_reference(tmp_path, capsys):
    code, out, _ = run(["solve", "--config", write_config(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "full" and data["k"] == 2
    assert data["leaves"] == 4
    assert data["reference"] == pytest.approx(np.exp(0.095))
    assert data["abs_error"] < 1e-2


def test_solve_sampled_mode(tmp_path, capsys):
    cfg = write_config(
        tmp_path, mode="sampled", samples=2000, partition={"gamma": 2.0, "k": 5}
    )
    code, out, _ = run(["solve", "--config", cfg], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "sampled" and data["stderr"] > 0


def test_solve_sampled_reports_distinct_nodes_per_level(tmp_path, capsys):
    # degree3 in one dimension has n = 2 support points
    samples, k = 20, 6
    cfg = write_config(
        tmp_path, mode="sampled", samples=samples, partition={"gamma": 2.0, "k": k}
    )
    code, out, _ = run(["solve", "--config", cfg], capsys)
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    nodes = diag["nodes_per_level"]
    assert len(nodes) == k
    assert all(m <= min(samples, 2 ** (j + 1)) for j, m in enumerate(nodes))
    assert diag["distinct_leaves"] == nodes[-1]


def test_solve_leaf_cap_exit(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        partition={"gamma": 1.0, "k": 30},
        caps={"leaf_cap": 1000},
    )
    code, _, err = run(["solve", "--config", cfg], capsys)
    assert code == 1 and "leaf" in err


def test_converge_writes_csv_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        ["converge", "--config", write_config(tmp_path), "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    csv_lines = (out_dir / "converge.csv").read_text().splitlines()
    assert csv_lines[0] == "k,value,reference,abs_error"
    assert len(csv_lines) == 5
    for line in csv_lines[1:]:
        k, value, reference, abs_error = line.split(",")
        assert float(value) > 0 and float(abs_error) >= 0
        assert float(reference) == pytest.approx(np.exp(0.095))
    summary = json.loads((out_dir / "converge.json").read_text())
    assert summary["reference"]["kind"] == "closed_form"
    assert -1.6 < summary["slope"] < -0.5
    assert "slope" in out


def test_converge_rejects_bad_k_list(tmp_path, capsys):
    cfg = write_config(tmp_path, partition={"gamma": 2.0, "k_list": [4, 2]})
    code, _, err = run(["converge", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1 and "k_list" in err


def test_solve_rejects_unknown_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="antithetic")
    code, _, err = run(["solve", "--config", cfg], capsys)
    assert code == 1 and "mode" in err and "antithetic" in err


def test_config_builtins_are_the_command_line_builtins(tmp_path, capsys):
    assert cli._build_formula({"builtin": "degree3", "dimension": 2}).dimension == 2
    assert cli._build_formula({"builtin": "degree3"}).dimension == 1
    assert cli._build_formula({"builtin": "degree5_d1", "dimension": 1}).degree == 5
    for spec in ({"builtin": "degree7"}, {"builtin": "degree5_d1", "dimension": 2},
                 {}):
        cfg = write_config(tmp_path, cubature=spec)
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 1 and "cubature spec needs 'file' or builtin" in err


def test_mc_reference_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, reference={"steps": 16, "paths": 4000})
    code, out, _ = run(["mc-reference", "--config", cfg], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["steps"] == 16 and data["paths"] == 4000
    assert abs(data["mean"] - np.exp(0.095)) < 6 * data["stderr"] + 1e-2


def test_successive_calls_share_no_arguments(tmp_path, capsys):
    # the parser is built once; each call must still parse afresh
    cfg = write_config(tmp_path, reference={"steps": 4, "paths": 100})
    code, out, _ = run(["mc-reference", "--config", cfg, "--seed", "11"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 11
    code, out, _ = run(["mc-reference", "--config", cfg], capsys)
    assert code == 0 and json.loads(out)["seed"] == 5


def test_lemma_gap_canonical_configuration(capsys):
    code, out, _ = run(["lemma-gap", "--m", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["slope"] >= data["min_slope"] == pytest.approx(1.7)
    assert data["gap_within_bound"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", "--config", "x.json"])  # missing --out
    assert exc.value.code == 2


def test_bad_json_config_reports_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["solve", "--config", str(bad)], capsys)
    assert code == 1 and err.startswith("error: bad JSON")


def test_converge_records_its_thread_count_and_refuses_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run(["converge", "--config", cfg, "--out", str(out_dir),
                      "--threads", "4"], capsys)
    assert code == 0
    assert json.loads((out_dir / "converge.json").read_text())["threads"] == 4
    code, _, err = run(["converge", "--config", cfg, "--out", str(out_dir),
                        "--threads", "0"], capsys)
    assert code == 1 and err.startswith("error:") and "threads" in err


def test_euler_fallback_and_mc_reference_share_the_reference_defaults(
        tmp_path, capsys, monkeypatch):
    # a poly payoff has no closed form, so converge falls back to Euler
    calls = []

    def fake_euler_mc(system, payoff, x0, horizon, steps, paths, seed):
        calls.append((steps, paths))
        return 1.0, 0.0

    monkeypatch.setattr(cli, "euler_mc", fake_euler_mc)
    cfg = write_config(tmp_path, payoff={"name": "poly",
                                         "terms": [{"exps": [2], "coeff": 1.0}]})
    assert run(["converge", "--config", cfg, "--out", str(tmp_path)], capsys)[0] == 0
    assert run(["mc-reference", "--config", cfg], capsys)[0] == 0
    assert calls == [(128, 400_000), (256, 400_000), (256, 400_000)]


@pytest.mark.parametrize("x0, message", [
    ([1.0, 2.0], "start state must have shape (1,) for this system, got shape (2,)"),
    # a scalar is no JSON list of numbers, so the config reader refuses it
    (1.0, "config x0 must be numbers, got 1.0"),
], ids=["long", "scalar"])
def test_solve_refuses_a_start_state_of_another_shape(tmp_path, capsys, x0, message):
    code, out, err = run(["solve", "--config", write_config(tmp_path, x0=x0)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("x0", [["a"], [None], [1.0, [2.0]]], ids=["string", "null", "nested"])
def test_solve_refuses_a_start_state_that_is_not_numbers_by_name(tmp_path, capsys, x0):
    code, out, err = run(["solve", "--config", write_config(tmp_path, x0=x0)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: config x0 must be numbers, got {tuple(x0)!r}\n"


def test_a_directory_for_a_file_is_one_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path, system={"name": "affine", "file": str(tmp_path)})
    for config in (str(tmp_path), cfg):
        code, _, err = run(["solve", "--config", config], capsys)
        assert code == 1 and err.startswith(f"error: cannot open {tmp_path}: ")
        assert len(err.strip().splitlines()) == 1
    code, _, err = run(["solve", "--config", str(tmp_path / "none.json")], capsys)
    assert code == 1 and err.strip() == f"error: missing file: {tmp_path / 'none.json'}"


def _per_k_csv(config, solve):
    # the CSV of converge, from one solve per k
    sys_spec = config["system"]
    x0 = np.asarray(config["x0"], dtype=float)
    reference = cli._closed_form_reference(
        sys_spec, {"name": "identity", "index": 0}, x0, config["T"])
    lines = ["k,value,reference,abs_error\n"]
    for k in config["partition"]["k_list"]:
        part = gamma_partition(config["T"], k, config["partition"]["gamma"])
        v = solve(MultiPoly.coordinate(1, 0), x0, part).value
        lines.append(f"{k},{v!r},{reference!r},{abs(v - reference)!r}\n")
    return "".join(lines)


def test_converge_csv_equals_one_full_solve_per_k(tmp_path, capsys):
    cfg = write_config(tmp_path, cubature={"builtin": "degree5_d1"},
                       partition={"gamma": 2.0, "k_list": [3, 4, 5, 6]})
    code, _, _ = run(["converge", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 0
    with open(cfg) as fh:
        config = json.load(fh)
    expected = _per_k_csv(config, lambda f, x0, part: klv_full(
        degree5_d1(), gbm(0.05, 0.3), f, x0, part))
    assert (tmp_path / "converge.csv").read_text() == expected


def test_converge_csv_equals_one_sampled_solve_per_k(tmp_path, capsys):
    cfg = write_config(tmp_path, system={"name": "ou", "theta": 0.7, "sigma": 0.4},
                       x0=[0.8], mode="sampled", samples=3000,
                       partition={"gamma": 2.0, "k_list": [3, 4, 5, 6]})
    code, _, _ = run(["converge", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 0
    with open(cfg) as fh:
        config = json.load(fh)
    expected = _per_k_csv(config, lambda f, x0, part: klv_sampled(
        degree3(1), ou(0.7, 0.4), f, x0, part, 3000, 5))
    assert (tmp_path / "converge.csv").read_text() == expected


def test_converge_exponentiates_the_segment_maps_once(tmp_path, capsys, monkeypatch):
    # one prologue serves every k: one batched expm call per converge run
    calls = []
    expm = vector_fields.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(vector_fields, "expm", counted)
    code, _, _ = run(["converge", "--config", write_config(tmp_path),
                      "--out", str(tmp_path)], capsys)
    assert code == 0 and len(calls) == 1


def test_converge_checks_every_leaf_count_before_solving(tmp_path, capsys,
                                                         monkeypatch):
    calls = []
    monkeypatch.setattr(vector_fields, "expm", lambda a: calls.append(1))
    cfg = write_config(tmp_path, caps={"leaf_cap": 20})
    out_dir = tmp_path / "out"
    code, _, err = run(["converge", "--config", cfg, "--out", str(out_dir)], capsys)
    # k_list [2, 3, 4, 5] of degree3(1): the largest tree has 2^5 leaves
    assert code == 1 and "full tree has 32 leaves, above the configured cap 20" in err
    assert calls == [] and not (out_dir / "converge.csv").exists()


# -- non-finite values -------------------------------------------------------------


def test_fit_slope_drops_nan_and_inf_errors_with_a_warning(capsys):
    pairs = [(2.0, 1e-2), (4.0, float("nan")), (8.0, 2e-3), (16.0, 1e-3),
             (32.0, float("inf"))]
    slope, stderr = cli.fit_slope(pairs)
    err = capsys.readouterr().err
    assert "dropped k=4.0" in err and "dropped k=32.0" in err
    assert (slope, stderr) == cli.fit_slope([pairs[0], pairs[2], pairs[3]])
    assert np.isfinite(slope) and np.isfinite(stderr)


def _sqrt_of_ou(tmp_path):
    # ou paths cross zero, where the payoff y ** 0.5 is NaN
    return write_config(
        tmp_path, system={"name": "ou", "theta": 0.7, "sigma": 0.4}, x0=[0.1],
        payoff={"name": "power", "exponent": 0.5},
        reference={"steps": 8, "paths": 200})


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("command, named", [
    (["solve"], "value at k=2 is not finite: nan"),
    (["converge", "--out", "OUT"], "value at k=2 is not finite: nan"),
    (["mc-reference"], "reference mean is not finite: nan"),
])
def test_a_value_that_is_not_finite_fails_the_command(tmp_path, capsys, command, named):
    argv = [a.replace("OUT", str(tmp_path / "out")) for a in command]
    code, out, err = run(argv[:1] + ["--config", _sqrt_of_ou(tmp_path)] + argv[1:],
                         capsys)
    assert code == 1 and out == ""
    assert err == f"error: {named}\n"
    assert not (tmp_path / "out").exists()


class ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_closed_standard_output_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    code = cli.main(["validate-cubature", "degree3:2"])
    assert code == 1
    assert capsys.readouterr().err == "error: I/O failed: Broken pipe\n"


def test_a_valid_tolerance_flag_reaches_the_check(capsys):
    code, out, err = run(["validate-cubature", "degree3:2", "--tol", "1e-8"], capsys)
    assert (code, err) == (0, "")
    assert "tol=1e-08 -> PASS" in out
    assert cli.tolerance("0") == 0.0
