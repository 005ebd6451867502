import json

import numpy as np
import pytest

from wienercub import cli


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
        "caps": {"substeps": 16},
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
        caps={"substeps": 16, "leaf_cap": 1000},
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


def test_threads_env_variable(tmp_path, capsys, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(tmp_path)
    monkeypatch.setenv(cli.THREADS_ENV, "4")
    assert run(["converge", "--config", cfg, "--out", str(out_a)], capsys)[0] == 0
    monkeypatch.delenv(cli.THREADS_ENV)
    assert run(["converge", "--config", cfg, "--out", str(out_b)], capsys)[0] == 0
    assert (out_a / "converge.csv").read_bytes() == (out_b / "converge.csv").read_bytes()
    assert json.loads((out_a / "converge.json").read_text())["threads"] == 4
