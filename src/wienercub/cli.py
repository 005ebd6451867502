"""Command-line front end: validate formulas, check the expected-signature
closed form, run solves and convergence sweeps, and measure the
flow-vs-truncated-operator gap.

Exit codes: 0 success, 1 a validation or assertion failed, 2 usage error.
Every failure writes one machine-parsable line to standard error. solve,
converge and mc-reference read one JSON run config, whose seed --seed
overrides; a config plus seed determines the output bytes. converge records
its --threads in converge.json, but every solve runs on one thread.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import cubature
from .cubature import CubatureFormula, CubatureLoadError, _check_tolerance, validate
from .klv_solver import (
    SolverConfig,
    gamma_partition,
    klv_sweep,
    euler_mc,
)
from .lie_structures import certify
from .operator_calculus import MultiPoly, flow_tensor_gap, remainder_box_bound
from .path_signature import (_check_positive, brownian_expected_signature,
                             monte_carlo_expected_signature)
from .tensor_algebra import GradedTensor, _check_count
from .vector_fields import (
    AffineField,
    FlowDivergence,
    VectorFieldSystem,
    affine_from_file,
    gbm,
    ou,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def fit_slope(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(k), with its standard
    error. Errors that are not positive and finite are dropped with a
    warning; fewer than three usable points is an error."""
    usable = [(k, e) for k, e in pairs if 0.0 < e < math.inf]
    for k, e in pairs:
        if not 0.0 < e < math.inf:
            print(f"warning: dropped k={k}: error {e!r} is not positive and finite",
                  file=sys.stderr)
    if len(usable) < 3:
        raise ValueError(f"need >= 3 positive-error points, have {len(usable)}")
    lx = np.log([k for k, _ in usable])
    ly = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = len(usable) - 2
    var = float(resid @ resid) / dof if dof > 0 else 0.0
    denom = float(np.sum((lx - lx.mean()) ** 2))
    return float(slope), math.sqrt(var / denom) if denom > 0 else float("inf")


# -- config parsing --------------------------------------------------------------


# every key of a run config with its type: a dict is a section of its own
# keys, [section] a JSON list of such sections, (t,) a JSON list of t's; an
# int reads 4.0 as 4, and a bool is no number
_CONFIG = {
    "system": {"name": str, "mu": float, "sigma": float, "theta": float, "file": str},
    "payoff": {"name": str, "index": int, "exponent": float,
               "terms": [{"exps": (int,), "coeff": float}]},
    "cubature": {"file": str, "builtin": str},
    "partition": {"k": int, "k_list": (int,), "gamma": float},
    "caps": {"leaf_cap": int, "batch": int},
    "reference": {"steps": int, "paths": int},
    "x0": (float,), "T": float, "mode": str, "samples": int, "seed": int,
}
# the steps and paths of an Euler reference where the config gives none
_REFERENCE = {"steps": 256, "paths": 400_000}


def _read(value, kind, key: str):
    """`value` read as `kind` of _CONFIG, or refused with one message that
    names the dotted `key` ("" for the whole file) and the value."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config {key or 'file'} must be a JSON object, "
                             f"got {type(value).__name__}")
        dotted = {name: f"{key}.{name}" if key else name for name in value}
        if unknown := [dotted[name] for name in value if name not in kind]:
            raise ValueError(f"config has unknown key {unknown[0]!r}")
        return {name: _read(value[name], kind[name], dotted[name]) for name in value}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"config {key} must be a list of JSON objects, got {value!r}")
        return [_read(item, kind[0], f"{key}[{i}]") for i, item in enumerate(value)]
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"config {key} must be a string, got {value!r}")
        return value
    many = isinstance(kind, tuple)
    number = kind[0] if many else kind
    group = value if many else [value]
    if many != isinstance(value, list) or not all(
            (number is float or v.is_integer()) if isinstance(v, float) else
            isinstance(v, int) and not isinstance(v, bool) and
            (number is int or abs(v) <= sys.float_info.max) for v in group):
        shown = tuple(value) if many and isinstance(value, list) else value
        if number is int:
            raise ValueError(f"config {key} must be integer{'s' * many}, got {shown!r}")
        raise ValueError(f"config {key} must be {'numbers' if many else 'a number'}, "
                         f"got {shown!r}")
    return [number(v) for v in group] if many else number(value)


def _load_config(args) -> tuple[dict, int]:
    """The JSON run config of args.config read through _CONFIG, its mode, T,
    partition and (sampled) samples checked by their keys, and the seed:
    --seed if given, else the config's (default 0)."""
    with open(args.config) as fh:
        config = _read(json.load(fh), _CONFIG, "")
    mode = config.get("mode", "full")
    if mode not in ("full", "sampled"):
        raise ValueError(f"mode must be 'full' or 'sampled', got {mode!r}")
    if "T" in config:
        _check_positive(config["T"], "config T")
    partition = config.get("partition", {})
    k_list = partition.get("k_list")
    if k_list is not None and (not k_list or sorted(set(k_list)) != k_list):
        raise ValueError("config partition.k_list must be nonempty and strictly increasing")
    if "k" in partition:
        _check_count(partition["k"], "config partition.k")
    for k in k_list or []:
        _check_count(k, "config partition.k_list")
    if mode == "sampled" and "samples" in config:
        _check_count(config["samples"], "config samples", 2)
    seed = config.get("seed", 0) if args.seed is None else args.seed
    _check_count(seed, "config seed" if args.seed is None else "--seed", 0)
    return config, seed


def _build_system(spec: dict) -> VectorFieldSystem:
    name = spec.get("name")
    if name == "gbm":
        return gbm(spec["mu"], spec["sigma"])
    if name == "ou":
        return ou(spec["theta"], spec["sigma"])
    if name == "affine":
        return affine_from_file(spec["file"])
    raise ValueError(f"unknown system {name!r} (use gbm, ou, or affine)")


def _build_payoff(spec: dict, n_vars: int):
    name = spec.get("name", "identity")
    index = spec.get("index", 0)
    if not 0 <= index < n_vars:
        raise ValueError(f"payoff index {index} outside state dimension {n_vars}")
    if name == "identity":
        return MultiPoly.coordinate(n_vars, index)
    if name == "power":
        p = spec["exponent"]
        return lambda y: float(y[index] ** p)
    if name == "poly":
        return MultiPoly(n_vars, {tuple(rec["exps"]): rec["coeff"] for rec in spec["terms"]})
    raise ValueError(f"unknown payoff {name!r} (use identity, power, or poly)")


def _build_formula(spec: dict) -> CubatureFormula:
    if "file" in spec:
        return cubature.from_file(spec["file"])
    formula = _builtin_formula(spec.get("builtin", ""))
    if formula is None:
        raise ValueError("cubature spec needs 'file' or builtin in "
                         f"{{degree3, degree5_d1}}: {spec!r}")
    return formula


def _builtin_formula(label: str) -> CubatureFormula | None:
    """Builtin specs addressable from the command line and from a config:
    degree3 (dimension 1), degree3:<d>, degree5_d1 (or degree5_d1:1)."""
    name, _, dimension = label.partition(":")
    if name == "degree3":
        try:
            dimension = int(dimension or 1)
        except ValueError:
            raise ValueError(f"cubature spec {label!r}: dimension is not an integer") from None
        _check_count(dimension, f"cubature spec {label!r}: dimension")
        return cubature.degree3(dimension)
    if name == "degree5_d1" and dimension in ("", "1"):
        return cubature.degree5_d1()
    return None


def _closed_form_reference(system_spec: dict, payoff_spec: dict, x0, horizon):
    """E[f(X_T)] in closed form where the builtin admits one, inf where it
    overflows; the payoff spec is read with _build_payoff's defaults."""
    name = system_spec.get("name")
    payoff = payoff_spec.get("name", "identity")
    x = float(x0[payoff_spec.get("index", 0)])
    try:
        if name == "gbm" and payoff in ("identity", "power"):
            mu, sigma = system_spec["mu"], system_spec["sigma"]
            p = payoff_spec["exponent"] if payoff == "power" else 1.0
            return x**p * math.exp(p * mu * horizon + 0.5 * p**2 * sigma**2 * horizon)
        if name == "ou" and payoff == "identity":
            return x * math.exp(-system_spec["theta"] * horizon)
    except (OverflowError, ZeroDivisionError):  # past the float range, or 0 ** -p
        return math.inf
    return None


def _require_finite(*named) -> None:
    """Refuse a (name, value) pair whose value is a number but not finite."""
    for name, value in named:
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")


def _word_key(word) -> str:
    return ".".join(str(a) for a in word)


# -- subcommands -----------------------------------------------------------------


def cmd_validate_cubature(args) -> int:
    if args.degree is not None:
        _check_count(args.degree, "--degree", 0)
    formula = _builtin_formula(args.formula)
    if formula is None:
        try:
            formula = cubature.from_file(args.formula)
        except CubatureLoadError as exc:
            return _fail(f"load: {exc}")
    report = validate(formula, tol=args.tol, degree=args.degree)
    print(report.table())
    if report.ok:
        return 0
    return _fail(
        f"validation failed: max defect {report.max_defect:.6e} "
        f"on word {_word_key(report.worst_word)!r}"
    )


def cmd_expected_signature(args) -> int:
    _check_count(args.dimension, "--dimension")
    _check_count(args.degree, "--degree", 0)
    _check_positive(args.horizon, "--horizon")
    tensor = brownian_expected_signature(args.dimension, args.degree, args.horizon)
    out = {
        "dimension": args.dimension,
        "degree": args.degree,
        "horizon": args.horizon,
        "coefficients": {_word_key(w): c for w, c in tensor.items()},
    }
    worst_z, worst_word = 0.0, ()
    if args.mc_paths:
        _check_count(args.mc_paths, "--mc-paths", 2)
        _check_count(args.mc_steps, "--mc-steps")
        _check_count(args.seed, "--seed", 0)
        rng = np.random.default_rng(args.seed)
        estimate, stderr = monte_carlo_expected_signature(
            args.dimension, args.degree, args.horizon,
            args.mc_paths, args.mc_steps, rng,
        )
        rows = {}
        for w in sorted(set(dict(tensor.items())) | set(dict(estimate.items()))):
            diff = abs(estimate.coeff(w) - tensor.coeff(w))
            # a word with no spread passes when its difference is within --tol
            z = diff / stderr[w] if stderr[w] > 0 else 0.0 if diff <= args.tol else math.inf
            rows[_word_key(w)] = {"diff": diff, "z": z}
            if z > worst_z:
                worst_z, worst_word = z, w
        out["monte_carlo"] = {"paths": args.mc_paths, "steps": args.mc_steps,
                              "seed": args.seed, "worst_z": worst_z,
                              "worst_word": _word_key(worst_word), "rows": rows}
    print(json.dumps(out, indent=1, sort_keys=True))
    if worst_z > args.z_limit:  # worst_z is 0 without Monte Carlo, the limit >= 0
        return _fail(f"monte carlo disagrees: z={worst_z:.2f} "
                     f"on word {_word_key(worst_word)!r}")
    return 0


def _problem(config: dict):
    """The system, payoff, start and horizon of a config: euler_mc's first
    four arguments."""
    system = _build_system(config["system"])
    payoff = _build_payoff(config.get("payoff", {}), system.dimension)
    return system, payoff, np.asarray(config["x0"]), config["T"]


def _sweep(config: dict, seed: int, k_list: list[int]):
    """The config's tree at every k of k_list from one prologue: system,
    payoff, formula and solver config are built once and one klv_sweep call
    solves every k. Returns the results, the closed-form reference (None if
    the config has none) and the problem, for an Euler reference."""
    problem = _problem(config)
    system, payoff, x0, horizon = problem
    formula = _build_formula(config["cubature"])
    gamma = config.get("partition", {}).get("gamma", formula.degree - 1.0)
    parts = [gamma_partition(horizon, k, gamma) for k in k_list]
    # _CONFIG admits only SolverConfig's leaf_cap and batch; the rest are its defaults
    cfg = SolverConfig(**config.get("caps", {}))
    # _load_config admits only the modes full and sampled
    n_samples = (None if config.get("mode", "full") == "full"
                 else config.get("samples", 100_000))
    results = klv_sweep(formula, system, payoff, x0, parts, cfg, n_samples, seed)
    reference = _closed_form_reference(config["system"], config.get("payoff", {}),
                                       x0, horizon)
    return results, reference, problem


def _reference(config: dict) -> tuple[int, int]:
    """The steps and paths of the config's Euler reference, _REFERENCE's
    where it gives none; paths checked by euler_mc's rule, under its key."""
    steps, paths = (_REFERENCE | config.get("reference", {})).values()
    _check_count(paths, "config reference.paths", 2)
    return steps, paths


def cmd_solve(args) -> int:
    config, seed = _load_config(args)
    part_spec = config.get("partition", {})
    k = part_spec.get("k", part_spec.get("k_list", [4])[0])
    [result], reference, _ = _sweep(config, seed, [k])
    _require_finite((f"value at k={k}", result.value),
                    (f"stderr at k={k}", result.stderr), ("reference", reference))
    out = {
        "value": result.value,
        "mode": result.mode,
        "k": k,
        "leaves": result.leaves_evaluated,
        "diagnostics": result.diagnostics,
    }
    if result.stderr is not None:
        out["stderr"] = result.stderr
    if reference is not None:
        out["reference"] = reference
        out["abs_error"] = abs(result.value - reference)
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def cmd_converge(args) -> int:
    config, seed = _load_config(args)
    _check_count(args.threads, "--threads")
    k_list = config.get("partition", {})["k_list"]
    steps, paths = _reference(config)
    if steps < 2 or steps % 2:
        return _fail(f"config reference.steps must be an even integer >= 2, got {steps}")
    ref_meta: dict = {"kind": "closed_form"}
    results, reference, problem = _sweep(config, seed, k_list)
    if reference is None:
        # first-order bias removed by step-halving extrapolation
        half, half_se = euler_mc(*problem, steps // 2, paths, seed + 1)
        full, full_se = euler_mc(*problem, steps, paths, seed + 2)
        reference = 2.0 * full - half
        ref_meta = {"kind": "euler_richardson", "steps": steps, "paths": paths,
                    "stderr": math.hypot(2.0 * full_se, half_se)}
    values = [r.value for r in results]
    _require_finite(*[(f"value at k={k}", v) for k, v in zip(k_list, values)],
                    ("reference", reference), ("reference stderr", ref_meta.get("stderr")))
    errors = [abs(v - reference) for v in values]
    try:
        slope, slope_se = fit_slope([(float(k), e) for k, e in zip(k_list, errors)])
    except ValueError as exc:
        return _fail(f"slope fit: {exc}")
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "converge.csv")
    with open(csv_path, "w") as fh:
        fh.write("k,value,reference,abs_error\n")
        for k, v, e in zip(k_list, values, errors):
            fh.write(f"{k},{v!r},{reference!r},{e!r}\n")
    summary = {
        "slope": slope,
        "slope_stderr": slope_se,
        "reference": ref_meta | {"value": reference},
        "k_list": k_list,
        "seed": seed,
        "threads": args.threads,
        "csv": csv_path,
    }
    json_path = os.path.join(args.out, "converge.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"converge: slope {slope:.4f} +- {slope_se:.4f} over k={k_list}; "
          f"wrote {csv_path} and {json_path}")
    return 0


def cmd_mc_reference(args) -> int:
    config, seed = _load_config(args)
    steps, paths = _reference(config)
    _check_count(steps, "config reference.steps")
    mean, stderr = euler_mc(*_problem(config), steps, paths, seed)
    _require_finite(("reference mean", mean), ("reference stderr", stderr))
    print(json.dumps({"mean": mean, "stderr": stderr, "steps": steps, "paths": paths,
                      "seed": seed}, indent=1, sort_keys=True))
    return 0


# canonical gap experiment: a bent two-field affine pair with nonvanishing
# commutator, a cubic payoff, and a Lie element free of the bare time word
_GAP_A0 = ((0.2, -0.4), (0.3, 0.1))
_GAP_B0 = (0.1, -0.2)
_GAP_A1 = ((0.0, 0.5), (-0.3, 0.2))
_GAP_B1 = (0.4, 0.3)
_GAP_X = (0.7, -0.3)


def _gap_experiment(m: int, seed: int | None):
    sys_ = VectorFieldSystem(
        (AffineField(_GAP_A0, _GAP_B0), AffineField(_GAP_A1, _GAP_B1))
    )
    f = MultiPoly(2, {(3, 0): 1.0, (0, 2): 0.5, (1, 1): -1.0})
    if seed is None:
        terms = {(1,): 1.0, (0, 1): 0.6, (1, 0): -0.6}
    else:
        _check_count(seed, "--seed", 0)
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.4, 1.2, size=2)
        terms = {(1,): float(a), (0, 1): float(b), (1, 0): float(-b)}
    poly = certify(GradedTensor(1, m, terms))
    return sys_, f, poly


def cmd_lemma_gap(args) -> int:
    try:
        grid = [float(s) for s in args.s_grid.split(",")]
    except ValueError:  # not a number: refused with the other bad grids
        grid = []
    if not all(0 < s < math.inf for s in grid) or len(grid) < 3:
        return _fail("--s-grid needs >= 3 positive finite values")
    if args.m < 3:
        return _fail("--m must be >= 3")
    min_slope = args.min_slope
    if min_slope is None:
        min_slope = (args.m + 1) / 2.0 - 0.3
    system, payoff, poly = _gap_experiment(args.m, args.seed)
    x = np.asarray(_GAP_X)
    gaps = [flow_tensor_gap(poly, system, payoff, x, s) for s in grid]
    slope, slope_se = fit_slope(list(zip(grid, gaps)))
    bound = remainder_box_bound(poly, system, payoff, min(grid))
    out = {
        "m": args.m,
        "s_grid": grid,
        "gaps": gaps,
        "slope": slope,
        "slope_stderr": slope_se,
        "min_slope": min_slope,
        "box_bound_at_smallest_s": bound,
        "gap_within_bound": gaps[grid.index(min(grid))] <= bound,
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    if slope < min_slope:
        return _fail(f"gap slope {slope:.3f} below required {min_slope:.3f}")
    return 0


# -- entry point -----------------------------------------------------------------


def finite(text: str, least: float = -math.inf) -> float:
    """argparse type of a limit or tolerance: a finite float (a NaN limit
    would turn its check off) of at least `least` (no z is below 0)."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a number >= {least}, got {text!r}")
    return value


def tolerance(text: str) -> float:
    """argparse type of a tolerance: `finite`, then `_check_tolerance`."""
    value = finite(text)
    try:
        _check_tolerance(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


class _Numbers:
    """argparse's test of an argument that starts with '-' but is a value:
    anything float() reads, so -1e-3 and -inf are values too (argparse's own
    test knows only forms like -1 and -.5). No flag starts with '-' and a
    digit, '.', 'i' or 'n'."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienercub",
        description="cubature-on-Wiener-space toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-cubature",
                       help="check a formula's moment matching")
    p.add_argument("formula",
                   help="file path, or builtin: degree3:<d>, degree5_d1")
    p.add_argument("--degree", type=int, default=None,
                   help="test degree (default: the formula's claim)")
    p.add_argument("--tol", type=tolerance, default=1e-10)
    p.set_defaults(func=cmd_validate_cubature)

    p = sub.add_parser("expected-signature",
                       help="closed-form expected signature, optional MC check")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--mc-paths", type=int, default=0)
    p.add_argument("--mc-steps", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z-limit", type=functools.partial(finite, least=0.0), default=4.0)
    p.add_argument("--tol", type=tolerance, default=1e-12)
    p.set_defaults(func=cmd_expected_signature)

    for name, fn in (("solve", cmd_solve), ("converge", cmd_converge),
                     ("mc-reference", cmd_mc_reference)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        if name == "converge":
            p.add_argument("--out", required=True)
            p.add_argument("--threads", type=int, default=1,
                           help="recorded in converge.json; solves run on one thread")
        p.set_defaults(func=fn)

    p = sub.add_parser("lemma-gap",
                       help="flow vs truncated-operator gap slopes")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=None,
                   help="random Lie element; default is the canonical one")
    p.add_argument("--s-grid", default="0.4,0.2,0.1,0.05")
    p.add_argument("--min-slope", type=finite, default=None,
                   help="default (m+1)/2 - 0.3")
    p.set_defaults(func=cmd_lemma_gap)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _Numbers
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # no numpy warning precedes the one error line: spoiled values are refused
        with np.errstate(all="ignore"):
            return args.func(args)
    except FileNotFoundError as exc:
        return _fail(f"missing file: {exc.filename}")
    except OSError as exc:
        # no filename: the error is in I/O itself, a closed standard output for one
        where = "I/O failed" if exc.filename is None else f"cannot open {exc.filename}"
        return _fail(f"{where}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        return _fail(f"bad JSON: {exc}")
    except KeyError as exc:
        return _fail(f"config missing key {exc}")
    except (FlowDivergence, TypeError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
