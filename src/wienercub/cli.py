"""Command-line front end: validate formulas, check the expected-signature
closed form, run solves and convergence sweeps, and measure the
flow-vs-truncated-operator gap.

Exit codes: 0 success, 1 a validation or assertion failed, 2 usage error.
Every failure writes one machine-parsable line to standard error. Runs are
reproducible: a config plus seed determines the output bytes, regardless of
thread count.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import cubature
from .cubature import CubatureFormula, CubatureLoadError, validate
from .klv_solver import (
    SolverConfig,
    gamma_partition,
    klv_full,
    klv_sampled,
    euler_mc,
    LeafCapExceeded,
)
from .lie_structures import certify
from .operator_calculus import MultiPoly, flow_tensor_gap, remainder_box_bound
from .path_signature import (
    brownian_expected_signature,
    monte_carlo_expected_signature,
)
from .tensor_algebra import GradedTensor
from .vector_fields import (
    AffineField,
    FlowDivergence,
    VectorFieldSystem,
    affine_from_file,
    gbm,
    ou,
)

THREADS_ENV = "WIENERCUB_THREADS"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def fit_slope(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(k), with its standard
    error. Nonpositive errors are dropped with a warning; fewer than three
    usable points is an error."""
    usable = [(k, e) for k, e in pairs if e > 0.0]
    for k, e in pairs:
        if e <= 0.0:
            print(f"warning: dropped k={k} with nonpositive error {e!r}",
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


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated form of a run config plus the command options.

    `raw` keeps the JSON document; `seed` and `threads` are already resolved
    against the command-line flags and environment.
    """

    raw: dict
    seed: int
    threads: int
    out_dir: str | None = None

    @classmethod
    def from_args(cls, args) -> "ExperimentConfig":
        raw = _load_config(args.config)
        mode = raw.get("mode", "full")
        if mode not in ("full", "sampled"):
            raise ValueError(f"mode must be 'full' or 'sampled', got {mode!r}")
        k_list = raw.get("partition", {}).get("k_list")
        if k_list is not None and (
            not k_list or sorted(set(int(k) for k in k_list)) != list(k_list)
        ):
            raise ValueError(
                "config partition.k_list must be nonempty and strictly increasing"
            )
        seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
        return cls(
            raw=raw,
            seed=seed,
            threads=_resolve_threads(args),
            out_dir=getattr(args, "out", None),
        )


def _build_system(spec: dict) -> VectorFieldSystem:
    name = spec.get("name")
    if name == "gbm":
        return gbm(float(spec["mu"]), float(spec["sigma"]))
    if name == "ou":
        return ou(float(spec["theta"]), float(spec["sigma"]))
    if name == "affine":
        return affine_from_file(spec["file"])
    raise ValueError(f"unknown system {name!r} (use gbm, ou, or affine)")


def _build_payoff(spec: dict, n_vars: int):
    name = spec.get("name", "identity")
    index = int(spec.get("index", 0))
    if not 0 <= index < n_vars:
        raise ValueError(f"payoff index {index} outside state dimension {n_vars}")
    if name == "identity":
        meta = {"name": "identity", "index": index}
        return MultiPoly.coordinate(n_vars, index), meta
    if name == "power":
        p = float(spec["exponent"])
        return (
            lambda y: float(y[index] ** p),
            {"name": "power", "index": index, "exponent": p},
        )
    if name == "poly":
        terms = {
            tuple(int(e) for e in rec["exps"]): float(rec["coeff"])
            for rec in spec["terms"]
        }
        return MultiPoly(n_vars, terms), {"name": "poly"}
    raise ValueError(f"unknown payoff {name!r} (use identity, power, or poly)")


def _build_formula(spec: dict) -> CubatureFormula:
    if "file" in spec:
        return cubature.from_file(spec["file"])
    label = str(spec.get("builtin"))
    if "dimension" in spec:
        label += f":{int(spec['dimension'])}"
    formula = _builtin_formula(label)
    if formula is None:
        raise ValueError("cubature spec needs 'file' or builtin in "
                         f"{{degree3, degree5_d1}}: {spec!r}")
    return formula


def _builtin_formula(label: str) -> CubatureFormula | None:
    """Builtin specs addressable from the command line and from a config:
    degree3 (dimension 1), degree3:<d>, degree5_d1 (or degree5_d1:1)."""
    name, _, dimension = label.partition(":")
    if name == "degree3":
        return cubature.degree3(int(dimension or 1))
    if name == "degree5_d1" and dimension in ("", "1"):
        return cubature.degree5_d1()
    return None


def _solver_config(config: dict, threads: int) -> SolverConfig:
    caps = config.get("caps", {})
    return SolverConfig(
        leaf_cap=int(caps.get("leaf_cap", 10_000_000)),
        threads=threads,
        batch=int(caps.get("batch", 1 << 16)),
    )


def _closed_form_reference(system_spec: dict, payoff_meta: dict, x0, horizon):
    """E[f(X_T)] in closed form where the builtin admits one."""
    name = system_spec.get("name")
    if name == "gbm" and payoff_meta["name"] in ("identity", "power"):
        mu, sigma = float(system_spec["mu"]), float(system_spec["sigma"])
        p = payoff_meta.get("exponent", 1.0)
        x = float(x0[payoff_meta["index"]])
        return x**p * math.exp(p * mu * horizon + 0.5 * p**2 * sigma**2 * horizon)
    if name == "ou" and payoff_meta["name"] == "identity":
        theta = float(system_spec["theta"])
        x = float(x0[payoff_meta["index"]])
        return x * math.exp(-theta * horizon)
    return None


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None):
        return max(1, args.threads)
    env = os.environ.get(THREADS_ENV, "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            print(f"warning: ignoring non-integer {THREADS_ENV}={env!r}",
                  file=sys.stderr)
    return 1


def _word_key(word) -> str:
    return ".".join(str(a) for a in word)


# -- subcommands -----------------------------------------------------------------


def cmd_validate_cubature(args) -> int:
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
    tensor = brownian_expected_signature(args.dimension, args.degree, args.horizon)
    out = {
        "dimension": args.dimension,
        "degree": args.degree,
        "horizon": args.horizon,
        "coefficients": {_word_key(w): c for w, c in tensor.sorted_items()},
    }
    if args.mc_paths:
        rng = np.random.default_rng(args.seed)
        estimate, stderr = monte_carlo_expected_signature(
            args.dimension, args.degree, args.horizon,
            args.mc_paths, args.mc_steps, rng,
        )
        worst_z = 0.0
        worst_word = None
        rows = {}
        for w in sorted(set(dict(tensor.items())) | set(dict(estimate.items()))):
            diff = abs(estimate.coeff(w) - tensor.coeff(w))
            z = diff / stderr[w] if stderr.get(w, 0.0) > 0 else (
                0.0 if diff <= args.tol else float("inf")
            )
            rows[_word_key(w)] = {"diff": diff, "z": z}
            if z > worst_z:
                worst_z, worst_word = z, w
        out["monte_carlo"] = {
            "paths": args.mc_paths,
            "steps": args.mc_steps,
            "seed": args.seed,
            "worst_z": worst_z,
            "worst_word": _word_key(worst_word) if worst_word else "",
            "rows": rows,
        }
    print(json.dumps(out, indent=1, sort_keys=True))
    if args.mc_paths and out["monte_carlo"]["worst_z"] > args.z_limit:
        return _fail(
            f"monte carlo disagrees: z={out['monte_carlo']['worst_z']:.2f} "
            f"on word {out['monte_carlo']['worst_word']!r}"
        )
    return 0


def _run_single(config: dict, k: int, threads: int, seed: int):
    sys_spec = config["system"]
    system = _build_system(sys_spec)
    x0 = np.asarray(config["x0"], dtype=float)
    payoff, payoff_meta = _build_payoff(config.get("payoff", {}), system.dimension)
    formula = _build_formula(config["cubature"])
    horizon = float(config["T"])
    gamma = float(config.get("partition", {}).get("gamma", formula.degree - 1))
    part = gamma_partition(horizon, k, gamma)
    cfg = _solver_config(config, threads)
    # ExperimentConfig.from_args admits only the modes full and sampled
    if config.get("mode", "full") == "full":
        result = klv_full(formula, system, payoff, x0, part, cfg)
    else:
        result = klv_sampled(
            formula, system, payoff, x0, part,
            int(config.get("samples", 100_000)), seed, cfg,
        )
    reference = _closed_form_reference(sys_spec, payoff_meta, x0, horizon)
    return result, reference, payoff_meta


def cmd_solve(args) -> int:
    exp = ExperimentConfig.from_args(args)
    config, seed = exp.raw, exp.seed
    part_spec = config.get("partition", {})
    k = int(part_spec.get("k", part_spec.get("k_list", [4])[0]))
    try:
        result, reference, _ = _run_single(config, k, exp.threads, seed)
    except (LeafCapExceeded, FlowDivergence, ValueError, CubatureLoadError) as exc:
        return _fail(str(exc))
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
    exp = ExperimentConfig.from_args(args)
    config, seed, threads = exp.raw, exp.seed, exp.threads
    k_list = [int(k) for k in config.get("partition", {}).get("k_list", [])]
    if not k_list:
        return _fail("config partition.k_list must be nonempty and strictly increasing")
    rows = []
    reference = None
    ref_meta: dict = {"kind": "closed_form"}
    try:
        for k in k_list:
            result, reference, payoff_meta = _run_single(config, k, threads, seed)
            rows.append((k, result.value))
        if reference is None:
            ref_spec = config.get("reference", {})
            steps = int(ref_spec.get("steps", 256))
            paths = int(ref_spec.get("paths", 400_000))
            system = _build_system(config["system"])
            x0 = np.asarray(config["x0"], dtype=float)
            payoff, _ = _build_payoff(config.get("payoff", {}), system.dimension)
            horizon = float(config["T"])
            # first-order bias removed by step-halving extrapolation
            half, half_se = euler_mc(system, payoff, x0, horizon, steps // 2,
                                     paths, seed + 1)
            full, full_se = euler_mc(system, payoff, x0, horizon, steps,
                                     paths, seed + 2)
            reference = 2.0 * full - half
            ref_meta = {
                "kind": "euler_richardson",
                "steps": steps,
                "paths": paths,
                "stderr": math.hypot(2.0 * full_se, half_se),
            }
    except (LeafCapExceeded, FlowDivergence, ValueError, CubatureLoadError) as exc:
        return _fail(str(exc))
    errors = [(k, abs(v - reference)) for k, v in rows]
    try:
        slope, slope_se = fit_slope([(float(k), e) for k, e in errors])
    except ValueError as exc:
        return _fail(f"slope fit: {exc}")
    os.makedirs(exp.out_dir, exist_ok=True)
    csv_path = os.path.join(exp.out_dir, "converge.csv")
    with open(csv_path, "w") as fh:
        fh.write("k,value,reference,abs_error\n")
        for (k, v), (_, e) in zip(rows, errors):
            fh.write(f"{k},{v!r},{reference!r},{e!r}\n")
    summary = {
        "slope": slope,
        "slope_stderr": slope_se,
        "reference": ref_meta | {"value": reference},
        "k_list": k_list,
        "seed": seed,
        "threads": threads,
        "csv": csv_path,
    }
    json_path = os.path.join(exp.out_dir, "converge.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"converge: slope {slope:.4f} +- {slope_se:.4f} over k={k_list}; "
          f"wrote {csv_path} and {json_path}")
    return 0


def cmd_mc_reference(args) -> int:
    exp = ExperimentConfig.from_args(args)
    config, seed = exp.raw, exp.seed
    ref_spec = config.get("reference", {})
    system = _build_system(config["system"])
    x0 = np.asarray(config["x0"], dtype=float)
    payoff, _ = _build_payoff(config.get("payoff", {}), system.dimension)
    try:
        mean, stderr = euler_mc(
            system, payoff, x0, float(config["T"]),
            int(ref_spec.get("steps", 256)),
            int(ref_spec.get("paths", 200_000)),
            seed,
        )
    except (FlowDivergence, ValueError) as exc:
        return _fail(str(exc))
    print(json.dumps(
        {"mean": mean, "stderr": stderr,
         "steps": int(ref_spec.get("steps", 256)),
         "paths": int(ref_spec.get("paths", 200_000)), "seed": seed},
        indent=1, sort_keys=True,
    ))
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
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.4, 1.2, size=2)
        terms = {(1,): float(a), (0, 1): float(b), (1, 0): float(-b)}
    poly = certify(GradedTensor(1, m, terms))
    return sys_, f, poly


def cmd_lemma_gap(args) -> int:
    grid = [float(s) for s in args.s_grid.split(",")]
    if any(s <= 0 for s in grid) or len(grid) < 3:
        return _fail("--s-grid needs >= 3 positive values")
    min_slope = args.min_slope
    if min_slope is None:
        min_slope = (args.m + 1) / 2.0 - 0.3
    try:
        system, payoff, poly = _gap_experiment(args.m, args.seed)
        x = np.asarray(_GAP_X)
        gaps = [flow_tensor_gap(poly, system, payoff, x, s) for s in grid]
        slope, slope_se = fit_slope(list(zip(grid, gaps)))
        bound = remainder_box_bound(poly, system, payoff, min(grid))
    except ValueError as exc:
        return _fail(str(exc))
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
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_validate_cubature)

    p = sub.add_parser("expected-signature",
                       help="closed-form expected signature, optional MC check")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--mc-paths", type=int, default=0)
    p.add_argument("--mc-steps", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z-limit", type=float, default=4.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_expected_signature)

    for name, fn in (("solve", cmd_solve), ("converge", cmd_converge),
                     ("mc-reference", cmd_mc_reference)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help=f"defaults to ${THREADS_ENV} or 1")
        if name == "converge":
            p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("lemma-gap",
                       help="flow vs truncated-operator gap slopes")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=None,
                   help="random Lie element; default is the canonical one")
    p.add_argument("--s-grid", default="0.4,0.2,0.1,0.05")
    p.add_argument("--min-slope", type=float, default=None,
                   help="default (m+1)/2 - 0.3")
    p.set_defaults(func=cmd_lemma_gap)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(f"missing file: {exc.filename}")
    except json.JSONDecodeError as exc:
        return _fail(f"bad JSON: {exc}")
    except KeyError as exc:
        return _fail(f"config missing key {exc}")
    except ValueError as exc:
        return _fail(str(exc))


# alias for callers that treat the CLI as a library function
run = main


if __name__ == "__main__":
    sys.exit(main())
