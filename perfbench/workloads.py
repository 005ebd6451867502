"""The benchmark's three workloads: inputs drawn from a seed, one op, checks.

A workload object has
- `setup(wc, seed, work_dir, wrap)`: builds the formula, system, payoff and
  partition from the seed (timed as set-up). `wrap(fn, name)` is applied to
  callbacks the benchmark supplies to the library: identity in untraced
  runs, a counting wrapper in traced ones.
- `oracle(wc, state)`: the independent reference values (not timed).
- `op(wc, state)`: one unit of work; returns plain data (floats, bytes), so
  two ops on the same inputs can be compared for equality.
- `check(state, ref, value)`: a list of failed checks, empty when correct.
- `accuracy(state, ref, value)`: |value - oracle| where the value is
  deterministic, else None.

The seed only draws inputs (model parameters, paths, sampling seeds); the
cost of an op does not depend on it. Every op of a run sees the same inputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from statistics import NormalDist

import numpy as np
from scipy.linalg import expm

# two-sided tail of one 4-stderr test; a family of W simultaneous tests is
# held to the same false-alarm rate (Bonferroni), z = Phi^-1(1 - ALPHA/(2W))
ALPHA_4SE = 2.0 * (1.0 - NormalDist().cdf(4.0))


def family_z(n_tests: int) -> float:
    return NormalDist().inv_cdf(1.0 - ALPHA_4SE / (2.0 * n_tests))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


# ---------------------------------------------------------------------------


class ConvergeGbm:
    """CLI `converge` on geometric Brownian motion.

    The timed op runs one thread: a two-thread op on two shared vCPUs times
    the scheduler's hand-offs of the GIL more than the program (see NOTES.md,
    "Noise"). The thread pool runs in `pool_op`, whose CSV every op must
    match and whose speed-up the traced run reports.
    """

    name = "converge_gbm"
    why = ("flow-bound: RK4 flows of affine fields dominate; the only workload "
           "through the CLI; each op's CSV must equal the threads=2 pool run's")
    K_LIST = [4, 5, 6, 7]          # 81 .. 2187 leaves of degree5_d1
    THREADS = 1
    POOL_THREADS = 2
    SLOPE_BAND = (-2.35, -1.65)    # degree5_d1 band of acceptance criterion 5
    # weak error at k=7: at most 1.3e-6 relative over seeds 0..299
    REL_TOL = 1e-5

    def setup(self, wc, seed, work_dir, wrap):
        # the op calls wc.cli; importing it here counts its cost as set-up
        from wienercub import cli  # noqa: F401

        rng = _rng(seed, 1)
        mu, sigma, x0 = rng.uniform(0.0, 0.1), rng.uniform(0.2, 0.4), rng.uniform(0.5, 2.0)
        config = {
            "system": {"name": "gbm", "mu": float(mu), "sigma": float(sigma)},
            "payoff": {"name": "identity"},
            "x0": [float(x0)],
            "T": 1.0,
            "cubature": {"builtin": "degree5_d1"},
            "partition": {"gamma": 2.0, "k_list": self.K_LIST},
            "mode": "full",
            "seed": int(seed),
        }
        os.makedirs(work_dir, exist_ok=True)
        path = os.path.join(work_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return {"config": config, "config_path": path, "work_dir": work_dir}

    def _run(self, wc, state, threads):
        out = os.path.join(state["work_dir"], f"out-{threads}")
        argv = ["converge", "--config", state["config_path"], "--out", out,
                "--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = wc.cli.main(argv)
        if code != 0:
            return {"exit": code}
        with open(os.path.join(out, "converge.csv"), "rb") as fh:
            csv = fh.read()
        with open(os.path.join(out, "converge.json")) as fh:
            summary = json.load(fh)
        last = csv.decode().strip().splitlines()[-1].split(",")
        return {"exit": code, "csv": csv, "slope": summary["slope"],
                "value": float(last[1]), "reference": float(last[2])}

    def op(self, wc, state):
        return self._run(wc, state, self.THREADS)

    def pool_op(self, wc, state):
        """The same op through the thread pool, for the pool speed-up."""
        return self._run(wc, state, self.POOL_THREADS)

    def oracle(self, wc, state):
        cfg = state["config"]
        mu, sigma = cfg["system"]["mu"], cfg["system"]["sigma"]
        truth = cfg["x0"][0] * math.exp((mu + 0.5 * sigma**2) * cfg["T"])
        return {"truth": truth, "pool": self.pool_op(wc, state)}

    def check(self, state, ref, value):
        if value["exit"] != 0:
            return [f"converge exited {value['exit']}"]
        fails = []
        if value["csv"] != ref["pool"].get("csv"):
            fails.append(f"converge.csv differs from the threads={self.POOL_THREADS} run")
        lo, hi = self.SLOPE_BAND
        if not lo <= value["slope"] <= hi:
            fails.append(f"slope {value['slope']:.3f} outside [{lo}, {hi}]")
        if abs(value["reference"] - ref["truth"]) > 1e-12 * ref["truth"]:
            fails.append("CLI closed form disagrees with the oracle")
        if self.accuracy(state, ref, value) > self.REL_TOL * ref["truth"]:
            fails.append(f"abs_error {self.accuracy(state, ref, value):.3e} too large")
        return fails

    def accuracy(self, state, ref, value):
        return abs(value["value"] - ref["truth"])


# ---------------------------------------------------------------------------

# the two-field affine pair and start point of tests/conftest.py
A0, B0 = ((0.2, -0.4), (0.3, 0.1)), (0.1, -0.2)
A1, B1 = ((0.0, 0.5), (-0.3, 0.2)), (0.4, 0.3)
X_START = (0.7, -0.3)


def cubic_system(wc, seed):
    """The conftest pair plus a seeded third affine field, a seeded x0 and a
    dense cubic payoff with seeded coefficients on all ten monomials."""
    rng = _rng(seed, 2)
    a2 = rng.uniform(-0.3, 0.3, (2, 2))
    b2 = rng.uniform(-0.3, 0.3, 2)
    x0 = np.asarray(X_START) + rng.uniform(-0.2, 0.2, 2)
    system = wc.VectorFieldSystem(
        (wc.AffineField(A0, B0), wc.AffineField(A1, B1), wc.AffineField(a2, b2))
    )
    payoff = wc.MultiPoly(2, {e: float(rng.uniform(-1.0, 1.0))
                              for e in monomials(2, 3)})
    return system, x0, payoff


def monomials(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    return [e for e in np.ndindex(*(degree + 1,) * n_vars) if sum(e) <= degree]


def _evaluate(basis, coeffs, points) -> np.ndarray:
    powers = np.asarray(points)[:, None, :] ** np.asarray(basis)[None, :, :]
    return np.prod(powers, axis=2) @ coeffs


def generator_oracle(wc, system, payoff, x0, horizon):
    """(exp(T L) f)(x0) with L = V_0 + 1/2 sum_i V_i^2, exact on polynomials.

    Affine fields keep the degree of a polynomial, so L acts on the
    monomials of degree <= deg f as a matrix assembled with word_operator.
    """
    basis = monomials(payoff.n_vars, payoff.degree)
    index = {e: i for i, e in enumerate(basis)}
    words = [(0,)] + [(i, i) for i in range(1, system.n_controls + 1)]
    gen = np.zeros((len(basis), len(basis)))
    for j, e in enumerate(basis):
        mono = wc.MultiPoly(payoff.n_vars, {e: 1.0})
        for w in words:
            for ee, c in wc.word_operator(w, system, mono).items():
                gen[index[ee], j] += c / len(w)
    coeffs = np.array([payoff.coeff(e) for e in basis])
    return float(_evaluate(basis, expm(horizon * gen) @ coeffs, [x0])[0])


def tree_oracle(formula, system, payoff, x0, partition):
    """The full cubature-tree value, without the tree.

    Along one support path an affine system moves a state by an affine map,
    and a polynomial pulled back by an affine map keeps its degree, so
    g_{j-1}(x) = sum_i lambda_i g_j(M_{j,i} x + c_{j,i}), g_k = f, is
    carried on polynomial coefficients: k steps instead of n^k leaves. The
    segment maps come from scipy's expm, and each pull-back is interpolated
    on the principal lattice, which is unisolvent for the degree.
    """
    n, deg = payoff.n_vars, payoff.degree
    basis = monomials(n, deg)
    lattice = np.array(basis, dtype=float) / deg
    vander = _evaluate(basis, np.eye(len(basis)), lattice)
    mats = [np.asarray(f.matrix) for f in system.fields]
    offs = [np.asarray(f.offset) for f in system.fields]

    def path_map(path, gap):
        m, c = np.eye(n), np.zeros(n)
        for dt, dx in path.increments():
            coef = np.concatenate(([dt * gap], np.asarray(dx) * math.sqrt(gap)))
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = sum(a * mat for a, mat in zip(coef, mats))
            aug[:n, n] = sum(a * off for a, off in zip(coef, offs))
            big = expm(aug)
            m, c = big[:n, :n] @ m, big[:n, :n] @ c + big[:n, n]
        return m, c

    g = np.array([payoff.coeff(e) for e in basis])
    for gap in reversed(partition.gaps):
        vals = sum(
            lam * _evaluate(basis, g, lattice @ m.T + c)
            for lam, (m, c) in zip(formula.weights,
                                   (path_map(p, gap) for p in formula.paths))
        )
        g = np.linalg.solve(vander, vals)
    return float(_evaluate(basis, g, [x0])[0])


class TreeCubic2d:
    """klv_full on a 2-D affine system with a cubic MultiPoly payoff."""

    name = "tree_cubic_2d"
    why = ("payoff-bound: the per-leaf MultiPoly loop dominates; single-threaded "
           "klv_full of degree3(2) on a 2-D affine system")
    K = 7                 # 4^7 = 16384 leaves
    # RK4 flows against exact maps: measured ~1e-11 relative
    TREE_TOL = 1e-8
    # weak error of degree3 at k=7 vs the generator oracle: median 0.3%,
    # worst 8% of max(1, |truth|) over seeds 0..599
    SCHEME_TOL = 0.25

    def setup(self, wc, seed, work_dir, wrap):
        system, x0, payoff = cubic_system(wc, seed)
        return {
            "formula": wc.degree3(2),
            "system": system,
            "payoff": payoff,
            "x0": x0,
            "partition": wc.gamma_partition(1.0, self.K, 2.0),
            "solver": wc.SolverConfig(threads=1),
        }

    def op(self, wc, state):
        r = wc.klv_full(state["formula"], state["system"], state["payoff"],
                        state["x0"], state["partition"], state["solver"])
        return {"value": r.value, "leaves": r.leaves_evaluated}

    def oracle(self, wc, state):
        args = state["system"], state["payoff"], state["x0"]
        return {"truth": generator_oracle(wc, *args, 1.0),
                "tree": tree_oracle(state["formula"], *args, state["partition"])}

    def check(self, state, ref, value):
        fails = []
        if value["leaves"] != 4**self.K:
            fails.append(f"{value['leaves']} leaves, expected {4**self.K}")
        scale = max(1.0, abs(ref["truth"]))
        gap = abs(value["value"] - ref["tree"])
        if not gap <= self.TREE_TOL * scale:
            fails.append(f"value {value['value']!r} is {gap:.2e} off the exact tree value")
        if not self.accuracy(state, ref, value) <= self.SCHEME_TOL * scale:
            fails.append(f"abs_error {self.accuracy(state, ref, value):.3e} too large")
        return fails

    def accuracy(self, state, ref, value):
        return abs(value["value"] - ref["truth"])


# ---------------------------------------------------------------------------


class SignatureLie:
    """Signatures, log-signatures, BCH and formula validation; no flows.
    The first part of the signature_mc op."""

    CASES = ((1, 9), (2, 6), (3, 4))   # (space dimension d, truncation m)
    SEGMENTS = 4                       # per path; the concatenation has 8
    TOL = 1e-9                         # relative to the largest coefficient

    def setup(self, wc, seed, work_dir, wrap):
        rng = _rng(seed, 3)

        def path(d):
            gaps = rng.uniform(0.2, 1.0, self.SEGMENTS)
            gaps /= gaps.sum()
            return wc.PiecewiseLinearPath.from_increments(
                [(float(g), rng.uniform(-0.8, 0.8, d)) for g in gaps]
            )

        return {
            "cases": [(d, m, path(d), path(d)) for d, m in self.CASES],
            "degree5": wc.degree5_d1(),
            "degree3": [wc.degree3(d) for d, _ in self.CASES],
        }

    def op(self, wc, state):
        ta = wc.tensor_algebra
        gaps = []
        for d, m, p, q in state["cases"]:
            sp, sq = wc.signature(p, m), wc.signature(q, m)
            spq = wc.signature(wc.concat(p, q), m)
            lp, lq = wc.certify(ta.log(sp)), wc.certify(ta.log(sq))
            scale = max(1.0, max(abs(c) for _, c in spq.items()))
            try:
                b = wc.bch(lp, lq)
            except wc.NotLieElement as err:
                # a failed check, not a lost op: the rest of the op still runs
                # (see NOTES.md, "Known failure")
                bch = f"certificate rejected: {err}"
            else:
                bch = ta.exp(b.tensor).max_coeff_difference(spq) / scale
            gaps.append({
                "case": [d, m],
                "chen": spq.max_coeff_difference(ta.mul(sp, sq)) / scale,
                "exp_log": ta.exp(lp.tensor).max_coeff_difference(sp) / scale,
                "bch": bch,
            })
        return {
            "gaps": gaps,
            "degree5_at_5": wc.validate(state["degree5"], degree=5).ok,
            "degree5_at_9": wc.validate(state["degree5"], degree=9).ok,
            "degree3": [wc.validate(f).ok for f in state["degree3"]],
        }

    def oracle(self, wc, state):
        return {}

    def check(self, state, ref, value):
        fails = [
            f"bch at (d, m) = {tuple(g['case'])}: {g[key]}" if isinstance(g[key], str)
            else f"{key} identity off by {g[key]:.2e} at (d, m) = {tuple(g['case'])}"
            for g in value["gaps"] for key in ("chen", "exp_log", "bch")
            if isinstance(g[key], str) or not g[key] <= self.TOL
        ]
        if not value["degree5_at_5"]:
            fails.append("degree5_d1 fails validation at degree 5")
        if value["degree5_at_9"]:
            fails.append("degree5_d1 passes validation at degree 9")
        if not all(value["degree3"]):
            fails.append("a degree3(d) formula fails validation")
        return fails

    def accuracy(self, state, ref, value):
        return None


# ---------------------------------------------------------------------------


def sinh_system(wc, mu, wrap=lambda fn, name: fn):
    """dX = c(X) (mu dt + o dW), c(x) = sqrt(1 + x^2), as vectorized fields.

    The callbacks act elementwise, so they give the same answer on one point
    of shape (1,) and on a block of shape (P, 1): the solvers pass blocks.
    """
    def v0(x):
        return mu * np.sqrt(1.0 + x * x)

    def v1(x):
        return np.sqrt(1.0 + x * x)

    def j0(x):
        return np.reshape(mu * x / np.sqrt(1.0 + x * x), (1, 1))

    def j1(x):
        return np.reshape(x / np.sqrt(1.0 + x * x), (1, 1))

    return wc.VectorFieldSystem((
        wc.GenericField(wrap(v0, "user.field"), 1,
                        jacobian_func=wrap(j0, "user.field")),
        wc.GenericField(wrap(v1, "user.field"), 1,
                        jacobian_func=wrap(j1, "user.field")),
    ))


def sinh_truth(x0, mu, horizon):
    """E[X_T] = sinh(asinh x0 + mu T) e^{T/2}, since asinh X_T = asinh x0 + mu T + W_T."""
    return math.sinh(math.asinh(x0) + mu * horizon) * math.exp(0.5 * horizon)


class McGeneric:
    """Sampled tree, Euler Monte Carlo and Monte Carlo expected signature on
    a non-affine system given by vectorized callbacks. The second part of
    the signature_mc op."""

    K, SAMPLES = 8, 5_000
    EULER_STEPS, EULER_PATHS = 16, 300
    SIG_DIM, SIG_DEGREE, SIG_PATHS, SIG_STEPS = 2, 4, 2_000, 64
    TREE_BIAS = 1e-2      # |klv_full - truth| bound at k=4, smaller at k=8

    def setup(self, wc, seed, work_dir, wrap):
        rng = _rng(seed, 4)
        mu, x0 = float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.2, 1.0))
        return {
            "mu": mu,
            "x0": np.array([x0]),
            "system": sinh_system(wc, mu, wrap),
            "payoff": lambda y: float(y[0]),
            "formula": wc.degree5_d1(),
            "partition": wc.gamma_partition(1.0, self.K, 2.0),
            "seeds": [int(s) for s in rng.integers(0, 2**31, 3)],
        }

    def op(self, wc, state):
        s1, s2, s3 = state["seeds"]
        r = wc.klv_sampled(state["formula"], state["system"], state["payoff"],
                           state["x0"], state["partition"], self.SAMPLES, s1)
        mean, se = wc.euler_mc(state["system"], state["payoff"], state["x0"],
                               1.0, self.EULER_STEPS, self.EULER_PATHS, s2)
        est, sig_se = wc.monte_carlo_expected_signature(
            self.SIG_DIM, self.SIG_DEGREE, 1.0, self.SIG_PATHS, self.SIG_STEPS,
            np.random.default_rng(s3),
        )
        return {
            "sampled": (r.value, r.stderr),
            "euler": (mean, se),
            "signature": {w: (est.coeff(w), sig_se[w]) for w in sorted(sig_se)},
        }

    def oracle(self, wc, state):
        sig = wc.brownian_expected_signature(self.SIG_DIM, self.SIG_DEGREE, 1.0)
        return {"truth": sinh_truth(float(state["x0"][0]), state["mu"], 1.0),
                "signature": dict(sig.items())}

    def check(self, state, ref, value):
        truth, fails = ref["truth"], []
        v, se = value["sampled"]
        if not abs(v - truth) <= 4.0 * se + self.TREE_BIAS:
            fails.append(f"klv_sampled {v:.5f} vs {truth:.5f} (stderr {se:.2e})")
        # Euler is weak order one: its bias is ~0.25 |truth| T/steps here,
        # allowed for with a factor 4 to spare
        v, se = value["euler"]
        if not abs(v - truth) <= 4.0 * se + abs(truth) / self.EULER_STEPS:
            fails.append(f"euler_mc {v:.5f} vs {truth:.5f} (stderr {se:.2e})")
        z = family_z(sum(1 for _, s in value["signature"].values() if s > 0))
        for w, (c, s) in value["signature"].items():
            # deterministic (pure time) words have zero stderr
            if not abs(c - ref["signature"].get(w, 0.0)) <= z * s + 1e-12:
                fails.append(f"expected signature off on word {w}")
        return fails

    def accuracy(self, state, ref, value):
        return None


class SignatureMc:
    """The code that builds no full tree: one op runs SignatureLie, then
    McGeneric, on inputs drawn from the same seed.

    They share one workload, not one each, so that each run can be long
    enough for its fastest op to meet a quiet spell of the host (see
    NOTES.md, "Noise").
    """

    name = "signature_mc"
    why = ("no full tree: sparse signatures, Lie certificates and validate, then "
           "generic callback fields, klv_sampled, euler_mc and the numpy MC signature")
    PARTS = (SignatureLie(), McGeneric())

    def setup(self, wc, seed, work_dir, wrap):
        return [part.setup(wc, seed, work_dir, wrap) for part in self.PARTS]

    def op(self, wc, state):
        return [part.op(wc, s) for part, s in zip(self.PARTS, state)]

    def oracle(self, wc, state):
        return [part.oracle(wc, s) for part, s in zip(self.PARTS, state)]

    def check(self, state, ref, value):
        return [fail for part, s, r, v in zip(self.PARTS, state, ref, value)
                for fail in part.check(s, r, v)]

    def accuracy(self, state, ref, value):
        return None


WORKLOADS = {w.name: w for w in (ConvergeGbm(), TreeCubic2d(), SignatureMc())}
