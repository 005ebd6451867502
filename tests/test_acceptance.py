"""End-to-end acceptance gate.

One test per shipping criterion; `pytest -v` therefore prints one pass/fail
line per criterion. Each body also prints a `criterion N: PASS` line with its
runtime (visible with -s or on failure) and asserts its own time budget.

Tolerances and thresholds are pinned here on purpose: loosening them is a
behavior change, not a test fix.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from wienercub import cli
from wienercub.tensor_algebra import (
    GradedTensor,
    all_words,
    graded_degree,
    mul,
    exp,
    log,
    shuffle,
)
from wienercub.lie_structures import bracket, dynkin_defect, certify
from wienercub.path_signature import (
    PiecewiseLinearPath,
    signature,
    brownian_expected_signature,
    monte_carlo_expected_signature,
)
from wienercub.cubature import degree3, degree5_d1, lie_form, validate
from wienercub.vector_fields import (
    AffineField,
    VectorFieldSystem,
    FlowConfig,
    affine_flow_exact,
    flow_exp,
)
from wienercub.operator_calculus import MultiPoly, flow_tensor_gap
from wienercub.klv_solver import (
    Partition,
    gamma_partition,
    SolverConfig,
    klv_full,
    kusuoka_step,
)

S_GRID = (0.4, 0.2, 0.1, 0.05)

# shared noncommuting affine pair (nonzero [V0, V1]) and cubic payoff
NC_SYSTEM = VectorFieldSystem(
    (
        AffineField([[0.2, -0.4], [0.3, 0.1]], [0.1, -0.2]),
        AffineField([[0.0, 0.5], [-0.3, 0.2]], [0.4, 0.3]),
    )
)
CUBIC = MultiPoly(2, {(3, 0): 1.0, (0, 2): 0.5, (1, 1): -1.0})
X_NC = np.array([0.7, -0.3])


@contextmanager
def criterion(n: int, label: str, budget: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget, (
            f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
        )
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_1_cubature_validity():
    with criterion(1, "cubature validity", 1.0):
        for d in range(1, 6):
            report = validate(degree3(d), tol=1e-10)
            assert report.ok and report.max_defect < 1e-10, (d, report.max_defect)
        five = validate(degree5_d1(), tol=1e-10)
        assert five.ok and five.max_defect < 1e-10
        seven = validate(degree5_d1(), tol=1e-10, degree=7)
        assert not seven.ok
        assert seven.worst_word is not None and len(seven.worst_word) > 0
        assert seven.failures and seven.failures[0][0] == seven.worst_word


def test_criterion_2_expected_signature_monte_carlo():
    with criterion(2, "expected-signature oracle", 120.0):
        rng = np.random.default_rng(2026)
        est, stderr = monte_carlo_expected_signature(1, 4, 1.0, 100_000, 1024, rng)
        truth = brownian_expected_signature(1, 4)
        words = {w for w, _ in truth.items()} | {w for w, _ in est.items()}
        for w in sorted(words):
            gap = abs(est.coeff(w) - truth.coeff(w))
            # deterministic words (pure time) carry zero standard error;
            # the cushion covers their float accumulation only
            assert gap <= 4.0 * stderr.get(w, 0.0) + 1e-12, (w, gap, stderr.get(w))


def test_criterion_3_algebraic_identity_suite():
    with criterion(3, "identity suite, 10^4 checks", 60.0):
        tol = 1e-10
        rng = np.random.default_rng(20260819)
        counts = {"run": 0, "failed": 0}

        def tally(ok: bool):
            counts["run"] += 1
            if not ok:
                counts["failed"] += 1

        def rand_tensor(d, m, nonzero=6, unit=False):
            words = all_words(d, m)
            picks = rng.choice(len(words), size=min(nonzero, len(words)),
                               replace=False)
            coeffs = {words[i]: float(rng.uniform(-1, 1)) for i in picks}
            if unit:
                coeffs[()] = 1.0
            elif () in coeffs:
                del coeffs[()]
            return GradedTensor(d, m, coeffs)

        def rand_path(d, n_seg):
            gaps = rng.uniform(0.2, 1.0, n_seg)
            gaps /= gaps.sum()
            return PiecewiseLinearPath.from_increments(
                [(float(g), rng.uniform(-0.8, 0.8, d)) for g in gaps]
            )

        big, small = 1429, 1428  # 4*1429 + 3*1428 = 10_000
        for _ in range(big):  # associativity
            a, b, c = (rand_tensor(2, 3, unit=(i != 1)) for i in range(3))
            tally(mul(mul(a, b), c).max_coeff_difference(mul(a, mul(b, c))) <= tol)
        for _ in range(big):  # dilation is multiplicative
            a, b = rand_tensor(2, 3, unit=True), rand_tensor(2, 3)
            lam = float(rng.uniform(0.2, 1.8))
            tally(
                mul(a, b).dilate(lam).max_coeff_difference(
                    mul(a.dilate(lam), b.dilate(lam))
                )
                <= tol
            )
        for i in range(big):  # exp/log invert each other
            if i % 2 == 0:
                a = rand_tensor(2, 3)
                tally(log(exp(a)).max_coeff_difference(a) <= tol)
            else:
                g = rand_tensor(2, 3, unit=True)
                tally(exp(log(g)).max_coeff_difference(g) <= tol)
        for _ in range(big):  # dilation commutes with exp
            a = rand_tensor(2, 3)
            lam = float(rng.uniform(0.2, 1.8))
            tally(exp(a.dilate(lam)).max_coeff_difference(exp(a).dilate(lam)) <= tol)
        words4 = [w for w in all_words(2, 4) if w]
        sig_pool = [signature(rand_path(2, int(rng.integers(1, 4))), 4)
                    for _ in range(40)]
        done = 0
        while done < small:  # signatures are shuffle characters
            s = sig_pool[rng.integers(len(sig_pool))]
            u = words4[rng.integers(len(words4))]
            v = words4[rng.integers(len(words4))]
            if graded_degree(u) + graded_degree(v) > 4:
                continue
            mixed = math.fsum(c * s.coeff(w) for w, c in shuffle(u, v).items())
            tally(abs(s.coeff(u) * s.coeff(v) - mixed) <= tol)
            done += 1
        for _ in range(small):  # log-signatures pass the bracketing check
            d = int(rng.integers(1, 3))
            p = rand_path(d, int(rng.integers(1, 4)))
            tally(dynkin_defect(log(signature(p, 4))) <= tol)
        for _ in range(small):  # Jacobi identity
            a, b, c = (rand_tensor(2, 3, nonzero=3) for _ in range(3))
            total = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            tally(max((abs(v) for _, v in total.items()), default=0.0) <= tol)

        assert counts["run"] == 10_000, counts
        assert counts["failed"] == 0, counts


def test_criterion_4_time_component_removal():
    with criterion(4, "time-word removal from adjusted log-signature", 30.0):
        rng = np.random.default_rng(44)
        for _ in range(100):
            s = float(rng.uniform(0.1, 1.5))
            d = int(rng.integers(1, 3))
            n_seg = int(rng.integers(1, 4))
            gaps = rng.uniform(0.2, 1.0, n_seg)
            gaps *= s / gaps.sum()
            path = PiecewiseLinearPath.from_increments(
                [(float(g), rng.uniform(-0.9, 0.9, d) * math.sqrt(s))
                 for g in gaps]
            )
            sig = signature(path, 4)
            # multiplying by exp of the dilated negative time letter must
            # cancel the bare time word of the log-signature
            adjust = GradedTensor.basis(d, 4, (0,), -1.0).dilate(math.sqrt(s))
            shifted = log(mul(exp(adjust), sig))
            assert abs(shifted.coeff((0,))) <= 1e-12


def test_criterion_5_convergence_rates():
    with criterion(5, "partition convergence rates", 300.0):
        mu, sigma = 0.05, 0.3
        from wienercub.vector_fields import gbm

        system = gbm(mu, sigma)
        f = lambda y: float(y[0])
        reference = math.exp(mu + 0.5 * sigma**2)
        cfg = SolverConfig(flow=FlowConfig(substeps=64))

        def sweep(formula, ks):
            errors = []
            for k in ks:
                part = gamma_partition(1.0, k, 2.0)
                value = klv_full(formula, system, f, np.array([1.0]), part, cfg).value
                errors.append((float(k), abs(value - reference)))
            slope, _ = cli.fit_slope(errors)
            return slope

        slope3 = sweep(degree3(1), range(2, 13))
        assert -1.25 <= slope3 <= -0.75, slope3
        slope5 = sweep(degree5_d1(), range(2, 10))
        assert -2.35 <= slope5 <= -1.65, slope5


def test_criterion_6_flow_vs_truncated_operator_gap():
    with criterion(6, "flow vs truncated-operator gap", 30.0):
        lie = certify(
            GradedTensor.basis(1, 3, (1,))
            + bracket(
                GradedTensor.basis(1, 3, (0,)), GradedTensor.basis(1, 3, (1,))
            ).scale(0.6)
        )
        gaps = [flow_tensor_gap(lie, NC_SYSTEM, CUBIC, X_NC, s) for s in S_GRID]
        slope, _ = cli.fit_slope(list(zip(S_GRID, gaps)))
        # truncation m = 3: required order (m+1)/2 - 0.3
        assert slope >= 1.7, (slope, gaps)


def test_criterion_7_flow_level_step_vs_tree_step():
    with criterion(7, "flow-level operator vs one-step tree", 30.0):
        exact = FlowConfig(substeps=1, exact_affine=True)
        solver = SolverConfig(flow=exact)
        d5_paths = degree5_d1()
        d5_lie = lie_form(d5_paths)

        # the gap needs noncommuting fields to be visible at all (see below),
        # so the rate statement is checked on the affine pair with nonzero
        # commutator; the formula's log-signatures are its degree-5 carriers
        f = lambda y: float(CUBIC(y))
        gaps = []
        for s in S_GRID:
            a = kusuoka_step(d5_lie, NC_SYSTEM, f, X_NC, s, exact)
            b = klv_full(
                d5_paths, NC_SYSTEM, f, X_NC, Partition((0.0, s)), solver
            ).value
            gaps.append(abs(a - b))
        slope, _ = cli.fit_slope(list(zip(S_GRID, gaps)))
        assert slope >= 2.7, (slope, gaps)

        # on scalar geometric Brownian motion the fields commute, every
        # bracket vanishes, and the two one-step operators coincide to
        # rounding: the honest reading of the same comparison there is an
        # identity, not a rate
        from wienercub.vector_fields import gbm

        commuting = gbm(0.05, 0.3)
        ident = lambda y: float(y[0])
        x1 = np.array([1.0])
        for s in S_GRID:
            a = kusuoka_step(d5_lie, commuting, ident, x1, s, exact)
            b = klv_full(
                d5_paths, commuting, ident, x1, Partition((0.0, s)), solver
            ).value
            assert abs(a - b) < 1e-12, (s, a - b)


def test_criterion_8_converge_byte_determinism(tmp_path):
    with criterion(8, "byte-identical convergence runs", 120.0):
        config = {
            "system": {"name": "gbm", "mu": 0.05, "sigma": 0.3},
            "payoff": {"name": "identity"},
            "x0": [1.0],
            "T": 1.0,
            "cubature": {"builtin": "degree5_d1"},
            "partition": {"gamma": 2.0, "k_list": [2, 3, 4, 5]},
            "mode": "full",
            "seed": 7,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        outputs = {}
        for threads in (1, 4, 8, 1):
            out_dir = tmp_path / f"run-{threads}-{len(outputs)}"
            code = cli.main(
                [
                    "converge",
                    "--config", str(cfg_path),
                    "--out", str(out_dir),
                    "--threads", str(threads),
                ]
            )
            assert code == 0
            outputs[out_dir] = (out_dir / "converge.csv").read_bytes()
        blobs = list(outputs.values())
        assert all(b == blobs[0] for b in blobs[1:])
        assert blobs[0].startswith(b"k,value,reference,abs_error\n")


def test_criterion_9_affine_flow_oracle():
    with criterion(9, "fourth-order flow integrator", 60.0):
        rng = np.random.default_rng(99)
        worst_256 = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-1.0, 1.0, (n, n))
            # keep every draw in the clean fourth-order regime: spectral
            # norm in [0.8, 1.5] so errors sit well above rounding at 128
            a *= rng.uniform(0.8, 1.5) / max(np.linalg.norm(a, 2), 1e-12)
            v = AffineField(a, rng.uniform(-1.0, 1.0, n))
            x = rng.uniform(-1.0, 1.0, n)
            target = affine_flow_exact(v, 1.0, x)
            errors = []
            for substeps in (8, 16, 32, 64, 128):
                got = flow_exp(v, 1.0, x, FlowConfig(substeps=substeps))
                errors.append((float(substeps), float(np.max(np.abs(got - target)))))
            slope, _ = cli.fit_slope(errors)
            assert -4.4 <= slope <= -3.6, (slope, errors)
            e256 = float(
                np.max(
                    np.abs(flow_exp(v, 1.0, x, FlowConfig(substeps=256)) - target)
                )
            )
            worst_256 = max(worst_256, e256)
        assert worst_256 < 1e-10, worst_256
