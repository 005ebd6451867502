"""Iterated weak approximation of E[f(X_T)] driven by a cubature formula.

One step over a gap s replaces Wiener measure by the formula rescaled to
[0, s]; iterating over a partition produces a tree measure whose branches
are concatenations of rescaled support paths. The full-tree evaluator sums
all n^k branches; the sampled evaluator draws branches i.i.d. by weight.
Both advance blocks of states with vector_fields.flow_along_path, which
flows affine systems in closed form, so on them the only error left is the
tree measure's own. The full tree is reduced by one compensated sum over
its leaves in branch order, so the value does not depend on the batch size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cubature import CubatureFormula, rescale
from .vector_fields import (
    DEFAULT_FLOW,
    AffineField,
    FlowConfig,
    FlowDivergence,
    VectorFieldSystem,
    _flow_segment,
    flow_along_path,
    gamma_field,
)


@dataclass(frozen=True)
class Partition:
    """0 = t_0 < t_1 < ... < t_k = T."""

    times: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) < 2:
            raise ValueError("partition needs at least two times")
        if abs(self.times[0]) > 1e-12:
            raise ValueError(f"partition must start at 0, got {self.times[0]!r}")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError(f"times must increase strictly: {a!r} !< {b!r}")

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def k(self) -> int:
        return len(self.times) - 1

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))


def gamma_partition(horizon: float, k: int, gamma: float) -> Partition:
    """t_j = T (1 - (1 - j/k)^gamma); gamma = 1 is the uniform grid, larger
    gamma packs the short steps toward T."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma!r}")
    times = [horizon * (1.0 - (1.0 - j / k) ** gamma) for j in range(k + 1)]
    times[0], times[-1] = 0.0, horizon
    return Partition(tuple(times))


@dataclass(frozen=True)
class SolverConfig:
    """flow: RK4 settings for generic fields (affine ones flow exactly);
    leaf_cap: the largest tree klv_full enumerates; batch: the most states
    flowed as one block; threads: validated, but solves run on one thread."""

    flow: FlowConfig = DEFAULT_FLOW
    leaf_cap: int = 10_000_000
    threads: int = 1
    batch: int = 1 << 16

    def __post_init__(self):
        if self.leaf_cap < 1 or self.threads < 1 or self.batch < 1:
            raise ValueError("leaf_cap, threads, and batch must all be >= 1")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class SolverResult:
    value: float
    mode: str
    leaves_evaluated: int
    partition: Partition
    stderr: float | None = None
    diagnostics: dict = field(default_factory=dict)


class LeafCapExceeded(ValueError):
    """Full-tree enumeration refused; carries the cap that would be needed."""

    def __init__(self, leaves: int, cap: int):
        super().__init__(
            f"full tree has {leaves} leaves, above the configured cap {cap}; "
            f"raise leaf_cap to {leaves} or use the sampled evaluator"
        )
        self.required_cap = leaves


def _branch_of_rank(rank: int, n: int, length: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        rank, r = divmod(rank, n)
        digits.append(r)
    return tuple(reversed(digits))


class _TreeWalker:
    """Level-synchronous expansion of the whole tree, leaves in branch order."""

    def __init__(self, level_paths, weights, sys, f, cfg: SolverConfig):
        self.level_paths = level_paths
        self.weights = np.asarray(weights, dtype=float)
        self.sys = sys
        self.f = f
        self.cfg = cfg
        self.n = len(weights)
        self.k = len(level_paths)

    def run(self, state: np.ndarray) -> dict:
        blocks: list[np.ndarray] = []
        stats = self._expand(state[None, :], np.ones(1), 0, 0, blocks)
        # one exact sum over all leaf terms in branch order: the value cannot
        # depend on how the expansion was chunked
        terms = np.concatenate(blocks)
        return {
            "sum": math.fsum(terms),
            "naive": float(np.sum(terms)),
            **stats,
        }

    def _expand(self, states, branch_weights, level, rank, blocks) -> dict:
        # states holds the nodes of `level` whose branch ranks start at rank
        if level == self.k:
            vals = np.array([self.f(row) for row in states], dtype=float)
            blocks.append(branch_weights * vals)
            return {
                "min": float(np.min(vals)),
                "max": float(np.max(vals)),
                "count": states.shape[0],
            }
        rows = states.shape[0]
        if rows > 1 and rows * self.n > self.cfg.batch:
            half = rows // 2
            a = self._expand(states[:half], branch_weights[:half], level,
                             rank, blocks)
            b = self._expand(states[half:], branch_weights[half:], level,
                             rank + half, blocks)
            return _merge(a, b)
        flowed = []
        for i, path in enumerate(self.level_paths[level]):
            try:
                flowed.append(
                    flow_along_path(path, self.sys, states, self.cfg.flow)
                )
            except FlowDivergence as exc:
                node = rank + exc.row
                branch = _branch_of_rank(node, self.n, level) + (i,)
                raise FlowDivergence(
                    f"flow diverged on branch {branch} (level {level + 1}): {exc}",
                    substep=exc.substep,
                    segment=exc.segment,
                    row=node,
                ) from exc
        new_states = np.stack(flowed, axis=1).reshape(rows * self.n, -1)
        new_weights = (branch_weights[:, None] * self.weights[None, :]).reshape(-1)
        return self._expand(new_states, new_weights, level + 1,
                            rank * self.n, blocks)


def _merge(a: dict, b: dict) -> dict:
    return {
        "min": min(a["min"], b["min"]),
        "max": max(a["max"], b["max"]),
        "count": a["count"] + b["count"],
    }


def klv_full(
    formula: CubatureFormula,
    sys: VectorFieldSystem,
    f,
    x,
    partition: Partition,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> SolverResult:
    """Exact expectation under the iterated cubature tree.

    Enumerates all n^k branches in lexicographic order (the cap refuses
    runaway trees), level by level in blocks of at most cfg.batch states.
    Every row of a block is flowed with the same arithmetic and all leaf
    terms are summed exactly in branch order, so the value is bit-identical
    for every batch size. A diverging flow names its branch and level.
    """
    if formula.paths is None:
        raise ValueError("klv_full needs path support; see kusuoka_step for Lie support")
    if formula.dimension != sys.n_controls:
        raise ValueError(
            f"formula drives {formula.dimension} controls, system has {sys.n_controls}"
        )
    leaves = formula.n_points**partition.k
    if leaves > cfg.leaf_cap:
        raise LeafCapExceeded(leaves, cfg.leaf_cap)
    level_paths = [rescale(formula, s).paths for s in partition.gaps]
    x = np.asarray(x, dtype=float)
    tree = _TreeWalker(level_paths, formula.weights, sys, f, cfg).run(x)
    return SolverResult(
        value=tree["sum"],
        mode="full",
        leaves_evaluated=tree["count"],
        partition=partition,
        diagnostics={
            "compensation": abs(tree["sum"] - tree["naive"]),
            "min_leaf": tree["min"],
            "max_leaf": tree["max"],
        },
    )


def klv_sampled(
    formula: CubatureFormula,
    sys: VectorFieldSystem,
    f,
    x,
    partition: Partition,
    n_samples: int,
    seed: int,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> SolverResult:
    """Unbiased branch sampling of the same tree measure.

    Branch indices are drawn per level with probability proportional to the
    weights; the estimator carries mass^k so it stays unbiased even when the
    weights sum only approximately to one.
    """
    if formula.paths is None:
        raise ValueError("klv_sampled needs path support")
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    lam = np.asarray(formula.weights, dtype=float)
    mass = math.fsum(formula.weights)
    probs = lam / lam.sum()
    level_paths = [rescale(formula, s).paths for s in partition.gaps]
    rng = np.random.default_rng(seed)
    k = partition.k
    x = np.asarray(x, dtype=float)
    draws = rng.choice(formula.n_points, size=(n_samples, k), p=probs)
    states = np.broadcast_to(x, (n_samples, x.shape[0])).copy()
    for level in range(k):
        idx = draws[:, level]
        for i in range(formula.n_points):
            rows = np.flatnonzero(idx == i)
            if rows.size == 0:
                continue
            try:
                states[rows] = flow_along_path(
                    level_paths[level][i], sys, states[rows], cfg.flow
                )
            except FlowDivergence as exc:
                raise FlowDivergence(
                    f"flow diverged at level {level + 1}, support point {i}: {exc}",
                    substep=exc.substep,
                    segment=exc.segment,
                    row=int(rows[exc.row]),
                ) from exc
    vals = np.array([f(row) for row in states], dtype=float)
    scale = mass**k
    mean = float(np.mean(vals))
    sd = float(np.std(vals, ddof=1))
    return SolverResult(
        value=scale * mean,
        mode="sampled",
        leaves_evaluated=n_samples,
        partition=partition,
        stderr=scale * sd / math.sqrt(n_samples),
        diagnostics={"min_leaf": float(np.min(vals)), "max_leaf": float(np.max(vals))},
    )


def kusuoka_step(
    formula: CubatureFormula,
    sys: VectorFieldSystem,
    f,
    x,
    s: float,
    cfg: FlowConfig = DEFAULT_FLOW,
) -> float:
    """One flow-level approximation step over a gap s.

    Requires Lie support: each certified element is dilated by sqrt(s),
    mapped to a field, and flowed over unit parameter (in closed form when
    the field is affine, by RK4 otherwise). With path support,
    convert first (cubature.lie_form); the truncation of that conversion is
    what the step's accuracy order refers to.
    """
    if formula.lie_polys is None:
        raise ValueError("kusuoka_step needs Lie support; use cubature.lie_form")
    if s <= 0:
        raise ValueError(f"gap must be positive, got {s!r}")
    root = math.sqrt(s)
    x = np.asarray(x, dtype=float)
    total = []
    for lam, poly in zip(formula.weights, formula.lie_polys):
        fld = gamma_field(poly.dilate(root), sys)
        total.append(lam * float(f(_flow_segment(fld, x, cfg))))
    return math.fsum(total)


def _ito_drift(sys: VectorFieldSystem):
    """Drift of the equivalent martingale-form equation.

    The path-flow semantics pair V_0 with dt in the Fisk-Stratonovich sense,
    so simulation by Euler steps needs the corrected drift
    a(x) = V_0(x) + 1/2 sum_i J V_i(x) . V_i(x); exact for affine fields.
    """
    space = sys.fields[1:]
    if sys.is_affine:
        n = sys.dimension
        a = sys.fields[0].matrix.copy()
        b = sys.fields[0].offset.copy()
        for v in space:
            a += 0.5 * (v.matrix @ v.matrix)
            b += 0.5 * (v.matrix @ v.offset)
        corrected = AffineField(a, b)
        return lambda x: x @ corrected.matrix.T + corrected.offset

    def drift(x):
        out = np.array([sys.fields[0](row) for row in x], dtype=float)
        for v in space:
            out += 0.5 * np.array(
                [v.jacobian(row) @ v(row) for row in x], dtype=float
            )
        return out

    return drift


def euler_mc(
    sys: VectorFieldSystem,
    f,
    x,
    horizon: float,
    steps: int,
    paths: int,
    seed: int,
    batch: int = 65_536,
) -> tuple[float, float]:
    """Euler reference estimate of E[f(X_T)]; returns (mean, stderr).

    The scheme is weak order one, so it serves as an independent check, not
    a high-precision oracle; tighten steps and paths as needed.
    """
    if steps < 1 or paths < 2:
        raise ValueError("need steps >= 1 and paths >= 2")
    x = np.asarray(x, dtype=float)
    drift = _ito_drift(sys)
    space = sys.fields[1:]
    h = horizon / steps
    rt = math.sqrt(h)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < paths:
        b = min(batch, paths - done)
        states = np.broadcast_to(x, (b, x.shape[0])).copy()
        for step in range(steps):
            z = rng.standard_normal((b, len(space)))
            if sys.is_affine:
                move = drift(states) * h
                for i, v in enumerate(space):
                    move += (states @ v.matrix.T + v.offset) * (rt * z[:, i : i + 1])
            else:
                move = drift(states) * h
                for i, v in enumerate(space):
                    vx = np.array([v(row) for row in states], dtype=float)
                    move += vx * (rt * z[:, i : i + 1])
            states = states + move
            if not np.all(np.isfinite(states)):
                bad = int(np.sum(~np.isfinite(states).all(axis=1)))
                raise FlowDivergence(
                    f"{bad} path(s) left the finite range at step {step + 1}/{steps}",
                    substep=step + 1,
                )
        vals = np.array([f(row) for row in states], dtype=float)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals**2))
        done += b
    mean = total / paths
    var = max(total_sq / paths - mean**2, 0.0) * (paths / (paths - 1))
    return mean, math.sqrt(var / paths)
