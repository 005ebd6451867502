"""Iterated weak approximation of E[f(X_T)] driven by a cubature formula.

One step over a gap s replaces Wiener measure by the formula rescaled to
[0, s]; iterating over a partition produces a tree measure whose branches
are concatenations of rescaled support paths, and its value is the product
of level operators Q_{s_1} ... Q_{s_k} f. The full-tree evaluator sums all
n^k branches; the sampled evaluator draws branches i.i.d. by weight and
flows each distinct drawn node once, so level j costs at most
min(N, n^(j+1)) rows for N samples, and a non-MultiPoly payoff is called
once per distinct leaf. Both share one prologue and one level step
(vector_fields._LevelStep), built once per solve from the unit-horizon
support paths and the partition's gaps, as arrays: one table of segment
increments for every level, padded with zero segments to the longest path,
and on affine systems the segment maps from one batched vector_fields.expm
call, composed once into one map per (level, support point), so on them the
flows are closed-form and the only error left is the tree measure's own. On
an affine system a level is one composed map per row, broadcast over the
block in klv_full and gathered per node in klv_sampled; a row that leaves
the finite range is replayed segment by segment, only then, to name its
segment. On a generic system a level is one RK4 pass per segment over all
its rows. The full tree is reduced by one compensated sum over its
leaves in branch order, so the value does not depend on the batch size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cubature import CubatureFormula, _check_unit_horizon
from .operator_calculus import MultiPoly
from .path_signature import _check_horizon
from .vector_fields import (
    DEFAULT_FLOW,
    AffineField,
    FlowConfig,
    FlowDivergence,
    GenericField,
    VectorFieldSystem,
    _LevelStep,
    _matvec,
    flow_exp,
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
        for t in self.times:
            if not math.isfinite(t):
                raise ValueError(f"partition times must be finite, got {t!r}")
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
    _check_horizon(horizon)
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
    klv_full flows as one block (klv_sampled does not read it); threads:
    validated, but solves run on one thread."""

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


def _block_payoff(f):
    """The payoff as a map from a (P, N) block of states to (P,) values: a
    MultiPoly evaluates the whole block, any other callable is called once
    per state."""
    if isinstance(f, MultiPoly):
        return f
    return lambda states: np.array([f(row) for row in states], dtype=float)


def _check_block_fields(sys: VectorFieldSystem, x: np.ndarray):
    """The solvers call each field on whole (P, N) blocks of states. Probe
    every GenericField on two distinct states near x and require the block
    call to agree with one call per state."""
    probe = np.stack([x, x + 0.01 * (1.0 + np.abs(x))])
    for i, v in enumerate(sys.fields):
        if not isinstance(v, GenericField):
            continue
        rows = np.stack([v(p) for p in probe])
        try:
            block = v(probe)
        except Exception as exc:
            raise ValueError(
                f"field V_{i} must map a (P, N) block of states row by row: "
                f"its call on a block of two states raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        scale = np.max(np.abs(rows), initial=0.0, where=np.isfinite(rows))
        if block.shape != rows.shape or not np.allclose(
                block, rows, rtol=1e-12, atol=1e-12 * scale, equal_nan=True):
            raise ValueError(
                f"field V_{i} must map a (P, N) block of states row by row: "
                f"on two states near x it gave {block.tolist()} for the block "
                f"and {rows.tolist()} state by state"
            )


def _branch_of_rank(rank: int, n: int, length: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        rank, r = divmod(rank, n)
        digits.append(r)
    return tuple(reversed(digits))


def _prepare_tree(name: str, formula: CubatureFormula, sys: VectorFieldSystem,
                  x, partition: Partition, cfg: SolverConfig):
    """The prologue both tree solvers share: check the formula against the
    system, probe the fields near x, and build the level step from the
    unit-horizon support paths and the gaps of the partition."""
    if formula.paths is None:
        raise ValueError(
            f"{name} needs path support; see kusuoka_step for Lie support")
    if formula.dimension != sys.n_controls:
        raise ValueError(
            f"formula drives {formula.dimension} controls, system has {sys.n_controls}"
        )
    _check_unit_horizon(formula)
    x = np.asarray(x, dtype=float)
    _check_block_fields(sys, x)
    return x, _LevelStep(sys, formula.paths, partition.gaps, cfg.flow)


def _diverged(exc: FlowDivergence, where: str, row: int) -> FlowDivergence:
    """A divergence of the level step, restated at the tree position `where`;
    row is the position's index in the solver's own numbering."""
    return FlowDivergence(f"flow diverged {where}: {exc}", substep=exc.substep,
                          segment=exc.segment, row=row)


class _TreeWalker:
    """Level-synchronous expansion of the whole tree, leaves in branch order."""

    def __init__(self, step: _LevelStep, weights, payoff, cfg: SolverConfig):
        self.step = step
        self.weights = np.asarray(weights, dtype=float)
        self.payoff = payoff
        self.cfg = cfg
        self.n = len(weights)
        self.k = step.coefficients.shape[0]

    def run(self, state: np.ndarray) -> dict:
        blocks: list[np.ndarray] = []
        stats = self._expand(state[None, :], np.ones(1), 0, 0, blocks)
        # one exact sum over all leaf terms in branch order: the value cannot
        # depend on how the expansion was chunked
        terms = np.concatenate(blocks)
        return {
            "sum": math.fsum(terms.tolist()),
            "naive": float(np.sum(terms)),
            **stats,
        }

    def _expand(self, states, branch_weights, level, rank, blocks) -> dict:
        # states holds the nodes of `level` whose branch ranks start at rank
        if level == self.k:
            vals = self.payoff(states)
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
        try:
            new_states = self.step.every_point(level, states)
        except FlowDivergence as exc:
            child = rank * self.n + exc.row
            branch = _branch_of_rank(child, self.n, level + 1)
            raise _diverged(exc, f"on branch {branch} (level {level + 1})",
                            child // self.n) from exc
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
    Each level moves its block along every support path with the level step
    built once per solve: on an affine system the level's n composed path
    maps (from one expm call and one composition per solve) are broadcast
    over the block, and only a row that leaves the finite range is replayed
    segment by segment; on a generic one the rows flow in one RK4 pass per
    segment. Every row is flowed with the same arithmetic and all leaf terms
    are summed exactly in branch order, so the value is bit-identical for
    every batch size. A diverging flow names its branch, level and segment.

    f is called on each (P, N) block of leaf states when it is a MultiPoly,
    and once per leaf state otherwise. Every GenericField of sys must map a
    (P, N) block of states row by row; this is checked near x first.
    diagnostics["weight_mass"] is the exact sum of the formula's weights.
    """
    leaves = formula.n_points**partition.k
    if leaves > cfg.leaf_cap:
        raise LeafCapExceeded(leaves, cfg.leaf_cap)
    x, step = _prepare_tree("klv_full", formula, sys, x, partition, cfg)
    tree = _TreeWalker(step, formula.weights, _block_payoff(f), cfg).run(x)
    return SolverResult(
        value=tree["sum"],
        mode="full",
        leaves_evaluated=tree["count"],
        partition=partition,
        diagnostics={
            "compensation": abs(tree["sum"] - tree["naive"]),
            "min_leaf": tree["min"],
            "max_leaf": tree["max"],
            "weight_mass": math.fsum(formula.weights),
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
    weights sum only approximately to one. Drawn branches share prefixes, so
    the solve walks the drawn subtree: each distinct drawn node is flowed
    once, at most min(n_samples, n^(j+1)) rows at level j, by the level step
    of klv_full (on an affine system each node's composed path map is
    gathered and applied, replayed segment by segment only on divergence; on
    a generic one each segment is one RK4 pass), and the mean and
    stderr are taken over the per-sample leaf values. The checks and the
    field contract are those of klv_full; f is called on the block of
    distinct leaves when it is a MultiPoly, and once per distinct leaf
    otherwise. A diverging flow names its level, support
    point and segment, and its row is the first sample through the node.
    diagnostics["nodes_per_level"] lists the nodes flowed at each level,
    diagnostics["distinct_leaves"] the leaves evaluated and
    diagnostics["weight_mass"] the exact sum of the weights.
    """
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    x, step = _prepare_tree("klv_sampled", formula, sys, x, partition, cfg)
    lam = np.asarray(formula.weights, dtype=float)
    mass = math.fsum(formula.weights)
    probs = lam / lam.sum()
    rng = np.random.default_rng(seed)
    k = partition.k
    n = formula.n_points
    draws = rng.choice(n, size=(n_samples, k), p=probs)
    # nodes holds one state per distinct drawn node of the current level,
    # in branch order; node_of maps each sample to its node
    nodes = x[None, :]
    node_of = np.zeros(n_samples, dtype=np.intp)
    nodes_per_level = []
    for level in range(k):
        key = node_of * n + draws[:, level]
        drawn = np.zeros(nodes.shape[0] * n, dtype=bool)
        drawn[key] = True
        child = np.flatnonzero(drawn)
        node_of = (np.cumsum(drawn) - 1)[key]
        parent, point = np.divmod(child, n)
        try:
            nodes = step.along(level, nodes[parent], point)
        except FlowDivergence as exc:
            raise _diverged(
                exc, f"at level {level + 1}, support point {point[exc.row]}",
                int(np.argmax(node_of == exc.row))) from exc
        nodes_per_level.append(int(child.size))
    vals = _block_payoff(f)(nodes)[node_of]
    scale = mass**k
    mean = float(np.mean(vals))
    sd = float(np.std(vals, ddof=1))
    return SolverResult(
        value=scale * mean,
        mode="sampled",
        leaves_evaluated=n_samples,
        partition=partition,
        stderr=scale * sd / math.sqrt(n_samples),
        diagnostics={
            "min_leaf": float(np.min(vals)),
            "max_leaf": float(np.max(vals)),
            "nodes_per_level": nodes_per_level,
            "distinct_leaves": nodes_per_level[-1],
            "weight_mass": mass,
        },
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
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"gap must be positive and finite, got {s!r}")
    root = math.sqrt(s)
    x = np.asarray(x, dtype=float)
    exact = replace(cfg, exact_affine=True)
    total = []
    for lam, poly in zip(formula.weights, formula.lie_polys):
        fld = gamma_field(poly.dilate(root), sys)
        total.append(lam * float(f(flow_exp(fld, 1.0, x, exact))))
    return math.fsum(total)


def _ito_drift(sys: VectorFieldSystem):
    """Drift of the equivalent martingale-form equation.

    The path-flow semantics pair V_0 with dt in the Fisk-Stratonovich sense,
    so simulation by Euler steps needs the corrected drift
    a(x) = V_0(x) + 1/2 sum_i J V_i(x) . V_i(x); exact for affine fields.
    """
    space = sys.fields[1:]
    if sys.is_affine:
        a = sys.fields[0].matrix.copy()
        b = sys.fields[0].offset.copy()
        for v in space:
            a += 0.5 * (v.matrix @ v.matrix)
            b += 0.5 * (v.matrix @ v.offset)
        return AffineField(a, b)

    def drift(x):
        out = np.array(sys.fields[0](x), dtype=float)
        for v in space:
            out += 0.5 * _matvec(v.jacobian(x), v(x))
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
    a high-precision oracle; tighten steps and paths as needed. A MultiPoly
    f is evaluated on each batch of final states at once, any other
    callable once per path. Generic fields are probed as in `klv_full` and
    then called, with their Jacobians, once per batch and step; a field's
    jacobian_func takes one state, so it is called once per path and step.
    """
    _check_horizon(horizon)
    if steps < 1 or paths < 2:
        raise ValueError("need steps >= 1 and paths >= 2")
    x = np.asarray(x, dtype=float)
    _check_block_fields(sys, x)
    payoff = _block_payoff(f)
    drift = _ito_drift(sys)
    space = sys.fields[1:]
    h = horizon / steps
    rt = math.sqrt(h)
    rng = np.random.default_rng(seed)
    total = 0.0
    # the variance is taken about the first path's value, so it does not
    # cancel against the mean: identical paths get a stderr of exactly 0
    shift = None
    shifted = 0.0
    shifted_sq = 0.0
    done = 0
    while done < paths:
        b = min(batch, paths - done)
        states = np.broadcast_to(x, (b, x.shape[0])).copy()
        for step in range(steps):
            z = rng.standard_normal((b, len(space)))
            move = drift(states) * h
            for i, v in enumerate(space):
                move += v(states) * (rt * z[:, i : i + 1])
            states = states + move
            if not np.all(np.isfinite(states)):
                bad = int(np.sum(~np.isfinite(states).all(axis=1)))
                raise FlowDivergence(
                    f"{bad} path(s) left the finite range at step {step + 1}/{steps}",
                    substep=step + 1,
                )
        vals = payoff(states)
        if shift is None:
            shift = float(vals[0])
        dev = vals - shift
        total += float(np.sum(vals))
        shifted += float(np.sum(dev))
        shifted_sq += float(np.sum(dev**2))
        done += b
    var = max(shifted_sq - shifted**2 / paths, 0.0) / (paths - 1)
    return total / paths, math.sqrt(var / paths)
