"""Iterated weak approximation of E[f(X_T)] driven by a cubature formula.

One step over a gap s replaces Wiener measure by the formula rescaled to
[0, s]; iterating over a partition produces a tree measure whose branches
concatenate rescaled support (paths, or flows of Lie elements), and its
value is the product of level operators Q_{s_1} ... Q_{s_k} f. The
full-tree evaluator sums all n^k branches; the sampled one draws branches
i.i.d. by weight and flows each distinct drawn node once, so level j costs
at most min(N, n^(j+1)) rows for N samples. klv_sweep runs either over
partitions from one prologue: checks, field probe and one level step
(vector_fields._LevelStep) over the gaps of every partition, each on its own
slice of levels; klv_full and klv_sampled are its one-partition cases,
kusuoka_step klv_full's one-level case. Calls on one model share the step,
cached by sys, support tuple (by identity), gaps, cfg.flow and degree. Both
trees reach a level only through the step's along, on (N, ...) columns of
states and support points that broadcast against them: the full tree's
(N, 1, P) nodes against every point, the sampled tree's (N, R) children
against their own. Affine flows are closed-form, generic ones RK4 sized to
the level's gap and the formula's degree. No level's arithmetic depends on
another's, so a sweep gives the values of one solve per partition, bit for
bit. The full tree's value is math.fsum of its leaf terms in branch order,
by error-free extraction (_exact_sum), independent of the batch size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cubature import CubatureFormula
from .operator_calculus import MultiPoly
from .path_signature import (_brownian_mean, _check_positive, _check_times,
                             _check_unit_horizon)
from .tensor_algebra import _check_count
from .vector_fields import (
    DEFAULT_FLOW,
    FlowConfig,
    FlowDivergence,
    GenericField,
    VectorFieldSystem,
    _LevelStep,
    _check_controls,
    _check_finite,
)


@dataclass(frozen=True)
class Partition:
    """0 = t_0 < t_1 < ... < t_k = T: the grid rule of
    path_signature._check_times (at least two finite times, the first within
    1e-12 of 0, strictly increasing), as for path knots."""

    times: tuple[float, ...]

    def __post_init__(self):
        _check_times(self.times, "partition times")

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
    gamma packs the short steps toward T; gamma must be finite and >= 1."""
    _check_positive(horizon)
    _check_count(k, "k")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 1, got {gamma!r}")
    times = [horizon * (1.0 - (1.0 - j / k) ** gamma) for j in range(k + 1)]
    times[0], times[-1] = 0.0, horizon
    return Partition(tuple(times))


@dataclass(frozen=True)
class SolverConfig:
    """flow: RK4 settings for generic fields (affine ones flow exactly), sized
    per level by default; leaf_cap: the largest tree klv_full enumerates;
    batch: the most states klv_full flows as one block (klv_sampled does not
    read it); threads: validated, but solves run on one thread. The three
    are counts of at least 1 (tensor_algebra._check_count)."""

    flow: FlowConfig = DEFAULT_FLOW
    leaf_cap: int = 10_000_000
    threads: int = 1
    batch: int = 1 << 16

    def __post_init__(self):
        for name in ("leaf_cap", "threads", "batch"):
            _check_count(getattr(self, name), name)


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
    per state. A result of any other shape is refused."""
    def payoff(states):
        vals = (f(states) if isinstance(f, MultiPoly) else
                np.array([f(row) for row in states], dtype=float))
        if vals.shape != (states.shape[0],):
            raise ValueError(f"payoff must return one number per state: {len(states)} "
                             f"states gave values of shape {vals.shape}")
        return vals
    return payoff


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms) to the bit, by error-free extraction (Rump, Ogita and
    Oishi, "Accurate floating-point summation part I", SIAM J. Sci. Comput.
    2008): with 2^M >= n + 2 and every |p| <= 2^-M sigma, the parts
    q = (sigma + p) - sigma sum exactly in any order and p - q is exact and
    at most 2^-53 sigma, so sigma drops by 2^(M-53) per pass, in place on a
    private copy p and one buffer q, until p is zero; fsum rounds the pass
    sums. Non-finite or huge terms, and sigma below the normal range, go to
    fsum itself (its inf, nan and OverflowError)."""
    p = np.array(terms, dtype=float)
    q = np.empty_like(p)
    big = float(np.abs(p).max(initial=0.0))
    shift = (p.size + 1).bit_length()
    sigma = math.ldexp(1.0, shift + math.frexp(big)[1]) if big <= 2.0**900 else 0.0
    taus = []
    while sigma >= 2.0**-1022:
        if not p.any():
            return math.fsum(taus)
        np.subtract(np.add(p, sigma, out=q), sigma, out=q)
        taus.append(float(q.sum()))
        p -= q
        sigma = math.ldexp(sigma, shift - 53)
    return math.fsum(np.asarray(terms, dtype=float).tolist())


def _start_state(sys: VectorFieldSystem, x) -> np.ndarray:
    """x as one finite state of sys: a float array of shape (N,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dimension,):
        raise ValueError(f"start state must have shape ({sys.dimension},) for "
                         f"this system, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"start state must be finite, got {x.tolist()}")
    return x


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


def _diverged(exc: FlowDivergence, where: str, row: int) -> FlowDivergence:
    """A divergence of the level step, restated at the tree position `where`;
    row is the position's index in the solver's own numbering."""
    return FlowDivergence(f"flow diverged {where}: {exc}", substep=exc.substep,
                          segment=exc.segment, row=row)


class _TreeWalker:
    """Level-synchronous expansion of the whole tree, leaves in branch order.
    The tree's k levels are the step's levels first, ..., first + k - 1.
    A block's nodes go as (N, P) columns, moved along every support point by
    one along call into (N, n, P), one copy per level; its leaves reach the
    payoff as a view, i-major (row i * P + r), terms go to branch order."""

    def __init__(self, step: _LevelStep, weights, payoff, cfg: SolverConfig,
                 first: int, k: int):
        self.step = step
        self.weights = np.asarray(weights, dtype=float)
        self.payoff = payoff
        self.cfg = cfg
        self.n = len(weights)
        self.first = first
        self.k = k
        self.points = np.arange(self.n)[:, None]

    def run(self, state: np.ndarray) -> dict:
        blocks: list[tuple[np.ndarray, float, float]] = []
        self._expand(state[:, None], np.ones(1), 0, 0, blocks)
        # one exact sum over all leaf terms in branch order: the value cannot
        # depend on how the expansion was chunked
        terms = np.concatenate([block[0] for block in blocks])
        return {"sum": _exact_sum(terms), "naive": float(np.sum(terms)),
                "min": min(block[1] for block in blocks),
                "max": max(block[2] for block in blocks), "count": terms.size}

    def _expand(self, columns, branch_weights, level, rank, blocks):
        # columns holds the nodes of `level` whose branch ranks start at rank;
        # each block of leaves appends (terms, min, max) to blocks
        dim, rows = columns.shape
        if rows > 1 and rows * self.n > self.cfg.batch:
            half = rows // 2
            self._expand(columns[:, :half], branch_weights[:half], level, rank, blocks)
            return self._expand(columns[:, half:], branch_weights[half:], level,
                                rank + half, blocks)
        try:
            y = self.step.along(self.first + level, columns[:, None], self.points)
        except FlowDivergence as exc:
            child = rank * self.n + exc.row
            branch = tuple(map(int, np.unravel_index(child, (self.n,) * (level + 1))))
            raise _diverged(exc, f"on branch {branch} (level {level + 1})",
                            child // self.n) from exc
        if level + 1 < self.k:
            return self._expand(y.transpose(0, 2, 1).reshape(dim, -1),
                                np.outer(branch_weights, self.weights).ravel(),
                                level + 1, rank * self.n, blocks)
        vals = self.payoff(y.reshape(dim, -1).T)
        terms = np.outer(self.weights, branch_weights)
        terms *= vals.reshape(self.n, rows)
        blocks.append((terms.T.reshape(-1), float(np.min(vals)),
                       float(np.max(vals))))


@dataclass(frozen=True, eq=False)
class _Same:
    """A cache key that holds obj and compares it by identity: its id stays taken."""

    obj: object

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return self.obj is other.obj


@lru_cache(maxsize=32)
def _level_step(sys, support: _Same, gaps, flow, degree) -> _LevelStep:
    """One step per model: it calls no field, and affine arrays are read-only."""
    return _LevelStep(sys, support.obj, gaps, flow, degree)


def klv_sweep(
    formula: CubatureFormula,
    sys: VectorFieldSystem,
    f,
    x,
    partitions,
    cfg: SolverConfig = DEFAULT_SOLVER,
    n_samples: int | None = None,
    seed: int = 0,
) -> list[SolverResult]:
    """The tree of every partition in `partitions`, from one prologue.

    The checks (every leaf count against cfg.leaf_cap in full mode, else
    n_samples a count of at least 2 and seed one of at least 0; a
    unit-horizon formula that drives sys.n_controls controls; all before any
    solve), the field probe near x and the level step are shared: one step
    is built over the gaps of all the partitions in turn (on an affine
    system one expm call and one composition), and partition p runs on its
    own slice of levels, from the level offset k_1 + ... + k_{p-1}. Result p
    is, bit for bit, what klv_full (n_samples None) or klv_sampled (n_samples
    draws, seeded with seed afresh for every partition) gives for partition
    p alone; on generic fields it lists each level's RK4 count in
    diagnostics["substeps"]. Calls on one model share the step, keyed by
    sys, the support tuple (by identity), the gaps, cfg.flow and degree.
    """
    partitions = tuple(partitions)
    if not partitions:
        raise ValueError("klv_sweep needs at least one partition")
    if n_samples is None:
        leaves = max(formula.n_points**part.k for part in partitions)
        if leaves > cfg.leaf_cap:
            raise LeafCapExceeded(leaves, cfg.leaf_cap)
    else:
        _check_count(n_samples, "n_samples", 2)
        _check_count(seed, "seed", 0)
    _check_controls(formula.dimension, sys, "formula")
    _check_unit_horizon(formula.horizon, "formula")
    x = _start_state(sys, x)
    _check_block_fields(sys, x)
    gaps = tuple(gap for part in partitions for gap in part.gaps)
    step = _level_step(sys, _Same(formula.paths or formula.lie_polys), gaps,
                       cfg.flow, formula.degree)
    payoff = _block_payoff(f)
    results, first = [], 0
    for part in partitions:
        results.append(
            _full_tree(formula, step, payoff, x, part, first, cfg)
            if n_samples is None else
            _sampled_tree(formula, step, payoff, x, part, first, n_samples, seed))
        if step.composed is None:
            results[-1].diagnostics["substeps"] = step.substeps[first:first + part.k]
        first += part.k
    return results


def _full_tree(formula, step, payoff, x, partition, first, cfg) -> SolverResult:
    tree = _TreeWalker(step, formula.weights, payoff, cfg, first,
                       partition.k).run(x)
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


def _sampled_tree(formula, step, payoff, x, partition, first, n_samples,
                  seed) -> SolverResult:
    lam = np.asarray(formula.weights, dtype=float)
    mass = math.fsum(formula.weights)
    probs = lam / lam.sum()
    rng = np.random.default_rng(seed)
    k = partition.k
    n = formula.n_points
    draws = rng.choice(n, size=(n_samples, k), p=probs)
    # nodes holds one state per distinct drawn node of the current level,
    # as columns in branch order; node_of maps each sample to its node
    nodes = x[:, None]
    node_of = np.zeros(n_samples, dtype=np.intp)
    nodes_per_level = []
    for level in range(k):
        key = node_of * n + draws[:, level]
        drawn = np.zeros(nodes.shape[1] * n, dtype=bool)
        drawn[key] = True
        child = np.flatnonzero(drawn)
        node_of = (np.cumsum(drawn) - 1)[key]
        parent, point = np.divmod(child, n)
        try:
            nodes = step.along(first + level, nodes[:, parent], point)
        except FlowDivergence as exc:
            raise _diverged(
                exc, f"at level {level + 1}, support point {point[exc.row]}",
                int(np.argmax(node_of == exc.row))) from exc
        nodes_per_level.append(int(child.size))
    vals = payoff(nodes.T)[node_of]
    scale = mass**k
    mean = float(np.mean(vals))
    # np.std's mean can miss identical values by an ulp; their stderr is 0
    sd = float(np.std(vals, ddof=1)) if np.any(vals != vals[0]) else 0.0
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


def klv_full(
    formula: CubatureFormula,
    sys: VectorFieldSystem,
    f,
    x,
    partition: Partition,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> SolverResult:
    """Exact expectation under the iterated cubature tree: klv_sweep's
    full-mode body on one partition, at level offset 0.

    Enumerates all n^k branches in lexicographic order (the cap refuses
    runaway trees), level by level in blocks of at most cfg.batch states,
    each level moved along every support point by the level step (see the
    module docstring). Every row is flowed with the same arithmetic and all
    leaf terms are summed exactly in branch order, so the value is
    bit-identical for every batch size. A diverging flow names its branch,
    level and segment.

    f is called on each (P, N) block of leaf states when it is a MultiPoly,
    and once per leaf state otherwise, i-major within a block (by last
    support point, then parent). Every GenericField of sys must map a
    (P, N) block of states row by row; this is checked near x first.
    diagnostics["weight_mass"] is the exact sum of the formula's weights.
    Calls on one model share the level step, keyed as in klv_sweep.
    """
    return klv_sweep(formula, sys, f, x, (partition,), cfg)[0]


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
    """Unbiased branch sampling of the same tree measure: klv_sweep's
    sampled-mode body on one partition, at level offset 0.

    Branch indices are drawn per level with probability proportional to the
    weights; the estimator carries mass^k so it stays unbiased even when the
    weights sum only approximately to one. Drawn branches share prefixes, so
    the solve walks the drawn subtree: each distinct drawn node is flowed
    once, at most min(n_samples, n^(j+1)) rows at level j, by the level step
    of klv_full, and the mean and stderr are taken over the per-sample leaf
    values. The checks and the field contract are those of klv_full; f is
    called on the block of distinct leaves when it is a MultiPoly, and once
    per distinct leaf otherwise. A diverging flow names its level, support
    point and segment, and its row is the first sample through the node.
    diagnostics["nodes_per_level"] lists the nodes flowed at each level,
    diagnostics["distinct_leaves"] the leaves evaluated and
    diagnostics["weight_mass"] the exact sum of the weights.
    """
    return klv_sweep(formula, sys, f, x, (partition,), cfg, n_samples, seed)[0]


def kusuoka_step(
    formula: CubatureFormula,
    sys: VectorFieldSystem,
    f,
    x,
    s: float,
    cfg: FlowConfig = DEFAULT_FLOW,
) -> float:
    """One flow-level approximation step over a gap s: klv_full on
    Partition((0, s)), the one-level tree of Lie support.

    Each certified element is dilated by sqrt(s), mapped to its field
    (gamma_field's rule) and flowed over unit parameter by the level step:
    exactly on affine fields, by RK4 otherwise (sized as klv_full's); f is
    called as klv_full calls it. Path support is converted first by
    cubature.lie_form, whose truncation sets the step's accuracy order.
    """
    if formula.lie_polys is None:
        raise ValueError("kusuoka_step needs Lie support; use cubature.lie_form")
    _check_positive(s, "gap")
    return klv_full(formula, sys, f, x, Partition((0.0, s)), SolverConfig(flow=cfg)).value


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
    """Euler-Heun reference estimate of E[f(X_T)]; returns (mean, stderr).

    Each step of length h takes g = sum_i V_i(y) dW_i and moves y to
    y + V_0(y) h + (g + sum_i V_i(y + g) dW_i) / 2: 1 + 2d block calls of
    the fields, no Jacobian. The scheme reaches the Stratonovich solution
    at weak order one (Kloeden and Platen 1992), so it serves as an
    independent check, not a high-precision oracle; tighten steps and paths
    as needed. On an affine system its mean is the Ito Euler chain's,
    m <- m + h (A m + b) with the Ito drift A x + b = V_0(x) + 1/2 sum_i
    A_i V_i(x). Paths run in batches through
    `path_signature._brownian_mean`, so values depend on seed and batch. A
    MultiPoly f is evaluated on each batch of final states at once, any
    other callable once per path. Generic fields are probed as in
    `klv_full`. A non-finite state raises FlowDivergence with its step as
    `substep`, its batch row as `row`.
    """
    _check_positive(horizon)
    _check_count(steps, "steps")
    _check_count(paths, "paths", 2)
    _check_count(batch, "batch")
    _check_count(seed, "seed", 0)
    x = _start_state(sys, x)
    _check_block_fields(sys, x)
    payoff = _block_payoff(f)
    drift, space = sys.fields[0], sys.fields[1:]
    h = horizon / steps

    def noise(states, dw):
        return sum(v(states) * dw[:, i : i + 1] for i, v in enumerate(space))

    def step(states, dw, k):
        g = noise(states, dw)
        states = states + drift(states) * h + 0.5 * (g + noise(states + g, dw))
        _check_finite(states, f"Euler path left the finite range at step {k}/{steps}", k)
        return states

    mean, stderr = _brownian_mean(
        paths, steps, len(space), h, np.random.default_rng(seed), batch,
        lambda b: np.tile(x, (b, 1)), step, lambda states: payoff(states)[None])
    return float(mean[0]), float(stderr[0])
