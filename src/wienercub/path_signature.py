"""Signatures of piecewise-linear paths carrying an implicit time coordinate.

A path is a continuous piecewise-linear map from [0, T] into R^d starting at
the origin. Coordinate 0 of every signature integral is time itself, so the
signature lives over the extended alphabet {0, 1, ..., d}. On one linear
segment the signature is the exponential of the level-one element
x = dt * e_0 + sum_i dx_i * e_i, and the signature of a concatenation is the
product of the factors (Chen's relation); both identities are exact at any
truncation, so signatures here carry no discretization error.

`signature` and `monte_carlo_expected_signature` share one Chen step,
S -> S (x) exp(x), in Horner form. For a word w = w_1 ... w_k,

    (S (x) exp x)[w] = R(w, 1),
    R(u, j) = S[u] + (x_{u_last} / j) * R(u without its last letter, j + 1),
    R((), j) = S[()],

which expands to sum_i S[w_1 ... w_i] x_{w_i+1} ... x_{w_k} / (k - i)!.
`_chen_plan` lists the T temps R(u, j), j >= 2, that the K words of the
truncation need, and `_chen_step` forms them from S before it adds each
R(w, 1) - S[w] into S[w]: it writes over S, costs one multiply-add per
program entry, and a batch of b paths holds K + T rows of b floats.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .tensor_algebra import (GradedTensor, Word, _check_count, _is_real, graded_degree,
                             log, word_program)
from .lie_structures import LiePolynomial, certify

_KNOT_TOL = 1e-12
_HORIZON_TOL = 1e-9


def _check_times(times: Sequence[float], name: str) -> None:
    """The grid rule 0 = t_0 < t_1 < ... < t_k of partitions and path knots:
    at least two entries, all finite numbers, the first within 1e-12 of 0,
    strictly increasing. `name` leads each message ("partition times", "knots")."""
    if len(times) < 2:
        raise ValueError(f"{name} need at least two entries, got {times!r}")
    for t in times:
        if not _is_real(t):
            raise ValueError(f"{name} must be numbers, got {t!r}")
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t!r}")
    if abs(times[0]) > _KNOT_TOL:
        raise ValueError(f"{name} must start at 0, got {times[0]!r}")
    for a, b in zip(times, times[1:]):
        if not b > a:
            raise ValueError(f"{name} must increase strictly: {a!r} !< {b!r}")


def _check_positive(value: float, name: str = "horizon") -> None:
    """Refuse a horizon or gap (`name`) that is not a positive finite real
    number (_is_real); NaN fails too."""
    if not (_is_real(value) and value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _horizons_match(stated: float, actual: float) -> bool:
    """Whether a horizon `actual` is the `stated` one, within 1e-9 relative
    to max(1, stated): rescaling a path multiplies its deviation by the new
    horizon, so an absolute tolerance would refuse what it produced."""
    return abs(actual - stated) <= _HORIZON_TOL * max(1.0, stated)


def _check_unit_horizon(horizon: float, what: str) -> None:
    """Refuse a `what` ("path", "formula") whose horizon is not within 1e-9
    of 1: rescaling, and the tree solvers, start from unit-horizon support."""
    if not _horizons_match(1.0, horizon):
        raise ValueError(f"rescale expects a unit-horizon {what}, got horizon {horizon!r}")


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Knot representation: values points[j] at times knots[j], joined linearly.

    The knots obey the grid rule of `_check_times` (at least two, finite,
    the first within 1e-12 of 0, strictly increasing); points[0] is the
    origin and the points are finite numbers (_is_real). After the checks
    both hold Python floats, so a numpy float32 entry is read at its value.
    """

    knots: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        _check_times(self.knots, "knots")
        if len(self.knots) != len(self.points):
            raise ValueError(
                f"knot/point count mismatch: {len(self.knots)} vs {len(self.points)}"
            )
        d = len(self.points[0])
        _check_count(d, "path dimension")
        if any(len(p) != d for p in self.points):
            raise ValueError("inconsistent point dimensions")
        for c in itertools.chain(*self.points):
            if not (_is_real(c) and math.isfinite(c)):
                raise ValueError(f"points must be finite numbers, got {c!r}")
        if any(abs(c) > _KNOT_TOL for c in self.points[0]):
            raise ValueError(f"path must start at the origin, got {self.points[0]!r}")
        object.__setattr__(self, "knots", tuple(map(float, self.knots)))
        object.__setattr__(self, "points", tuple(tuple(map(float, p)) for p in self.points))

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    @property
    def horizon(self) -> float:
        return self.knots[-1]

    @property
    def n_segments(self) -> int:
        return len(self.knots) - 1

    def increments(self) -> list[tuple[float, np.ndarray]]:
        """Per-segment (dt, dx) pairs: consecutive differences of the knots
        and of the points, each dx a float array."""
        return list(zip(np.diff(self.knots), np.diff(self.points, axis=0)))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_increments(
        cls, steps: Iterable[tuple[float, Iterable[float]]]
    ) -> "PiecewiseLinearPath":
        """The path from the origin that moves by dx over each time dt: every dt
        and dx entry a number (_is_real), every dx of the first one's length.
        Knots and points are running sums, added in step order."""
        steps = [(dt, tuple(dx)) for dt, dx in steps]
        if not steps:
            raise ValueError("at least one increment required")
        dts, dxs = zip(*steps)
        if any(len(dx) != len(dxs[0]) for dx in dxs):
            raise ValueError("inconsistent point dimensions")
        for v in itertools.chain(dts, *dxs):
            if not _is_real(v):
                raise ValueError(f"increments must be numbers, got {v!r}")
        knots = np.cumsum((0.0,) + dts)
        points = np.cumsum(((0.0,) * len(dxs[0]),) + dxs, axis=0)
        return cls(tuple(knots.tolist()), tuple(map(tuple, points.tolist())))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "knots": list(self.knots),
            "points": [list(p) for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseLinearPath":
        """Unpack a to_dict record, whose values the constructor's rules refuse
        unconverted (knot "1", point true); a stated horizon is the last knot's."""
        try:
            knots, points = tuple(data["knots"]), tuple(tuple(p) for p in data["points"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed path record: {exc}") from exc
        path = cls(knots, points)
        horizon = data.get("horizon", path.horizon)
        if not (_is_real(horizon) and _horizons_match(horizon, path.horizon)):
            raise ValueError(
                f"declared horizon {horizon!r} != final knot {path.horizon!r}"
            )
        return path


def concat(first: PiecewiseLinearPath, second: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Run `first`, then `second` translated to start where `first` ends."""
    if first.dimension != second.dimension:
        raise ValueError(
            f"dimension mismatch: {first.dimension} vs {second.dimension}"
        )
    t0, end = first.horizon, first.points[-1]
    knots = first.knots + tuple(t0 + t for t in second.knots[1:])
    points = first.points + tuple(
        tuple(e + c for e, c in zip(end, p)) for p in second.points[1:])
    return PiecewiseLinearPath(knots, points)


class _ChenPlan(NamedTuple):
    """The Horner program of the Chen step over `word_program(d, m)`, as
    triples (index of S[u], index of x_{u_last} / j in the scaled increment
    x_a / j, j = 1 .. depth, letter by letter; slot of R(u without its last
    letter, j + 1), where slot 0 is S[()]). `temps` are the R(u, j) with
    j >= 2, shortest u first, in slots 1, 2, ...; `outputs` has one entry
    S[w] += (x_{w_last} / 1) * R(w without its last letter, 2) per word w != ().
    """

    temps: tuple[tuple[int, int, int], ...]
    outputs: tuple[tuple[int, int, int], ...]
    depth: int


@lru_cache(maxsize=32)
def _chen_plan(dimension: int, truncation: int) -> _ChenPlan:
    """The Horner program of the Chen step over `word_program(dimension, truncation)`.

    R(u, j) is needed when u extends to a word of the truncation by j - 1
    letters, i.e. when graded_degree(u) + j - 1 <= truncation.
    """
    program = word_program(dimension, truncation)
    slot: dict[tuple[Word, int], int] = {}
    temps, outputs = [], []
    for u in sorted(program.words[1:], key=len):
        for j in range(1, truncation - graded_degree(u) + 2):
            entry = (program.index[u], u[-1] * truncation + j - 1,
                     slot[u[:-1], j + 1] if len(u) > 1 else 0)
            (temps if j > 1 else outputs).append(entry)
            slot[u, j] = len(temps)  # the slot of R(u, j) when j >= 2
    return _ChenPlan(tuple(temps), tuple(outputs), truncation)


def _chen_step(coeffs, x: Sequence, plan: _ChenPlan):
    """Write S (x) exp(x) over the coefficients S in `coeffs` and return
    `coeffs`, for the level-one x = sum_a x[a] e_a. `coeffs` is a list of
    floats over the plan's words or a (K, b) array, one row per word and one
    column per path, with the same arithmetic. The temps are formed from S
    first; the outputs then read only temps and S[()], which none writes."""
    scaled = [xa / j for xa in x for j in range(1, plan.depth + 1)]
    r = [coeffs[0]]
    for s, k, src in plan.temps:
        r.append(coeffs[s] + scaled[k] * r[src])
    for s, k, src in plan.outputs:
        coeffs[s] += scaled[k] * r[src]
    return coeffs


def signature(path: PiecewiseLinearPath, truncation: int) -> GradedTensor:
    """Truncated signature, time adjoined as coordinate 0.

    Chen's relation, one segment at a time: S <- S (x) exp(dt e_0 + dx),
    each step the Horner program of the module docstring (one multiply-add
    per program entry). dt and dx are differences of consecutive knots and
    points, the values increments() gives.
    """
    program = word_program(path.dimension, truncation)
    plan = _chen_plan(path.dimension, truncation)
    coeffs = [1.0] + [0.0] * (len(program.words) - 1)
    for t0, t1, x0, x1 in zip(path.knots, path.knots[1:], path.points, path.points[1:]):
        _chen_step(coeffs, [t1 - t0, *(b - a for a, b in zip(x0, x1))], plan)
    return GradedTensor._of(program, np.array(coeffs))


def log_signature(path: PiecewiseLinearPath, truncation: int) -> LiePolynomial:
    return certify(log(signature(path, truncation)))


def brownian_rescale(path: PiecewiseLinearPath, horizon: float) -> PiecewiseLinearPath:
    """Map a unit-horizon path to [0, horizon]: time scales by the horizon,
    space by its square root, so the signature dilates by sqrt(horizon)."""
    _check_unit_horizon(path.horizon, "path")
    _check_positive(horizon)
    root = math.sqrt(horizon)
    knots = tuple(t * float(horizon) for t in path.knots)
    points = tuple(tuple(c * root for c in p) for p in path.points)
    return PiecewiseLinearPath(knots, points)


def brownian_expected_signature(
    dimension: int, truncation: int, horizon: float = 1.0
) -> GradedTensor:
    """Expected Stratonovich signature of Brownian motion with time adjoined.

    Closed form: exp(T*e_0 + (T/2) * sum_i e_i e_i), projected to the
    truncation. Expanding the exponential, a word has a nonzero coefficient
    exactly when it is a concatenation of k blocks `0` and `ii` (one such
    split at most), and then the coefficient is T^a (T/2)^(k-a) / k! with a
    the number of blocks `0`. Every block has graded degree 2. The Monte
    Carlo estimator below provides the independent cross-check.
    """
    _check_positive(horizon)
    _check_count(truncation, "truncation", 0)
    blocks = [(0,)] + [(i, i) for i in range(1, dimension + 1)]
    coeffs: dict[Word, float] = {}
    for k in range(truncation // 2 + 1):
        for split in itertools.product(blocks, repeat=k):
            a = split.count((0,))
            c = horizon**a * (0.5 * horizon) ** (k - a) / math.factorial(k)
            if c != 0.0:
                coeffs[sum(split, ())] = c
    return GradedTensor(dimension, truncation, coeffs)


def monte_carlo_expected_signature(
    dimension: int,
    truncation: int,
    horizon: float,
    n_paths: int,
    n_steps: int,
    rng: np.random.Generator,
    batch_size: int = 20_000,
) -> tuple[GradedTensor, dict[Word, float]]:
    """Sample mean of signatures of piecewise-linear Brownian interpolations.

    Returns the empirical mean tensor and a per-word standard error. The
    paths run in batches through `_brownian_mean`, so the values depend on
    rng and batch_size. A batch of b paths is one (K, b) array, one row per
    word, that the Chen step of the module docstring writes over (T more rows
    of temps per step) and `_brownian_mean` then takes as its values.
    """
    _check_count(n_paths, "n_paths", 2)
    _check_count(n_steps, "n_steps")
    _check_count(batch_size, "batch_size")
    _check_positive(horizon)
    program = word_program(dimension, truncation)
    plan = _chen_plan(dimension, truncation)
    h = horizon / n_steps
    mean, stderr = _brownian_mean(
        n_paths, n_steps, dimension, h, rng, batch_size,
        lambda b: np.repeat(np.eye(len(program.words), 1), b, axis=1),
        lambda coeffs, db, _: _chen_step(coeffs, [h, *db.T], plan), lambda coeffs: coeffs)
    return GradedTensor._of(program, mean), dict(zip(program.words, stderr.tolist()))


def _brownian_mean(paths, steps, dims, h, rng, batch, start, step, values):
    """(K,) mean and standard error of the (K, b) arrays values(state), which
    it overwrites, over `paths` Brownian paths in batches of b <= batch.

    A batch starts as start(b); step k = 1..steps draws the increments
    dw = rng.standard_normal((b, dims)) * sqrt(h) and sets state to
    step(state, dw, k); values(state) may be the state itself, which the
    batch no longer needs. The variance is taken about the first path's values,
    so it does not cancel against the mean: a value equal on every path gets
    a stderr of exactly 0.
    """
    total = shifted = shifted_sq = shift = 0.0
    for done in range(0, paths, batch):
        b = min(batch, paths - done)
        state = start(b)
        for k in range(1, steps + 1):
            state = step(state, rng.standard_normal((b, dims)) * math.sqrt(h), k)
        vals = values(state)
        shift = vals[:, :1].copy() if done == 0 else shift
        total = total + vals.sum(axis=1)
        vals -= shift
        shifted = shifted + vals.sum(axis=1)
        shifted_sq = shifted_sq + np.square(vals, out=vals).sum(axis=1)
    var = np.maximum(shifted_sq - shifted**2 / paths, 0.0) / (paths - 1)
    return total / paths, np.sqrt(var / paths)
