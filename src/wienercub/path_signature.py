"""Signatures of piecewise-linear paths carrying an implicit time coordinate.

A path is a continuous piecewise-linear map from [0, T] into R^d starting at
the origin. Coordinate 0 of every signature integral is time itself, so the
signature lives over the extended alphabet {0, 1, ..., d}. On one linear
segment the signature is the exponential of the level-one element
dt * e_0 + sum_i dx_i * e_i, and the signature of a concatenation is the
product of the factors (Chen's relation); both identities are exact at any
truncation, so signatures here carry no discretization error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tensor_algebra import (
    GradedTensor,
    Word,
    all_words,
    exp,
    log,
    mul,
)
from .lie_structures import DYNKIN_TOL, LiePolynomial, certify

_KNOT_TOL = 1e-12


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Knot representation: values points[j] at times knots[j], joined linearly.

    knots[0] == 0 and points[0] is the origin; knots increase strictly.
    """

    knots: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("path needs at least two knots")
        if len(self.knots) != len(self.points):
            raise ValueError(
                f"knot/point count mismatch: {len(self.knots)} vs {len(self.points)}"
            )
        if abs(self.knots[0]) > _KNOT_TOL:
            raise ValueError(f"first knot must be 0, got {self.knots[0]!r}")
        for a, b in zip(self.knots, self.knots[1:]):
            if not b > a:
                raise ValueError(f"knots must increase strictly: {a!r} !< {b!r}")
        d = len(self.points[0])
        if d < 1:
            raise ValueError("path dimension must be >= 1")
        if any(len(p) != d for p in self.points):
            raise ValueError("inconsistent point dimensions")
        if any(abs(c) > _KNOT_TOL for c in self.points[0]):
            raise ValueError(f"path must start at the origin, got {self.points[0]!r}")

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
        """Per-segment (dt, dx) pairs."""
        pts = np.asarray(self.points, dtype=float)
        return [
            (self.knots[j + 1] - self.knots[j], pts[j + 1] - pts[j])
            for j in range(self.n_segments)
        ]

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_increments(
        cls, steps: Iterable[tuple[float, Iterable[float]]]
    ) -> "PiecewiseLinearPath":
        knots = [0.0]
        points: list[tuple[float, ...]] = []
        x: np.ndarray | None = None
        for dt, dx in steps:
            dx = np.asarray(dx, dtype=float)
            if x is None:
                x = np.zeros_like(dx)
                points.append(tuple(x))
            knots.append(knots[-1] + float(dt))
            x = x + dx
            points.append(tuple(x))
        if x is None:
            raise ValueError("at least one increment required")
        return cls(tuple(knots), tuple(points))

    @classmethod
    def straight_line(
        cls, increment: Iterable[float], horizon: float = 1.0
    ) -> "PiecewiseLinearPath":
        return cls.from_increments([(horizon, increment)])

    @classmethod
    def zero(cls, dimension: int, horizon: float = 1.0) -> "PiecewiseLinearPath":
        return cls.from_increments([(horizon, [0.0] * dimension)])

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "knots": list(self.knots),
            "points": [list(p) for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseLinearPath":
        try:
            knots = tuple(float(t) for t in data["knots"])
            points = tuple(tuple(float(c) for c in p) for p in data["points"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed path record: {exc}") from exc
        path = cls(knots, points)
        if "horizon" in data and abs(float(data["horizon"]) - path.horizon) > 1e-9:
            raise ValueError(
                f"declared horizon {data['horizon']!r} != final knot {path.horizon!r}"
            )
        return path


def concat(first: PiecewiseLinearPath, second: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Run `first`, then `second` translated to start where `first` ends."""
    if first.dimension != second.dimension:
        raise ValueError(
            f"dimension mismatch: {first.dimension} vs {second.dimension}"
        )
    t0 = first.horizon
    end = np.asarray(first.points[-1], dtype=float)
    knots = first.knots + tuple(t0 + t for t in second.knots[1:])
    points = first.points + tuple(
        tuple(end + np.asarray(p, dtype=float)) for p in second.points[1:]
    )
    return PiecewiseLinearPath(knots, points)


def signature(path: PiecewiseLinearPath, truncation: int) -> GradedTensor:
    """Truncated signature, time adjoined as coordinate 0."""
    d = path.dimension
    sig = GradedTensor.unit(d, truncation)
    for dt, dx in path.increments():
        seg: dict[Word, float] = {(0,): dt}
        for i in range(d):
            if dx[i] != 0.0:
                seg[(i + 1,)] = float(dx[i])
        sig = mul(sig, exp(GradedTensor(d, truncation, seg, _trusted=True)))
    return sig


def log_signature(
    path: PiecewiseLinearPath, truncation: int, tol: float = DYNKIN_TOL
) -> LiePolynomial:
    return certify(log(signature(path, truncation)), tol)


def brownian_rescale(path: PiecewiseLinearPath, horizon: float) -> PiecewiseLinearPath:
    """Map a unit-horizon path to [0, horizon]: time scales by the horizon,
    space by its square root, so the signature dilates by sqrt(horizon)."""
    if abs(path.horizon - 1.0) > 1e-9:
        raise ValueError(f"rescale expects a unit-horizon path, got {path.horizon!r}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    root = math.sqrt(horizon)
    knots = tuple(t * horizon for t in path.knots)
    points = tuple(tuple(c * root for c in p) for p in path.points)
    return PiecewiseLinearPath(knots, points)


def brownian_expected_signature(
    dimension: int, truncation: int, horizon: float = 1.0
) -> GradedTensor:
    """Expected Stratonovich signature of Brownian motion with time adjoined.

    Closed form: exp(T*e_0 + (T/2) * sum_i e_i e_i), projected to the
    truncation. The Monte Carlo estimator below provides the independent
    cross-check.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    gen: dict[Word, float] = {(0,): float(horizon)}
    for i in range(1, dimension + 1):
        gen[(i, i)] = 0.5 * horizon
    return exp(GradedTensor(dimension, truncation, gen, _trusted=True))


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
    per-step update is the splitting recursion behind Chen's relation,
    vectorized over a batch of paths.
    """
    if n_paths < 2 or n_steps < 1:
        raise ValueError("need n_paths >= 2 and n_steps >= 1")
    words = all_words(dimension, truncation)
    index = {w: i for i, w in enumerate(words)}
    # all ways to split each word into (prefix kept from the running
    # signature, suffix taken from the new segment)
    splits: list[list[tuple[int, Word]]] = [
        [(index[w[:j]], w[j:]) for j in range(len(w) + 1)] for w in words
    ]
    h = horizon / n_steps
    sum_ = np.zeros(len(words))
    sumsq = np.zeros(len(words))
    done = 0
    while done < n_paths:
        b = min(batch_size, n_paths - done)
        coeffs = [np.zeros(b) for _ in words]
        coeffs[index[()]] = np.ones(b)
        for _ in range(n_steps):
            db = rng.standard_normal((b, dimension)) * math.sqrt(h)
            seg: list[np.ndarray | float] = []
            for w in words:
                c: np.ndarray | float = 1.0 / math.factorial(len(w))
                for a in w:
                    c = c * (h if a == 0 else db[:, a - 1])
                seg.append(c)
            new = []
            for i, w in enumerate(words):
                acc = None
                for iu, v in splits[i]:
                    term = coeffs[iu] * seg[index[v]]
                    acc = term if acc is None else acc + term
                new.append(acc)
            coeffs = new
        for i in range(len(words)):
            sum_[i] += coeffs[i].sum()
            sumsq[i] += (coeffs[i] ** 2).sum()
        done += b
    mean = sum_ / n_paths
    var = np.maximum(sumsq / n_paths - mean**2, 0.0) * (n_paths / (n_paths - 1))
    stderr = np.sqrt(var / n_paths)
    tensor = GradedTensor(
        dimension,
        truncation,
        {w: float(mean[i]) for i, w in enumerate(words) if mean[i] != 0.0},
        _trusted=True,
    )
    return tensor, {w: float(stderr[i]) for i, w in enumerate(words)}
