"""Vector fields on R^N, iterated brackets, and the flows they generate.

A system holds fields V_0, ..., V_d: V_0 is paired with the time coordinate
of a driving path, V_1..V_d with its space coordinates. Affine fields
(x -> Ax + b) are kept symbolic so brackets and flows stay exact; generic
callback fields fall back to finite differences and RK4 only.

Every certified Lie element corresponds to a concrete field: brackets of
letters become iterated field brackets, so the word-basis coefficients are
first re-expressed through right-nested bracketing (level k carries a factor
1/k) and only then mapped onto the system.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .lie_structures import LiePolynomial

# default finite-difference step scale: cube root of machine epsilon,
# the optimum for central differences
FD_STEP = float(np.cbrt(np.finfo(float).eps))


class FlowDivergence(RuntimeError):
    """A flow integration left the finite range; `row` is the first
    non-finite row of a (P, N) block of states (None for a single state)."""

    def __init__(self, message: str, substep: int | None = None,
                 segment: int | None = None, row: int | None = None):
        super().__init__(message)
        self.substep = substep
        self.segment = segment
        self.row = row


def _check_finite(y: np.ndarray, message: str, substep: int | None = None):
    finite = np.isfinite(y)
    if finite.all():
        return
    row = int(np.argmin(finite.all(axis=-1))) if y.ndim == 2 else None
    raise FlowDivergence(message, substep=substep, row=row)


def _affine_map(matrix: np.ndarray, offset: np.ndarray, x) -> np.ndarray:
    """matrix @ x + offset over leading batch axes, with the same arithmetic
    for every row count (numpy's one-row matmul rounds differently)."""
    x = np.asarray(x, dtype=float)
    return (x[..., None, :] * matrix).sum(axis=-1) + offset


@dataclass(frozen=True, eq=False)
class AffineField:
    """x -> matrix @ x + offset, exact under brackets and flows."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.offset, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError(
                f"offset shape {b.shape} does not match matrix {a.shape}"
            )
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offset", b)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _affine_map(self.matrix, self.offset, x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.matrix

    def scaled(self, c: float) -> "AffineField":
        return AffineField(c * self.matrix, c * self.offset)

    @classmethod
    def zero(cls, dimension: int) -> "AffineField":
        return cls(np.zeros((dimension, dimension)), np.zeros(dimension))


@dataclass(frozen=True, eq=False)
class GenericField:
    """Callback field; jacobian callback optional (finite differences else).

    `note` carries accuracy advisories picked up by derived fields, e.g.
    brackets built from finite-difference jacobians.
    """

    func: Callable[[np.ndarray], np.ndarray]
    dimension: int
    jacobian_func: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = FD_STEP
    note: str = ""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jacobian_func is not None:
            return np.asarray(self.jacobian_func(x), dtype=float)
        n = self.dimension
        jac = np.empty((n, n))
        for j in range(n):
            h = self.fd_step * (1.0 + abs(float(x[j])))
            e = np.zeros(n)
            e[j] = h
            jac[:, j] = (self(x + e) - self(x - e)) / (2.0 * h)
        return jac


Field = AffineField | GenericField


def bracket_field(v: Field, w: Field) -> Field:
    """Lie bracket [v, w] = Jw.v - Jv.w; exact in the affine case."""
    if v.dimension != w.dimension:
        raise ValueError(f"dimension mismatch: {v.dimension} vs {w.dimension}")
    if isinstance(v, AffineField) and isinstance(w, AffineField):
        a, b = v.matrix, w.matrix
        return AffineField(b @ a - a @ b, b @ v.offset - a @ w.offset)

    def func(x, v=v, w=w):
        return w.jacobian(x) @ v(x) - v.jacobian(x) @ w(x)

    notes = [f.note for f in (v, w) if isinstance(f, GenericField) and f.note]
    if any(
        isinstance(f, GenericField) and f.jacobian_func is None for f in (v, w)
    ):
        notes.append("finite-difference jacobian, O(h^2)")
    return GenericField(
        func, v.dimension, note="; ".join(dict.fromkeys(notes))
    )


@dataclass(frozen=True)
class VectorFieldSystem:
    """Fields V_0..V_d on a common state space."""

    fields: tuple[Field, ...]

    def __post_init__(self):
        if len(self.fields) < 2:
            raise ValueError("need at least V_0 and V_1")
        n = self.fields[0].dimension
        if any(f.dimension != n for f in self.fields):
            raise ValueError("all fields must share the state dimension")

    @property
    def dimension(self) -> int:
        """State-space dimension N."""
        return self.fields[0].dimension

    @property
    def n_controls(self) -> int:
        """Number of space coordinates d (excludes the time field V_0)."""
        return len(self.fields) - 1

    @property
    def is_affine(self) -> bool:
        return all(isinstance(f, AffineField) for f in self.fields)

    def combine(self, coefficients: np.ndarray) -> Field:
        """The field sum_i c_i V_i."""
        c = np.asarray(coefficients, dtype=float)
        if c.shape != (len(self.fields),):
            raise ValueError(
                f"need {len(self.fields)} coefficients, got shape {c.shape}"
            )
        return combine_fields(list(self.fields), c)


def combine_fields(fields: list[Field], coefficients: np.ndarray) -> Field:
    if all(isinstance(f, AffineField) for f in fields):
        n = fields[0].dimension
        a = np.zeros((n, n))
        b = np.zeros(n)
        for c, f in zip(coefficients, fields):
            if c != 0.0:
                a += c * f.matrix
                b += c * f.offset
        return AffineField(a, b)
    kept = [(float(c), f) for c, f in zip(coefficients, fields) if c != 0.0]

    def func(x, kept=tuple(kept)):
        out = 0.0
        for c, f in kept:
            out = out + c * f(x)
        return out

    def jac(x, kept=tuple(kept)):
        out = 0.0
        for c, f in kept:
            out = out + c * f.jacobian(x)
        return out

    note = "; ".join(
        dict.fromkeys(
            f.note for _, f in kept if isinstance(f, GenericField) and f.note
        )
    )
    return GenericField(func, fields[0].dimension, jacobian_func=jac, note=note)


# -- builtin systems -----------------------------------------------------------


def gbm(mu: float, sigma: float) -> VectorFieldSystem:
    """dX = mu X dt + sigma X dB (both fields linear in x; N = d = 1).

    The drift is the one appearing against dt in the Fisk-Stratonovich form,
    so the flow along a path (t, w) is x * exp(mu t + sigma w) exactly and
    E[X_T] = x * exp((mu + sigma^2/2) T).
    """
    return VectorFieldSystem(
        (AffineField([[mu]], [0.0]), AffineField([[sigma]], [0.0]))
    )


def ou(theta: float, sigma: float) -> VectorFieldSystem:
    """Mean-reverting dX = -theta X dt + sigma dB; additive noise (N = d = 1)."""
    return VectorFieldSystem(
        (AffineField([[-theta]], [0.0]), AffineField([[0.0]], [sigma]))
    )


def affine_from_file(path: str) -> VectorFieldSystem:
    """Load {"fields": [{"matrix": [[..]], "offset": [..]}, ...]}."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        fields = tuple(
            AffineField(rec["matrix"], rec["offset"]) for rec in data["fields"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed affine system: {exc}") from exc
    return VectorFieldSystem(fields)


# -- the Lie-element-to-field correspondence -----------------------------------


def nested_bracket_field(sys: VectorFieldSystem, word: tuple[int, ...]) -> Field:
    """[V_{w1}, [V_{w2}, [..., V_{wk}]]] built from bracket_field."""
    if not word:
        raise ValueError("empty word has no bracket field")
    if any(a < 0 or a > sys.n_controls for a in word):
        raise ValueError(f"word {word} outside field range 0..{sys.n_controls}")
    f = sys.fields[word[-1]]
    for letter in reversed(word[:-1]):
        f = bracket_field(sys.fields[letter], f)
    return f


def gamma_field(poly: LiePolynomial, sys: VectorFieldSystem) -> Field:
    """The field corresponding to a certified Lie element.

    Word coefficients are re-expressed through right-nested brackets (the
    level-k identity carries a factor 1/k), so only genuine field brackets
    and linear combinations are ever formed.
    """
    if not poly.certified:
        raise ValueError("gamma_field requires a certified Lie element")
    if poly.dimension != sys.n_controls:
        raise ValueError(
            f"Lie element over {poly.dimension} space letters, "
            f"system has {sys.n_controls}"
        )
    terms: list[tuple[float, Field]] = []
    for w, c in poly.tensor.sorted_items():
        # Dynkin: on a level-k Lie element, right-nested bracketing of each
        # word scales the element by k, so dividing by len(w) restores it.
        terms.append((c / len(w), nested_bracket_field(sys, w)))
    if not terms:
        return AffineField.zero(sys.dimension)
    return combine_fields([f for _, f in terms],
                          np.array([c for c, _ in terms]))


# -- flows ---------------------------------------------------------------------


@dataclass(frozen=True)
class FlowConfig:
    """substeps: RK4 steps per unit flow parameter (and per path segment);
    fd_step: finite-difference scale for generic jacobians;
    exact_affine: let flow_exp replace RK4 by the closed-form affine flow.
    flow_along_path and the tree solvers always flow affine fields exactly."""

    substeps: int = 32
    fd_step: float = FD_STEP
    exact_affine: bool = False

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if not self.fd_step > 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")


DEFAULT_FLOW = FlowConfig()


def affine_flow_exact(v: AffineField, t: float, x: np.ndarray) -> np.ndarray:
    """Exp(tV)(x) for affine V via the (N+1)-square augmented exponential."""
    n = v.dimension
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = v.matrix
    aug[:n, n] = v.offset
    big = expm(t * aug)
    y = _affine_map(big[:n, :n], big[:n, n], x)
    _check_finite(y, "affine flow left the finite range")
    return y


def flow_exp(
    v: Field, t: float, x: np.ndarray, cfg: FlowConfig = DEFAULT_FLOW
) -> np.ndarray:
    """Exp(tV)(x): the time-t value of y' = V(y), y(0) = x.

    Classical RK4 with cfg.substeps steps per unit |t|; negative t runs the
    reversed flow. Batches flow together when x has a leading batch axis.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t!r}")
    if t == 0.0:
        return x.copy()
    if cfg.exact_affine and isinstance(v, AffineField):
        return affine_flow_exact(v, t, x)
    n_steps = max(1, math.ceil(cfg.substeps * abs(t)))
    h = t / n_steps
    y = x.copy()
    for step in range(n_steps):
        k1 = v(y)
        k2 = v(y + (0.5 * h) * k1)
        k3 = v(y + (0.5 * h) * k2)
        k4 = v(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(
            y, f"state left the finite range at substep {step + 1}/{n_steps}",
            substep=step + 1,
        )
    return y


def _flow_segment(v: Field, x: np.ndarray, cfg: FlowConfig) -> np.ndarray:
    """Exp(V)(x) over unit parameter: closed form for an affine V, RK4
    flow_exp for any other field."""
    if isinstance(v, AffineField):
        return affine_flow_exact(v, 1.0, x)
    return flow_exp(v, 1.0, x, cfg)


def _segment_field(sys: VectorFieldSystem, coefficients: np.ndarray) -> Field:
    """The field sum_j c_j V_j with coefficients shared by all states, shape
    (d+1,), or one set per row of a block, shape (P, d+1). A field whose
    coefficients are all zero is not called. A row whose coefficients are
    all zero gets the zero vector, so a flow leaves it exactly as it was."""
    kept = [(coefficients[..., j, None], v) for j, v in enumerate(sys.fields)
            if coefficients[..., j].any()]

    def func(x):
        out = 0.0
        for c, v in kept:
            out = out + c * v(x)
        return out

    return GenericField(func, sys.dimension)


def _segment_maps(sys: VectorFieldSystem, coefficients: np.ndarray) -> np.ndarray:
    """Exponentials of the augmented (N+1)-square matrices of the affine
    fields sum_j c_j V_j, for coefficients of shape (..., d+1), from one
    expm call. Each matrix is summed in field order, as combine sums it."""
    n = sys.dimension
    aug = np.zeros(coefficients.shape[:-1] + (n + 1, n + 1))
    for j, v in enumerate(sys.fields):
        c = coefficients[..., j, None]
        aug[..., :n, :n] += c[..., None] * v.matrix
        aug[..., :n, n] += c * v.offset
    return expm(aug)


class _LevelStep:
    """The level operator of a cubature tree: moves a block of states along
    the rescaled support paths of one level.

    Built once per solve from the paths of every level: the segment
    coefficients (dt, dx) go into one table, padded with zero segments to
    the longest path, and an affine system exponentiates every segment field
    in one expm call. A diverging flow raises FlowDivergence whose segment
    and row name the failing segment and output row.
    """

    def __init__(self, sys: VectorFieldSystem, level_paths, cfg: FlowConfig):
        for paths in level_paths:
            for path in paths:
                if path.dimension != sys.n_controls:
                    raise ValueError(
                        f"path has {path.dimension} space coordinates, "
                        f"system expects {sys.n_controls}"
                    )
        self.sys = sys
        self.cfg = cfg
        self.lengths = np.array([[p.n_segments for p in paths]
                                 for paths in level_paths])
        self.coefficients = np.zeros(
            self.lengths.shape + (self.lengths.max(), sys.n_controls + 1))
        for level, paths in enumerate(level_paths):
            for i, path in enumerate(paths):
                for seg, (dt, dx) in enumerate(path.increments()):
                    self.coefficients[level, i, seg] = np.concatenate(([dt], dx))
        self.maps = (_segment_maps(sys, self.coefficients) if sys.is_affine
                     else None)

    def _segments(self, coefficients, maps, lengths, y):
        """Flow y, one state (N,) or a block (P, N), along consecutive
        segments: coefficients (S, d+1) shared by all rows or (P, S, d+1) one
        path per row; maps the S exponentials of an affine system, None for a
        generic one, which flows all rows in one RK4 flow_exp call per
        segment; lengths the path length in segments, shared or per row."""
        n = self.sys.dimension
        for seg in range(coefficients.shape[-2]):
            try:
                if maps is None:
                    field = _segment_field(self.sys, coefficients[..., seg, :])
                    y = flow_exp(field, 1.0, y, self.cfg)
                else:
                    y = _affine_map(maps[seg, :n, :n], maps[seg, :n, n], y)
                    _check_finite(y, "affine flow left the finite range")
            except FlowDivergence as exc:
                total = lengths if exc.row is None else np.broadcast_to(
                    lengths, y.shape[:1])[exc.row]
                raise FlowDivergence(
                    f"segment {seg + 1}/{total}: {exc}",
                    substep=exc.substep,
                    segment=seg + 1,
                    row=exc.row,
                ) from exc
        return y

    def _along_one(self, level: int, i: int, y: np.ndarray) -> np.ndarray:
        m = self.lengths[level, i]
        maps = None if self.maps is None else self.maps[level, i]
        return self._segments(self.coefficients[level, i, :m], maps, m, y)

    def along(self, level: int, states: np.ndarray, point: np.ndarray):
        """states[r] flowed along the path of support point point[r]. A
        generic system flows every row in one RK4 pass per segment; an
        affine one applies each point's maps to the rows of that point."""
        if self.maps is None:
            lengths = self.lengths[level][point]
            return self._segments(self.coefficients[level][point, :lengths.max()],
                                  None, lengths, states)
        out = np.empty_like(states)
        for i in np.unique(point):
            rows = np.flatnonzero(point == i)
            try:
                out[rows] = self._along_one(level, i, states[rows])
            except FlowDivergence as exc:
                exc.row = int(rows[exc.row])
                raise
        return out

    def every_point(self, level: int, states: np.ndarray) -> np.ndarray:
        """Every state flowed along every support path: row r * n + i of the
        (P * n, N) result is states[r] moved along point i's path."""
        p, n = states.shape[0], self.lengths.shape[1]
        if self.maps is None:
            return self.along(level, np.repeat(states, n, axis=0),
                              np.tile(np.arange(n), p))
        # an affine point's maps act on the whole block, shared by its rows
        out = np.empty((p, n, states.shape[1]))
        for i in range(n):
            try:
                out[:, i] = self._along_one(level, i, states)
            except FlowDivergence as exc:
                exc.row = exc.row * n + i
                raise
        return out.reshape(p * n, -1)


def flow_along_path(
    path, sys: VectorFieldSystem, x: np.ndarray, cfg: FlowConfig = DEFAULT_FLOW
) -> np.ndarray:
    """Solve dY = V_0 dt + sum_i V_i dw^i along a piecewise-linear control.

    Each linear segment contributes the autonomous field
    dt*V_0 + sum_i dw^i*V_i flowed over unit parameter; segments chain.
    x is one state (N,) or a block of states (P, N). An affine segment field
    flows in closed form, any other by RK4 with cfg.substeps; a non-finite
    state raises FlowDivergence naming the segment and the first bad row.
    This is the one-path case of the tree solvers' level step.
    """
    return _LevelStep(sys, [[path]], cfg)._along_one(
        0, 0, np.asarray(x, dtype=float))
