"""Vector fields on R^N, iterated brackets, and the flows they generate.

A system holds fields V_0, ..., V_d: V_0 is paired with the time coordinate
of a driving path, V_1..V_d with its space coordinates. Affine fields
(x -> Ax + b) are kept symbolic so brackets and flows stay exact; generic
callback fields fall back to finite differences and RK4 only, and must map
(P, N) blocks of states row by row: the rule _check_block_fields probes.

Every Lie element (LiePolynomial) corresponds to a concrete field: brackets of
letters become iterated field brackets, so the word-basis coefficients are
re-expressed through right-nested bracketing (level k carries a factor 1/k),
by _bracket_terms for gamma_field and the tree solvers' level step alike.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lie_structures import LiePolynomial
from .tensor_algebra import _check_count, _is_real, check_word, graded_degree

# finite-difference step scale of GenericField's Jacobian: cube root of
# machine epsilon, the optimum for central differences
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
    """matrix @ x + offset over leading batch axes, for one matrix (N, N)
    shared by all rows or one per row (P, N, N): _affine_columns on the
    columns x[..., j:j+1] of the rows."""
    x = np.asarray(x, dtype=float)
    return _affine_columns(matrix, offset, np.moveaxis(x[..., None], -2, 0))


def _affine_columns(matrix: np.ndarray, offset, columns) -> np.ndarray:
    """matrix @ x + offset from the columns x_j = columns[j]: sum_j
    columns[j] * matrix[..., j] + offset in order of j, in the layout the
    operands broadcast to. Each entry gets the same arithmetic for every row
    count and layout (numpy's one-row matmul rounds differently), and no
    (P, N, N) product is formed."""
    out = columns[0] * matrix[..., 0]
    for j in range(1, len(columns)):
        out += columns[j] * matrix[..., j]
    out += offset
    return out


@dataclass(frozen=True, eq=False)
class AffineField:
    """x -> matrix @ x + offset (read-only float copies of entries that are
    numbers, tensor_algebra._is_real), exact under brackets and flows."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        a, b = (np.array(x, dtype=object) for x in (self.matrix, self.offset))
        for c in (*a.flat, *b.flat):
            if not (_is_real(c) and math.isfinite(c)):
                raise ValueError(f"matrix and offset must be finite numbers, got {c!r}")
        a, b = a.astype(float), b.astype(float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError(
                f"offset shape {b.shape} does not match matrix {a.shape}"
            )
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offset", b)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _affine_map(self.matrix, self.offset, x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """The matrix, once per row of a block (a read-only view)."""
        return np.broadcast_to(self.matrix, np.shape(x)[:-1] + self.matrix.shape)


@dataclass(frozen=True, eq=False)
class GenericField:
    """Callback field on one state (N,) or a block of states (P, N).

    jacobian(x) maps (N,) to (N, N) and (P, N) to (P, N, N). A jacobian_func
    takes one state and is called once per row of a block, and a result of
    another shape is refused with both shapes named; without one, the
    Jacobian is taken by central differences of step FD_STEP * (1 + |x_j|)
    on the whole block, with the same arithmetic for every row.
    """

    func: Callable[[np.ndarray], np.ndarray]
    dimension: int
    jacobian_func: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jacobian_func is not None:
            jac = (np.array([self.jacobian_func(row) for row in x], dtype=float)
                   if x.ndim > 1 else np.asarray(self.jacobian_func(x), dtype=float))
            n = self.dimension
            if jac.shape != x.shape[:-1] + (n, n):
                raise ValueError(f"jacobian_func must give shape (..., {n}, {n}) for "
                                 f"states of shape {x.shape}, got {jac.shape}")
            return jac
        jac = np.empty(x.shape + (self.dimension,))
        for j in range(self.dimension):
            e = np.zeros_like(x)
            e[..., j] = FD_STEP * (1.0 + np.abs(x[..., j]))
            jac[..., j] = (self(x + e) - self(x - e)) / (2.0 * e[..., j, None])
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
        # J @ y row by row, on one state (N,) or a block (P, N)
        return (np.einsum("...ij,...j->...i", w.jacobian(x), v(x))
                - np.einsum("...ij,...j->...i", v.jacobian(x), w(x)))

    return GenericField(func, v.dimension)


@dataclass(frozen=True)
class VectorFieldSystem:
    """Fields V_0..V_d on a common state space, held as a tuple."""

    fields: tuple[Field, ...]

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
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
        """The field sum_i c_i V_i (combine_fields on the system's fields)."""
        return combine_fields(self.fields, coefficients)


def _check_controls(dimension: int, sys: VectorFieldSystem, what: str) -> None:
    """Refuse a `what` (formula, path, Lie element, tensor) over `dimension`
    space letters that is not one per driving field V_1..V_d of sys."""
    if dimension != sys.n_controls:
        raise ValueError(f"{what} drives {dimension} controls, system has {sys.n_controls}")


def _check_block_fields(sys: VectorFieldSystem, x: np.ndarray):
    """The block rule: the level step, flow_along_path and euler_mc call each
    field on whole (P, N) blocks of states. Probe every GenericField on two
    distinct states near x and require the block call to agree with one call
    per state."""
    probe = np.stack([x, x + 0.01 * (1.0 + np.abs(x))])
    for i, v in enumerate(sys.fields):
        if not isinstance(v, GenericField):
            continue
        rule = f"field V_{i} must map a (P, N) block of states row by row"
        rows = np.stack([v(p) for p in probe])
        try:
            block = v(probe)
        except Exception as exc:
            raise ValueError(f"{rule}: its call on a block of two states raised "
                             f"{type(exc).__name__}: {exc}") from exc
        scale = np.max(np.abs(rows), initial=0.0, where=np.isfinite(rows))
        if block.shape != rows.shape or not np.allclose(
                block, rows, rtol=1e-12, atol=1e-12 * scale, equal_nan=True):
            raise ValueError(f"{rule}: on two states near x it gave {block.tolist()} "
                             f"for the block and {rows.tolist()} state by state")


def _augmented(fields: Sequence[AffineField], c: np.ndarray) -> np.ndarray:
    """Augmented (N+1)-square matrices [[A, b], [0, 0]] of the affine fields
    sum_j c_j V_j for c of shape (..., m), summed in field order from +0.0:
    combine_fields returns one, the exact flows exponentiate them."""
    n = fields[0].dimension
    aug = np.zeros(c.shape[:-1] + (n + 1, n + 1))
    for j, v in enumerate(fields):
        cj = c[..., j, None]
        aug[..., :n, :n] += cj[..., None] * v.matrix
        aug[..., :n, n] += cj * v.offset
    return aug


def combine_fields(fields: Sequence[Field], coefficients: np.ndarray) -> Field:
    """The field sum_j c_j V_j for coefficients of shape (m,), shared by all
    states, or (P, m), one set per row of a (P, N) block; any other shape is
    refused. Shared coefficients on affine fields give an AffineField
    (_augmented). Otherwise the GenericField's value is summed in field order
    from +0.0 (a ±0 term adds no bit): a field whose coefficients are all zero
    is not called, and a row whose coefficient on a field is 0 gets exactly 0
    from it, also where the field is not finite (0 * nan is nan). Its
    Jacobian, if asked for, is GenericField's block finite difference.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != len(fields):
        raise ValueError(f"need {len(fields)} coefficients, got shape {c.shape}")
    if c.ndim == 1 and all(isinstance(f, AffineField) for f in fields):
        aug = _augmented(fields, c)
        return AffineField(aug[:-1, :-1], aug[:-1, -1])
    kept = [j for j in range(len(fields)) if c[..., j].any()]
    terms = [fields[j] for j in kept]
    weights = c[..., kept]
    zero_rows = [np.flatnonzero(weights[..., i] == 0.0) for i in range(len(kept))]

    def func(x):
        out = 0.0
        for i, f in enumerate(terms):
            term = weights[..., i, None] * f(x)
            if zero_rows[i].size:
                term[zero_rows[i]] = 0.0
            out = out + term
        return out

    return GenericField(func, fields[0].dimension)


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
    """[V_{w1}, [V_{w2}, [..., V_{wk}]]] built from bracket_field: exact on
    affine fields, while on GenericFields each level takes central
    differences of the level below. With the affine pair of the tests as
    GenericFields, words of length 1-5 cost 1, 10, 55, 280, 1405 field calls
    per evaluation at relative errors 0, 2e-11, 2e-6, 0.2, 3e4."""
    if not word:
        raise ValueError("empty word has no bracket field")
    check_word(word, sys.n_controls)
    f = sys.fields[word[-1]]
    for letter in reversed(word[:-1]):
        f = bracket_field(sys.fields[letter], f)
    return f


def _bracket_terms(polys: Sequence[LiePolynomial], sys: VectorFieldSystem):
    """The right-nested bracket fields of the words that the Lie
    elements polys use, in word order (the zero field if none), and one row
    of coefficients per element: c_w / len(w) on the field of word w (Dynkin:
    bracketing a level-k Lie element word by word scales it by k)."""
    for poly in polys:
        _check_controls(poly.dimension, sys, "Lie element")
    terms = [dict(poly.tensor.items()) for poly in polys]
    words = sorted(set().union(*terms), key=lambda w: (graded_degree(w), len(w), w))
    if not words:
        n = sys.dimension
        return [AffineField(np.zeros((n, n)), np.zeros(n))], np.zeros((len(polys), 1))
    return ([nested_bracket_field(sys, w) for w in words],
            np.array([[t.get(w, 0.0) / len(w) for w in words] for t in terms]))


def gamma_field(poly: LiePolynomial, sys: VectorFieldSystem) -> Field:
    """The field of a Lie element: the combination that
    _bracket_terms gives, by which the tree's level step flows Lie support."""
    fields, coefficients = _bracket_terms([poly], sys)
    return combine_fields(fields, coefficients[0])


# -- flows ---------------------------------------------------------------------


@dataclass(frozen=True)
class FlowConfig:
    """substeps: RK4 steps per unit flow parameter (and per segment), a
    count of at least 1 (tensor_algebra._check_count), or None for
    _substeps' default; exact_affine: let flow_exp use the closed-form
    affine flow, which the level step (the tree solvers and kusuoka_step) and
    flow_along_path always use."""

    substeps: int | None = None
    exact_affine: bool = False

    def __post_init__(self):
        if self.substeps is not None:
            _check_count(self.substeps, "substeps")


DEFAULT_FLOW = FlowConfig()


def _substeps(cfg: FlowConfig, gap: float = 1.0, degree: int | None = None) -> int:
    """cfg.substeps if set, else 32 without a degree, else n = ceil(8 s^((4-m)/8))
    for a tree level of gap s of a degree-m formula (8 measured): its RK4 error
    O(s^(5/2)/n^4) stays a fixed fraction of its O(s^((m+1)/2)) scheme error."""
    if cfg.substeps is None and degree is not None:
        return max(1, math.ceil(8.0 * gap ** ((4 - degree) / 8)))
    return cfg.substeps or 32


# Taylor degree and scaling threshold of expm. On ||A||_1 <= 1 the degree-18
# truncation error is below 1.1 / 19! ~ 1e-17, and relative to ||e^A||_1 >=
# 1/e below 3e-17, under the rounding of a double. The rounding of the
# squarings dominates the error, so a larger threshold with fewer squarings
# is the more accurate choice: against a 40-digit reference, theta = 1/2
# reached 9.4e-15 normwise on 3x3 matrices with N(0, 25) entries where
# theta = 1 reached 3.5e-15.
_EXPM_DEGREE = 18
_EXPM_THETA = 1.0


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one square matrix (M, M) or of a stack
    (..., M, M), by scaling and squaring over the whole stack.

    Matrix i is divided by 2^s_i, s_i = max(0, ceil(log2(||A_i||_1))),
    an exact scaling; one Horner evaluation of the degree-18 Taylor
    polynomial runs on every scaled matrix at once, and matrix i is then
    squared s_i times. A non-finite matrix gives a non-finite result.
    """
    a = np.asarray(a, dtype=float)
    shape, m = a.shape, a.shape[-1]
    a = a.reshape(-1, m, m)
    # frexp gives norm / theta = mant * 2^e with mant in [1/2, 1), so that
    # ceil(log2) is e, or e - 1 at an exact power of two; 0, inf and nan
    # come out with e = 0 and need no special case
    mant, e = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _EXPM_THETA)
    squarings = np.maximum(e - (mant == 0.5), 0)
    scaled = a * np.ldexp(1.0, -squarings)[:, None, None]
    eye = np.eye(m)
    # Horner: I + A/1 (I + A/2 (I + ... (I + A/18)))
    out = eye + scaled / _EXPM_DEGREE
    for j in range(_EXPM_DEGREE - 1, 0, -1):
        out = eye + (scaled @ out) / j
    for r in range(int(squarings.max(initial=0))):
        rows = np.flatnonzero(squarings > r)
        out[rows] = out[rows] @ out[rows]
    return out.reshape(shape)


def _check_flow_time(t: float) -> None:
    if not (_is_real(t) and math.isfinite(t)):
        raise ValueError(f"flow time must be finite, got {t!r}")


def affine_flow_exact(v: AffineField, t: float, x: np.ndarray) -> np.ndarray:
    """Exp(tV)(x) for affine V via the (N+1)-square augmented exponential,
    from this module's expm."""
    _check_flow_time(t)
    big = expm(_augmented([v], np.array([t])))
    y = _affine_map(big[:-1, :-1], big[:-1, -1], x)
    _check_finite(y, "affine flow left the finite range")
    return y


def flow_exp(
    v: Field, t: float, x: np.ndarray, cfg: FlowConfig = DEFAULT_FLOW
) -> np.ndarray:
    """Exp(tV)(x): the time-t value of y' = V(y), y(0) = x.

    Classical RK4, cfg.substeps or 32 steps per unit |t|; negative t runs the
    reversed flow. Batches flow together when x has a leading batch axis.
    """
    x = np.asarray(x, dtype=float)
    _check_flow_time(t)
    if t == 0.0:
        return x.copy()
    if cfg.exact_affine and isinstance(v, AffineField):
        return affine_flow_exact(v, t, x)
    n_steps = max(1, math.ceil(_substeps(cfg) * abs(t)))
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


class _LevelStep:
    """The level operator of a cubature tree: moves a block of states along
    the support of one level, Brownian-rescaled to that level's gap.

    Built once per model (klv_solver._level_step) from a formula's
    unit-horizon support (paths or Lie elements) and the
    partition's gaps, into one read-only (level, point, segment, field) table
    of coefficients. Paths run on the system's fields, padded with zero
    segments to the longest path: diff of the rows (knot, *point) scaled by
    (gap, sqrt(gap), ...) first, the arithmetic of brownian_rescale and
    increments(), to the bit. A Lie element is one segment on the fields of
    _bracket_terms, dilated by sqrt(gap): the field gamma_field forms. On
    affine fields one batched expm call gives every segment map, composed
    once per (level, point) as M_m @ ... @ M_1; a zero segment's map is
    exactly I. Level j flows a generic segment by substeps[j] RK4 steps.
    """

    def __init__(self, sys: VectorFieldSystem, support, gaps, cfg: FlowConfig,
                 degree: int | None = None):
        gaps = np.asarray(gaps, dtype=float)
        self.substeps = [_substeps(cfg, gap, degree) for gap in gaps.tolist()]
        if isinstance(support[0], LiePolynomial):
            self.fields, table = _bracket_terms(
                [poly.dilate(math.sqrt(gap)) for gap in gaps.tolist()
                 for poly in support], sys)
            self.lengths = np.ones(len(support), dtype=int)
            self.coefficients = table.reshape(gaps.size, len(support), 1, -1)
        else:
            self.fields = sys.fields
            self.lengths = np.array([p.n_segments for p in support])
            self.coefficients = np.zeros(
                (gaps.size, len(support), self.lengths.max(), sys.n_controls + 1))
            scale = np.repeat(np.sqrt(gaps)[:, None, None], sys.n_controls + 1, axis=2)
            scale[:, 0, 0] = gaps
            for i, path in enumerate(support):
                self.coefficients[:, i, :path.n_segments] = np.diff(
                    np.column_stack([path.knots, path.points]) * scale, axis=1)
        self.coefficients.flags.writeable = self.lengths.flags.writeable = False
        self.maps = self.composed = None
        if all(isinstance(v, AffineField) for v in self.fields):
            self.maps = expm(_augmented(self.fields, self.coefficients))
            composed = self.maps[:, :, 0]
            for seg in range(1, self.maps.shape[2]):
                # maps[seg] @ composed, summed term by term as _affine_map sums
                composed = _affine_map(self.maps[:, :, seg, None], 0.0,
                                       composed.swapaxes(-1, -2)).swapaxes(-1, -2)
            # (level, N, point, N+1), so that along's take broadcasts as is
            self.composed = np.ascontiguousarray(
                composed[..., :sys.dimension, :].transpose(0, 2, 1, 3))
            self.maps.flags.writeable = self.composed.flags.writeable = False

    def along(self, level: int, columns: np.ndarray, point) -> np.ndarray:
        """Columns x (N, ...) of states moved along the support of `point`,
        an int array with one axis per trailing axis of x that broadcasts
        against them: y[:, b] is x[:, b] moved along point[b]'s support. The
        full tree passes x[:, None] (N, 1, P) and arange(n)[:, None] for y
        (N, n, P), the sampled tree its children (N, R) and their points (R,).

        Affine fields: y[a, b] = sum_j M[a, j] x[j, b] + c[a], the composed
        map of point[b] summed in order of j (_affine_columns) in any layout;
        only the first non-finite row is replayed segment by segment, to name
        its first non-finite segment (or its point's last). Generic fields:
        the broadcast block is flattened to rows, first axis fastest (row
        r * n + i in the full tree: branch order), and each segment of the
        longest path is one RK4 pass of combine_fields' sum over the live
        rows (those whose point has that segment), gathered and scattered
        back. A divergence names the segment and the row of the flat block."""
        if self.composed is not None:
            maps = self.composed[level].take(point, axis=1)
            y = _affine_columns(maps[..., :-1], maps[..., -1], columns)
            if np.isfinite(y).all():
                return y
        shape = columns.shape[:1] + np.broadcast_shapes(columns.shape[1:], np.shape(point))
        states = np.broadcast_to(columns, shape).reshape(len(columns), -1, order="F").T
        points = np.broadcast_to(point, shape[1:]).ravel(order="F")
        if self.composed is not None:
            row = int(np.argmin(np.isfinite(y).all(axis=0).ravel(order="F")))
            z, m = states[row], self.lengths[points[row]]
            for seg, seg_map in enumerate(self.maps[level, points[row], :m, :-1]):
                z = _affine_map(seg_map[:, :-1], seg_map[:, -1], z)
                if not np.isfinite(z).all():
                    break
            raise FlowDivergence(
                f"segment {seg + 1}/{m}: affine flow left the finite range",
                segment=seg + 1, row=row)
        y, cfg = states.copy(), FlowConfig(self.substeps[level])
        lengths = self.lengths[points]
        for seg in range(lengths.max(initial=0)):
            live = np.flatnonzero(lengths > seg)
            c = self.coefficients[level, points[live], seg]
            try:
                y[live] = flow_exp(combine_fields(self.fields, c), 1.0, y[live], cfg)
            except FlowDivergence as exc:
                row = int(live[exc.row])
                raise FlowDivergence(
                    f"segment {seg + 1}/{lengths[row]}: {exc}",
                    substep=exc.substep, segment=seg + 1, row=row) from exc
        return y.T.reshape(shape, order="F")


def flow_along_path(
    path, sys: VectorFieldSystem, x: np.ndarray, cfg: FlowConfig = DEFAULT_FLOW
) -> np.ndarray:
    """Solve dY = V_0 dt + sum_i V_i dw^i along a piecewise-linear control.

    Each linear segment contributes the autonomous field
    dt*V_0 + sum_i dw^i*V_i flowed over unit parameter; segments chain.
    x is one state (N,) or a block of states (P, N); _check_block_fields
    probes the fields near the first. An affine segment field flows in
    closed form, any other by RK4 (cfg.substeps or 32); a non-finite state
    raises FlowDivergence naming the segment and the first bad row.
    This is the one-path case of the tree solvers' level step.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (sys.dimension,):
        raise ValueError(f"states must have a last axis of length {sys.dimension}, "
                         f"got shape {x.shape}")
    _check_controls(path.dimension, sys, "path")
    columns = x.reshape(-1, sys.dimension).T
    if columns.size:
        _check_block_fields(sys, columns[:, 0])
    y = _LevelStep(sys, [path], [1.0], cfg).along(0, columns, np.zeros(1, int))
    return y.T.reshape(x.shape)
