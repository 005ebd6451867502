"""Exact polynomial calculus for affine differential operators.

Affine fields map polynomials to polynomials of the same degree, so iterated
directional derivatives, word operators, and truncated-exponential operators
can all be expanded symbolically with no truncation error. This module is the
independent oracle against which flow-based computations are measured: any
disagreement is attributable to ODE integration or to a genuine remainder
term, never to the operator side.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor_algebra import GradedTensor, exp
from .lie_structures import LiePolynomial
from .path_signature import _check_positive
from .vector_fields import (AffineField, VectorFieldSystem, affine_flow_exact,
                            gamma_field)

Exponents = tuple[int, ...]


class MultiPoly:
    """Polynomial in n_vars real variables, stored as exponent -> coefficient."""

    __slots__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: dict[Exponents, float] | None = None,
                 _trusted: bool = False):
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        self.n_vars = n_vars
        if terms is None:
            terms = {}
        if _trusted:
            self._terms = terms
            return
        clean: dict[Exponents, float] = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n_vars} variables")
            c = float(c)
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + c
        self._terms = {e: c for e, c in clean.items() if c != 0.0}

    @classmethod
    def constant(cls, n_vars: int, value: float) -> "MultiPoly":
        if value == 0.0:
            return cls(n_vars, {}, _trusted=True)
        return cls(n_vars, {(0,) * n_vars: float(value)}, _trusted=True)

    @classmethod
    def coordinate(cls, n_vars: int, j: int) -> "MultiPoly":
        if not 0 <= j < n_vars:
            raise ValueError(f"coordinate {j} out of range for {n_vars} variables")
        e = [0] * n_vars
        e[j] = 1
        return cls(n_vars, {tuple(e): 1.0}, _trusted=True)

    def items(self):
        return self._terms.items()

    def coeff(self, exps: Exponents) -> float:
        return self._terms.get(tuple(exps), 0.0)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"MultiPoly(n_vars={self.n_vars}, terms={len(self._terms)}, degree={self.degree})"

    def _check(self, other: "MultiPoly"):
        if self.n_vars != other.n_vars:
            raise ValueError(
                f"variable count mismatch: {self.n_vars} vs {other.n_vars}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0.0) + c
            if s == 0.0:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.n_vars, out, _trusted=True)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(
            self.n_vars, {e: -c for e, c in self._terms.items()}, _trusted=True
        )

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c: float) -> "MultiPoly":
        c = float(c)
        if c == 0.0:
            return MultiPoly(self.n_vars, {}, _trusted=True)
        return MultiPoly(
            self.n_vars, {e: c * v for e, v in self._terms.items()}, _trusted=True
        )

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        self._check(other)
        out: dict[Exponents, float] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0.0) + c1 * c2
                if s == 0.0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.n_vars, out, _trusted=True)

    __rmul__ = __mul__

    def partial(self, j: int) -> "MultiPoly":
        """d/dx_j, exact."""
        out: dict[Exponents, float] = {}
        for e, c in self._terms.items():
            if e[j] == 0:
                continue
            down = list(e)
            down[j] -= 1
            out[tuple(down)] = out.get(tuple(down), 0.0) + c * e[j]
        return MultiPoly(self.n_vars, out, _trusted=True)

    def __call__(self, x):
        """Value at a point (N,), as a float, or at each row of a block
        (P, N), as a (P,) array.

        A point is summed exactly (math.fsum over the terms). A block is
        summed term by term in storage order, each a product of contiguous
        columns (x.T, copied unless contiguous), so each row's value is the
        same for every block size and layout, within a few ulp of the point
        value.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[1] == self.n_vars:
            return self._eval_block(x)
        if x.shape != (self.n_vars,):
            raise ValueError(
                f"expected point of shape ({self.n_vars},) or block of shape "
                f"(P, {self.n_vars}), got {x.shape}"
            )
        return math.fsum(
            c * math.prod(x[j] ** e[j] for j in range(self.n_vars) if e[j])
            for e, c in self._terms.items()
        )

    def _eval_block(self, x: np.ndarray) -> np.ndarray:
        columns = np.ascontiguousarray(x.T)
        out = np.zeros(x.shape[0])
        term = np.empty(x.shape[0])
        for e, c in self._terms.items():
            factors = [columns[j] for j, ej in enumerate(e) for _ in range(ej)]
            np.multiply(factors[0] if factors else 1.0, c, out=term)
            for column in factors[1:]:
                term *= column
            out += term
        return out

    def max_coeff_difference(self, other: "MultiPoly") -> float:
        self._check(other)
        keys = set(self._terms) | set(other._terms)
        return max(
            (abs(self._terms.get(e, 0.0) - other._terms.get(e, 0.0)) for e in keys),
            default=0.0,
        )


def _field_component(v: AffineField, j: int) -> MultiPoly:
    """Row j of an affine field as a degree-1 polynomial."""
    n = v.dimension
    terms: dict[Exponents, float] = {}
    for k in range(n):
        if v.matrix[j, k] != 0.0:
            e = [0] * n
            e[k] = 1
            terms[tuple(e)] = float(v.matrix[j, k])
    if v.offset[j] != 0.0:
        terms[(0,) * n] = float(v.offset[j])
    return MultiPoly(n, terms, _trusted=True)


def lie_derivative(v: AffineField, f: MultiPoly) -> MultiPoly:
    """(Vf)(x) = sum_j V^j(x) df/dx_j, expanded symbolically."""
    if not isinstance(v, AffineField):
        raise TypeError("lie_derivative requires an affine field")
    if v.dimension != f.n_vars:
        raise ValueError(
            f"field on R^{v.dimension}, polynomial in {f.n_vars} variables"
        )
    out = MultiPoly(f.n_vars, {}, _trusted=True)
    for j in range(f.n_vars):
        pj = f.partial(j)
        if len(pj):
            out = out + _field_component(v, j) * pj
    return out


def _require_affine(sys: VectorFieldSystem):
    if not sys.is_affine:
        raise TypeError("operator calculus is exact only for affine systems")


def word_operator(word: tuple[int, ...], sys: VectorFieldSystem,
                  f: MultiPoly) -> MultiPoly:
    """V_{w_1} V_{w_2} ... V_{w_k} f with the rightmost factor acting first.

    This is ordinary operator composition; it is the convention under which
    the signature-weighted sum of word operators reproduces f along the flow
    (segment exponentials multiply in run order on the left of the word).
    """
    _require_affine(sys)
    g = f
    for letter in reversed(word):
        if letter < 0 or letter > sys.n_controls:
            raise ValueError(f"letter {letter} outside 0..{sys.n_controls}")
        g = lie_derivative(sys.fields[letter], g)
    return g


def taylor_operator(w: GradedTensor, sys: VectorFieldSystem,
                    f: MultiPoly) -> MultiPoly:
    """sum_words coeff(word) * (word operator applied to f), exact."""
    _require_affine(sys)
    if w.dimension != sys.n_controls:
        raise ValueError(
            f"tensor over {w.dimension} space letters, system has {sys.n_controls}"
        )
    out = MultiPoly(f.n_vars, {}, _trusted=True)
    for word, c in w.sorted_items():
        out = out + word_operator(word, sys, f).scale(c)
    return out


def flow_tensor_gap(w: LiePolynomial, sys: VectorFieldSystem, f: MultiPoly,
                    x, s: float) -> float:
    """|f(Exp[G(<sqrt(s), w>)](x)) - (truncated-exponential operator of w)f(x)|.

    The tensor side expands exp of the dilated element at w's own truncation
    and pushes it through the word operators; the flow side is the exact
    affine flow of the corresponding field. The gap is the genuine remainder
    of the truncated operator approximation.
    """
    _require_affine(sys)
    _check_positive(s, "gap")
    u = w.dilate(math.sqrt(s))
    tensor_side = taylor_operator(exp(u.tensor), sys, f)(x)
    y = affine_flow_exact(gamma_field(u, sys), 1.0, np.asarray(x, dtype=float))
    return abs(float(f(y)) - tensor_side)


def remainder_box_bound(w: LiePolynomial, sys: VectorFieldSystem, f: MultiPoly,
                        s: float, box: float = 2.0,
                        grid_points: int = 21) -> float:
    """Grid maximum over [-box, box]^N of the operator applied tail.

    Expands exp of the dilated element in the doubled truncation, keeps the
    part between the original truncation and its double, pushes it through
    the word operators, and maximizes the absolute value on a uniform grid.
    The flow-vs-tensor gap is controlled by this quantity plus terms beyond
    the doubled truncation, so for small s it bounds the gap observed at
    points inside the box.
    """
    _require_affine(sys)
    _check_positive(s, "gap")
    m = w.truncation
    u2 = w.tensor.with_truncation(2 * m).dilate(math.sqrt(s))
    tail = exp(u2)
    tail = tail - tail.project(m)
    poly = taylor_operator(tail, sys, f)
    axes = np.meshgrid(*[np.linspace(-box, box, grid_points)] * f.n_vars,
                       indexing="ij")
    grid = np.stack(axes, axis=-1).reshape(-1, f.n_vars)
    return float(np.max(np.abs(poly(grid)), initial=0.0))
