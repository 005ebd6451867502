"""Exact polynomial calculus for affine differential operators.

Affine fields keep the degree of a polynomial, so on the monomials of one
cached `MonomialProgram` each field is a matrix and word and
truncated-exponential operators are its products and sums, with no
truncation error. This is the independent oracle for flow-based
computations: any disagreement is attributable to ODE integration or to a
genuine remainder term, never to the operator side.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .tensor_algebra import GradedTensor, _check_count, _is_real, check_word, exp
from .lie_structures import LiePolynomial
from .path_signature import _check_positive
from .vector_fields import (AffineField, VectorFieldSystem, _check_controls,
                            affine_flow_exact, gamma_field)

Exponents = tuple[int, ...]


class MultiPoly:
    """Polynomial in n_vars real variables, stored as exponent -> coefficient.

    Built from a term dict whose exponents are nonnegative integers (4.0 is
    4; 1.5 and a bool are refused) and whose coefficients are finite
    numbers (_is_real). It has no arithmetic: the operators below act on
    its coefficient vector.
    """

    __slots__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: dict[Exponents, float] | None = None):
        _check_count(n_vars, "n_vars")
        self.n_vars = n_vars
        self._terms: dict[Exponents, float] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n_vars or not all(_is_real(e) and math.isfinite(e) and
                                              e == int(e) >= 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n_vars} variables")
            exps = tuple(int(e) for e in exps)
            if not (_is_real(c) and math.isfinite(c)):
                raise ValueError(f"coefficient of {exps} is not finite or not a number: {c!r}")
            if c != 0.0:
                self._terms[exps] = float(c)

    @classmethod
    def coordinate(cls, n_vars: int, j: int) -> "MultiPoly":
        if not 0 <= j < n_vars:
            raise ValueError(f"coordinate {j} out of range for {n_vars} variables")
        return cls(n_vars, {tuple(int(i == j) for i in range(n_vars)): 1.0})

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

    def __call__(self, x):
        """Value at a point (N,), as a float, or at each row of a block
        (P, N), as a (P,) array; a point is a one-row block.

        Each row is summed term by term in storage order, each term a product
        of contiguous columns (x.T, copied unless contiguous), so its value is
        the same for every block size and layout.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_vars:
            raise ValueError(
                f"expected point of shape ({self.n_vars},) or block of shape "
                f"(P, {self.n_vars}), got {x.shape}"
            )
        values = self._eval_block(x.reshape(-1, self.n_vars))
        return values if x.ndim == 2 else float(values[0])

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
        if self.n_vars != other.n_vars:
            raise ValueError(f"variable count mismatch: {self.n_vars} vs {other.n_vars}")
        keys = set(self._terms) | set(other._terms)
        return max((abs(self.coeff(e) - other.coeff(e)) for e in keys), default=0.0)


class MonomialProgram:
    """The D = C(n_vars + p, p) monomials of degree <= p in (degree, lex)
    order, their `index`, and (D, D) matrices on coefficient vectors:
    `shift[i]` multiplies by x_i and drops what reaches degree p + 1,
    `partial[i]` is d/dx_i."""

    def __init__(self, n_vars: int, degree: int):
        self.n_vars, self.degree = n_vars, degree
        self.monomials = sorted((e for e in product(range(degree + 1), repeat=n_vars)
                                 if sum(e) <= degree), key=lambda e: (sum(e), e))
        self.index = {e: k for k, e in enumerate(self.monomials)}
        self.shift, self.partial = np.zeros((2, n_vars, len(self.index), len(self.index)))
        for k, e in enumerate(self.monomials):
            for i in range(n_vars):
                if sum(e) < degree:
                    self.shift[i, self.index[e[:i] + (e[i] + 1,) + e[i + 1:]], k] = 1.0
                if e[i]:
                    self.partial[i, self.index[e[:i] + (e[i] - 1,) + e[i + 1:]], k] = e[i]

    def field(self, v: AffineField) -> np.ndarray:
        """The matrix of f -> sum_j V^j df/dx_j for V^j(x) = sum_i M_ji x_i + c_j:
        sum_j (sum_i M_ji shift[i] + c_j I) @ partial[j]."""
        if v.dimension != self.n_vars:
            raise ValueError(f"field on R^{v.dimension}, polynomial in {self.n_vars} variables")
        lift = (np.tensordot(v.matrix, self.shift, 1)
                + v.offset[:, None, None] * np.eye(len(self.index)))
        return (lift @ self.partial).sum(axis=0)

    def vector(self, f: MultiPoly) -> np.ndarray:
        out = np.zeros(len(self.index))
        for e, c in f.items():
            out[self.index[e]] = c
        return out

    def poly(self, vector: np.ndarray) -> MultiPoly:
        return MultiPoly(self.n_vars, {e: c for e, c in zip(self.monomials, vector.tolist())
                                       if c != 0.0})


# the one shared program of each (n_vars, degree)
monomial_program = lru_cache(maxsize=64)(MonomialProgram)


def _field_matrices(sys: VectorFieldSystem, f: MultiPoly):
    """The program of f and the matrix of each field of an affine system."""
    if not sys.is_affine:
        raise TypeError("operator calculus is exact only for affine systems")
    program = monomial_program(f.n_vars, f.degree)
    return program, [program.field(v) for v in sys.fields]


def lie_derivative(v: AffineField, f: MultiPoly) -> MultiPoly:
    """(Vf)(x) = sum_j V^j(x) df/dx_j: the field's matrix times f's vector."""
    if not isinstance(v, AffineField):
        raise TypeError("lie_derivative requires an affine field")
    program = monomial_program(f.n_vars, f.degree)
    return program.poly(program.field(v) @ program.vector(f))


def word_operator(word: tuple[int, ...], sys: VectorFieldSystem,
                  f: MultiPoly) -> MultiPoly:
    """V_{w_1} V_{w_2} ... V_{w_k} f with the rightmost factor acting first:
    the letters' matrices applied to f's vector from right to left.

    This is ordinary operator composition; it is the convention under which
    the signature-weighted sum of word operators reproduces f along the flow
    (segment exponentials multiply in run order on the left of the word).
    """
    check_word(word, sys.n_controls)
    program, matrices = _field_matrices(sys, f)
    g = program.vector(f)
    for letter in reversed(word):
        g = matrices[letter] @ g
    return program.poly(g)


def taylor_operator(w: GradedTensor, sys: VectorFieldSystem,
                    f: MultiPoly) -> MultiPoly:
    """sum_words coeff(word) * (word operator applied to f), exact.

    Each word's vector is its first letter's matrix times the vector of its
    tail w[1:], which the word basis lists before w. The sum runs over the
    words in basis order: a reduction over axis 0 adds one row at a time."""
    program, matrices = _field_matrices(sys, f)
    _check_controls(w.dimension, sys, "tensor")
    words, index = w._program.words, w._program.index
    vectors = np.empty((len(words), len(program.index)))
    vectors[0] = program.vector(f)
    for k, word in enumerate(words[1:], 1):
        vectors[k] = matrices[word[0]] @ vectors[index[word[1:]]]
    return program.poly((w._v[:, None] * vectors).sum(axis=0))


def flow_tensor_gap(w: LiePolynomial, sys: VectorFieldSystem, f: MultiPoly,
                    x, s: float) -> float:
    """|f(Exp[G(<sqrt(s), w>)](x)) - (truncated-exponential operator of w)f(x)|.

    The tensor side expands exp of the dilated element at w's own truncation
    and pushes it through the word operators; the flow side is the exact
    affine flow of the corresponding field. The gap is the genuine remainder
    of the truncated operator approximation.
    """
    _check_positive(s, "gap")
    u = w.dilate(math.sqrt(s))
    tensor_side = taylor_operator(exp(u.tensor), sys, f)(x)
    y = affine_flow_exact(gamma_field(u, sys), 1.0, np.asarray(x, dtype=float))
    return abs(float(f(y)) - tensor_side)


# remainder_box_bound's box [-_BOX, _BOX]^N and its grid points per axis
_BOX, _GRID_POINTS = 2.0, 21


def remainder_box_bound(w: LiePolynomial, sys: VectorFieldSystem, f: MultiPoly,
                        s: float) -> float:
    """Grid maximum of the operator applied tail over the box [-2, 2]^N,
    21 points per axis.

    Expands exp of the dilated element in the doubled truncation, keeps the
    part between the original truncation and its double, pushes it through
    the word operators, and maximizes the absolute value on a uniform grid.
    The flow-vs-tensor gap is controlled by this quantity plus terms beyond
    the doubled truncation, so for small s it bounds the gap observed at
    points inside the box.
    """
    _check_positive(s, "gap")
    m = w.truncation
    u2 = w.tensor.with_truncation(2 * m).dilate(math.sqrt(s))
    tail = exp(u2)
    tail = tail - tail.project(m)
    poly = taylor_operator(tail, sys, f)
    axes = np.meshgrid(*[np.linspace(-_BOX, _BOX, _GRID_POINTS)] * f.n_vars,
                       indexing="ij")
    grid = np.stack(axes, axis=-1).reshape(-1, f.n_vars)
    return float(np.max(np.abs(poly(grid)), initial=0.0))
