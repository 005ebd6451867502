"""Lie elements inside the truncated tensor algebra.

A Lie polynomial is a tensor generated by iterated brackets of the letters.
Membership is checked with the classical criterion: on words of length k,
the right-nested bracketing map acts as multiplication by k exactly on Lie
elements. Bracketing permutes the letters of a word, so it keeps word length
and graded degree: the map is one cached sparse table over the word basis of
each (dimension, truncation), and one pass checks every length at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor_algebra import (
    EMPTY_WORD,
    AlgebraError,
    GradedTensor,
    Word,
    _check_tensor,
    exp,
    log,
    mul,
    word_program,
)

DYNKIN_TOL = 1e-10


class NotLieElement(AlgebraError):
    """Raised when a tensor fails the bracketing certificate."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


def bracket(a: GradedTensor, b: GradedTensor) -> GradedTensor:
    return mul(a, b) - mul(b, a)


@lru_cache(maxsize=32)
def _dynkin_table(dimension: int, truncation: int) -> tuple[np.ndarray, ...]:
    """(src, dst, mult): word src maps to sum of mult * word dst under the
    right-nested bracketing [e_{w1}, [e_{w2}, [..., e_{wk}]]].

    Indices are into `word_program(dimension, truncation).words`, whose order
    lists a word's tail w2...wk before the word itself.
    """
    program = word_program(dimension, truncation)
    expansions: dict[Word, dict[Word, int]] = {}
    table: list[tuple[int, int, int]] = []
    for i, w in enumerate(program.words[1:], start=1):
        out = {w: 1} if len(w) == 1 else {}
        for u, c in expansions.get(w[1:], {}).items():
            out[w[:1] + u] = out.get(w[:1] + u, 0) + c
            out[u + w[:1]] = out.get(u + w[:1], 0) - c
        expansions[w] = out
        table += [(i, program.index[u], c) for u, c in sorted(out.items()) if c]
    src, dst, mult = np.array(table, dtype=np.intp).reshape(-1, 3).T.copy()
    return src, dst, mult.astype(float)


def _bracketed(a: GradedTensor) -> np.ndarray:
    src, dst, mult = _dynkin_table(a.dimension, a.truncation)
    return np.bincount(dst, a._v[src] * mult, minlength=len(a._v))


def dynkin_defect(a: GradedTensor) -> float:
    """Worst coefficient of b(level_k) - k * level_k over all levels, or of
    the empty word; b sends a word (w1, ..., wk) to [e_{w1}, [..., e_{wk}]].

    Bracketing keeps word length, so this is one pass: the largest entry of
    |b(a) - length * a|. A NaN or inf coefficient makes the defect NaN or
    inf, never a finite number.
    """
    _check_tensor(a)
    r = np.abs(_bracketed(a) - a._program.lengths * a._v)
    r[0] = abs(a._v[0])
    return float(np.max(r))


@dataclass(frozen=True)
class LiePolynomial:
    """A tensor that passed the bracketing certificate: LiePolynomial(t) checks
    t as certify(t) does and raises NotLieElement if it fails. certify (at its
    own tolerance) and dilate skip the check through _trusted."""

    tensor: GradedTensor

    def __post_init__(self):
        _check_lie(self.tensor, DYNKIN_TOL)

    @classmethod
    def _trusted(cls, tensor: GradedTensor) -> "LiePolynomial":
        poly = object.__new__(cls)
        object.__setattr__(poly, "tensor", tensor)
        return poly

    @property
    def dimension(self) -> int:
        return self.tensor.dimension

    @property
    def truncation(self) -> int:
        return self.tensor.truncation

    def dilate(self, scalar: float) -> "LiePolynomial":
        # graded scaling maps brackets to brackets, so the certificate survives
        return LiePolynomial._trusted(self.tensor.dilate(scalar))

    def to_dict(self) -> dict:
        return self.tensor.to_dict()


def _check_lie(a: GradedTensor, tol: float) -> None:
    """The bracketing certificate at tol; the error names a NaN or inf's word."""
    _check_tensor(a)
    if not np.isfinite(a._v).all():
        w, c = next((w, c) for w, c in a.items() if not np.isfinite(c))
        raise NotLieElement(f"non-finite coefficient {c!r} on word {w!r}", abs(c))
    if a.coeff(EMPTY_WORD) != 0.0:
        raise NotLieElement(
            f"nonzero constant term {a.coeff(EMPTY_WORD)!r}", abs(a.coeff(EMPTY_WORD))
        )
    defect = dynkin_defect(a)
    if not defect <= tol:
        raise NotLieElement(
            f"bracketing certificate failed: defect {defect:.3e} > tol {tol:.1e}",
            defect,
        )


def certify(a: GradedTensor | LiePolynomial, tol: float = DYNKIN_TOL) -> LiePolynomial:
    """Check the bracketing criterion at tol and wrap the tensor on success;
    a LiePolynomial passed the check when built and comes back as it is."""
    if isinstance(a, LiePolynomial):
        return a
    _check_lie(a, tol)
    return LiePolynomial._trusted(a)


def bch(a: GradedTensor | LiePolynomial, b: GradedTensor | LiePolynomial) -> LiePolynomial:
    """Truncated Baker-Campbell-Hausdorff combination log(exp(a) exp(b)).

    The certificate tolerance is DYNKIN_TOL times the largest coefficient of
    exp(a) exp(b) (at least 1): the log's rounding grows with that size.
    """
    ta = a.tensor if isinstance(a, LiePolynomial) else a
    tb = b.tensor if isinstance(b, LiePolynomial) else b
    prod = mul(exp(ta), exp(tb))
    scale = max(1.0, float(np.max(np.abs(prod._v))))
    return certify(log(prod), DYNKIN_TOL * scale)
