"""Lie elements inside the truncated tensor algebra.

A Lie polynomial is a tensor generated by iterated brackets of the letters.
Membership is certified with the classical criterion: on words of length k,
the right-nested bracketing map acts as multiplication by k exactly on Lie
elements. The check is levelwise in word length (bracketing permutes the
letters of a word, so it also preserves graded degree).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .tensor_algebra import (
    EMPTY_WORD,
    AlgebraError,
    GradedTensor,
    Word,
    exp,
    log,
    mul,
)

DYNKIN_TOL = 1e-10


class NotLieElement(AlgebraError):
    """Raised when a tensor fails the bracketing certificate."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


def bracket(a: GradedTensor, b: GradedTensor) -> GradedTensor:
    return mul(a, b) - mul(b, a)


@lru_cache(maxsize=200_000)
def _right_nested_bracket(word: Word) -> tuple[tuple[Word, int], ...]:
    """Expansion of [e_{w1}, [e_{w2}, [..., e_{wk}]]] in the word basis."""
    if len(word) == 1:
        return ((word, 1),)
    head = word[:1]
    out: dict[Word, int] = {}
    for w, c in _right_nested_bracket(word[1:]):
        left = head + w
        out[left] = out.get(left, 0) + c
        right = w + head
        out[right] = out.get(right, 0) - c
    return tuple(sorted(out.items()))


def dynkin_map(a: GradedTensor) -> GradedTensor:
    """Apply the right-nested bracketing map word by word.

    Sends a word (w1,...,wk) to [e_{w1},[e_{w2},[...,e_{wk}]]]; extended
    linearly. Lie elements are exactly the fixed points of dynkin_map(a)/k
    on each word-length level.
    """
    out: dict[Word, float] = {}
    for w, c in a.items():
        if not w:
            raise AlgebraError("bracketing map undefined on the empty word")
        for ww, mult in _right_nested_bracket(w):
            s = out.get(ww, 0.0) + c * mult
            if s == 0.0:
                out.pop(ww, None)
            else:
                out[ww] = s
    return GradedTensor(a.dimension, a.truncation, out, _trusted=True)


def dynkin_defect(a: GradedTensor) -> float:
    """Worst coefficient of dynkin_map(level_k) - k * level_k over all levels."""
    worst = abs(a.coeff(EMPTY_WORD))
    lengths = sorted({len(w) for w, _ in a.items() if w})
    for k in lengths:
        part = a.level(k)
        d = dynkin_map(part) - part.scale(float(k))
        for _, c in d.items():
            worst = max(worst, abs(c))
    return worst


def is_lie_element(a: GradedTensor, tol: float = DYNKIN_TOL) -> bool:
    return dynkin_defect(a) <= tol


# the classical name for the same check
dynkin_is_lie = is_lie_element


@dataclass(frozen=True)
class LiePolynomial:
    """A tensor together with a bracketing certificate.

    Build instances through `certify` (or `bch`); the flag records that the
    wrapped tensor passed the levelwise check at construction time.
    """

    tensor: GradedTensor
    certified: bool = False

    @property
    def dimension(self) -> int:
        return self.tensor.dimension

    @property
    def truncation(self) -> int:
        return self.tensor.truncation

    def dilate(self, scalar: float) -> "LiePolynomial":
        # graded scaling maps brackets to brackets, so the certificate survives
        return LiePolynomial(self.tensor.dilate(scalar), self.certified)

    def to_dict(self) -> dict:
        return self.tensor.to_dict()


def certify(a: GradedTensor | LiePolynomial, tol: float = DYNKIN_TOL) -> LiePolynomial:
    """Check the bracketing criterion and wrap the tensor on success."""
    if isinstance(a, LiePolynomial):
        if a.certified:
            return a
        a = a.tensor
    if a.coeff(EMPTY_WORD) != 0.0:
        raise NotLieElement(
            f"nonzero constant term {a.coeff(EMPTY_WORD)!r}", abs(a.coeff(EMPTY_WORD))
        )
    defect = dynkin_defect(a)
    if defect > tol:
        raise NotLieElement(
            f"bracketing certificate failed: defect {defect:.3e} > tol {tol:.1e}",
            defect,
        )
    return LiePolynomial(a, certified=True)


def bch(
    a: GradedTensor | LiePolynomial,
    b: GradedTensor | LiePolynomial,
    tol: float = DYNKIN_TOL,
) -> LiePolynomial:
    """Truncated Baker-Campbell-Hausdorff combination log(exp(a) exp(b)).

    The certificate tolerance is tol times the largest coefficient of
    exp(a) exp(b) (at least 1): the log's rounding grows with that size.
    """
    ta = a.tensor if isinstance(a, LiePolynomial) else a
    tb = b.tensor if isinstance(b, LiePolynomial) else b
    prod = mul(exp(ta), exp(tb))
    scale = max([1.0] + [abs(c) for _, c in prod.items()])
    return certify(log(prod), tol * scale)
