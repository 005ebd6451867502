"""Truncated tensor algebra over the extended alphabet {0, 1, ..., d}.

Letter 0 is the time direction, letters 1..d index the driving Brownian
coordinates. A word is a tuple of letters. Its graded degree counts ordinary
letters once and the letter 0 twice, so that a word scales like its
Brownian order: dB ~ sqrt(dt) contributes 1, dt contributes 2.

Elements are stored sparsely as word -> coefficient maps and truncated at a
fixed graded degree. Products drop every word whose graded degree exceeds
the truncation, which makes projection compatible with multiplication:
project(m, a*b) == project(m, project(m,a) * project(m,b)). `mul` visits
only the pairs of words that survive this cut-off, and its result is
bit-identical to the all-pairs product.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


class AlgebraError(ValueError):
    """Structural mismatch or domain violation in tensor algebra operations."""


def graded_degree(word: Word) -> int:
    """Length of the word plus the number of occurrences of the letter 0."""
    return len(word) + word.count(0)


def check_word(word: Word, dimension: int) -> None:
    for a in word:
        if not (0 <= a <= dimension):
            raise AlgebraError(
                f"letter {a} outside alphabet 0..{dimension} in word {word!r}"
            )


def all_words(dimension: int, max_degree: int) -> list[Word]:
    """Every word of graded degree <= max_degree, in (degree, length, lex) order."""
    out: list[Word] = [EMPTY_WORD]
    frontier: list[Word] = [EMPTY_WORD]
    while frontier:
        new: list[Word] = []
        for w in frontier:
            for a in range(dimension + 1):
                ww = w + (a,)
                if graded_degree(ww) <= max_degree:
                    new.append(ww)
        out.extend(new)
        frontier = new
    out.sort(key=lambda w: (graded_degree(w), len(w), w))
    return out


class GradedTensor:
    """Sparse element of the graded-truncated tensor algebra.

    Instances are treated as immutable: every operation returns a new tensor.
    Two tensors are compatible when they share `dimension` and `truncation`.
    """

    __slots__ = ("dimension", "truncation", "_coeffs")

    def __init__(
        self,
        dimension: int,
        truncation: int,
        coeffs: dict[Word, float] | None = None,
        _trusted: bool = False,
    ):
        if dimension < 1:
            raise AlgebraError(f"dimension must be >= 1, got {dimension}")
        if truncation < 0:
            raise AlgebraError(f"truncation must be >= 0, got {truncation}")
        self.dimension = dimension
        self.truncation = truncation
        if coeffs is None:
            coeffs = {}
        if not _trusted:
            cleaned: dict[Word, float] = {}
            for w, c in coeffs.items():
                w = tuple(w)
                check_word(w, dimension)
                if graded_degree(w) > truncation:
                    raise AlgebraError(
                        f"word {w!r} has graded degree {graded_degree(w)} "
                        f"> truncation {truncation}"
                    )
                c = float(c)
                if c != 0.0:
                    cleaned[w] = c
            coeffs = cleaned
        self._coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int, truncation: int) -> "GradedTensor":
        return cls(dimension, truncation, {}, _trusted=True)

    @classmethod
    def unit(cls, dimension: int, truncation: int) -> "GradedTensor":
        return cls(dimension, truncation, {EMPTY_WORD: 1.0}, _trusted=True)

    @classmethod
    def basis(
        cls, dimension: int, truncation: int, word: Iterable[int], coeff: float = 1.0
    ) -> "GradedTensor":
        return cls(dimension, truncation, {tuple(word): float(coeff)})

    # -- access ------------------------------------------------------------

    def coeff(self, word: Iterable[int]) -> float:
        return self._coeffs.get(tuple(word), 0.0)

    def items(self) -> Iterator[tuple[Word, float]]:
        return iter(self._coeffs.items())

    def sorted_items(self) -> list[tuple[Word, float]]:
        return sorted(
            self._coeffs.items(), key=lambda t: (graded_degree(t[0]), len(t[0]), t[0])
        )

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(
            f"{w}: {c:.6g}" for w, c in self.sorted_items()[:6]
        )
        tail = ", ..." if len(self._coeffs) > 6 else ""
        return (
            f"GradedTensor(d={self.dimension}, m={self.truncation}, "
            f"{{{head}{tail}}})"
        )

    # -- structure checks --------------------------------------------------

    def _check_compat(self, other: "GradedTensor") -> None:
        if not isinstance(other, GradedTensor):
            raise AlgebraError(f"expected GradedTensor, got {type(other).__name__}")
        if self.dimension != other.dimension:
            raise AlgebraError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        if self.truncation != other.truncation:
            raise AlgebraError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def equals(self, other: "GradedTensor", tol: float = 1e-12) -> bool:
        self._check_compat(other)
        for w in self._coeffs.keys() | other._coeffs.keys():
            if abs(self._coeffs.get(w, 0.0) - other._coeffs.get(w, 0.0)) > tol:
                return False
        return True

    def max_coeff_difference(self, other: "GradedTensor") -> float:
        self._check_compat(other)
        words = self._coeffs.keys() | other._coeffs.keys()
        if not words:
            return 0.0
        return max(
            abs(self._coeffs.get(w, 0.0) - other._coeffs.get(w, 0.0)) for w in words
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedTensor):
            return NotImplemented
        return self.equals(other)

    __hash__ = None  # type: ignore[assignment]

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        self._check_compat(other)
        out = dict(self._coeffs)
        for w, c in other._coeffs.items():
            s = out.get(w, 0.0) + c
            if s == 0.0:
                out.pop(w, None)
            else:
                out[w] = s
        return GradedTensor(self.dimension, self.truncation, out, _trusted=True)

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        self._check_compat(other)
        out = dict(self._coeffs)
        for w, c in other._coeffs.items():
            s = out.get(w, 0.0) - c
            if s == 0.0:
                out.pop(w, None)
            else:
                out[w] = s
        return GradedTensor(self.dimension, self.truncation, out, _trusted=True)

    def __neg__(self) -> "GradedTensor":
        return self.scale(-1.0)

    def scale(self, scalar: float) -> "GradedTensor":
        scalar = float(scalar)
        if scalar == 0.0:
            return GradedTensor.zero(self.dimension, self.truncation)
        out = {w: c * scalar for w, c in self._coeffs.items()}
        return GradedTensor(self.dimension, self.truncation, out, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, GradedTensor):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, scalar: float) -> "GradedTensor":
        return self.scale(scalar)

    def __truediv__(self, scalar: float) -> "GradedTensor":
        return self.scale(1.0 / float(scalar))

    # -- graded operations ---------------------------------------------------

    def project(self, degree: int) -> "GradedTensor":
        """Zero out every word of graded degree > degree; truncation unchanged."""
        if degree < 0:
            raise AlgebraError(f"projection degree must be >= 0, got {degree}")
        out = {w: c for w, c in self._coeffs.items() if graded_degree(w) <= degree}
        return GradedTensor(self.dimension, self.truncation, out, _trusted=True)

    def with_truncation(self, truncation: int) -> "GradedTensor":
        """Re-truncate: drop words beyond a lower cap, or lift into a higher one."""
        if truncation == self.truncation:
            return self
        out = {
            w: c for w, c in self._coeffs.items() if graded_degree(w) <= truncation
        }
        return GradedTensor(self.dimension, truncation, out, _trusted=True)

    def level(self, length: int) -> "GradedTensor":
        """The part supported on words of exactly the given length."""
        out = {w: c for w, c in self._coeffs.items() if len(w) == length}
        return GradedTensor(self.dimension, self.truncation, out, _trusted=True)

    def dilate(self, scalar: float) -> "GradedTensor":
        """Scale each word by scalar**graded_degree(word).

        With scalar = sqrt(s) this is the Brownian scaling of signatures from
        horizon 1 to horizon s: dB picks up sqrt(s), dt picks up s.
        """
        lam = float(scalar)
        out: dict[Word, float] = {}
        for w, c in self._coeffs.items():
            v = c * lam ** graded_degree(w)
            if v != 0.0:
                out[w] = v
        return GradedTensor(self.dimension, self.truncation, out, _trusted=True)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "truncation": self.truncation,
            "terms": [
                {"word": list(w), "coeff": c} for w, c in self.sorted_items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradedTensor":
        try:
            dimension = int(data["dimension"])
            truncation = int(data["truncation"])
            terms = data["terms"]
        except (KeyError, TypeError) as exc:
            raise AlgebraError(f"malformed tensor record: {exc}") from exc
        coeffs: dict[Word, float] = {}
        for i, term in enumerate(terms):
            try:
                w = tuple(int(a) for a in term["word"])
                c = float(term["coeff"])
            except (KeyError, TypeError, ValueError) as exc:
                raise AlgebraError(f"malformed tensor term at index {i}: {exc}") from exc
            coeffs[w] = coeffs.get(w, 0.0) + c
        return cls(dimension, truncation, coeffs)


# -- module-level operations ---------------------------------------------


def mul(a: GradedTensor, b: GradedTensor) -> GradedTensor:
    """Truncated concatenation product.

    Only pairs (u, v) with graded_degree(u) + graded_degree(v) <= truncation
    are visited: `fits[r]` holds the terms of b of graded degree <= r, in b's
    own order, and each word u of a runs over fits[m - deg(u)]. For a fixed
    u every v gives a distinct u + v, so each output word receives its sums
    in the same order as the all-pairs loop, and the result, key order
    included, is bit-identical to it.
    """
    a._check_compat(b)
    m = a.truncation
    out: dict[Word, float] = {}
    bitems = [(v, graded_degree(v), cv) for v, cv in b._coeffs.items()]
    fits = [[(v, cv) for v, gv, cv in bitems if gv <= r] for r in range(m + 1)]
    for u, cu in a._coeffs.items():
        for v, cv in fits[m - graded_degree(u)]:
            w = u + v
            out[w] = out.get(w, 0.0) + cu * cv
    return GradedTensor(a.dimension, m, {w: c for w, c in out.items() if c != 0.0},
                        _trusted=True)


def project(a: GradedTensor, degree: int) -> GradedTensor:
    return a.project(degree)


def dilate(a: GradedTensor, scalar: float) -> GradedTensor:
    return a.dilate(scalar)


def exp(a: GradedTensor) -> GradedTensor:
    """Truncated exponential; requires zero coefficient on the empty word.

    The series terminates: a term of the sum with k factors has graded degree
    at least k, so powers beyond the truncation vanish.
    """
    if a.coeff(EMPTY_WORD) != 0.0:
        raise AlgebraError("exp requires zero constant term")
    result = GradedTensor.unit(a.dimension, a.truncation)
    term = GradedTensor.unit(a.dimension, a.truncation)
    for k in range(1, a.truncation + 1):
        term = mul(term, a).scale(1.0 / k)
        if not term._coeffs:
            break
        result = result + term
    return result


def log(g: GradedTensor) -> GradedTensor:
    """Truncated logarithm; requires unit coefficient on the empty word."""
    if g.coeff(EMPTY_WORD) != 1.0:
        raise AlgebraError("log requires unit constant term")
    x = g - GradedTensor.unit(g.dimension, g.truncation)
    result = GradedTensor.zero(g.dimension, g.truncation)
    term = GradedTensor.unit(g.dimension, g.truncation)
    for k in range(1, g.truncation + 1):
        term = mul(term, x)
        if not term._coeffs:
            break
        result = result + term.scale(((-1.0) ** (k + 1)) / k)
    return result


def inner(a: GradedTensor, b: GradedTensor) -> float:
    """Euclidean pairing of coefficient vectors in the word basis."""
    a._check_compat(b)
    small, big = (a._coeffs, b._coeffs) if len(a) <= len(b) else (b._coeffs, a._coeffs)
    return math.fsum(c * big[w] for w, c in small.items() if w in big)


def norm2(a: GradedTensor) -> float:
    return math.sqrt(math.fsum(c * c for c in a._coeffs.values()))


@lru_cache(maxsize=200_000)
def _shuffle_cached(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[Word, int] = {}
    for w, c in _shuffle_cached(u[:-1], v):
        ww = w + (u[-1],)
        out[ww] = out.get(ww, 0) + c
    for w, c in _shuffle_cached(u, v[:-1]):
        ww = w + (v[-1],)
        out[ww] = out.get(ww, 0) + c
    return tuple(sorted(out.items()))


def shuffle(u: Iterable[int], v: Iterable[int]) -> dict[Word, int]:
    """Shuffle product of two words, as a word -> multiplicity map."""
    return dict(_shuffle_cached(tuple(u), tuple(v)))
