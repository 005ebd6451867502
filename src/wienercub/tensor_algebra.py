"""Truncated tensor algebra over the extended alphabet {0, 1, ..., d}.

Letter 0 is the time direction, letters 1..d index the driving Brownian
coordinates. A word is a tuple of letters. Its graded degree counts ordinary
letters once and the letter 0 twice, so that a word scales like its
Brownian order: dB ~ sqrt(dt) contributes 1, dt contributes 2.

Elements are truncated at a fixed graded degree m and stored densely: one
float64 vector over `all_words(d, m)`, whose (degree, length, lex) order
puts the words of degree <= m' < m first. One cached `WordProgram` per
(d, m) holds that basis and the pair table of the product, so every
operation is an array kernel. Products drop every word whose graded degree
exceeds the truncation, which makes projection compatible with
multiplication: project(m, a*b) == project(m, project(m,a) * project(m,b)).

Non-finite coefficients: the kernels multiply zero entries too, so an inf
coefficient times a word that is absent (zero) gives NaN, where a sparse
product would have skipped the pair.
"""
from __future__ import annotations

import numbers
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


class AlgebraError(ValueError):
    """Structural mismatch or domain violation in tensor algebra operations."""


def _check_count(value, name: str, minimum: int = 1) -> None:
    """The count rule: `value` is an integer (a numpy integer too, never a
    bool) of at least `minimum`. Raises AlgebraError, a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise AlgebraError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _is_real(value) -> bool:
    """The number rule: value is an int or float (a numpy one too), never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def graded_degree(word: Word) -> int:
    """Length of the word plus the number of occurrences of the letter 0."""
    return len(word) + word.count(0)


def check_word(word: Word, dimension: int) -> None:
    """The letter rule: every letter of `word` is an integer in 0..dimension."""
    for a in word:
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)) or not 0 <= a <= dimension:
            raise AlgebraError(f"letter {a!r} outside alphabet 0..{dimension} in word {word!r}")


def all_words(dimension: int, max_degree: int) -> list[Word]:
    """Every word of graded degree <= max_degree, in (degree, length, lex) order."""
    words = [EMPTY_WORD]
    for w in words:  # the list grows while it is read: breadth first
        words += [w + (a,) for a in range(dimension + 1)
                  if graded_degree(w + (a,)) <= max_degree]
    return sorted(words, key=lambda w: (graded_degree(w), len(w), w))


class WordProgram:
    """The word basis of one (dimension, truncation) and its product table.

    `words` is `all_words(dimension, truncation)`, `index` maps a word to its
    position, `degrees` and `lengths` are the graded degree and length of
    each word.
    """

    def __init__(self, dimension: int, truncation: int):
        self.dimension = dimension
        self.truncation = truncation
        self.words = tuple(all_words(dimension, truncation))
        self.index = {w: i for i, w in enumerate(self.words)}
        self.degrees = np.array([graded_degree(w) for w in self.words], dtype=np.intp)
        self.lengths = np.array([len(w) for w in self.words], dtype=np.intp)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(iu, iv, iw) of every pair u v = w with deg u + deg v <= truncation.

        The pairs are u-major in word order, and for each u the words v of
        degree <= truncation - deg u form a prefix of the basis. For a fixed u
        every v gives a distinct w, so each w receives its products in the
        order of a loop over u, then v.
        """
        m, words = self.truncation, self.words
        fits = np.searchsorted(self.degrees, np.arange(m + 1), side="right")
        iu, iv, iw = [], [], []
        for i, u in enumerate(words):
            n = int(fits[m - self.degrees[i]])
            iu += [i] * n
            iv += range(n)
            iw += [self.index[u + v] for v in words[:n]]
        return tuple(np.array(x, dtype=np.intp) for x in (iu, iv, iw))


_cached_program = lru_cache(maxsize=64)(WordProgram)


def word_program(dimension: int, truncation: int) -> WordProgram:
    """The one shared program of each (dimension, truncation). The counts are
    checked before the cache, which would take True for 1."""
    _check_count(dimension, "dimension")
    _check_count(truncation, "truncation", 0)
    return _cached_program(int(dimension), int(truncation))


class GradedTensor:
    """Element of the graded-truncated tensor algebra, one coefficient per
    word of `all_words(dimension, truncation)`.

    Instances are treated as immutable: every operation returns a new tensor.
    Two tensors are compatible when they share `dimension` and `truncation`.
    `items` and `len` see the nonzero coefficients only, in word order.
    """

    __slots__ = ("dimension", "truncation", "_program", "_v")

    def __init__(self, dimension: int, truncation: int, coeffs: dict[Word, float] | None = None):
        program = word_program(dimension, truncation)
        v = np.zeros(len(program.words))
        for w, c in (coeffs or {}).items():
            w = tuple(w)
            check_word(w, dimension)
            if graded_degree(w) > truncation:
                raise AlgebraError(
                    f"word {w!r} has graded degree {graded_degree(w)} "
                    f"> truncation {truncation}"
                )
            if not _is_real(c):
                raise AlgebraError(f"coefficient of word {w!r} must be a number, got {c!r}")
            if c != 0.0:
                v[program.index[w]] = c
        self.dimension, self.truncation = program.dimension, program.truncation
        self._program, self._v = program, v

    @classmethod
    def _of(cls, program: WordProgram, vector: np.ndarray) -> "GradedTensor":
        """Wrap a coefficient vector over `program.words`, without a copy."""
        t = cls.__new__(cls)
        t.dimension, t.truncation = program.dimension, program.truncation
        t._program, t._v = program, vector
        return t

    def _like(self, vector: np.ndarray) -> "GradedTensor":
        return GradedTensor._of(self._program, vector)

    # -- access ------------------------------------------------------------

    def coeff(self, word: Iterable[int]) -> float:
        i = self._program.index.get(tuple(word))
        return 0.0 if i is None else float(self._v[i])

    def items(self) -> Iterator[tuple[Word, float]]:
        words, v = self._program.words, self._v
        return ((words[i], float(v[i])) for i in np.flatnonzero(v).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._v))

    def __repr__(self) -> str:
        terms = list(self.items())
        head = ", ".join(f"{w}: {c:.6g}" for w, c in terms[:6])
        tail = ", ..." if len(terms) > 6 else ""
        return f"GradedTensor(d={self.dimension}, m={self.truncation}, {{{head}{tail}}})"

    # -- structure checks --------------------------------------------------

    def _check_compat(self, other: "GradedTensor") -> None:
        _check_tensor(other)
        if self.dimension != other.dimension:
            raise AlgebraError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        if self.truncation != other.truncation:
            raise AlgebraError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def equals(self, other: "GradedTensor", tol: float = 1e-12) -> bool:
        """Every coefficient equal or within tol; NaN equals nothing."""
        self._check_compat(other)
        a, b = self._v, other._v
        return bool(np.all((a == b) | (np.abs(a - b) <= tol)))

    def max_coeff_difference(self, other: "GradedTensor") -> float:
        """Largest coefficient difference; NaN when any word differs by NaN."""
        self._check_compat(other)
        return float(np.max(np.abs(self._v - other._v)))

    def __eq__(self, other) -> bool:
        """equals, but a tensor of another dimension or truncation is unequal."""
        if not isinstance(other, GradedTensor):
            return NotImplemented
        return (self.dimension == other.dimension and self.truncation == other.truncation
                and self.equals(other))

    __hash__ = None  # type: ignore[assignment]

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        self._check_compat(other)
        return self._like(self._v + other._v)

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        self._check_compat(other)
        return self._like(self._v - other._v)

    def __neg__(self) -> "GradedTensor":
        return self.scale(-1.0)

    def scale(self, scalar: float) -> "GradedTensor":
        if not _is_real(scalar):
            raise AlgebraError(f"scale factor must be a number, got {scalar!r}")
        scalar = float(scalar)
        if scalar == 0.0:
            return GradedTensor(self.dimension, self.truncation)
        return self._like(self._v * scalar)

    # -- graded operations ---------------------------------------------------

    def project(self, degree: int) -> "GradedTensor":
        """Zero out every word of graded degree > degree; truncation unchanged."""
        _check_count(degree, "projection degree", 0)
        return self._like(np.where(self._program.degrees <= degree, self._v, 0.0))

    def with_truncation(self, truncation: int) -> "GradedTensor":
        """Re-truncate: drop words beyond a lower cap, or lift into a higher one.

        The words of a lower cap are a prefix of the basis, so this slices or
        pads the coefficient vector.
        """
        if truncation == self.truncation:
            return self
        program = word_program(self.dimension, truncation)
        v = np.zeros(len(program.words))
        n = min(len(v), len(self._v))
        v[:n] = self._v[:n]
        return GradedTensor._of(program, v)

    def dilate(self, scalar: float) -> "GradedTensor":
        """Scale each word by scalar**graded_degree(word).

        With scalar = sqrt(s) this is the Brownian scaling of signatures from
        horizon 1 to horizon s: dB picks up sqrt(s), dt picks up s.
        """
        if not _is_real(scalar):
            raise AlgebraError(f"dilation factor must be a number, got {scalar!r}")
        lam = float(scalar)
        # powers past the top nonzero degree stay 0, so they cannot overflow
        top = int(self._program.degrees[self._v != 0.0].max(initial=0))
        powers = np.zeros(self.truncation + 1)
        powers[: top + 1] = [lam**k for k in range(top + 1)]
        return self._like(self._v * powers[self._program.degrees])

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "truncation": self.truncation,
            "terms": [{"word": list(w), "coeff": c} for w, c in self.items()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradedTensor":
        """Unpack a to_dict record, whose values the constructor's rules refuse
        unconverted (letter 1.9, coefficient "2"); to_dict gives no word twice."""
        try:
            terms = [(tuple(t["word"]), t["coeff"]) for t in data["terms"]]
            dimension, truncation, coeffs = data["dimension"], data["truncation"], dict(terms)
        except (KeyError, TypeError) as exc:
            raise AlgebraError(f"malformed tensor record: {exc}") from exc
        if len(coeffs) < len(terms):
            words = [w for w, _ in terms]
            repeated = next(w for w in words if words.count(w) > 1)
            raise AlgebraError(f"word {repeated!r} repeated in tensor record")
        return cls(dimension, truncation, coeffs)


# -- module-level operations ---------------------------------------------


def _check_tensor(value) -> None:
    """The type rule of the algebra's operands: value is a GradedTensor."""
    if not isinstance(value, GradedTensor):
        raise AlgebraError(f"expected GradedTensor, got {type(value).__name__}")


def mul(a: GradedTensor, b: GradedTensor) -> GradedTensor:
    """Truncated concatenation product: one bincount over the pair table.

    Each output word sums its products a_u b_v in the table's u-major word
    order, the order of a loop over the terms of a, then of b, with every
    pair past the cut-off skipped.
    """
    _check_tensor(a)
    a._check_compat(b)
    program = a._program
    iu, iv, iw = program.pairs
    return a._like(np.bincount(iw, a._v[iu] * b._v[iv], minlength=len(program.words)))


def exp(a: GradedTensor) -> GradedTensor:
    """Truncated exponential; requires zero coefficient on the empty word.

    The series terminates: a term of the sum with k factors has graded degree
    at least k, so powers beyond the truncation vanish.
    """
    _check_tensor(a)
    if a.coeff(EMPTY_WORD) != 0.0:
        raise AlgebraError("exp requires zero constant term")
    result = term = GradedTensor(a.dimension, a.truncation, {EMPTY_WORD: 1.0})
    for k in range(1, a.truncation + 1):
        term = mul(term, a).scale(1.0 / k)
        if not term._v.any():
            break
        result = result + term
    return result


def log(g: GradedTensor) -> GradedTensor:
    """Truncated logarithm; requires unit coefficient on the empty word."""
    _check_tensor(g)
    if g.coeff(EMPTY_WORD) != 1.0:
        raise AlgebraError("log requires unit constant term")
    term = GradedTensor(g.dimension, g.truncation, {EMPTY_WORD: 1.0})
    x, result = g - term, GradedTensor(g.dimension, g.truncation)
    for k in range(1, g.truncation + 1):
        term = mul(term, x)
        if not term._v.any():
            break
        result = result + term.scale(((-1.0) ** (k + 1)) / k)
    return result


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
