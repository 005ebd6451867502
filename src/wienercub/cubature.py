"""Cubature formulas: weighted path (or Lie-polynomial) support matching
Wiener iterated-integral expectations up to a graded degree.

A formula of degree m consists of positive weights lambda_1..lambda_n and
support omega_1..omega_n such that

    sum_j lambda_j * project(signature(omega_j), m)

agrees coefficient-wise with the expected Brownian signature at the same
horizon. Validation is a direct coefficient comparison, so failure is data
(a defect table), not an exception.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .tensor_algebra import GradedTensor, Word, _check_count, _is_real, exp
from .lie_structures import LiePolynomial
from .path_signature import (
    PiecewiseLinearPath,
    brownian_expected_signature,
    _check_positive,
    _check_unit_horizon,
    _horizons_match,
    brownian_rescale,
    log_signature,
    signature,
)

DEFAULT_TOL = 1e-10


def _check_tolerance(tol: float) -> None:
    """The tolerance rule: `tol` is finite and >= 0 (NaN fails)."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


class CubatureLoadError(ValueError):
    """Raised when a formula file is malformed or fails basic checks."""


@dataclass(frozen=True, eq=False)
class CubatureFormula:
    """Positive weights plus either path or Lie-polynomial support.

    Path support lives over [0, horizon]; Lie support is a tuple of
    LiePolynomials, by convention also at the stated horizon. Weights are
    real numbers (tensor_algebra._is_real), strictly positive and finite,
    held as Python floats as the horizon is; the moment-matching claim
    implied by `degree` is checked by validate(), never assumed. A formula
    compares and hashes by identity, as the solvers' step cache keys it:
    two equal formulas are two keys.
    """

    dimension: int
    degree: int
    weights: tuple[float, ...]
    paths: tuple[PiecewiseLinearPath, ...] | None = None
    lie_polys: tuple[LiePolynomial, ...] | None = None
    horizon: float = 1.0

    def __post_init__(self):
        if (self.paths is None) == (self.lie_polys is None):
            raise ValueError("exactly one of paths / lie_polys must be given")
        _check_count(self.dimension, "dimension")
        _check_count(self.degree, "degree")
        support = self.paths if self.paths is not None else self.lie_polys
        if not support or len(self.weights) != len(support):
            raise ValueError(f"{len(self.weights)} weights for {len(support)} support points")
        for j, w in enumerate(self.weights):
            if not (_is_real(w) and w > 0.0 and math.isfinite(w)):
                raise ValueError(f"weight {j} must be strictly positive, got {w!r}")
        _check_positive(self.horizon)
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        object.__setattr__(self, "horizon", float(self.horizon))
        kind = "path" if self.paths is not None else "Lie element"
        for j, s in enumerate(support):
            if self.lie_polys is not None and not isinstance(s, LiePolynomial):
                raise TypeError(f"Lie element {j} is a {type(s).__name__}, not a LiePolynomial")
            if s.dimension != self.dimension:
                raise ValueError(
                    f"{kind} {j} has dimension {s.dimension}, formula says {self.dimension}")
            if self.paths is not None and not _horizons_match(self.horizon, s.horizon):
                raise ValueError(
                    f"path {j} has horizon {s.horizon!r}, formula says {self.horizon!r}")

    @property
    def n_points(self) -> int:
        return len(self.weights)

    def aggregate(self, truncation: int) -> GradedTensor:
        """sum_j lambda_j * S_j, truncated and added in support order: S_j is
        the signature of path j or the exponential of Lie element j."""
        total = GradedTensor(self.dimension, truncation)
        for lam, s in zip(self.weights, self.paths or self.lie_polys):
            total = total + (signature(s, truncation) if self.paths is not None
                             else exp(s.tensor.with_truncation(truncation))).scale(lam)
        return total

    def to_dict(self) -> dict:
        support = ({"paths": [p.to_dict() for p in self.paths]} if self.paths is not None
                   else {"lie_polys": [L.to_dict() for L in self.lie_polys]})
        return {"dimension": self.dimension, "degree": self.degree,
                "horizon": self.horizon, "weights": list(self.weights), "support": support}


@dataclass(frozen=True)
class ValidationReport:
    dimension: int
    degree: int
    horizon: float
    tol: float
    max_defect: float
    worst_word: Word | None
    failures: tuple[tuple[Word, float], ...]
    ok: bool

    def table(self) -> str:
        """Human-readable defect table, one line per failing word."""
        head = (
            f"cubature check: d={self.dimension} degree={self.degree} "
            f"horizon={self.horizon:g} tol={self.tol:g} -> "
            f"{'PASS' if self.ok else 'FAIL'} (max defect {self.max_defect:.3e}"
        )
        head += ")" if self.ok else f" on word {self.worst_word})"
        lines = [head]
        for w, defect in self.failures:
            lines.append(f"  word {w}: defect {defect:.6e}")
        return "\n".join(lines)


def validate(
    formula: CubatureFormula,
    tol: float = DEFAULT_TOL,
    degree: int | None = None,
) -> ValidationReport:
    """Compare the weighted signature aggregate with the expected Brownian
    signature, coefficient by coefficient, up to `degree` (default: the
    formula's own claim). A NaN defect fails: it becomes `max_defect`, on
    the first word that has one. `tol` obeys `_check_tolerance`."""
    _check_tolerance(tol)
    m = formula.degree if degree is None else degree
    _check_count(m, "degree", 0)
    target = brownian_expected_signature(formula.dimension, m, formula.horizon)
    agg = formula.aggregate(m)
    defects = [(w, abs(c)) for w, c in (agg - target).items()]
    # largest defect first, ties in (length, lex) order; a NaN defect leads
    defects.sort(key=lambda t: (-t[1] if t[1] == t[1] else -math.inf, len(t[0]), t[0]))
    worst, max_defect = defects[0] if defects else (None, 0.0)
    return ValidationReport(
        dimension=formula.dimension,
        degree=m,
        horizon=formula.horizon,
        tol=tol,
        max_defect=max_defect,
        worst_word=worst,
        failures=tuple(t for t in defects if not t[1] <= tol),
        ok=max_defect <= tol,
    )


def degree3(dimension: int) -> CubatureFormula:
    """Degree-3 formula in any dimension: 2d straight lines with increments
    +-sqrt(d)*e_i, weights 1/(2d). Odd space moments vanish by the sign
    symmetry; the quadratic moment is calibrated by the sqrt(d) stretch."""
    _check_count(dimension, "dimension")
    root = math.sqrt(float(dimension))
    paths = []
    for i in range(dimension):
        for sign in (root, -root):
            z = [0.0] * dimension
            z[i] = sign
            paths.append(PiecewiseLinearPath.from_increments([(1.0, z)]))
    lam = 1.0 / (2 * dimension)
    return CubatureFormula(dimension, 3, (lam,) * (2 * dimension), paths=tuple(paths))


# Space increments of the bent outer path of the degree-5 formula below.
# With durations (1/4, 1/2, 1/4) and increments (v, w, v), matching the
# log-signature target e_0 + sqrt(3) e_1 + (1/4)[e_1,[e_1,e_0]] through
# graded degree 4 forces 2v + w = sqrt(3) together with one quadratic
# condition; the root with positive w is
#   v = sqrt(3) (5 - sqrt(41)) / 8,   w = sqrt(3) (sqrt(41) - 1) / 4.
_D5_V = math.sqrt(3.0) * (5.0 - math.sqrt(41.0)) / 8.0
_D5_W = math.sqrt(3.0) * (math.sqrt(41.0) - 1.0) / 4.0
_D5_KNOTS = (0.0, 0.25, 0.75, 1.0)


def degree5_d1() -> CubatureFormula:
    """Degree-5 formula for d=1: three paths whose endpoint increments are
    the Gauss-Hermite nodes -sqrt(3), 0, +sqrt(3) with weights 1/6, 2/3, 1/6.

    Straight lines through those nodes match every pure-space moment up to
    degree 5 but leave defects (-1/12, +1/6, -1/12) on the mixed words
    (0,1,1), (1,0,1), (1,1,0): a line cannot produce the Lie correction
    (1/4)[e_1,[e_1,e_0]] that the time-space cross moments require. The two
    outer paths are therefore bent into three segments realizing exactly that
    log-signature through degree 4; the center point stays the zero path.
    Since the correction is quadratic in the space letter, mirroring the
    positive path gives the negative one, and the mirror symmetry cancels
    every odd-degree-5 residual in the aggregate.
    """
    up = PiecewiseLinearPath(
        _D5_KNOTS, ((0.0,), (_D5_V,), (_D5_V + _D5_W,), (2 * _D5_V + _D5_W,))
    )
    down = PiecewiseLinearPath(
        _D5_KNOTS, ((0.0,), (-_D5_V,), (-_D5_V - _D5_W,), (-2 * _D5_V - _D5_W,))
    )
    center = PiecewiseLinearPath.from_increments([(1.0, (0.0,))])
    return CubatureFormula(1, 5, (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0), paths=(up, center, down))


def rescale(formula: CubatureFormula, horizon: float) -> CubatureFormula:
    """Carry a unit-horizon formula to [0, horizon]: Brownian-rescale the
    paths, or dilate Lie support by sqrt(horizon). Weights are unchanged."""
    _check_positive(horizon)
    _check_unit_horizon(formula.horizon, "formula")
    if formula.paths is not None:
        return replace(formula, horizon=horizon,
                       paths=tuple(brownian_rescale(p, horizon) for p in formula.paths))
    root = math.sqrt(horizon)
    return replace(formula, horizon=horizon,
                   lie_polys=tuple(L.dilate(root) for L in formula.lie_polys))


def lie_form(formula: CubatureFormula, truncation: int | None = None) -> CubatureFormula:
    """Replace path support by truncated log-signatures (LiePolynomials).

    kusuoka_step needs this form and every tree solver takes it; the
    default truncation is the formula's degree.
    """
    if formula.paths is None:
        return formula
    m = formula.degree if truncation is None else truncation
    return replace(formula, paths=None,
                   lie_polys=tuple(log_signature(p, m) for p in formula.paths))


def to_file(formula: CubatureFormula, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(formula.to_dict(), fh, indent=1)
        fh.write("\n")


def from_file(path: str) -> CubatureFormula:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CubatureLoadError(f"{path}: {exc}") from exc
    return from_dict(data, where=path)


def from_dict(data: dict, where: str = "<dict>") -> CubatureFormula:
    """Rebuild a formula from its to_dict record.

    Every rule on the values is CubatureFormula's (and the path and Lie
    checks of its support), so this only reads the record and converts no
    value: "degree": 5.9, true or "5" is refused, not read as 5. A missing
    key, a value of the wrong type or a refused value raises one
    CubatureLoadError that names `where` and, for a bad support element, its
    index: "formula.json: lie_polys[1]: bracketing certificate failed".
    """
    at = where
    try:
        support = data["support"]
        if "paths" in support:
            kind, load = "paths", PiecewiseLinearPath.from_dict
        elif "lie_polys" in support:
            kind, load = "lie_polys", lambda rec: LiePolynomial(GradedTensor.from_dict(rec))
        else:
            raise ValueError("support must hold 'paths' or 'lie_polys'")
        elements = []
        for j, rec in enumerate(support[kind]):
            at = f"{where}: {kind}[{j}]"
            elements.append(load(rec))
        at = where
        return CubatureFormula(
            dimension=data["dimension"],
            degree=data["degree"],
            weights=tuple(data["weights"]),
            horizon=data.get("horizon", 1.0),
            **{kind: tuple(elements)},
        )
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise CubatureLoadError(f"{at}: {reason}") from exc
