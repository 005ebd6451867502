import json
import math

import numpy as np
import pytest

from wienercub import cubature
from wienercub.cubature import (
    CubatureFormula,
    CubatureLoadError,
    validate,
    degree3,
    degree5_d1,
    rescale,
    lie_form,
    to_file,
    from_file,
)
from wienercub.lie_structures import LiePolynomial
from wienercub.path_signature import PiecewiseLinearPath, signature
from wienercub.tensor_algebra import exp


def test_degree3_structure():
    for d in (1, 2, 4):
        formula = degree3(d)
        assert formula.n_points == 2 * d
        assert formula.degree == 3
        assert all(w == pytest.approx(1.0 / (2 * d)) for w in formula.weights)
        # one straight segment out along each +/- axis, scaled to unit variance
        lengths = sorted(
            abs(p.points[-1][i])
            for p in formula.paths
            for i in range(d)
            if p.points[-1][i] != 0.0
        )
        assert lengths == pytest.approx([math.sqrt(d)] * (2 * d))


def test_degree3_matches_low_moments_and_misses_high():
    report = validate(degree3(2), tol=1e-10)
    assert report.ok and report.max_defect < 1e-10
    higher = validate(degree3(1), tol=1e-10, degree=5)
    assert not higher.ok
    # the fourth pure-space moment of a two-point rule is 1 vs 3 for the
    # Gaussian: defect on the word (1,1,1,1) is |3 - 1| / 4! = 1/12
    defects = dict(((w, v) for w, v in higher.failures))
    assert defects[(1, 1, 1, 1)] == pytest.approx(1.0 / 12.0, abs=1e-14)


def test_degree5_d1_frozen_construction():
    formula = degree5_d1()
    assert formula.n_points == 3
    assert list(formula.weights) == pytest.approx([1 / 6, 2 / 3, 1 / 6])
    outer, center, mirror = formula.paths
    # center point of the three-point Gaussian rule carries the zero path
    assert all(c == 0.0 for p in center.points for c in p)
    # outer paths bend: knots at quarters, increments (v, w, v) with
    # v = sqrt(3)(5 - sqrt(41))/8 and w = sqrt(3)(sqrt(41) - 1)/4
    v = math.sqrt(3.0) * (5.0 - math.sqrt(41.0)) / 8.0
    w = math.sqrt(3.0) * (math.sqrt(41.0) - 1.0) / 4.0
    assert outer.knots == pytest.approx([0.0, 0.25, 0.75, 1.0])
    incs = [float(dx[0]) for _, dx in outer.increments()]
    assert incs == pytest.approx([v, w, v])
    assert 2 * v + w == pytest.approx(math.sqrt(3.0))
    mirrored = [float(dx[0]) for _, dx in mirror.increments()]
    assert mirrored == pytest.approx([-v, -w, -v])


def test_degree5_d1_endpoint_moments_are_gauss_hermite():
    # pushing only the endpoints through recovers the 3-point rule for N(0,1)
    formula = degree5_d1()
    ends = [p.points[-1][0] for p in formula.paths]
    gauss = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0}
    for p, moment in gauss.items():
        got = sum(w * e**p for w, e in zip(formula.weights, ends))
        assert got == pytest.approx(moment, abs=1e-12)


def test_degree5_d1_validates_then_fails_beyond_design():
    assert validate(degree5_d1(), tol=1e-10).ok
    report = validate(degree5_d1(), tol=1e-10, degree=7)
    assert not report.ok
    assert report.worst_word == (0, 1, 1, 0)
    assert report.max_defect == pytest.approx(1.0 / 24.0, abs=1e-12)


def test_validation_report_table_mentions_outcome():
    good = validate(degree3(1)).table()
    assert "PASS" in good
    bad = validate(degree3(1), degree=5).table()
    assert "FAIL" in bad and "(1, 1, 1, 1)" in bad


def test_rescale_scales_knots_and_values():
    formula = rescale(degree5_d1(), 0.3)
    assert formula.horizon == pytest.approx(0.3)
    outer = formula.paths[0]
    assert outer.horizon == pytest.approx(0.3)
    assert outer.knots[1] == pytest.approx(0.25 * 0.3)
    # rescaled formula matches the rescaled moments
    assert validate(formula, tol=1e-10).ok
    with pytest.raises(ValueError):
        rescale(formula, 1.0)  # only unit-horizon sources
    for horizon in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon must be positive"):
            rescale(degree5_d1(), horizon)


def test_lie_form_log_signatures():
    formula = degree5_d1()
    lie = lie_form(formula)
    assert lie.n_points == formula.n_points
    for poly, path in zip(lie.lie_polys, formula.paths):
        assert isinstance(poly, LiePolynomial)
        assert exp(poly.tensor).equals(signature(path, poly.truncation), tol=1e-12)
    assert validate(lie, tol=1e-10).ok


def test_aggregate_equivalence_between_forms():
    formula = degree3(2)
    lie = lie_form(formula, truncation=5)
    assert formula.aggregate(5).equals(lie.aggregate(5), tol=1e-12)


def test_formula_constructor_rejects_bad_input():
    path = PiecewiseLinearPath.from_increments([(1.0, (1.0,))])
    with pytest.raises(ValueError):
        CubatureFormula(1, 3, (0.5, -0.5), paths=(path, path))  # negative weight
    with pytest.raises(ValueError):
        CubatureFormula(1, 3, (0.5,), paths=(path,), horizon=2.0)  # horizon clash
    with pytest.raises(ValueError):
        CubatureFormula(1, 3, (1.0,))  # neither support
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive"):
            CubatureFormula(1, 3, (1.0,), paths=(path,), horizon=horizon)


@pytest.mark.parametrize("where", ["horizon", "knot", "point"])
def test_loader_rejects_non_finite_input(where):
    record = degree5_d1().to_dict()
    path = record["support"]["paths"][0]
    if where == "horizon":
        record["horizon"] = math.inf
    elif where == "knot":
        path["knots"][-1] = path["horizon"] = math.inf
    else:
        path["points"][1][0] = math.nan
    with pytest.raises(CubatureLoadError, match="finite|horizon must be positive"):
        cubature.from_dict(record)


def test_file_roundtrip_both_forms(tmp_path):
    for formula in (degree5_d1(), lie_form(degree3(2))):
        target = str(tmp_path / "formula.json")
        to_file(formula, target)
        back = from_file(target)
        assert back.dimension == formula.dimension
        assert back.degree == formula.degree
        assert list(back.weights) == pytest.approx(list(formula.weights))
        assert back.aggregate(3).equals(formula.aggregate(3), tol=1e-12)


def test_loader_reports_location_of_errors(tmp_path):
    target = tmp_path / "bad.json"
    record = degree5_d1().to_dict()
    record["weights"][0] = -0.1
    target.write_text(json.dumps(record))
    with pytest.raises(CubatureLoadError) as err:
        from_file(str(target))
    assert "bad.json" in str(err.value)


def test_loader_rejects_non_lie_coefficients(tmp_path):
    lie = lie_form(degree3(1))
    record = lie.to_dict()
    # corrupt one coefficient so the bracketing certificate fails
    record["support"]["lie_polys"][0]["terms"].append({"word": [1, 1], "coeff": 0.3})
    target = tmp_path / "corrupt.json"
    target.write_text(json.dumps(record))
    with pytest.raises(CubatureLoadError) as err:
        from_file(str(target))
    assert "defect" in str(err.value)


def test_a_float32_formula_round_trips_through_its_file(tmp_path):
    # weights, horizon and path entries given as float32 are held as floats
    h, w = np.float32(0.3), np.float32(0.5)
    paths = tuple(PiecewiseLinearPath((0.0, h), ((0.0,), (s * np.sqrt(h),)))
                  for s in (np.float32(1.0), np.float32(-1.0)))
    formula = CubatureFormula(1, 3, (w, w), paths=paths, horizon=h)
    assert formula.weights == (0.5, 0.5) and formula.horizon == float(h)
    assert all(type(v) is float for v in (*formula.weights, formula.horizon))
    target = tmp_path / "f32.json"
    to_file(formula, str(target))
    back = from_file(str(target))
    assert back.to_dict() == formula.to_dict()
    assert validate(back, tol=1e-6).ok


def test_nan_formula_fails_validation_on_its_word():
    # out by 1e200 and back: the level-2 and level-3 space words are inf - inf
    path = PiecewiseLinearPath.from_increments([(0.5, (1e200,)), (0.5, (-1e200,))])
    formula = CubatureFormula(1, 3, (1.0,), paths=(path,))
    with np.errstate(invalid="ignore", over="ignore"):
        report = validate(formula)
    assert not report.ok
    assert math.isnan(report.max_defect) and report.worst_word == (1, 1)
    assert report.failures[0][0] == (1, 1) and "FAIL" in report.table()


@pytest.mark.parametrize("weight", [math.inf, math.nan])
def test_formula_rejects_non_finite_weights(weight):
    path = PiecewiseLinearPath.from_increments([(1.0, (1.0,))])
    with pytest.raises(ValueError, match="strictly positive"):
        CubatureFormula(1, 3, (weight, 0.5), paths=(path, path))
