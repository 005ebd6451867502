import dataclasses
import math

import numpy as np
import pytest

from wienercub.tensor_algebra import GradedTensor, all_words, exp, log, mul
from wienercub.lie_structures import (
    LiePolynomial,
    NotLieElement,
    bracket,
    dynkin_defect,
    certify,
    bch,
)


def basis(word, d=1, m=5, c=1.0):
    return GradedTensor(d, m, {tuple(word): c})


def test_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(7)
    words = all_words(2, 4)
    for _ in range(10):
        a = GradedTensor(2, 4, {words[rng.integers(1, len(words))]: rng.uniform(-1, 1)})
        b = GradedTensor(2, 4, {words[rng.integers(1, len(words))]: rng.uniform(-1, 1)})
        assert bracket(a, b).equals(-bracket(b, a), tol=1e-14)
        assert bracket(a + b, a).equals(bracket(a, a) + bracket(b, a), tol=1e-13)


def test_jacobi_identity():
    rng = np.random.default_rng(13)
    words = [w for w in all_words(2, 4) if w]
    for _ in range(10):
        picks = [words[rng.integers(len(words))] for _ in range(3)]
        a, b, c = (GradedTensor(2, 4, {w: 1.0}) for w in picks)
        total = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert all(abs(v) < 1e-13 for _, v in total.items())


def test_right_bracketing_fixes_homogeneous_lie_parts():
    # on a word-length-k Lie element the map multiplies by k: defect 0
    lie2 = bracket(basis((0,)), basis((1,)))
    assert dynkin_defect(lie2) <= 1e-14
    lie3 = bracket(basis((1,)), bracket(basis((1,)), basis((0,))))
    assert dynkin_defect(lie3) <= 1e-14


def test_defect_flags_symmetric_square():
    sq = basis((1, 1))  # e1 e1 is symmetric, not Lie
    assert dynkin_defect(sq) > 0.4
    for build in (certify, LiePolynomial):
        with pytest.raises(NotLieElement) as err:
            build(sq)
        assert err.value.defect > 0.4


def test_certify_accepts_mixed_levels_and_is_idempotent():
    elt = basis((1,), c=0.3) + bracket(basis((0,)), basis((1,))).scale(0.8)
    poly = certify(elt)
    assert isinstance(poly, LiePolynomial)
    assert certify(poly) is poly


def test_building_a_lie_polynomial_certifies_it():
    # the constructor is certify at DYNKIN_TOL; tensor is the only field
    assert [f.name for f in dataclasses.fields(LiePolynomial)] == ["tensor"]
    elt = basis((1,), c=0.3) + bracket(basis((0,)), basis((1,))).scale(0.8)
    assert LiePolynomial(elt) == certify(elt)
    off = basis((1,)) + basis((1, 1), c=0.15)  # e1 e1 has defect 2
    with pytest.raises(NotLieElement, match="defect 3.000e-01 > tol 1.0e-10") as err:
        LiePolynomial(off)
    assert err.value.defect == pytest.approx(0.3)
    # a tolerance of certify's own admits it, and the type then vouches for it
    assert certify(off, tol=0.5).tensor is off
    with pytest.raises(NotLieElement, match="non-finite"):
        LiePolynomial(GradedTensor(1, 3, {(1,): math.nan}))
    with pytest.raises(NotLieElement, match="nonzero constant term"):
        LiePolynomial(GradedTensor(1, 3, {(): 1.0}))


def test_certify_rejects_constant_term():
    with pytest.raises(NotLieElement):
        certify(GradedTensor(1, 3, {(): 1.0, (1,): 1.0}))


def test_dilation_preserves_lie_membership():
    poly = certify(basis((1,)) + bracket(basis((0,)), basis((1,))).scale(0.5))
    scaled = poly.dilate(0.3)
    assert isinstance(scaled, LiePolynomial)
    assert scaled.tensor.coeff((1,)) == pytest.approx(0.3)
    assert scaled.tensor.coeff((0, 1)) == pytest.approx(0.5 * 0.3**3)


def test_bch_of_generators_matches_hand_expansion():
    # log(e^{e0} e^{e1}) through graded degree 5 for d=1:
    # e0 + e1 + [e0,e1]/2 + ([e0,[e0,e1]] + [e1,[e1,e0]])/12, expanded to words
    hand = {
        (0,): 1.0,
        (1,): 1.0,
        (0, 1): 0.5,
        (1, 0): -0.5,
        (1, 1, 0): 1 / 12,
        (1, 0, 1): -1 / 6,
        (0, 1, 1): 1 / 12,
        (0, 0, 1): 1 / 12,
        (0, 1, 0): -1 / 6,
        (1, 0, 0): 1 / 12,
    }
    got = bch(basis((0,)), basis((1,))).tensor
    seen = {w for w, _ in got.items()}
    for w in seen | set(hand):
        assert got.coeff(w) == pytest.approx(hand.get(w, 0.0), abs=1e-12), w


def test_bch_agrees_with_product_of_exponentials():
    rng = np.random.default_rng(29)
    for _ in range(5):
        a = certify(
            GradedTensor(2, 4, {(1,): rng.uniform(-1, 1), (2,): rng.uniform(-1, 1)})
        )
        b = certify(
            GradedTensor(
                2, 4, {(0,): rng.uniform(-1, 1), (1,): rng.uniform(-1, 1)}
            )
        )
        direct = bch(a, b).tensor
        via_group = log(mul(exp(a.tensor), exp(b.tensor)))
        assert direct.equals(via_group, tol=1e-12)


def test_bch_certifies_large_coefficient_products():
    # two 4-segment paths at truncation 9 whose product signature reaches
    # coefficients near 10: the log's rounding defect (~2e-10) exceeds the
    # absolute tolerance, and bch scales it by the coefficient size
    from wienercub.path_signature import PiecewiseLinearPath, concat, signature

    p = PiecewiseLinearPath.from_increments([
        (0.29484764288626664, [-0.33835665743145127]),
        (0.3661502472432269, [-0.3097943967071226]),
        (0.12891874311072685, [-0.39856599249889374]),
        (0.21008336675977957, [-0.7773352870648801]),
    ])
    q = PiecewiseLinearPath.from_increments([
        (0.2994256101725174, [-0.49628804877800353]),
        (0.20372967368208744, [-0.7255087941277619]),
        (0.20569750596139819, [-0.22888087910787647]),
        (0.29114721018399703, [-0.6759894115746893]),
    ])
    sp, sq = signature(p, 9), signature(q, 9)
    lp, lq = certify(log(sp)), certify(log(sq))
    combined = bch(lp, lq)
    spq = signature(concat(p, q), 9)
    scale = max(abs(c) for _, c in spq.items())
    assert exp(combined.tensor).max_coeff_difference(spq) <= 1e-9 * scale


def test_bch_output_is_certified():
    out = bch(basis((0,)), basis((1,)))
    assert isinstance(out, LiePolynomial)
    assert dynkin_defect(out.tensor) <= 1e-10


def test_group_like_elements_are_not_lie():
    # a signature has nonzero constant term; its defect report must say so
    from wienercub.path_signature import PiecewiseLinearPath, signature

    s = signature(PiecewiseLinearPath.from_increments([(1.0, (0.5, -0.3))]), 4)
    with pytest.raises(NotLieElement):
        certify(s)


def _levelwise_defect(a):
    # the per-level loop, over an independent dict expansion of the
    # right-nested bracketing
    def nested(word):
        if len(word) == 1:
            return {word: 1}
        out = {}
        for w, c in nested(word[1:]).items():
            out[word[:1] + w] = out.get(word[:1] + w, 0) + c
            out[w + word[:1]] = out.get(w + word[:1], 0) - c
        return out

    worst = abs(a.coeff(()))
    for k in sorted({len(w) for w, _ in a.items() if w}):
        part = {w: c for w, c in a.items() if len(w) == k}
        mapped = {}
        for w, c in part.items():
            for ww, mult in nested(w).items():
                mapped[ww] = mapped.get(ww, 0.0) + c * mult
        for w in mapped.keys() | part.keys():
            worst = max(worst, abs(mapped.get(w, 0.0) - k * part.get(w, 0.0)))
    return worst


@pytest.mark.parametrize("d, m", [(1, 9), (2, 6), (3, 4)])
def test_one_pass_defect_matches_levelwise_reference(d, m):
    rng = np.random.default_rng(10 * d + m)
    words = all_words(d, m)
    cases = [basis((1, 1), d, m), basis((1,), d, m) + basis((1, 1), d, m).scale(0.5)]
    for _ in range(4):
        picks = rng.choice(len(words) - 1, size=20, replace=False) + 1
        cases.append(GradedTensor(d, m, {words[i]: rng.uniform(-1, 1) for i in picks}))
    cases.append(bch(basis((0,), d, m), basis((1,), d, m)).tensor)
    for t in cases:
        ref = _levelwise_defect(t)
        assert abs(dynkin_defect(t) - ref) <= 1e-15 * ref
    assert dynkin_defect(basis((1, 1))) == _levelwise_defect(basis((1, 1))) == 2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_are_never_certified(bad):
    t = GradedTensor(1, 3, {(1,): 1.0, (0, 1): bad})
    with pytest.raises(NotLieElement, match=r"non-finite coefficient .* on word \(0, 1\)"):
        certify(t)
    with np.errstate(invalid="ignore"):
        assert not math.isfinite(dynkin_defect(t))
        with pytest.raises(NotLieElement, match="non-finite"):
            bch(t, t)
        with pytest.raises(NotLieElement, match="non-finite"):
            bch(GradedTensor(1, 3, {(1,): bad}), basis((0,), m=3))


def test_overflowing_log_signature_is_not_certified():
    from wienercub.path_signature import PiecewiseLinearPath, log_signature

    path = PiecewiseLinearPath.from_increments([(1.0, (1e200,))])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NotLieElement, match="non-finite"):
            log_signature(path, 3)
