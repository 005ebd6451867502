import math

import numpy as np
import pytest

from wienercub.tensor_algebra import (
    GradedTensor,
    AlgebraError,
    all_words,
    graded_degree,
    mul,
    exp,
    log,
    shuffle,
)


def random_tensor(rng, dimension, truncation, nonzero=8, unit=False):
    words = all_words(dimension, truncation)
    picks = rng.choice(len(words), size=min(nonzero, len(words)), replace=False)
    coeffs = {words[i]: float(rng.uniform(-1.0, 1.0)) for i in picks}
    if unit:
        coeffs[()] = 1.0
    elif () in coeffs:
        del coeffs[()]
    return GradedTensor(dimension, truncation, coeffs)


# -- grading and enumeration -------------------------------------------------


def test_graded_degree_counts_zeros_twice():
    assert graded_degree(()) == 0
    assert graded_degree((1,)) == 1
    assert graded_degree((0,)) == 2
    assert graded_degree((0, 1, 1)) == 4
    assert graded_degree((0, 0)) == 4


def test_word_enumeration_matches_recursion():
    # independent count: f(g) = 1 + d f(g-1) + f(g-2), f(0)=1, f(<0)=0
    frozen = {(1, 3): 7, (1, 4): 12, (1, 5): 20, (2, 3): 20, (2, 4): 49, (3, 4): 156}
    for (d, m), expected in frozen.items():
        words = all_words(d, m)
        assert len(words) == expected
        assert len(set(words)) == expected
        assert all(graded_degree(w) <= m for w in words)


def test_words_outside_truncation_rejected():
    with pytest.raises(AlgebraError):
        GradedTensor(1, 3, {(0, 0): 1.0})  # graded degree 4
    with pytest.raises(AlgebraError):
        GradedTensor(1, 3, {(2,): 1.0})  # letter outside alphabet
    GradedTensor(1, 4, {(0, 0): 1.0})  # fits


# -- ring operations ----------------------------------------------------------


def test_mul_against_split_convolution():
    # independent oracle: coeff_w(a b) = sum over splits w = u + v of a_u b_v
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = random_tensor(rng, 2, 4, unit=True)
        b = random_tensor(rng, 2, 4)
        prod = mul(a, b)
        for w in all_words(2, 4):
            direct = math.fsum(
                a.coeff(w[:j]) * b.coeff(w[j:]) for j in range(len(w) + 1)
            )
            assert abs(prod.coeff(w) - direct) < 1e-13


def test_mul_unit_and_linearity():
    rng = np.random.default_rng(5)
    one = GradedTensor.unit(2, 3)
    a = random_tensor(rng, 2, 3)
    b = random_tensor(rng, 2, 3)
    assert mul(one, a).equals(a)
    assert mul(a, one).equals(a)
    left = mul(a + b, a)
    assert left.equals(mul(a, a) + mul(b, a), tol=1e-13)


def test_mul_respects_graded_cutoff():
    a = GradedTensor.basis(1, 3, (1, 1))
    b = GradedTensor.basis(1, 3, (0,))
    # product word (1,1,0) has graded degree 4 > 3, so it must vanish
    assert len(mul(a, b)) == 0


def _all_pairs_mul(a, b):
    # reference: try every pair of words and drop those past the cut-off
    m = a.truncation
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if graded_degree(u) + graded_degree(v) <= m:
                out[u + v] = out.get(u + v, 0.0) + cu * cv
    return GradedTensor(a.dimension, m, {w: c for w, c in out.items() if c != 0.0})


def _all_pairs_exp(a):
    result = term = GradedTensor.unit(a.dimension, a.truncation)
    for k in range(1, a.truncation + 1):
        term = _all_pairs_mul(term, a).scale(1.0 / k)
        if len(term) == 0:
            break
        result = result + term
    return result


def _all_pairs_log(g):
    x = g - GradedTensor.unit(g.dimension, g.truncation)
    result = GradedTensor.zero(g.dimension, g.truncation)
    term = GradedTensor.unit(g.dimension, g.truncation)
    for k in range(1, g.truncation + 1):
        term = _all_pairs_mul(term, x)
        if len(term) == 0:
            break
        result = result + term.scale(((-1.0) ** (k + 1)) / k)
    return result


@pytest.mark.parametrize("dimension, truncation", [(1, 9), (2, 6), (3, 4)])
@pytest.mark.parametrize("dense", [True, False])
def test_mul_exp_log_bit_identical_to_all_pairs_reference(dimension, truncation, dense):
    rng = np.random.default_rng(100 * dimension + truncation)
    nonzero = len(all_words(dimension, truncation)) if dense else 12

    def element(constant):
        t = random_tensor(rng, dimension, truncation, nonzero=nonzero)
        return t.scale(0.5) + GradedTensor.unit(dimension, truncation).scale(constant)

    for _ in range(3):
        a, b = element(float(rng.uniform(-1.0, 1.0))), element(0.0)
        assert list(mul(a, b).items()) == list(_all_pairs_mul(a, b).items())
        assert list(mul(b, a).items()) == list(_all_pairs_mul(b, a).items())
        x, g = element(0.0), element(1.0)
        assert list(exp(x).items()) == list(_all_pairs_exp(x).items())
        assert list(log(g).items()) == list(_all_pairs_log(g).items())


def test_dilation_scales_by_graded_degree():
    t = GradedTensor(1, 5, {(): 2.0, (1,): 1.0, (0,): 1.0, (0, 1, 1): 1.0})
    lam = 0.5
    d = t.dilate(lam)
    assert d.coeff(()) == 2.0
    assert d.coeff((1,)) == 0.5
    assert d.coeff((0,)) == 0.25
    assert d.coeff((0, 1, 1)) == 0.0625


def test_exp_of_single_letter_is_power_series():
    e1 = GradedTensor.basis(1, 5, (1,), 0.7)
    g = exp(e1)
    for k in range(6):
        assert abs(g.coeff((1,) * k) - 0.7**k / math.factorial(k)) < 1e-15


def test_exp_log_inverse_pair():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_tensor(rng, 2, 4)
        assert log(exp(a)).equals(a, tol=1e-12)
        g = random_tensor(rng, 2, 4, unit=True)
        assert exp(log(g)).equals(g, tol=1e-12)


def test_log_requires_unit_constant_term():
    with pytest.raises(AlgebraError):
        log(GradedTensor(1, 2, {(): 0.5, (1,): 1.0}))


def test_dilation_commutes_with_exp():
    rng = np.random.default_rng(17)
    a = random_tensor(rng, 2, 4)
    lam = 0.7
    assert exp(a.dilate(lam)).equals(exp(a).dilate(lam), tol=1e-13)


def test_projection_and_truncation_change():
    t = GradedTensor(1, 5, {(1,): 1.0, (0, 1): 0.5, (0, 0, 1): 0.25})
    p = t.project(3)
    assert p.truncation == 5 and p.coeff((0, 0, 1)) == 0.0
    low = t.with_truncation(3)
    assert low.truncation == 3 and low.coeff((0, 1)) == 0.5
    lifted = low.with_truncation(6)
    assert lifted.truncation == 6 and lifted.coeff((1,)) == 1.0


def test_dimension_mismatch_rejected():
    a = GradedTensor.basis(1, 3, (1,))
    b = GradedTensor.basis(2, 3, (1,))
    with pytest.raises(AlgebraError):
        mul(a, b)


# -- shuffle product -----------------------------------------------------------


def test_shuffle_small_words_by_hand():
    assert shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}
    assert shuffle((1, 1), (2,)) == {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1}
    assert shuffle((1,), (1,)) == {(1, 1): 2}
    assert shuffle((), (1, 2)) == {(1, 2): 1}


def test_shuffle_counts_total():
    # number of interleavings of disjoint words is binomial(len u + len v, len u)
    got = shuffle((1, 1, 2), (3, 3))
    assert sum(got.values()) == math.comb(5, 2)


def test_signature_is_shuffle_character():
    # group-likeness: <S,u><S,v> = <S, u shuffle v> for any signature S
    from wienercub.path_signature import PiecewiseLinearPath, signature

    rng = np.random.default_rng(23)
    path = PiecewiseLinearPath.from_increments(
        [(0.4, (0.3, -0.2)), (0.6, (-0.5, 0.4))]
    )
    s = signature(path, 5)
    words = [w for w in all_words(2, 5) if w]
    for _ in range(50):
        u = words[rng.integers(len(words))]
        v = words[rng.integers(len(words))]
        if graded_degree(u) + graded_degree(v) > 5:
            continue
        direct = s.coeff(u) * s.coeff(v)
        mixed = math.fsum(c * s.coeff(w) for w, c in shuffle(u, v).items())
        assert abs(direct - mixed) < 1e-12


def test_serialization_roundtrip():
    rng = np.random.default_rng(3)
    t = random_tensor(rng, 2, 4, unit=True)
    back = GradedTensor.from_dict(t.to_dict())
    assert back.equals(t, tol=0.0)
    assert back.dimension == t.dimension and back.truncation == t.truncation


# -- dense layout ----------------------------------------------------------------


def test_lower_truncations_are_prefixes_and_round_trip():
    for d, m in [(1, 9), (2, 6), (3, 4)]:
        words = all_words(d, m)
        for low in range(m + 1):
            assert all_words(d, low) == words[: len(all_words(d, low))]
        t = GradedTensor(d, m, {w: 1.0 + i for i, w in enumerate(words)})
        low = t.with_truncation(m - 1)
        assert dict(low.items()) == {w: c for w, c in t.items() if graded_degree(w) < m}
        back = low.with_truncation(m)
        assert back.truncation == m and back.equals(t.project(m - 1), tol=0.0)
        assert back.with_truncation(m - 1).equals(low, tol=0.0)


def test_items_and_len_list_nonzero_terms_in_word_order():
    t = GradedTensor(2, 4, {(2, 1): 3.0, (0,): 0.0, (1,): -1.0, (): 2.0, (1, 2, 2): 0.5})
    assert list(t.items()) == [((), 2.0), ((1,), -1.0), ((2, 1), 3.0), ((1, 2, 2), 0.5)]
    assert len(t) == 4 and len(t - t) == 0 and list((t - t).items()) == []
    assert t.coeff((0,)) == 0.0 and t.coeff((0, 0, 0)) == 0.0  # outside the basis


def test_dilate_is_exact_per_word():
    rng = np.random.default_rng(19)
    for d, m in [(1, 9), (2, 6), (3, 4)]:
        t = random_tensor(rng, d, m, nonzero=40, unit=True)
        for lam in (0.3, math.sqrt(0.37), 1.7):
            got = t.dilate(lam)
            for w in all_words(d, m):
                assert got.coeff(w) == t.coeff(w) * lam ** graded_degree(w), w


def _dict_mul(a, b, m):
    # sparse product over plain word -> coefficient dicts
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if graded_degree(u) + graded_degree(v) <= m:
                out[u + v] = out.get(u + v, 0.0) + cu * cv
    return {w: c for w, c in out.items() if c != 0.0}


def _dict_add(a, b, scale=1.0):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0.0) + scale * c
    return out


def _dict_exp(a, m):
    result = term = {(): 1.0}
    for k in range(1, m + 1):
        term = {w: c / k for w, c in _dict_mul(term, a, m).items()}
        result = _dict_add(result, term)
    return result


def _dict_log(g, m):
    x = _dict_add(g, {(): 1.0}, -1.0)
    result, term = {}, {(): 1.0}
    for k in range(1, m + 1):
        term = _dict_mul(term, x, m)
        result = _dict_add(result, term, ((-1.0) ** (k + 1)) / k)
    return result


@pytest.mark.parametrize("dimension, truncation", [(1, 9), (2, 6), (3, 4)])
def test_mul_exp_log_match_a_dict_reference(dimension, truncation):
    # the reference dicts keep their random insertion order, so their sums
    # run in another order than the word-ordered dense kernels
    rng = np.random.default_rng(7 * dimension + truncation)
    m = truncation

    def close(got, ref):
        scale = max(abs(c) for c in ref.values())
        gap = got.max_coeff_difference(GradedTensor(dimension, m, ref))
        assert gap <= 1e-15 * scale

    for _ in range(3):
        # a has constant term 1, so log(a) is defined
        a = dict(random_tensor(rng, dimension, m, nonzero=30, unit=True).items())
        b = dict(random_tensor(rng, dimension, m, nonzero=30).items())
        a = dict(sorted(a.items(), key=lambda _: rng.uniform()))
        ta, tb = GradedTensor(dimension, m, a), GradedTensor(dimension, m, b)
        close(mul(ta, tb), _dict_mul(a, b, m))
        close(mul(tb, ta), _dict_mul(b, a, m))
        close(exp(tb), _dict_exp(b, m))
        close(log(ta), _dict_log(a, m))


def test_dense_product_turns_inf_times_an_absent_word_into_nan():
    # the dense kernel multiplies every pair of the table, so inf * 0 = NaN
    # lands on (1,) = (1,) + (); a sparse product would have skipped the pair
    a = GradedTensor(1, 3, {(1,): math.inf})
    b = GradedTensor(1, 3, {(1,): 1.0})
    with np.errstate(invalid="ignore"):
        prod = mul(a, b)
    assert prod.coeff((1, 1)) == math.inf
    assert math.isnan(prod.coeff((1,)))
    assert prod.coeff(()) == 0.0


# -- comparisons with NaN ----------------------------------------------------


def test_nan_tensor_never_equals_a_finite_one():
    zero = GradedTensor.zero(1, 3)
    first = GradedTensor(1, 3, {(1,): math.nan})
    later = GradedTensor(1, 3, {(1,): 1.0, (0, 1): math.nan})
    finite = GradedTensor(1, 3, {(1,): 1.0})
    for x, y in [(first, zero), (zero, first), (later, finite), (finite, later)]:
        assert not x.equals(y) and not x.equals(y, tol=math.inf)
        assert not x == y and x != y
        assert math.isnan(x.max_coeff_difference(y))
    assert not later.equals(later)  # like a float NaN
    inf = GradedTensor(1, 3, {(1,): math.inf})
    with np.errstate(invalid="ignore"):  # inf - inf
        assert inf == inf and inf != finite and finite != inf


def test_dilate_overflows_only_on_nonzero_words():
    t = GradedTensor(1, 9, {(1,): 1.0})
    assert t.dilate(1e40).coeff((1,)) == 1e40
    with pytest.raises(OverflowError):
        GradedTensor(1, 9, {(1,) * 9: 1.0}).dilate(1e40)


def test_repr_lists_six_terms_then_an_ellipsis():
    short = GradedTensor(1, 2, {(): 1.0, (1,): 0.5})
    assert repr(short) == "GradedTensor(d=1, m=2, {(): 1, (1,): 0.5})"
    long = GradedTensor(2, 2, {w: 0.25 * i for i, w in enumerate(all_words(2, 2))})
    assert repr(long) == ("GradedTensor(d=2, m=2, {(1,): 0.25, (2,): 0.5, (0,): 0.75, "
                          "(1, 1): 1, (1, 2): 1.25, (2, 1): 1.5, ...})")


def test_a_tensor_equals_no_other_type():
    assert (GradedTensor.unit(1, 2) == 3) is False
    assert GradedTensor.unit(1, 2) != "unit"
