"""Value-layer tests: exact polynomial/series arithmetic and text round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from qgollnitz.qcore import (ONE, ZERO, LaurentPoly, NegativeExponent,
                             NonUnitConstantTerm, TruncSeries, decode, image_width,
                             parse_poly, poly_sum, q_power, render_poly)


def P(terms):
    return LaurentPoly(terms)


def dict_mul(p, r):
    """Oracle: multiply by repeated distribution over term dicts."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in r.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# -- polynomial basics -------------------------------------------------------

def test_add_cancellation():
    assert P({0: 1, 1: 1}) + P({0: 1, 1: -1}) == P({0: 2})


def test_add_identity():
    p = P({-2: 3, 5: -1})
    assert p + P({}) == p


def test_add_disjoint_supports():
    assert P({-1: 1}) + P({1: 1}) == P({-1: 1, 1: 1})


def test_mul_difference_of_squares():
    assert P({0: 1, 1: -1}) * P({0: 1, 1: 1}) == P({0: 1, 2: -1})


def test_mul_identity():
    p = P({-3: 2, 0: -1, 4: 7})
    assert p * P({0: 1}) == p


def test_mul_three_pochhammer_factors():
    # oracle: expand (1-q)(1-q^2)(1-q^3) by repeated distribution
    factors = [P({0: 1, 1: -1}), P({0: 1, 2: -1}), P({0: 1, 3: -1})]
    expected = {0: 1}
    for f in factors:
        acc = {}
        for e1, c1 in expected.items():
            for e2, c2 in f.terms.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        expected = {e: c for e, c in acc.items() if c}
    product = factors[0] * factors[1] * factors[2]
    assert product.terms == expected
    assert product == P({0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1})


def test_shift():
    assert P({0: 1, 1: 1}).shift(2) == P({2: 1, 3: 1})
    p = P({0: 1, 3: -2})
    assert p.shift(0) == p
    assert P({1: 1}).shift(-2) == P({-1: 1})


def test_stretch():
    assert P({0: 1, 1: 1, 2: 2}).stretch(2) == P({0: 1, 2: 1, 4: 2})
    assert P({-1: 1}).stretch(3) == P({-3: 1})


def test_zero_is_falsy_and_canonical():
    assert not P({})
    assert not P({3: 0})
    assert P({3: 0}) == P({})
    assert P({1: 2, 3: 0}).terms == {1: 2}


def test_at_one():
    assert P({0: 1, 1: -1, 5: 3}).at_one() == 3


# -- randomized ring laws ----------------------------------------------------

polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=8) \
    .map(LaurentPoly)


@given(polys, polys, polys)
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert (p + r) + s == p + (r + s)
    assert p * r == r * p
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(polys, polys)
def test_mul_matches_dict_oracle(p, r):
    assert (p * r).terms == dict_mul(p, r)


def dict_add(p, r, sign=1):
    """Oracle: p + sign * r over term dicts."""
    out = p.terms
    for e, c in r.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


@given(polys, polys)
def test_add_and_sub_match_dict_oracle(p, r):
    assert (p + r).terms == dict_add(p, r)
    assert (p - r).terms == dict_add(p, r, -1)


signed_terms = st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(-12, 12), polys),
                        max_size=8)


@given(signed_terms)
def test_poly_sum_matches_chained_adds(terms):
    chained = ZERO
    for sign, shift, p in terms:
        chained = chained + p.shift(shift) if sign > 0 else chained - p.shift(shift)
    assert poly_sum(terms) == chained
    assert poly_sum(iter(terms)) == chained


@given(signed_terms)
def test_poly_sum_cancels_to_canonical_zero(terms):
    # every term and its negation: the run is all zeros before the trim
    total = poly_sum(terms + [(-sign, shift, p) for sign, shift, p in terms])
    assert total == ZERO and not total and total.terms == {}


def test_poly_sum_examples():
    assert poly_sum([]) == ZERO
    assert poly_sum([(1, 3, ZERO)]) == ZERO
    assert poly_sum([(1, 0, ONE), (-1, 0, ONE)]) == ZERO
    # (1 - q^2) * (q^-1 + 2) as two signed terms
    x = P({-1: 1, 0: 2})
    assert poly_sum([(1, 0, x), (-1, 2, x)]) == P({-1: 1, 0: 2, 1: -1, 2: -2})


# The three product tests below keep the names they had while products of
# more than 600 coefficient pairs were packed into big integers (Kronecker
# substitution) and checked against the schoolbook loop _conv.  _conv is now
# the only product loop; they hold LaurentPoly.__mul__ on the same draws to
# an oracle that sums every (i + j, a_i * b_j) term through the constructor.

def _assert_mul_matches_term_sum(a, b, va=0, vb=0):
    expected = LaurentPoly([(va + vb + i + j, x * y)
                            for i, x in enumerate(a) for j, y in enumerate(b)])
    assert LaurentPoly._raw(va, a) * LaurentPoly._raw(vb, b) == expected


wide_runs = st.lists(st.integers(-10**15, 10**15), min_size=1, max_size=70)
valuations = st.integers(-40, 40)


@given(wide_runs, wide_runs, valuations, valuations)
@settings(max_examples=200)
def test_kron_conv_matches_schoolbook(a, b, va, vb):
    _assert_mul_matches_term_sum(a, b, va, vb)


@given(wide_runs, wide_runs, st.sampled_from(["a", "b", "both"]))
def test_kron_conv_matches_schoolbook_on_all_zero_runs(a, b, zeros):
    # an all-zero run on either side gives the canonical zero
    if zeros != "b":
        a = [0] * len(a)
    if zeros != "a":
        b = [0] * len(b)
    _assert_mul_matches_term_sum(a, b, -3, 2)
    assert LaurentPoly._raw(0, [0]) * LaurentPoly._raw(0, [300]) == ZERO


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kron_conv_matches_schoolbook_around_the_cap(data):
    # runs of up to 70 coefficients of up to 70 bits, with len(a) * len(b)
    # on both sides of 600 pairs, zeros (leading and trailing ones too) and
    # signs mixed in, at negative and positive valuations
    coeff = st.one_of(st.just(0), st.integers(-(1 << 70), 1 << 70))
    n = data.draw(st.integers(1, 60))
    m = min(70, max(1, data.draw(st.integers(300, 1200)) // n))
    a = data.draw(st.lists(coeff, min_size=n, max_size=n))
    b = data.draw(st.lists(coeff, min_size=m, max_size=m))
    _assert_mul_matches_term_sum(a, b, data.draw(valuations), data.draw(valuations))


def _digits_value(digits, width):
    return sum(d << width * at for at, d in enumerate(digits))


def _digits_poly(digits, low=0):
    return P([(low + at, d) for at, d in enumerate(digits)])


# decode unpacks the signed base-2^W digits of an image into a polynomial
@given(st.integers(1, 9), st.integers(-9, 9), st.data())
@settings(max_examples=300)
def test_unpack_signed_round_trips_digit_runs(nbytes, low, data):
    half = 1 << 8 * nbytes - 1
    digit = st.one_of(st.sampled_from([0, 1, -1, half - 1, 1 - half, -half]),
                      st.integers(-half, half - 1))
    digits = data.draw(st.lists(digit, max_size=12))
    width = 8 * nbytes
    assert decode(_digits_value(digits, width), width, low) == _digits_poly(digits, low)


@pytest.mark.parametrize("nbytes", range(1, 10))
def test_unpack_signed_edges(nbytes):
    width = 8 * nbytes
    half = 1 << width - 1
    top, bottom = half - 1, 1 - half
    for digits in ([], [0], [0, 0, 0], [top], [bottom], [-half], [1], [-1],
                   [top] * 5, [bottom] * 5, [-half] * 5, [top, bottom] * 3,
                   [top, 0, 0], [0, 0, top, 0], [3, -1], [top, -1, 0, 0],
                   [bottom, top, -half], [-half, top], [0, -half, 0]):
        value = _digits_value(digits, width)
        assert decode(value, width) == _digits_poly(digits), digits
        assert decode(value, width, -3) == _digits_poly(digits, -3), digits
    assert decode(0, width) == ZERO
    # a slot one past the largest digit carries into the next one
    assert decode(half, width) == P({0: -half, 1: 1})
    assert decode(-half - 1, width) == P({0: top, 1: -1})


_bounds = st.one_of(st.integers(0, 1 << 300),
                    st.integers(0, 300).map(lambda b: (1 << b) - 1),
                    st.integers(0, 300).map(lambda b: 1 << b))


@given(_bounds, st.integers(-9, 9), st.data())
@settings(max_examples=300)
def test_image_width_decodes_every_run_within_its_bound(bound, low, data):
    width = image_width(bound)
    assert width % 8 == 0 and width >= 32 and 1 << width - 1 > bound
    digit = st.one_of(st.sampled_from([0, bound, -bound]), st.integers(-bound, bound))
    digits = data.draw(st.lists(digit, max_size=12))
    assert decode(_digits_value(digits, width), width, low) == _digits_poly(digits, low)


# -- truncated series --------------------------------------------------------

def test_series_from_poly_drops_high_terms():
    s = TruncSeries.from_poly(P({0: 1, 5: 1}), 4)
    assert s.coeffs == (1, 0, 0, 0)


def test_series_from_poly_zero():
    assert TruncSeries.from_poly(P({}), 3).coeffs == (0, 0, 0)


def test_series_from_poly_example():
    assert TruncSeries.from_poly(P({0: 1, 1: -1, 3: 1}), 3).coeffs == (1, -1, 0)


def test_series_from_poly_negative_exponent():
    with pytest.raises(NegativeExponent):
        TruncSeries.from_poly(P({-1: 1}), 3)


def test_series_mul():
    s = TruncSeries.from_poly(P({0: 1, 1: 1}), 3)
    t = TruncSeries.from_poly(P({0: 1, 1: -1}), 3)
    assert (s * t).coeffs == (1, 0, -1)
    one = TruncSeries.one(3)
    assert s * one == s


def test_series_mul_hand_convolution():
    s = TruncSeries.from_poly(P({0: 1, 1: 1, 2: 1}), 3)
    assert (s * s).coeffs == (1, 2, 3)


def test_series_recip_geometric():
    s = TruncSeries.from_poly(P({0: 1, 1: -1}), 4)
    assert s.recip().coeffs == (1, 1, 1, 1)


def test_series_recip_one():
    one = TruncSeries.one(5)
    assert one.recip() == one


def test_series_recip_fibonacci():
    s = TruncSeries.from_poly(P({0: 1, 1: -1, 2: -1}), 5)
    assert s.recip().coeffs == (1, 1, 2, 3, 5)


def test_series_recip_needs_unit():
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries.from_poly(P({0: 2}), 3).recip()
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries(3).recip()


def test_series_equality_common_order():
    assert TruncSeries(3, (1, 2, 3)) == TruncSeries(5, (1, 2, 3, 9, 9))
    assert TruncSeries(3, (1, 2, 3)) != TruncSeries(5, (1, 2, 4, 9, 9))


def test_series_order_propagates():
    s = TruncSeries(3, (1, 1, 1))
    t = TruncSeries(7, (1,))
    assert (s + t).order == 3
    assert (s * t).order == 3


# short runs, and dense runs of 25 to 40 coefficients, whose products take
# 625 to 1,600 coefficient pairs
series = st.builds(
    lambda cs, extra: TruncSeries(len(cs) + extra, cs),
    st.lists(st.integers(-9, 9), min_size=1, max_size=10)
    | st.lists(st.integers(-9, -1) | st.integers(1, 9), min_size=25, max_size=40),
    st.integers(0, 3))


@given(polys.filter(lambda p: not p or p.valuation >= 0),
       polys.filter(lambda p: not p or p.valuation >= 0),
       st.integers(1, 12))
def test_truncation_is_a_ring_map(p, r, order):
    lhs = TruncSeries.from_poly(p * r, order)
    rhs = TruncSeries.from_poly(p, order) * TruncSeries.from_poly(r, order)
    assert lhs == rhs


@given(series)
def test_series_recip_property(s):
    cs = list(s.coeffs)
    cs[0] = 1 if cs[0] >= 0 else -1
    s = TruncSeries(s.order, cs)
    assert s * s.recip() == TruncSeries.one(s.order)


# -- canonical text ----------------------------------------------------------

def test_render_examples():
    assert str(P({0: 1, 1: -1, 3: 2})) == "1 - q + 2*q^3"
    assert str(P({})) == "0"
    assert str(P({-1: -1})) == "-q^-1"
    assert str(P({-2: 1, 0: -3, 1: 1})) == "q^-2 - 3 + q"
    assert str(P({1: 1})) == "q"


def test_parse_examples():
    assert parse_poly("1 - q + 2*q^3") == P({0: 1, 1: -1, 3: 2})
    assert parse_poly("0") == P({})
    assert parse_poly("-q^-1") == P({-1: -1})
    assert parse_poly("  q^-2 - 3 + q ") == P({-2: 1, 0: -3, 1: 1})
    assert parse_poly("2 * q ^ - 3") == P({-3: 2})
    assert parse_poly("+q") == P({1: 1})
    assert parse_poly("q ^3") == P({3: 1})
    assert parse_poly(" - 0 ") == P({})


@pytest.mark.parametrize("bad", ["", "q^", "3*", "1 +", "x + 1", "2q", "^3",
                                 "1 2", "q q", "*q", "q^+3", "--q", "1 + -q",
                                 "q^3^2", "2**q", " "])
def test_parse_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


@given(polys)
def test_render_parse_round_trip(p):
    assert parse_poly(render_poly(p)) == p


def test_q_power():
    assert q_power(3) == P({3: 1})
    assert q_power(-2) == P({-2: 1})
