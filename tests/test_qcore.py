"""Value-layer tests: exact polynomial/series arithmetic and text round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from qgollnitz.qcore import (BivarLaurent, LaurentPoly, NegativeExponent,
                             NonUnitConstantTerm, TruncSeries, parse_poly,
                             q_power, render_poly, unpack_signed)
from qgollnitz.qcore import _SCHOOLBOOK_CAP, _conv, _kron_conv


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


def test_pow():
    p = P({0: 1, 1: 1})
    assert p ** 0 == P({0: 1})
    assert p ** 3 == P({0: 1, 1: 3, 2: 3, 3: 1})


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


wide_runs = st.lists(st.integers(-10**15, 10**15), min_size=1, max_size=70)


@given(wide_runs, wide_runs)
@settings(max_examples=200)
def test_kron_conv_matches_schoolbook(a, b):
    if not any(a):
        a[0] = 1
    if not any(b):
        b[0] = 1
    assert _kron_conv(a, b) == _conv(a, b)


@given(wide_runs, wide_runs, st.sampled_from(["a", "b", "both"]))
def test_kron_conv_matches_schoolbook_on_all_zero_runs(a, b, zeros):
    # an all-zero run must not shrink the slots below the other run's
    # coefficients
    if zeros != "b":
        a = [0] * len(a)
    if zeros != "a":
        b = [0] * len(b)
    assert _kron_conv(a, b) == _conv(a, b)
    assert _kron_conv([0], [300]) == _conv([0], [300]) == [0]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kron_conv_matches_schoolbook_around_the_cap(data):
    # runs with len(a) * len(b) on both sides of the schoolbook cap, zeros
    # (leading and trailing ones too) and signs mixed in; the product
    # through LaurentPoly takes whichever path the cap picks.  A run that
    # is all zeros is never multiplied, so each run gets a nonzero entry.
    coeff = st.one_of(st.just(0), st.integers(-(1 << 70), 1 << 70))
    n = data.draw(st.integers(1, 60))
    m = max(1, data.draw(st.integers(_SCHOOLBOOK_CAP // 2, 2 * _SCHOOLBOOK_CAP)) // n)
    a = data.draw(st.lists(coeff, min_size=n, max_size=n))
    b = data.draw(st.lists(coeff, min_size=m, max_size=m))
    for run in (a, b):
        if not any(run):
            run[data.draw(st.integers(0, len(run) - 1))] = data.draw(coeff) or -1
    expected = _conv(a, b)
    assert _kron_conv(a, b) == expected
    assert LaurentPoly._raw(0, a) * LaurentPoly._raw(-3, b) == LaurentPoly._raw(-3, expected)


def _digits_value(digits, nbytes):
    return sum(d << 8 * nbytes * at for at, d in enumerate(digits))


def _trimmed(digits):
    digits = list(digits)
    while digits and not digits[-1]:
        digits.pop()
    return digits


@given(st.integers(1, 9), st.data())
@settings(max_examples=300)
def test_unpack_signed_round_trips_digit_runs(nbytes, data):
    half = 1 << 8 * nbytes - 1
    digit = st.one_of(st.sampled_from([0, 1, -1, half - 1, 1 - half, -half]),
                      st.integers(-half, half - 1))
    digits = data.draw(st.lists(digit, max_size=12))
    assert unpack_signed(_digits_value(digits, nbytes), nbytes) == _trimmed(digits)


@pytest.mark.parametrize("nbytes", range(1, 10))
def test_unpack_signed_edges(nbytes):
    half = 1 << 8 * nbytes - 1
    top, bottom = half - 1, 1 - half
    for digits in ([], [0], [0, 0, 0], [top], [bottom], [-half], [1], [-1],
                   [top] * 5, [bottom] * 5, [-half] * 5, [top, bottom] * 3,
                   [top, 0, 0], [0, 0, top, 0], [3, -1], [top, -1, 0, 0],
                   [bottom, top, -half], [-half, top], [0, -half, 0]):
        value = _digits_value(digits, nbytes)
        assert unpack_signed(value, nbytes) == _trimmed(digits), digits
    assert unpack_signed(0, nbytes) == []
    # a slot one past the largest digit carries into the next one
    assert unpack_signed(half, nbytes) == [-half, 1]
    assert unpack_signed(-half - 1, nbytes) == [top, -1]


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


# dense runs of 25 to 40 coefficients make products of more than
# _SCHOOLBOOK_CAP pairs, which take the Kronecker path
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


# -- auxiliary-variable Laurent polynomials ----------------------------------

def test_bivar_square():
    x = BivarLaurent({1: P({0: 1}), -1: P({0: 1})})
    assert x * x == BivarLaurent({2: P({0: 1}), 0: P({0: 2}), -2: P({0: 1})})


def test_bivar_substitute_one():
    x = BivarLaurent({1: P({1: 1}), -1: P({1: 1})})
    assert x.substitute_one() == P({1: 2})
    assert BivarLaurent().substitute_one() == P({})


def test_bivar_product_example():
    x = BivarLaurent({0: P({0: 1}), 1: P({1: 1})})
    y = BivarLaurent({0: P({0: 1}), -1: P({1: 1})})
    assert x * y == BivarLaurent({1: P({1: 1}),
                                  0: P({0: 1, 2: 1}),
                                  -1: P({1: 1})})


def test_bivar_zero_coefficients_dropped():
    x = BivarLaurent({0: P({0: 1}), 2: P({})})
    assert x.terms == {0: P({0: 1})}
    assert (x - x) == BivarLaurent()


bivars = st.dictionaries(st.integers(-3, 3), polys, max_size=4) \
    .map(BivarLaurent)


def flat(x):
    """A BivarLaurent as {(aux exponent, q exponent): coefficient}."""
    return {(a, e): c for a, p in x.terms.items() for e, c in p.terms.items()}


def flat_add(f, g, sign=1):
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def flat_mul(f, g):
    out = {}
    for (a1, e1), c1 in f.items():
        for (a2, e2), c2 in g.items():
            key = (a1 + a2, e1 + e2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


@given(bivars, bivars, st.data())
def test_bivar_ops_match_dict_oracle(x, z, data):
    # y repeats some of x's coefficients negated, so x + y cancels there;
    # (x + y) * (x - y) = x^2 - y^2 cancels its cross terms
    keep = data.draw(st.sets(st.sampled_from(sorted(x.terms)))) if x else set()
    y = BivarLaurent({**z.terms, **{a: -x.coeff(a) for a in keep}})
    fx, fy = flat(x), flat(y)
    fsum, fdiff = flat_add(fx, fy), flat_add(fx, fy, -1)
    for got, want in ((x + y, fsum), (x - y, fdiff), (x * y, flat_mul(fx, fy)),
                      ((x + y) * (x - y), flat_mul(fsum, fdiff))):
        assert flat(got) == want
        assert all(got.terms.values())  # no zero coefficient is stored


@given(bivars, bivars)
def test_substitute_one_is_a_ring_map(x, y):
    assert (x * y).substitute_one() == x.substitute_one() * y.substitute_one()
    assert (x + y).substitute_one() == x.substitute_one() + y.substitute_one()


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
