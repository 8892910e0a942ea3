"""Tests for the bounded triple product, false theta, cube analogs, the
q = 1 collapse, and the four parameter identity."""

import itertools

import pytest

from qgollnitz.qcomb import NegativeLength
from qgollnitz.qcore import BivarLaurent, LaurentPoly, TruncSeries
from qgollnitz.keyid import key_limit_lhs, key_limit_rhs
from qgollnitz.corollaries import (Decuple, bounded_jtp_lhs,
                                   carl_poly_sides, carlitz_sides,
                                   check_bounded_jtp, enumerate_decuples,
                                   false_theta_sides, four_param_sides,
                                   jacobi_cube_poly_sides, jacobi_cube_series,
                                   jtp_series, poch_series)


def P(terms):
    return LaurentPoly(terms)


def truncate_bivar(bp, order):
    """Per-coefficient truncation of a polynomial BivarLaurent to series."""
    return BivarLaurent((e, TruncSeries.from_poly(c, order))
                        for e, c in bp.terms.items())


# -- bounded Jacobi triple product -------------------------------------------

def test_jtp_bounded_L0():
    assert bounded_jtp_lhs(0) == BivarLaurent({0: P({0: 1})})
    assert check_bounded_jtp(0)


def test_jtp_bounded_L1_lhs_frozen():
    want = BivarLaurent({-1: P({1: 1}), 0: P({0: 1, 2: -1}), 1: P({1: 1})})
    assert bounded_jtp_lhs(1) == want


def test_jtp_bounded_small_range():
    for L in range(6):
        assert check_bounded_jtp(L), L


def test_jtp_bounded_stabilizes_to_series():
    # coefficients of each A power settle at rate q^(2L)
    L = 8
    order = 2 * L
    lhs_series, rhs_series = jtp_series(order)
    assert truncate_bivar(bounded_jtp_lhs(L), order) == lhs_series == rhs_series


# -- triple product series ---------------------------------------------------

def test_jtp_series_order1():
    lhs, rhs = jtp_series(1)
    assert lhs == rhs == BivarLaurent({0: TruncSeries.one(1)})


def test_jtp_series_order2():
    lhs, rhs = jtp_series(2)
    q = TruncSeries.from_poly(P({1: 1}), 2)
    assert lhs == rhs == BivarLaurent({-1: q, 0: TruncSeries.one(2), 1: q})


def test_jtp_series_order10():
    lhs, rhs = jtp_series(10)
    assert lhs == rhs


# -- false theta -------------------------------------------------------------

def test_false_theta_lhs_frozen():
    lhs, _ = false_theta_sides(5)
    assert lhs == TruncSeries(5, (1, -1, 0, 1, 0))


def test_false_theta_order1():
    lhs, rhs = false_theta_sides(1)
    assert lhs == rhs == TruncSeries.one(1)


def test_false_theta_order12():
    lhs, rhs = false_theta_sides(12)
    assert lhs == rhs


# -- Jacobi cube analogs -----------------------------------------------------

def test_jacobi_cube_poly_examples():
    lhs, rhs = jacobi_cube_poly_sides(0)
    assert lhs == rhs == P({0: 1})
    lhs, rhs = jacobi_cube_poly_sides(1)
    assert lhs == rhs == P({0: 1, 1: -3})


def test_jacobi_cube_poly_range():
    for L in range(13):
        lhs, rhs = jacobi_cube_poly_sides(L)
        assert lhs == rhs, L


def test_jacobi_cube_series_examples():
    lhs, rhs = jacobi_cube_series(2)
    assert lhs == rhs == TruncSeries(2, (1, -3))
    lhs, rhs = jacobi_cube_series(30)
    assert lhs == rhs


def test_jacobi_cube_poly_truncates_to_series():
    L = 20
    order = L + 1
    poly_lhs, _ = jacobi_cube_poly_sides(L)
    series_lhs, _ = jacobi_cube_series(order)
    assert TruncSeries.from_poly(poly_lhs, order) == series_lhs


def test_poch_series_matches_polynomial():
    from qgollnitz.qcomb import poch_qpow
    # k >= order and n > order are where poch_series leaves factors out
    for k in (1, 2, 3, 11, 12, 15):
        for n in (0, 1, 2, 3, 4, 11, 12, 13, 20):
            assert poch_series(k, n, 12) == \
                TruncSeries.from_poly(poch_qpow(k, n), 12)


def test_poch_series_rejects_negative_lengths():
    # as poch_qpow does, also where every factor would be left out (k >= order)
    from qgollnitz.qcomb import poch_qpow
    for k in (1, 3, 5, 12, 15):
        for n in (-1, -3):
            with pytest.raises(NegativeLength):
                poch_qpow(k, n)
            with pytest.raises(NegativeLength):
                poch_series(k, n, 5)


# -- a-weighted cycle and Carlitz collapse ------------------------------------

def test_carl_examples():
    lhs, rhs = carl_poly_sides(0)
    assert lhs == rhs == BivarLaurent({0: P({0: 1})})
    lhs, _ = carl_poly_sides(1)
    want = BivarLaurent({-1: P({1: 1}), 0: P({0: 1, 1: -1}), 1: P({1: 1})})
    assert lhs == want


def test_carl_range_and_substitution():
    for L in range(11):
        lhs, rhs = carl_poly_sides(L)
        assert lhs == rhs, L
        collapsed = lhs.substitute_one()
        assert collapsed == rhs.substitute_one()
        # at a = 1 the left side telescopes to sum of q^T(l)
        want = P({el * (el + 1) // 2: 1 for el in range(L + 1)})
        assert collapsed == want


def test_carlitz_examples():
    lhs, rhs = carlitz_sides(0)
    assert lhs == rhs == BivarLaurent({0: P({0: 1})})
    lhs, rhs = carlitz_sides(1)
    assert lhs == rhs == BivarLaurent({-1: P({0: 1}), 1: P({0: 1})})


def test_carlitz_range_and_collapse():
    for L in range(13):
        lhs, rhs = carlitz_sides(L)
        assert lhs == rhs, L
        assert lhs.substitute_one().at_one() == L + 1


# -- four parameter identity --------------------------------------------------

def test_decuple_zero():
    assert enumerate_decuples(0, 0, 0, 0) == \
        [Decuple(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]


def test_decuple_constraints_and_order():
    got = enumerate_decuples(1, 1, 1, 1)
    for d in got:
        assert d.a + d.ab + d.ac + d.ad + d.Q == 1
        assert d.b + d.ab + d.bc + d.bd + d.Q == 1
        assert d.c + d.ac + d.bc + d.cd + d.Q == 1
        assert d.d + d.ad + d.bd + d.cd + d.Q == 1
        assert d.t == sum(d[:10])
    keys = [(d.ab, d.ac, d.ad, d.bc, d.bd, d.cd, d.Q) for d in got]
    assert keys == sorted(keys)
    # brute force oracle over the full cube
    brute = set()
    for combo in itertools.product(range(2), repeat=7):
        ab, ac, ad, bc, bd, cd, Q = combo
        a = 1 - ab - ac - ad - Q
        b = 1 - ab - bc - bd - Q
        c = 1 - ac - bc - cd - Q
        d = 1 - ad - bd - cd - Q
        if min(a, b, c, d) >= 0:
            brute.add(Decuple(a, b, c, d, ab, ac, ad, bc, bd, cd, Q))
    assert set(got) == brute


def test_four_param_trivial():
    lhs, rhs = four_param_sides(0, 0, 0, 0, 9)
    assert lhs == rhs == TruncSeries.one(9)


def test_four_param_single():
    lhs, rhs = four_param_sides(1, 0, 0, 0, 8)
    assert lhs == rhs == TruncSeries(8, (0, 1, 1, 1, 1, 1, 1, 1))


def test_four_param_spot():
    lhs, rhs = four_param_sides(1, 1, 1, 1, 15)
    assert lhs == rhs
    # a negative parameter gives two zero series
    for params in [(-1, 1, 1, 1), (1, 0, 2, -1)]:
        lhs, rhs = four_param_sides(*params, 10)
        assert lhs == rhs == TruncSeries(10)
    # T(2) * 4 = 12 reaches the order: the right side is zero, and so is the
    # left
    lhs, rhs = four_param_sides(2, 2, 2, 2, 12)
    assert lhs == rhs == TruncSeries(12)
    assert four_param_sides(2, 2, 2, 2, 13)[1] == TruncSeries(13, [0] * 12 + [1])


def test_four_param_l0_reduces_to_limit():
    for i, j, k in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)]:
        for order in (1, 2, 12):
            lhs, rhs = four_param_sides(i, j, k, 0, order)
            assert lhs == key_limit_lhs(i, j, k, order)
            assert rhs == key_limit_rhs(i, j, k, order)
