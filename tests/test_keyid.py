"""Key identity tests: both sides, boundary, recurrences, specializations."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qgollnitz.qcore import (LaurentPoly, NegativeExponent, TruncSeries,
                             poly_prod, q_power)
from qgollnitz import keyid, qcomb, qcore
from qgollnitz.qcomb import poch_qpow, qbinom, qmultinom, triangular
from qgollnitz.corollaries import jacobi_cube_poly_summands
from qgollnitz.keyid import (Sextuple, _sextuple_rows, boundary_value,
                             check_boundary, check_key, check_key_limit,
                             check_recurrence_andrews, check_recurrence_g,
                             check_recurrence_p, check_schur_case,
                             check_support, closed_form_diag,
                             cycle_summand, enumerate_sextuples, key_limit_lhs,
                             key_limit_rhs, key_summands, lhs_g, lhs_g_parts,
                             lhs_summands, poch_quotient_sum, rhs_p,
                             rhs_summands, schur_sides, summand_poly,
                             summands_agree)


def P(terms):
    return LaurentPoly(terms)


# -- sextuple enumeration ----------------------------------------------------

def test_sextuples_zero():
    assert enumerate_sextuples(0, 0, 0) == [Sextuple(0, 0, 0, 0, 0, 0)]


def test_sextuples_111():
    got = enumerate_sextuples(1, 1, 1)
    assert set(got) == {Sextuple(1, 1, 1, 0, 0, 0), Sextuple(0, 0, 1, 1, 0, 0),
                        Sextuple(0, 1, 0, 0, 1, 0), Sextuple(1, 0, 0, 0, 0, 1)}
    # deterministic order: lexicographic in (ab, ac, bc)
    assert [(s.ab, s.ac, s.bc) for s in got] == sorted((s.ab, s.ac, s.bc) for s in got)


def test_sextuples_negative_parameter():
    assert enumerate_sextuples(-1, 0, 0) == []


def test_sextuple_constraints_hold():
    for s in enumerate_sextuples(3, 2, 4):
        assert s.a + s.ab + s.ac == 3
        assert s.b + s.ab + s.bc == 2
        assert s.c + s.ac + s.bc == 4
        assert s.t == sum(s)


def test_sextuple_rows_match_enumeration():
    for i, j, k in itertools.product(range(-2, 6), repeat=3):
        rows = [(sx, sx.t, triangular(sx.t) + triangular(sx.ab) + triangular(sx.ac))
                for sx in enumerate_sextuples(i, j, k)]
        assert list(_sextuple_rows(i, j, k)) == rows, (i, j, k)


def _clear_memos():
    for module in (qcomb, keyid):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()


def test_memo_state_never_changes_an_answer():
    # a shuffle of acceptance-grid tuples, so (i, j, k) changes between
    # calls and sextuple rows are evicted and rebuilt; each answer must
    # match the one computed from empty memos
    grid = list(itertools.product(range(-2, 5), range(-2, 5), range(-2, 5),
                                  range(-3, 11), range(-3, 11)))
    tuples = random.Random(13).sample(grid, 5000)
    warm = [(key_summands(*args), check_key(*args)) for args in tuples]
    for args, answer in zip(tuples, warm):
        _clear_memos()
        assert answer == (key_summands(*args), check_key(*args)), args


# -- the two sides -----------------------------------------------------------

def test_lhs_g_trivial_cases():
    for L, M in [(0, 0), (3, 5), (7, 2)]:
        assert lhs_g(0, 0, 0, L, M) == P({0: 1})


@pytest.mark.parametrize("L,M", [(1, 1), (4, 4), (5, 2), (2, 9)])
def test_lhs_g_single_part(L, M):
    assert lhs_g(1, 0, 0, L, M) == qbinom(L, 1).shift(1)
    assert rhs_p(1, 0, 0, L, M) == qbinom(L, 1).shift(1)


def test_lhs_g_negative_parameter_vanishes():
    assert lhs_g(-1, 2, 0, 5, 5) == P({})
    assert rhs_p(-1, 2, 0, 5, 5) == P({})


def test_rhs_p_diagonal_frozen():
    assert rhs_p(1, 1, 1, 3, 3) == P({3: 1, 4: 3, 5: 3, 6: 1})


def test_lhs_g_parts_sum_to_whole():
    for args in [(2, 1, 1, 4, 5), (1, 1, 1, 3, 3), (2, 2, 2, 6, 6)]:
        first, second = lhs_g_parts(*args)
        assert first + second == lhs_g(*args)


def test_lhs_g_second_sum_needs_a_and_bc():
    # with i = 0 every solution has a = 0, so the second sum is empty
    _, second = lhs_g_parts(0, 2, 2, 5, 5)
    assert second == P({})


def test_check_key_spot_values():
    assert check_key(2, 1, 1, 4, 5)
    assert check_key(0, 0, 0, 0, 0)
    assert check_key(1, 1, 0, -2, 3)


def test_check_key_small_grid_with_negatives():
    for i in range(-1, 3):
        for j in range(-1, 3):
            for k in range(-1, 3):
                for L in range(-2, 5):
                    for M in range(-2, 5):
                        assert check_key(i, j, k, L, M), (i, j, k, L, M)


# -- deciding equality on summand lists ---------------------------------------

# a factor (top, b1, ...) is the q-multinomial [top; b1, ...]; tops and
# bottoms may be negative, so factors may be zero or Laurent
factors = st.builds(lambda top, bottoms: (top, *bottoms), st.integers(-6, 9),
                    st.lists(st.integers(-1, 5), min_size=1, max_size=3))
# a summand may carry an integer coefficient, zero included, as a third element
coefficients = st.one_of(st.just(()), st.tuples(st.integers(-9, 9)))
summands = st.builds(lambda shift, fs, coeff: (shift, fs, *coeff),
                     st.integers(-12, 12), st.lists(factors, max_size=3).map(tuple),
                     coefficients)
sides = st.lists(summands, max_size=4)


def product_poly(summands):
    """A summand list's value by the polynomial product formulas: the
    product of each summand's qbinom / qmultinom factors, times its
    coefficient and q^shift.  It shares no code with the image evaluator
    behind summand_poly and summands_agree, so the tests hold both to it."""
    total = LaurentPoly()
    for shift, fs, *coeff in summands:
        term = poly_prod([qbinom(*f) if len(f) == 2 else qmultinom(f[0], f[1:])
                          for f in fs])
        total = total + (term * (coeff[0] if coeff else 1)).shift(shift)
    return total


def _same_value(data, side):
    """A different summand list with the same value: multinomials split into
    binomials, some binomials expanded by q-Pascal (which holds for all
    integers), summands shuffled."""
    out = []
    for shift, fs, *coeff in side:
        fs = [g for top, *bottoms in fs
              for g in [(top - sum(bottoms[:n]), b) for n, b in enumerate(bottoms)]]
        pick = data.draw(st.integers(-1, len(fs) - 1))
        if pick < 0:
            out.append((shift, tuple(fs), *coeff))
            continue
        (n, m), rest = fs[pick], fs[:pick] + fs[pick + 1:]
        out.append((shift, tuple(rest) + ((n - 1, m),), *coeff))
        out.append((shift + n - m, tuple(rest) + ((n - 1, m - 1),), *coeff))
    return data.draw(st.permutations(out))


def _plus_one(side, at):
    """side with 1 added to the coefficient of its summand number at."""
    shift, fs, *coeff = side[at]
    return side[:at] + [(shift, fs, (coeff[0] if coeff else 1) + 1)] + side[at + 1:]


@given(sides, sides)
@settings(max_examples=300)
def test_summands_agree_iff_polynomials_equal(left, right):
    assert summands_agree(left, right) == (product_poly(left) == product_poly(right))


@given(sides)
@settings(max_examples=300)
def test_summand_poly_matches_product_oracle(side):
    assert summand_poly(side) == product_poly(side)
    assert summand_poly(iter(side)) == product_poly(side)


def test_summand_poly_matches_product_oracle_on_listed_families():
    families = [
        [],                                                  # empty
        [(3, ((5, 0),)), (-2, ((-4, 0), (0, 0)), 7)],        # [n; 0] factors
        [(0, (), 5), (2, (), -3), (2, (), 3), (-4, (), -1)],  # coefficients only
        [(1, ((-3, 2, 1),), 2), (0, ((-5, 1, 1, 2), (6, 2)))],  # negative tops
        [(2, ((-2, 3, -1),)), (0, ((4, 5),), 3), (1, (), 0)],   # zero summands
    ]
    for L in range(-3, 9):
        families.append([cycle_summand(i, j, k, L, (L + 2) * (-1 if (i + j + k) % 2 else 1))
                         for i, j, k in itertools.product(range(-1, 4), repeat=3)])
    for side in families:
        assert summand_poly(side) == product_poly(side), side
        assert summand_poly(x for x in side) == product_poly(side), side


def test_summand_poly_matches_product_oracle_on_key_summands():
    for args in itertools.product(range(-1, 4), range(-1, 4), range(-1, 4),
                                  range(-3, 9), range(-3, 9)):
        first, second = lhs_summands(*args)
        right = rhs_summands(*args)
        for side in (first, second, right):
            assert summand_poly(side) == product_poly(side), args


def test_summand_poly_builds_no_polynomial_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("summand_poly built a polynomial product")
    side = [(1, ((7, 3), (-2, 2)), -3), (0, ((9, 2, 3),)), (4, ((6, 3),), 2)]
    expected = product_poly(side)
    for owner, name in ((qcomb, "qbinom"), (qcomb, "_qmultinom"),
                        (qcomb, "_qbinom_nonneg"), (qcore, "poly_prod"),
                        (LaurentPoly, "__mul__")):
        monkeypatch.setattr(owner, name, forbidden)
    assert summand_poly(side) == expected


@given(sides, st.data())
@settings(max_examples=300)
def test_summands_agree_on_rewritten_side(side, data):
    other = _same_value(data, side)
    assert product_poly(other) == product_poly(side)
    assert summands_agree(side, other)
    assert summands_agree(other, side)
    value = product_poly(side)
    drop = data.draw(st.integers(0, max(len(other) - 1, 0)))
    bads = [[(e + 1, *rest) for e, *rest in other],         # times q
            other + [(data.draw(st.integers(-12, 12)), ())],  # + q^e
            other[:drop] + other[drop + 1:]]                # one summand dropped
    if other:
        bads.append(_plus_one(other, drop))                 # one coefficient + 1
    for bad in bads:
        assert summands_agree(side, bad) == (value == product_poly(bad))


@pytest.mark.parametrize("a", range(1, 7))
def test_summands_agree_at_the_coefficient_bound(a):
    # x*q against x*2^a: with B = x*(2^a + 1) the coefficients come close to
    # the bound, so a width W even a few bits short of 2^W > B would find
    # the two values equal at q = 2^W
    for x in range(1, 17):
        assert not summands_agree([(1, ())] * x, [(0, ())] * (x << a))
        assert summands_agree([(1, ())] * x, [(1, ())] * x)
        # the same with coefficients: the bound counts |coefficient|
        assert not summands_agree([(1, (), x)], [(0, (), x << a)])
        assert not summands_agree([(1, (), -x), (0, (), x << a)], [])
        assert summands_agree([(1, (), x)], [(1, ())] * x)


@pytest.mark.parametrize("a", range(1, 7))
def test_summand_poly_at_the_coefficient_bound(a):
    # every coefficient is at most B in size, and here one coefficient is
    # +B or -B exactly; B = x * 2^a runs past 2^7, 2^8, 2^15 and 2^16 - 1, so
    # a width of whole bytes without a spare sign bit decodes +B wrongly
    for x in [*range(1, 17), 32, 64, 127, 255, 257, 32767, 65535]:
        b = x << a
        for c in (b, -b, b - 1, 1 - b):
            assert summand_poly([(1, (), c)]) == P({1: c})
            assert summand_poly([(2, (), c), (-1, (), 0)]) == P({2: c})
        assert summand_poly([(1, (), x)] * (1 << a)) == P({1: b})
        assert summand_poly([(-3, (), -x)] * (1 << a)) == P({-3: -b})
        # +B next to smaller coefficients of either sign, and a whole
        # binomial at that scale
        assert summand_poly([(0, (), b), (-1, (), -1), (1, (), -1)]) \
            == P({0: b, -1: -1, 1: -1})
        assert summand_poly([(0, ((4, 2),), b)]) == qbinom(4, 2) * b


def _key_sides(i, j, k, L, M):
    first, second = lhs_summands(i, j, k, L, M)
    return first + second, rhs_summands(i, j, k, L, M)


def test_key_summands_evaluate_to_both_sides():
    for args in itertools.product(range(-1, 3), range(-1, 3), range(0, 3),
                                  range(-2, 5), range(-2, 5)):
        first, second = lhs_summands(*args)
        assert (product_poly(first), product_poly(second)) == lhs_g_parts(*args)
        assert product_poly(first + second) == lhs_g(*args)
        assert product_poly(rhs_summands(*args)) == rhs_p(*args)


def test_key_summands_reject_corruption():
    checked = 0
    for args in itertools.product(range(0, 4), range(0, 3), range(0, 3),
                                  range(-3, 7), range(-3, 7)):
        left, right = _key_sides(*args)
        assert summands_agree(left, right), args
        value = product_poly(right)
        if not value:
            continue
        checked += 1
        e = value.valuation
        assert not summands_agree(left, [(s + 1, fs) for s, fs in right])
        assert not summands_agree(left, right + [(e, ())])
        assert not summands_agree(left + [(e + 3, ())], right)
        for n in range(len(left)):  # every listed lhs summand is nonzero
            assert not summands_agree(left[:n] + left[n + 1:], right)
    assert checked > 1000


@given(st.integers(-1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_summands_agree_on_the_cube_analog(L, data):
    # sum (-1)^l (2l+1) q^T(l) against the signed binomial cycle; the left
    # side is a list of coefficient-only summands
    left, right = jacobi_cube_poly_summands(L)
    right = list(right)
    assert summands_agree(left, right)
    assert summands_agree(left, iter(right))
    if not left:
        return
    at = data.draw(st.integers(0, len(left) - 1))
    flip = [(e, fs, -c) if n == at else (e, fs, c)
            for n, (e, fs, c) in enumerate(left)]
    for bad in (_plus_one(left, at), flip, left[:at] + left[at + 1:]):
        assert product_poly(bad) != product_poly(right)
        assert not summands_agree(bad, right)
    for bad in (_plus_one(right, data.draw(st.integers(0, len(right) - 1))),
                right + [(data.draw(st.integers(0, 30)), (), 2 * L + 3)]):
        assert not summands_agree(left, bad)


def test_rhs_summands_are_nonzero():
    for i, j, k, L, M in itertools.product(range(-1, 4), range(0, 4), range(0, 4),
                                           range(-3, 7), range(-3, 7)):
        listed = rhs_summands(i, j, k, L, M)
        assert all(product_poly([summand]) for summand in listed)
        live = sum(1 for s in range(min(i, j, k) + 1)
                   if qmultinom(L - s, (s, i - s, j - s)) and qbinom(M - i - j, k - s))
        assert len(listed) == live


def test_key_sides_are_laurent_for_negative_bounds():
    val = lhs_g(1, 1, 0, -2, 3)
    assert val and val.valuation < 0


# -- boundary ----------------------------------------------------------------

def test_boundary_value_examples():
    assert boundary_value(0, 0, 2, 5) == qbinom(5, 2).shift(3)
    assert boundary_value(1, 0, 0, 4) == P({})
    assert boundary_value(0, 0, 0, 9) == P({0: 1})


def test_boundary_cross_check():
    # delta case: lhs at L = i+j-1 = 0 gives q [0; 1] = 0
    assert lhs_g(1, 0, 0, 0, 4) == P({})
    assert check_boundary(1, 0, 0, 4)


def test_boundary_small_grid():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for M in range(6):
                    assert check_boundary(i, j, k, M)


# -- recurrences -------------------------------------------------------------

def test_recurrence_examples():
    assert check_recurrence_g(2, 2, 1, 5, 5)
    assert check_recurrence_g(0, 0, 0, 1, 1)
    assert check_recurrence_g(1, 2, 2, 4, 6)
    assert check_recurrence_p(2, 2, 1, 5, 5)
    assert check_recurrence_p(0, 0, 0, 1, 1)
    assert check_recurrence_p(1, 2, 2, 4, 6)


def test_andrews_recurrence_examples():
    assert check_recurrence_andrews(2, 2, 2, 6, 6)
    assert check_recurrence_andrews(0, 0, 0, 2, 2)
    assert check_recurrence_andrews(3, 2, 2, 7, 8)


def test_recurrences_small_grid():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for L in range(5):
                    for M in range(5):
                        assert check_recurrence_g(i, j, k, L, M)
                        assert check_recurrence_p(i, j, k, L, M)
                        assert check_recurrence_andrews(i, j, k, L, M)


# -- diagonal closed form ----------------------------------------------------

def test_closed_form_diag_examples():
    assert closed_form_diag(1, 1, 1, 3) == P({3: 1, 4: 3, 5: 3, 6: 1})
    assert closed_form_diag(0, 0, 0, 7) == P({0: 1})
    expected = (qbinom(4, 2) * qbinom(2, 1) * qbinom(3, 0)).shift(4)
    assert closed_form_diag(2, 1, 0, 4) == expected
    assert closed_form_diag(2, 1, 0, 4) == rhs_p(2, 1, 0, 4, 4)


def test_closed_form_diag_matches_rhs_grid():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for L in range(7):
                    assert rhs_p(i, j, k, L, L) == closed_form_diag(i, j, k, L)


def test_closed_form_diag_cyclic_symmetry():
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for L in range(8):
                    v = closed_form_diag(i, j, k, L)
                    assert v == closed_form_diag(j, k, i, L)
                    assert v == closed_form_diag(k, i, j, L)


# -- Schur specialization ----------------------------------------------------

def test_schur_examples():
    for L, M in [(2, 2), (5, 6), (3, 7)]:
        assert check_schur_case(1, 0, L, M)
        left, right = schur_sides(1, 0, L, M)
        assert left == right == qbinom(L, 1).shift(1)
        assert check_schur_case(0, 0, L, M)
    assert check_schur_case(2, 2, 5, 6)


def test_schur_small_grid():
    for j in range(4):
        for k in range(4):
            for L in range(6):
                for M in range(6):
                    assert check_schur_case(j, k, L, M)


# -- unbounded limit ---------------------------------------------------------

def test_key_limit_trivial():
    for order in (1, 5, 12):
        assert key_limit_lhs(0, 0, 0, order) == TruncSeries.one(order)
        assert key_limit_rhs(0, 0, 0, order) == TruncSeries.one(order)


def test_key_limit_single_part():
    want = TruncSeries(6, (0, 1, 1, 1, 1, 1))  # q/(1-q) mod q^6
    assert key_limit_lhs(1, 0, 0, 6) == want
    assert key_limit_rhs(1, 0, 0, 6) == want


def test_key_limit_111():
    assert check_key_limit(1, 1, 1, 20)


def test_key_limit_small_grid():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert check_key_limit(i, j, k, 15)
    # T(i) + T(j) + T(k) = 18 reaches the order: both sides vanish, and the
    # shared sum skips a numerator of valuation >= order
    assert not key_limit_rhs(3, 3, 3, 18) and not key_limit_lhs(3, 3, 3, 18)
    assert key_limit_rhs(3, 3, 3, 19) == TruncSeries(19, [0] * 18 + [1])
    assert not poch_quotient_sum([(q_power(18), (3, 3, 3))], 18)


def test_poch_quotient_sum_matches_reciprocal_formula():
    # oracle: each numerator times the series reciprocal of its product of
    # Pochhammer polynomials; a negative length makes the term zero
    def oracle(terms, order):
        total = TruncSeries(order)
        for numer, lengths in terms:
            if min(lengths) >= 0:
                denom = poly_prod(poch_qpow(1, n) for n in lengths)
                total = total + TruncSeries.from_poly(numer, order) \
                    * TruncSeries.from_poly(denom, order).recip()
        return total

    for order in range(1, 31):
        numers = [P({0: 1, 1: -2, 3: 5}), P({order - 1: 3, order + 2: -1}),
                  q_power(order), P({order + 1: 4, 2 * order: 1})]
        lengths = [(0,), (1,), (order,), (order + 3,), (1, 2, 3),
                   (2, 0, order + 1), (3, -1)]
        terms = list(itertools.product(numers, lengths))
        for term in terms:
            assert poch_quotient_sum([term], order) == oracle([term], order)
        assert poch_quotient_sum(terms, order) == oracle(terms, order)
    with pytest.raises(NegativeExponent):
        poch_quotient_sum([(P({-1: 1, 2: 1}), (2,))], 5)


def test_key_limit_negative_parameters_vanish():
    assert not key_limit_lhs(-1, 0, 0, 8)
    assert not key_limit_rhs(-1, 0, 0, 8)
    for i, j, k in [(-1, 2, 1), (2, -1, 1), (1, 2, -2)]:
        lhs, rhs = key_limit_lhs(i, j, k, 8), key_limit_rhs(i, j, k, 8)
        assert lhs == rhs == poch_quotient_sum([], 8) == TruncSeries(8)


def test_key_limit_matches_bounded_truncation():
    # large L, M: the bounded sides converge to the limit below the order
    order = 12
    for i, j, k in [(1, 0, 0), (1, 1, 1), (2, 1, 0)]:
        bounded = TruncSeries.from_poly(lhs_g(i, j, k, 30, 30), order)
        assert bounded == key_limit_lhs(i, j, k, order)


# -- support property --------------------------------------------------------

def test_support_property_grid():
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for L in range(max(i + j, j + k, k + i), 9):
                    assert check_support(i, j, k, L)


def test_support_requires_bound():
    with pytest.raises(ValueError):
        check_support(2, 2, 0, 3)
