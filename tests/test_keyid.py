"""Key identity tests: both sides, boundary, recurrences, specializations."""

import functools
import gc
import itertools
import math
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qgollnitz.qcore import (LaurentPoly, NegativeExponent, TruncSeries,
                             poly_sum, q_power)
from qgollnitz import keyid, qcomb, qcore
from qgollnitz.qcomb import (qbinom, qbinom_is_nonzero, qmultinom, summand_poly,
                             triangular)
from qgollnitz.cli import SweepSpec, run_sweep
from qgollnitz.keyid import (Sextuple, _l_half, _m_half, _sum_normal,
                             _sextuple_rows, andrews_sides,
                             boundary_sides, boundary_value, check_key,
                             check_schur_case, check_support, closed_form_diag,
                             cycle_summand, enumerate_sextuples, key_limit_lhs,
                             key_limit_rhs, key_limit_sides, lhs_g,
                             poch_quotient_sum, recurrence_sides_g,
                             recurrence_sides_p, rhs_p, schur_sides)

import helpers
from helpers import (_mutant, cube_summands, lhs_g_parts, multinom_recurrence_relations,
                     multinom_three_sides, normal_is_zero, poch_qpow, summands_agree)


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
        rows = [(*sx, sx.t, triangular(sx.t) + triangular(sx.ab)
                 + triangular(sx.ac) + triangular(sx.bc),
                 triangular(sx.t) + triangular(sx.ab) + triangular(sx.ac)
                 + triangular(sx.bc - 1))
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
    warm = [_memoised_answers(*args) for args in tuples]
    for args, answer in zip(tuples, warm):
        _clear_memos()
        assert answer == _memoised_answers(*args), args


def _memoised_answers(*args):
    # every value the key sweeps read through the keyid and qcomb memos
    return lhs_g_parts(*args), lhs_g(*args), rhs_p(*args), check_key(*args)


_CRITERION_1 = {"i": (-2, 4), "j": (-2, 4), "k": (-2, 4),
                "L": (-3, 10), "M": (-3, 10)}


def _raw_sums(sx, L, M):
    """The two displayed summands of one sextuple, as the paper's double sum
    writes them: each binomial on its own, raw tops (negative ones included)."""
    a, b, c, ab, ac, bc = sx
    t = sx.t
    e = triangular(t) + triangular(ab) + triangular(ac)
    common = ((L - t + b, b), (M - t + c, c), (L - t, ab), (M - t, ac))
    return ([(e + triangular(bc), common + ((L - t + a, a), (M - t, bc)))],
            [(e + triangular(bc - 1), common + ((L - t + a - 1, a - 1), (M - t, bc - 1)))])


def _direct_lhs_summands(i, j, k, L, M):
    # the left side's two sums written out per sextuple as summand lists,
    # listing a summand only when none of its binomials is zero: the
    # reference for the L and M halves
    first, second = [], []
    for sx in enumerate_sextuples(i, j, k):
        for side, listed in zip((first, second), _raw_sums(sx, L, M)):
            side += [s for s in listed if all(qbinom_is_nonzero(*f) for f in s[1])]
    return first, second


def _direct_rhs_summands(i, j, k, L, M):
    # the right side written out per tuple as a summand list, the
    # reference for its halves
    return [(s * (M + 2) - triangular(s) + triangular(i - s) + triangular(j - s)
             + triangular(k - s), ((L - s, s, i - s, j - s), (M - i - j, k - s)))
            for s in range(min(i, j, k) + 1)
            if qbinom_is_nonzero(L - s, s) and qbinom_is_nonzero(L - 2 * s, i - s)
            and qbinom_is_nonzero(L - s - i, j - s)
            and qbinom_is_nonzero(M - i - j, k - s)]


def test_halves_match_a_direct_build_in_any_order():
    # from empty memos, criterion 1's grid in shuffled order, so the half
    # memos mostly miss and evict: each answer must equal an unmemoised
    # build of the same tuple; the right side's halves, joined, must equal
    # the normal form of its summand list; the weights' dot product must
    # equal the three sums' joined bound
    axes = [range(lo, hi + 1) for lo, hi in _CRITERION_1.values()]
    grid = list(itertools.product(*axes))
    random.Random(21).shuffle(grid)
    rows = {ijk: keyid._sextuple_rows.__wrapped__(*ijk)
            for ijk in itertools.product(*axes[:3])}
    _clear_memos()
    for i, j, k, L, M in grid:
        direct = tuple(map(_sum_normal, _l_half(rows[i, j, k], L), _m_half(rows[i, j, k], M)))
        l_half, m_half = keyid._l_halves(i, j, k, L), keyid._m_halves(i, j, k, M)
        assert tuple(map(_sum_normal, l_half[:2], m_half[:2])) == direct
        right = _sum_normal(l_half[2], m_half[2], -1)
        assert right == qcomb._normal_terms(_direct_rhs_summands(i, j, k, L, M))
        assert sum(map(operator.mul, l_half[3], m_half[3])) == \
            sum(term[3] for term in direct[0] + direct[1] + right)


def test_key_sweep_reads_each_half_once_per_key():
    # M runs innermost, so one (i, j, k, L) serves every M, and one
    # (i, j, k, M) every L: 343 * 14 misses of the 67,228 reads each; each
    # miss of the image memo reads its half once more (1,602 L, 1,615 M)
    _clear_memos()
    assert run_sweep(SweepSpec("key", _CRITERION_1)).ok
    for memo, image_misses in ((keyid._l_halves, 1602), (keyid._m_halves, 1615)):
        info = memo.cache_info()
        assert (info.hits, info.misses) == (62426 + image_misses, 4802), memo


def test_key_sweep_builds_few_images_and_retains_little():
    # all but 5 live tuples of criterion 1's grid have W = 32, so the image
    # memo misses 3,217 times, about once for each half with a live summand;
    # after the sweep the memos hold about 0.8 MiB
    _clear_memos()
    gc.collect()
    tracemalloc.start()
    try:
        assert run_sweep(SweepSpec("key", _CRITERION_1)).ok
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert keyid._images.cache_info().misses == 3217
    assert retained < 1 << 20, retained


def test_key_sweep_wider_than_the_m_half_memo():
    ranges = {"i": (0, 2), "j": (0, 2), "k": (0, 2), "L": (0, 12), "M": (0, 40)}
    assert keyid._m_halves.cache_info().maxsize < 41
    report = run_sweep(SweepSpec("key", ranges))
    assert report.ok, report.failures[:1]
    assert report.total == 27 * 13 * 41


def test_lhs_g_keeps_no_memo_entry_without_sextuples():
    keyid._lhs_g.cache_clear()
    for args in [(-1, 2, 0, 5, 5), (2, -1, 0, 5, 5), (0, 2, -1, 5, 5), (-3, -1, -2, 0, 0)]:
        assert lhs_g(*args) == qcore.ZERO
        assert keyid._lhs_g.cache_info().currsize == 0, args


def test_recurrence_sweeps_compute_each_lhs_g_value_once(monkeypatch):
    # from empty memos, recurrence-g then recurrence-andrews at their default
    # grids: one miss per distinct argument tuple with a sextuple, so no
    # value is evicted and built again
    _clear_memos()
    requested = set()
    real = keyid.lhs_g

    def recording(*args):
        requested.add(args)
        return real(*args)
    monkeypatch.setattr(keyid, "lhs_g", recording)
    for identity in ("recurrence-g", "recurrence-andrews"):
        assert run_sweep(SweepSpec(identity)).ok
    live = {args for args in requested if min(args[:3]) >= 0}
    assert 0 < len(live) < len(requested)
    assert keyid._lhs_g.cache_info().misses == len(live)


def _check_normal_terms(terms, where):
    # [n; n] = 1 changes neither a term's value nor its weight, so
    # factor_normal leaves it out: every pair has n > m > 0.  A weight is
    # |sign| times the pairs' C(n, m), their coefficients' sum, which makes
    # the summed weight B bound every coefficient of the sum.
    for term in terms:
        assert len(term) == 4, (where, term)
        sign, _, pairs, weight = term
        tops, bottoms = pairs[::2], pairs[1::2]
        assert all(n > m > 0 for n, m in zip(tops, bottoms)), (where, term)
        assert weight == abs(sign) * math.prod(map(math.comb, tops, bottoms)), (where, term)


def test_normal_forms_hold_no_unit_binomial(monkeypatch):
    # the key identity's three sums, from the halves and as summand lists,
    # and every term the multinom-rec decision joins on its default grid
    for args in itertools.product(range(-1, 4), range(-1, 4), range(-1, 4),
                                  range(-3, 11, 2), range(-3, 11, 2)):
        l_half, m_half = keyid._l_halves(*args[:4]), keyid._m_halves(*args[:3], args[4])
        for terms in map(_sum_normal, l_half[:3], m_half[:3], (1, 1, -1)):
            _check_normal_terms(terms, args)
        for summands in (*_direct_lhs_summands(*args), _direct_rhs_summands(*args)):
            _check_normal_terms(qcomb._normal_terms(summands), args)
    real, joined = qcomb._times, []

    def recording(*args):
        joined.append(term := real(*args))
        return term
    monkeypatch.setattr(qcomb, "_times", recording)
    assert run_sweep(SweepSpec("multinom-rec")).ok
    live = [term for term in joined if term is not None]
    assert len(live) > 10000
    _check_normal_terms(live, "multinom-rec")


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


def poly_prod(polys):
    """The product of polys by LaurentPoly's own product, 1 when empty."""
    return functools.reduce(operator.mul, polys, LaurentPoly({0: 1}))


def product_poly(summands, binom=qbinom):
    """A summand list's value by the polynomial product formula: each
    factor (top, b1, b2, ...) as the q-binomials [top; b1][top-b1; b2]...
    read off binom, their product times the summand's coefficient and
    q^shift.  It shares no code with the image evaluator behind
    summand_poly, summands_agree and qmultinom, so the tests hold that
    evaluator to it."""
    total = LaurentPoly()
    for shift, fs, *coeff in summands:
        term = poly_prod(binom(f[0] - sum(f[1:at]), f[at])
                         for f in fs for at in range(1, len(f)))
        total = total + (term * (coeff[0] if coeff else 1)).shift(shift)
    return total


# summands whose exponents lie thousands apart, with negative coefficients
# and negative tops: the image shifts each term's product by up to about
# 9,000 * W bits, so a misplaced shift would show in the decoded digits
FAR_APART = [(-3000, ((9, 4), (-3, 2)), -7), (0, ((12, 5, 3),), 5),
             (2500, ((-4, 3),), -2), (6001, ((15, 7),)), (6001, (), -11),
             (6003, ((8, 3), (7, 2)), -1)]


def test_far_apart_summands_decode_and_compare():
    expected = product_poly(FAR_APART)
    assert expected.valuation < -2900 and expected.degree > 6000
    assert summand_poly(FAR_APART) == expected
    assert qcomb.normal_poly(qcomb._normal_terms(FAR_APART)) == expected
    assert summands_agree(FAR_APART, FAR_APART[::-1])
    for at, (shift, fs, *coeff) in enumerate(FAR_APART):
        c = coeff[0] if coeff else 1
        for moved in ((shift + 1, fs, c), (shift - 1, fs, c),
                      (shift, fs, c + 1), (shift, fs, c - 1)):
            bad = FAR_APART[:at] + [moved] + FAR_APART[at + 1:]
            assert not summands_agree(FAR_APART, bad), moved
            assert not summands_agree(bad, FAR_APART), moved
            assert summand_poly(bad) == product_poly(bad), moved


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
    binom = functools.cache(qbinom)  # each binomial built once for the grid
    for args in itertools.product(range(-1, 4), range(-1, 4), range(-1, 4),
                                  range(-3, 9), range(-3, 9)):
        first, second = _direct_lhs_summands(*args)
        right = _direct_rhs_summands(*args)
        for side in (first, second, right):
            assert summand_poly(side) == product_poly(side, binom), args


def test_summand_poly_builds_no_polynomial_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("summand_poly built a polynomial product")
    side = [(1, ((7, 3), (-2, 2)), -3), (0, ((9, 2, 3),)), (4, ((6, 3),), 2)]
    expected = product_poly(side)
    for owner, name in ((qcomb, "qbinom"), (qcomb, "_qbinom_nonneg"),
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
    first, second = _direct_lhs_summands(i, j, k, L, M)
    return first + second, _direct_rhs_summands(i, j, k, L, M)


def test_key_summands_evaluate_to_both_sides():
    for args in itertools.product(range(-1, 3), range(-1, 3), range(0, 3),
                                  range(-2, 5), range(-2, 5)):
        first, second = _direct_lhs_summands(*args)
        assert (product_poly(first), product_poly(second)) == lhs_g_parts(*args)
        assert product_poly(first + second) == lhs_g(*args)
        assert product_poly(_direct_rhs_summands(*args)) == rhs_p(*args)


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
    left, right = cube_summands(L)
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
        listed = _direct_rhs_summands(i, j, k, L, M)
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
    assert operator.eq(*boundary_sides(1, 0, 0, 4))


def test_boundary_small_grid():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for M in range(6):
                    assert operator.eq(*boundary_sides(i, j, k, M))


# -- recurrences -------------------------------------------------------------

def test_recurrence_examples():
    assert operator.eq(*recurrence_sides_g(2, 2, 1, 5, 5))
    assert operator.eq(*recurrence_sides_g(0, 0, 0, 1, 1))
    assert operator.eq(*recurrence_sides_g(1, 2, 2, 4, 6))
    assert operator.eq(*recurrence_sides_p(2, 2, 1, 5, 5))
    assert operator.eq(*recurrence_sides_p(0, 0, 0, 1, 1))
    assert operator.eq(*recurrence_sides_p(1, 2, 2, 4, 6))


def test_andrews_recurrence_examples():
    assert operator.eq(*andrews_sides(2, 2, 2, 6, 6))
    assert operator.eq(*andrews_sides(0, 0, 0, 2, 2))
    assert operator.eq(*andrews_sides(3, 2, 2, 7, 8))


def test_recurrences_small_grid():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for L in range(5):
                    for M in range(5):
                        assert operator.eq(*recurrence_sides_g(i, j, k, L, M))
                        assert operator.eq(*recurrence_sides_p(i, j, k, L, M))
                        assert operator.eq(*andrews_sides(i, j, k, L, M))


def _form_holds(sides):
    return lambda *args: operator.eq(*sides(*args))


def _two_part_sides(L, i, j):
    # the paper's two-part form, written out apart from qcomb:
    # [L; i,j] = [L-1; i,j] + q^(L-i)[L-1; i-1,j] + q^(L-j)[L-1; i,j-1]
    #          + q^(L-i-j)(1-q^(L-1))[L-2; i-1,j-1]
    tail = qmultinom(L - 2, (i - 1, j - 1))
    rhs = poly_sum([(1, 0, qmultinom(L - 1, (i, j))),
                    (1, L - i, qmultinom(L - 1, (i - 1, j))),
                    (1, L - j, qmultinom(L - 1, (i, j - 1))),
                    (1, L - i - j, tail), (-1, 2 * L - 1 - i - j, tail)])
    return qmultinom(L, (i, j)), rhs


TWO_PART_GRID = list(itertools.product(range(9), repeat=3))


def test_two_part_form_is_the_symmetric_relation():
    # multinom_recurrence_relations checks the two-part form as the
    # four-part one at s = 0, whatever s it is given
    for L, i, j in TWO_PART_GRID:
        lhs, rhs = _two_part_sides(L, i, j)
        assert lhs == rhs
        for s in (0, 3):
            label, *sides = multinom_recurrence_relations(L, s, i, j)[2]
            assert label == "symmetric" and sides == [lhs, rhs]


KEY_GRID = list(itertools.product(range(3), range(3), range(3), range(5), range(5)))
# each recurrence check (the four-part relation that multinom_recurrence_relations
# checks at three points, and the two-part form written out above), the module
# whose poly_sum builds its right side, and a small grid on which every one of
# its terms is nonzero somewhere
RECURRENCE_CHECKS = {
    "recurrence-g": (keyid, _form_holds(recurrence_sides_g), KEY_GRID),
    "recurrence-p": (keyid, _form_holds(recurrence_sides_p), KEY_GRID),
    "recurrence-andrews": (keyid, _form_holds(andrews_sides), KEY_GRID),
    "qpascal": (qcomb, _form_holds(qcomb.qpascal_sides),
                list(itertools.product(range(-3, 6), repeat=2))),
    "four-part": (helpers, _form_holds(multinom_three_sides),
                  list(itertools.product(range(6), repeat=4))),
    "two-part": (sys.modules[__name__], _form_holds(_two_part_sides), TWO_PART_GRID),
}
MUTATIONS = {"drop": lambda sign, shift, p: [],
             "shift": lambda sign, shift, p: [(sign, shift + 1, p)],
             "flip": lambda sign, shift, p: [(-sign, shift, p)]}


@pytest.mark.parametrize("name", RECURRENCE_CHECKS)
def test_recurrence_checks_catch_every_term_mutant(monkeypatch, name):
    # each term of the right side's poly_sum call is dropped, shifted by +1
    # or has its sign flipped; the check must fail somewhere on its grid.
    # No mutant is an identity on these grids: every term is nonzero at
    # some tuple, and then each mutation changes the sum by a nonzero
    # multiple of that term.
    module, check, grid = RECURRENCE_CHECKS[name]
    real = module.poly_sum
    sizes = []
    monkeypatch.setattr(module, "poly_sum",
                        lambda terms: sizes.append(len(terms)) or real(terms))
    assert all(check(*args) for args in grid)
    assert len(set(sizes)) == 1
    survivors = []
    for at in range(sizes[0]):
        for label, mutate in MUTATIONS.items():
            def mutated(terms, at=at, mutate=mutate):
                terms = list(terms)
                terms[at:at + 1] = mutate(*terms[at])
                return real(terms)
            monkeypatch.setattr(module, "poly_sum", mutated)
            if all(check(*args) for args in grid):
                survivors.append(f"{label} term {at}")
    assert survivors == []


def _multinom_polys_hold(L, s, i, j):
    return all(lhs == rhs for _, lhs, rhs in
               multinom_recurrence_relations(L, s, i, j))


def test_multinom_images_agree_with_polynomials():
    for args in itertools.product(range(-3, 10), *[range(-2, 6)] * 3):
        assert qcomb.multinom_recurrence_holds(*args) == _multinom_polys_hold(*args), args


_MULTINOM_TERMS = qcomb._multinom_terms


def _corrupt_multinom_terms(monkeypatch, at, mutate):
    # both evaluators read the relation from _multinom_terms, so both see
    # the term at index at mutated
    def corrupted(*point):
        terms = list(_MULTINOM_TERMS(*point))
        shift, factors, sign = terms[at]
        terms[at:at + 1] = [(e, fs, c) for c, e, fs in mutate(sign, shift, factors)]
        return tuple(terms)
    monkeypatch.setattr(qcomb, "_multinom_terms", corrupted)


@pytest.mark.parametrize("at", range(7))
def test_multinom_images_agree_on_every_term_mutant(monkeypatch, at):
    # each term of the shared list (the left side first) dropped, shifted by
    # +1 or sign-flipped: the image verdict equals the polynomial one at
    # every tuple, and every mutant fails somewhere on the grid
    grid = list(itertools.product(range(-2, 8), *[range(-1, 4)] * 3))
    for label, mutate in MUTATIONS.items():
        _corrupt_multinom_terms(monkeypatch, at, mutate)
        verdicts = [qcomb.multinom_recurrence_holds(*args) for args in grid]
        assert verdicts == [_multinom_polys_hold(*args) for args in grid], label
        assert not all(verdicts), label


def test_multinom_images_past_the_width_floor(monkeypatch):
    # B, the summed weights of the four-part relation's terms, has 44 bits
    # at (30, 10, 10, 10), so the images are taken at W = 48, the next whole
    # byte with 2^(W-1) > B, not at the 32-bit floor
    args = (30, 10, 10, 10)
    bound = sum(abs(sum(qmultinom(f[0], f[1:]).terms.values()))
                for _, (f,), _ in qcomb._multinom_terms(*args))
    assert bound.bit_length() == 44
    real, widths = qcomb.pairs_image, set()
    monkeypatch.setattr(qcomb, "pairs_image",
                        lambda value, pairs, width: widths.add(width)
                        or real(value, pairs, width))
    assert qcomb.multinom_recurrence_holds(*args) and _multinom_polys_hold(*args)
    assert widths == {48, 32}  # the shifted point (20, 10, 0, 0) has B < 2^19
    _corrupt_multinom_terms(monkeypatch, 5, MUTATIONS["shift"])
    assert not qcomb.multinom_recurrence_holds(*args)
    assert not _multinom_polys_hold(*args)


def test_multinom_sweep_builds_no_polynomial(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the multinom-rec sweep built a polynomial")
    for owner, name in ((qcomb, "qmultinom"), (qcomb, "normal_poly"),
                        (qcomb, "qbinom"), (qcomb, "_qbinom_nonneg"),
                        (qcomb, "poly_sum"), (qcore, "poly_sum"),
                        (LaurentPoly, "__mul__")):
        monkeypatch.setattr(owner, name, forbidden)
    ranges = {"L": (-2, 6), "s": (-1, 4), "i": (-1, 4), "j": (-1, 4)}
    report = run_sweep(SweepSpec("multinom-rec", ranges))
    assert report.ok and report.total == 9 * 6 ** 3


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
        assert key_limit_lhs(0, 0, 0, order) == TruncSeries(order, (1,))
        assert key_limit_rhs(0, 0, 0, order) == TruncSeries(order, (1,))


def test_key_limit_single_part():
    want = TruncSeries(6, (0, 1, 1, 1, 1, 1))  # q/(1-q) mod q^6
    assert key_limit_lhs(1, 0, 0, 6) == want
    assert key_limit_rhs(1, 0, 0, 6) == want


def test_key_limit_111():
    assert operator.eq(*key_limit_sides(1, 1, 1, 20))


def test_key_limit_small_grid():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert operator.eq(*key_limit_sides(i, j, k, 15))
    # T(i) + T(j) + T(k) = 18 reaches the order: both sides vanish, and the
    # shared sum skips a numerator of valuation >= order
    assert key_limit_rhs(3, 3, 3, 18) == key_limit_lhs(3, 3, 3, 18) == TruncSeries(18)
    assert key_limit_rhs(3, 3, 3, 19) == TruncSeries(19, [0] * 18 + [1])
    assert poch_quotient_sum([(q_power(18), (3, 3, 3))], 18) == TruncSeries(18)


def test_poch_quotient_sum_matches_reciprocal_formula():
    # oracle: each numerator times the series reciprocal of its product of
    # Pochhammer polynomials; a negative length makes the term zero
    def oracle(terms, order):
        total = [0] * order
        for numer, lengths in terms:
            if min(lengths) >= 0:
                denom = poly_prod(poch_qpow(1, n) for n in lengths)
                term = TruncSeries.from_poly(numer, order) \
                    * TruncSeries.from_poly(denom, order).recip()
                total = list(map(operator.add, total, term.coeffs))
        return TruncSeries(order, total)

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
    assert key_limit_lhs(-1, 0, 0, 8) == key_limit_rhs(-1, 0, 0, 8) == TruncSeries(8)
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


def test_check_support_matches_a_brute_force_rule():
    # the brute-force rule: a summand is live when its polynomial product is
    # nonzero; the builder must list exactly the live summands of each sum
    for i, j, k in itertools.product(range(5), repeat=3):
        for L in range(max(i + j, j + k, k + i), 13):
            holds = True
            for sx, row in zip(enumerate_sextuples(i, j, k), _sextuple_rows(i, j, k)):
                live = [bool(product_poly(side)) for side in _raw_sums(sx, L, L)]
                listed = [bool(terms) for terms
                          in map(_sum_normal, _l_half([row], L), _m_half([row], L))]
                assert listed == live, (sx, L)
                holds = holds and not (sx.t > L and any(live))
            assert check_support(i, j, k, L) == holds, (i, j, k, L)


# -- mutants of the left side --------------------------------------------------

_MUTANT_GRID = (range(-1, 4), range(-1, 4), range(-1, 4), range(-3, 9), range(-3, 9))


def test_unmutated_copy_passes_the_mutant_grid():
    copy = _mutant(keyid, "normal((lt + b, b, ab))", "normal((lt + b, b, ab))")
    assert all(copy.check_key(*args) for args in itertools.product(*_MUTANT_GRID))


@pytest.mark.parametrize("owner, old, new, count", [
    # a shared binomial's top off by one, on the L side and on the M side
    pytest.param(keyid, "normal((lt + b, b, ab))", "normal((lt + b + 1, b, ab))", 1,
                 id="shared-L-top"),
    pytest.param(keyid, "normal((mt + c, c, ac))", "normal((mt + c - 1, c, ac))", 1,
                 id="shared-M-top"),
    # the second sum's exponent T(bc-1) replaced by T(bc)
    pytest.param(keyid, "base + triangular(sx.bc - 1)", "base + triangular(sx.bc)", 1,
                 id="second-exponent"),
    # the second sum dropped from the dense L half, which both the joiner
    # and check_key's images read
    pytest.param(keyid, "second.append(_times(u, normal((lt + a - 1, a - 1)), e2))",
                 "second.append(None)", 1, id="second-dropped"),
    # the sign or the power of q of a reflected negative top lost, for the
    # shared binomials and for each sum's own two; qcomb's joiner _times
    # joins a shared binomial u to an own one x in both halves
    pytest.param(qcomb, "u[0] * x[0]", "x[0]", 1, id="shared-sign"),
    pytest.param(qcomb, "e + u[1] + x[1]", "e + x[1]", 1, id="shared-shift"),
    pytest.param(qcomb, "u[0] * x[0]", "u[0]", 1, id="own-sign"),
    pytest.param(qcomb, "e + u[1] + x[1]", "e + u[1]", 1, id="own-shift"),
    # the M half's [M-t; bc-1] of the second sum read as [M-t; bc]
    pytest.param(keyid, "normal((mt, bc - 1))", "normal((mt, bc))", 1,
                 id="second-M-bottom"),
])
def test_check_key_catches_a_left_side_mutant(owner, old, new, count):
    mutant = _mutant(owner, old, new, count)
    if owner is qcomb:  # a copy of keyid whose halves are joined by the mutant
        times = mutant._times
        mutant = _mutant(keyid, "normal((lt + b, b, ab))", "normal((lt + b, b, ab))")
        mutant._times = times
    assert not all(mutant.check_key(*args) for args in itertools.product(*_MUTANT_GRID))


def test_check_key_catches_a_right_side_mutant():
    # the right side's exponent, in its L half, without T(k-s)
    mutant = _mutant(keyid, "\n                         + triangular(k - s))", ")")
    assert not all(mutant.check_key(*args) for args in itertools.product(*_MUTANT_GRID))


@pytest.mark.parametrize("old, new", [
    # a wrong bottom in the L half's multinomial [L-s; s, i-s, j-s]
    pytest.param("normal((L - s, s, i - s, j - s))", "normal((L - s, s, i - s, j - s + 1))",
                 id="L-bottom"),
    # [M-i-j; k-s+1] in the M half
    pytest.param("normal((M - i - j, k - s))", "normal((M - i - j, k - s + 1))",
                 id="M-bottom"),
    # each slot's image without its sign, so the right side's -1 and a
    # reflected top's sign are lost alike
    pytest.param("pairs_image(part[0], part[2], width)", "pairs_image(1, part[2], width)",
                 id="sign"),
    # both halves' slots share one shift rule, so a fault there could shift
    # them alike; dropping every slot's power of q must still show
    pytest.param("weight and part[1] - low", "0", id="joiner-shift"),
    # the right side's -1 left out of the dense L half
    pytest.param("(-1, 0, (), 1)", "(1, 0, (), 1)", id="right-minus-one"),
    # the M slots' shifts dropped where check_key adds them to the L slots'
    pytest.param("map(add, l_shifts, m_shifts)", "l_shifts", id="image-M-shift"),
])
def test_check_key_catches_a_right_half_or_joiner_mutant(old, new):
    mutant = _mutant(keyid, old, new)
    assert not all(mutant.check_key(*args) for args in itertools.product(*_MUTANT_GRID))


def test_check_key_catches_a_zeroed_right_weight():
    # the weight of the right side's s = 0 slot set to 0 in every M half of
    # a fresh copy of keyid: a zero weight zeroes its slot's image, so that
    # summand drops
    mutant = _mutant(keyid, "(-1, 0, (), 1)", "(-1, 0, (), 1)")
    real = mutant._m_halves

    def zeroed(i, j, k, M):
        first, second, right, weights = real(i, j, k, M)
        if right:
            at = len(first) + len(second)
            weights = weights[:at] + (0,) + weights[at + 1:]
        return first, second, right, weights

    mutant._m_halves = zeroed
    assert not all(mutant.check_key(*args) for args in itertools.product(*_MUTANT_GRID))


def _corrupted_pair(l_half, m_half, rng):
    """Copies of an L and an M half with about a third of the slots live on
    both sides corrupted: the L slot dropped, its sign flipped or its shift
    moved, or both slots' signs flipped or shifts moved in opposite
    directions, which leaves their product alone."""
    l_sums, m_sums = [list(part) for part in l_half[:3]], [list(part) for part in m_half[:3]]
    for ls, ms in zip(l_sums, m_sums):
        for x, (l, m) in enumerate(zip(ls, ms)):
            if l is None or m is None or rng.random() < 0.65:
                continue
            d, action = rng.choice((-2, -1, 1, 2)), rng.randrange(5)
            if action == 0:
                ls[x] = None
            elif action == 1:
                ls[x] = (-l[0], *l[1:])
            elif action == 2:
                ls[x] = (l[0], l[1] + d, *l[2:])
            elif action == 3:
                ls[x], ms[x] = (-l[0], *l[1:]), (-m[0], *m[1:])
            else:
                ls[x], ms[x] = (l[0], l[1] + d, *l[2:]), (m[0], m[1] - d, *m[2:])
    return keyid._dense(*map(tuple, l_sums)), keyid._dense(*map(tuple, m_sums))


def test_check_key_agrees_with_the_decoded_join_on_corrupted_halves(monkeypatch):
    # on corrupted dense halves, check_key's images must give exactly the
    # verdict of normal_is_zero on the three sums joined by _sum_normal
    rng = random.Random(26)
    real_l, real_m = keyid._l_halves, keyid._m_halves
    grid = list(itertools.product(range(4), range(4), range(4), range(-2, 9), range(-2, 9)))
    verdicts = []
    for args in rng.sample(grid, 600):
        l_half, m_half = _corrupted_pair(real_l(*args[:4]), real_m(*args[:3], args[4]), rng)
        want = normal_is_zero([term for terms in map(_sum_normal, l_half[:3], m_half[:3])
                               for term in terms])
        # the image memo is keyed by the half memo it reads, so each pair of
        # corrupted halves gets entries of its own
        monkeypatch.setattr(keyid, "_l_halves", lambda *_: l_half)
        monkeypatch.setattr(keyid, "_m_halves", lambda *_: m_half)
        assert check_key(*args) == want, args
        verdicts.append(want)
    keyid._images.cache_clear()
    assert 100 < verdicts.count(True) < 500, verdicts.count(True)


def test_key_sweep_normalises_no_summand_list(monkeypatch):
    # both sides of criterion 1's grid come straight from the half memos;
    # the function's code is swapped, so a name imported from qcomb raises too
    def forbidden(*args):
        raise AssertionError("a key sweep normalised a summand list")
    _clear_memos()
    monkeypatch.setattr(qcomb._normal_terms, "__code__", forbidden.__code__)
    report = run_sweep(SweepSpec("key", _CRITERION_1))
    assert report.ok, report.failures[:1]
    assert report.total == 67228
