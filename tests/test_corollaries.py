"""Tests for the bounded triple product, false theta, cube analogs, the
q = 1 collapse, and the four parameter identity."""

import functools
import hashlib
import itertools
import operator

import pytest

from qgollnitz import corollaries
from qgollnitz.cli import SweepSpec, run_sweep
from qgollnitz.qcomb import NegativeLength, qbinom, summand_poly
from qgollnitz.qcore import LaurentPoly, TruncSeries, decode, image_width
from qgollnitz.keyid import key_limit_lhs, key_limit_rhs
from qgollnitz.partcomb import iter_type1_all
from qgollnitz.corollaries import (Decuple, bounded_jtp_lhs,
                                   bounded_jtp_sides, carl_poly_sides,
                                   carlitz_sides, enumerate_decuples,
                                   false_theta_sides, four_param_sides,
                                   jacobi_cube_poly_holds, jacobi_cube_poly_sides,
                                   jacobi_cube_series, jtp_series, poch_series,
                                   render_powers)

from helpers import _mutant, cube_summands, poch_qpow


def P(terms):
    return LaurentPoly(terms)


def truncate_by_power(side, order):
    """Truncate each coefficient of a {power: polynomial} side to a series,
    leaving out those that truncate to zero."""
    truncated = {e: TruncSeries.from_poly(c, order) for e, c in side.items()}
    return {e: s for e, s in truncated.items() if any(s.coeffs)}


def test_render_powers():
    assert render_powers({}, "a") == "0"
    assert render_powers({2: P({1: 1}), -1: -3, 0: P({0: 1, 1: -1}), 1: 4},
                         "A") == "(-3)*A^-1 + (1 - q) + (4)*A + (q)*A^2"


# -- bounded Jacobi triple product -------------------------------------------

def test_jtp_bounded_L0():
    assert bounded_jtp_lhs(0) == {0: P({0: 1})}
    assert operator.eq(*bounded_jtp_sides(0))


def test_jtp_bounded_L1_lhs_frozen():
    want = {-1: P({1: 1}), 0: P({0: 1, 2: -1}), 1: P({1: 1})}
    assert bounded_jtp_lhs(1) == want


def test_jtp_bounded_small_range():
    for L in range(6):
        assert operator.eq(*bounded_jtp_sides(L)), L


def test_jtp_bounded_stabilizes_to_series():
    # coefficients of each A power settle at rate q^(2L)
    L = 8
    order = 2 * L
    lhs_series, rhs_series = jtp_series(order)
    assert truncate_by_power(bounded_jtp_lhs(L), order) == lhs_series == rhs_series


# -- triple product series ---------------------------------------------------

def test_jtp_series_order1():
    lhs, rhs = jtp_series(1)
    assert lhs == rhs == {0: TruncSeries(1, (1,))}


def test_jtp_series_order2():
    lhs, rhs = jtp_series(2)
    q = TruncSeries.from_poly(P({1: 1}), 2)
    assert lhs == rhs == {-1: q, 0: TruncSeries(2, (1,)), 1: q}


def test_jtp_series_order10():
    lhs, rhs = jtp_series(10)
    assert lhs == rhs


# -- false theta -------------------------------------------------------------

def test_false_theta_lhs_frozen():
    lhs, _ = false_theta_sides(5)
    assert lhs == TruncSeries(5, (1, -1, 0, 1, 0))


def test_false_theta_order1():
    lhs, rhs = false_theta_sides(1)
    assert lhs == rhs == TruncSeries(1, (1,))


def test_false_theta_order12():
    lhs, rhs = false_theta_sides(12)
    assert lhs == rhs


def _false_theta_rhs_reference(order, binom):
    """The false theta right side summed over the full (i, k) grid, each term
    (-1)^(i+k) q^(T(i)+T(k)-ik) [k+i; k] / ((q)_i (q)_k) with plain products
    of series at the full order, [k+i; k] read off binom(k + i, k)."""
    inv = [poch_series(1, n, order).recip() for n in range(order)]
    total = [0] * order
    for i, k in itertools.product(range(2 * order + 1), repeat=2):
        e = i * (i + 1) // 2 + k * (k + 1) // 2 - i * k
        if e < order:
            term = TruncSeries(order, map(binom(k + i, k).coeff, range(order))) \
                * inv[i] * inv[k]
            sign = (-1) ** (i + k)
            for at, c in enumerate(term.coeffs[:order - e], e):
                total[at] += sign * c
    return TruncSeries(order, total)


def test_false_theta_rhs_matches_full_grid_reference():
    binom = functools.cache(qbinom)  # each [k+i; k] built once for all orders
    for order in range(1, 41):
        assert false_theta_sides(order)[1].coeffs \
            == _false_theta_rhs_reference(order, binom).coeffs, order


def test_false_theta_rhs_pinned_at_order_200():
    # the sha256 of the right side's coefficient list at order 200, as the
    # sum of truncated series products gave it
    _, rhs = false_theta_sides(200)
    assert hashlib.sha256(repr(list(rhs.coeffs)).encode()).hexdigest() \
        == "178454aaae1adf34d84b0a3a4322ec2dd2b2af39b1196df723244bfdc3080bee"


# -- Jacobi cube analogs -----------------------------------------------------

def test_cube_trace_decodes_to_the_cycle_sum():
    # trace(C^3) at the image width of the cycles' sum at q = 1 has the
    # signed cycle sum's coefficients as its signed base-2^W digits
    for L in range(-2, 16):
        width = image_width(corollaries._cube_trace(L, 0, 1))
        image = corollaries._cube_trace(L, width, -1)
        _, cycles = cube_summands(L)
        assert decode(image, width) == summand_poly(cycles), L


def _cube_trace_by_products(L, width, sign):
    """trace(C^3) in matrix form, one product per pair of entries: C[a][b] =
    sign^b q^T(b) [L-a; b] at q = 2^width, each [L-a; b] read off qbinom, and
    sum C[b][a] (C^2)[a][b] over a, b."""
    def image(poly):
        return sum(c << width * e for e, c in poly.iter_terms())

    c = [[sign ** b * (image(qbinom(L - a, b)) << width * (b * (b + 1) // 2))
          for b in range(L - a + 1)] for a in range(L + 1)]  # row a, b <= L - a
    cols = [[c[j][b] for j in range(L - b + 1)] for b in range(L + 1)]
    # map ends with column a, at b = L - a
    return sum(sum(map(operator.mul, cols[a],
                       (sum(map(operator.mul, c[a], col)) for col in cols)))
               for a in range(L + 1))


def test_cube_trace_matches_the_matrix_products():
    # widths that are not whole bytes make digits carry across byte borders
    for L in range(-2, 15):
        for width in (0, 1, 3, 8, 33, 64):
            for sign in (1, -1):
                assert corollaries._cube_trace(L, width, sign) \
                    == _cube_trace_by_products(L, width, sign), (L, width, sign)


def test_cube_trace_counts_type1_partitions():
    # Theorem 1 at M = L, summed over (i, j, k): the trace with C's sign s^b
    # weighs each Type-1 partition with parts <= L by s^(primary parts) q^weight.
    # A check measured on L 0..7 (both signs) and L 0..8 (the count at q = 1),
    # not a statement proved here.
    for L in range(9):
        parts = list(iter_type1_all(L))
        assert corollaries._cube_trace(L, 0, 1) == len(parts), L
        width = image_width(len(parts))
        for sign in (1, -1) if L < 8 else ():
            want = P([(p.weight, sign ** sum(c.is_primary for _, c in p.parts))
                      for p in parts])
            image = corollaries._cube_trace(L, width, sign)
            assert decode(image, width) == want, (L, sign)
    assert len(parts) == 98209


def test_jacobi_cube_poly_holds_past_the_default_grid():
    for L in range(-3, 41):
        assert jacobi_cube_poly_holds(L), L


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


def test_jacobi_cube_series_rhs_pinned_at_order_1000():
    # the sha256 of the Euler cube's coefficient list at order 1000, as the
    # product of three truncated Euler series gave it
    _, rhs = jacobi_cube_series(1000)
    assert hashlib.sha256(repr(list(rhs.coeffs)).encode()).hexdigest() \
        == "fee74b5c1c38da0e3c3040a1a5c197768c3dbf148e6fc60901dc6abaf84d174b"


def test_jacobi_cube_poly_truncates_to_series():
    L = 20
    order = L + 1
    poly_lhs, _ = jacobi_cube_poly_sides(L)
    series_lhs, _ = jacobi_cube_series(order)
    assert TruncSeries.from_poly(poly_lhs, order) == series_lhs


def test_poch_series_matches_polynomial():
    # k >= order and n > order are where poch_series leaves factors out
    for k in (1, 2, 3, 11, 12, 15):
        for n in (0, 1, 2, 3, 4, 11, 12, 13, 20):
            assert poch_series(k, n, 12) == \
                TruncSeries.from_poly(poch_qpow(k, n), 12)


def test_poch_series_matches_euler_pentagonal_theorem():
    # (q; q)_inf = sum_n (-1)^n q^(n(3n-1)/2) over all integers n, and
    # (q; q)_n agrees with it modulo q^order once n >= order - 1
    order = 1000
    euler = [0] * order
    for n in range(-26, 27):
        e = n * (3 * n - 1) // 2
        if e < order:
            euler[e] += -1 if n % 2 else 1
    for n in (order - 1, order, 5000):
        assert poch_series(1, n, order) == TruncSeries(order, euler), n


def test_poch_series_rejects_negative_lengths():
    # as poch_qpow does, also where every factor would be left out (k >= order)
    for k in (1, 3, 5, 12, 15):
        for n in (-1, -3):
            with pytest.raises(NegativeLength):
                poch_qpow(k, n)
            with pytest.raises(NegativeLength):
                poch_series(k, n, 5)


# -- a-weighted cycle and Carlitz collapse ------------------------------------

def test_carl_examples():
    lhs, rhs = carl_poly_sides(0)
    assert lhs == rhs == {0: P({0: 1})}
    lhs, _ = carl_poly_sides(1)
    want = {-1: P({1: 1}), 0: P({0: 1, 1: -1}), 1: P({1: 1})}
    assert lhs == want


def test_carl_range_and_substitution():
    for L in range(11):
        lhs, rhs = carl_poly_sides(L)
        assert lhs == rhs, L
        collapsed = sum(lhs.values())  # a = 1
        assert collapsed == sum(rhs.values())
        # at a = 1 the left side telescopes to sum of q^T(l)
        want = P({el * (el + 1) // 2: 1 for el in range(L + 1)})
        assert collapsed == want


def test_carlitz_examples():
    lhs, rhs = carlitz_sides(0)
    assert lhs == rhs == {0: 1}
    lhs, rhs = carlitz_sides(1)
    assert lhs == rhs == {-1: 1, 1: 1}


def test_carlitz_range_and_collapse():
    for L in range(13):
        lhs, rhs = carlitz_sides(L)
        assert lhs == rhs, L
        assert sum(lhs.values()) == L + 1  # a = 1


# -- mutants ------------------------------------------------------------------

_CARL_GROUP = "groups.setdefault(i - j, [])"
_CARL_CYCLE = "cycle_summand(i, j, k, L, _sign(k))"
_JTP_A_INVERSE = "runs[n][e:] = map(add, runs[n][e:], runs[n + 1][:order - e])"
_FALSE_THETA_STEP = "times_ratio(run, (i + k,), (k, k))"
_FALSE_THETA_DIAGONAL = "(i + 1,) * 4"
_CUBE_SIGN = "-(v << s + lifts[b]) if odd and (a + b) & 1 else "
_CUBE_LIFT = "lift(tops[b:][::-1])"
_CUBE_STEP = "shifts = [width * i for"
_CUBE_PASCAL = "(up[b] << width * b)"
_CUBE_SUPPORT = "step(last, L - b + 1)"


@pytest.mark.parametrize("name, identity, old, new, caught", [
    ("carl_poly_sides", "carl", _CARL_GROUP, _CARL_GROUP, False),
    ("jtp_series", "jtp-series", _JTP_A_INVERSE, _JTP_A_INVERSE, False),
    ("false_theta_sides", "false-theta", _FALSE_THETA_STEP, _FALSE_THETA_STEP, False),
    ("_cube_trace", "jacobi-cube-poly", _CUBE_SUPPORT, _CUBE_SUPPORT, False),
    # a cycle filed under the power i - j + 1 of a
    ("carl_poly_sides", "carl", _CARL_GROUP, "groups.setdefault(i - j + 1, [])",
     True),
    # the cycle's sign (-1)^k dropped
    ("carl_poly_sides", "carl", _CARL_CYCLE, "cycle_summand(i, j, k, L)", True),
    # the product without its factors 1 + A^-1 q^e
    ("jtp_series", "jtp-series", _JTP_A_INVERSE, "pass", True),
    # the step along k divides by 1 - q^k once, not twice
    ("false_theta_sides", "false-theta", _FALSE_THETA_STEP,
     "times_ratio(run, (i + k,), (k,))", True),
    # the diagonal step divides by 1 - q^i three times, not four
    ("false_theta_sides", "false-theta", _FALSE_THETA_DIAGONAL, "(i + 1,) * 3", True),
    # D and C without the sign (-1)^a on odd a
    ("_cube_trace", "jacobi-cube-poly", _CUBE_SIGN, "", True),
    # the last application of C without its lift D = diag(sign^a q^T(a))
    ("_cube_trace", "jacobi-cube-poly", _CUBE_LIFT, "tops[b:][::-1]", True),
    # the q-Pascal step z[i] <- z[i+1] + q^(i+1) z[i], for q^i
    ("_cube_trace", "jacobi-cube-poly", _CUBE_STEP,
     "shifts = [width * (i + 1) for", True),
    # the q-Pascal rule with q^(b+1) for q^b
    ("_cube_trace", "jacobi-cube-poly", _CUBE_PASCAL,
     "(up[b] << width * (b + 1))", True),
    # the last application's z trimmed one entry short of the L - b + 1 it reads
    ("_cube_trace", "jacobi-cube-poly", _CUBE_SUPPORT, "step(last, L - b)",
     True),
], ids=["carl-copy", "jtp-series-copy", "false-theta-copy", "cube-copy", "carl-power",
        "carl-sign", "jtp-series-factor", "false-theta-reciprocal",
        "false-theta-diagonal", "cube-sign", "cube-shift", "cube-step", "cube-pascal",
        "cube-inner"])
def test_default_sweep_catches_a_mutant(monkeypatch, name, identity, old, new,
                                        caught):
    # an unmutated copy passes the identity's default sweep; a caught mutant's
    # first failure row shows two different sides, so for the cube the
    # corrupted trace reaches the rendered right side as well as the verdict
    monkeypatch.setattr(corollaries, name, getattr(_mutant(corollaries, old, new), name))
    report = run_sweep(SweepSpec(identity))
    assert report.ok is not caught
    assert not caught or report.failures[0]["lhs"] != report.failures[0]["rhs"]


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
    assert lhs == rhs == TruncSeries(9, (1,))


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
