"""Bounded Jacobi triple product, false theta identity, polynomial analogs
of Jacobi's cube formula, the q = 1 (Carlitz) collapse, and the four
parameter key identity, each computed two-sidedly in exact arithmetic.

Right sides here are signed, auxiliary-weighted sums of the same binomial
cycle [L-k; i][L-i; j][L-j; k] that closes the diagonal of the key identity,
so they are built on keyid.cycle_summand (in base q^2 by stretching it).
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .qcore import ONE, BivarLaurent, LaurentPoly, TruncSeries, q_power
from .qcomb import (poch_qpow, poch_quotient_sum, qbinom_q1, summand_poly,
                    triangular)
from .keyid import closed_form_diag, cycle_summand


class Decuple(NamedTuple):
    """Summation variables (a, b, c, d, ab, ..., cd, Q) of the four
    parameter identity; t excludes Q."""
    a: int
    b: int
    c: int
    d: int
    ab: int
    ac: int
    ad: int
    bc: int
    bd: int
    cd: int
    Q: int

    @property
    def t(self) -> int:
        return sum(self[:10])


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def _cycle_tuples(L: int):
    # all (i, j, k) >= 0 with max(i+j, i+k, j+k) <= L
    for i in range(L + 1):
        for j in range(L - i + 1):
            for k in range(min(L - i, L - j) + 1):
                yield i, j, k


# ---------------------------------------------------------------------------
# bounded Jacobi triple product and its series limit
# ---------------------------------------------------------------------------

def bounded_jtp_lhs(L: int) -> BivarLaurent:
    """Left side of the bounded triple product:
    sum_{l=0..L} (-1)^(L+l) q^(2(T(L)-T(l))) sum_{n=-l..l} A^n q^(n^2)."""
    pairs = []
    for el in range(L + 1):
        coeff = _sign(L + el)
        e = 2 * (triangular(L) - triangular(el))
        for n in range(-el, el + 1):
            pairs.append((n, LaurentPoly.monomial(coeff, n * n + e)))
    return BivarLaurent(pairs)


def bounded_jtp_rhs(L: int) -> BivarLaurent:
    """Right side: the base-q^2 binomial cycle
    sum (-1)^k A^(i-j) q^(i^2 + j^2 + 2T(k)) [L-k; i][L-i; j][L-j; k] (all
    binomials in base q^2), over i, j, k >= 0 with pair sums at most L.
    Since 2T(n) = n^2 + n, each term is the diagonal closed form in q^2
    shifted by -(i+j)."""
    return BivarLaurent(
        (i - j, closed_form_diag(i, j, k, L).stretch(2).shift(-i - j) * _sign(k))
        for i, j, k in _cycle_tuples(L))


def check_bounded_jtp(L: int) -> bool:
    return bounded_jtp_lhs(L) == bounded_jtp_rhs(L)


def jtp_series(order: int) -> tuple[BivarLaurent, BivarLaurent]:
    """Both sides of the triple product identity modulo q^order:
    sum_n A^n q^(n^2) against the infinite product, factors taken while
    they still touch exponents below the truncation order."""
    bound = isqrt(order - 1)
    lhs = BivarLaurent((n, TruncSeries.from_poly(q_power(n * n), order))
                       for n in range(-bound, bound + 1))
    one = TruncSeries.one(order)
    rhs = BivarLaurent.monomial(one)
    m = 1
    while 2 * m - 1 < order:
        odd = TruncSeries.from_poly(q_power(2 * m - 1), order)
        rhs = rhs * BivarLaurent({0: one, 1: odd})
        rhs = rhs * BivarLaurent({0: one, -1: odd})
        if 2 * m < order:
            rhs = rhs * BivarLaurent.monomial(
                one - TruncSeries.from_poly(q_power(2 * m), order))
        m += 1
    return lhs, rhs


# ---------------------------------------------------------------------------
# truncated Pochhammer helpers
# ---------------------------------------------------------------------------

def poch_series(k: int, n: int, order: int) -> TruncSeries:
    """(q^k; q)_n modulo q^order for k >= 1.  Factors 1 - q^(k+j) with
    k + j >= order are 1 modulo q^order, so they are left out.  Raises
    NegativeLength for n < 0, as poch_qpow does."""
    if k < 1:
        raise ValueError("poch_series needs k >= 1")
    return TruncSeries.from_poly(poch_qpow(k, min(n, max(0, order - k))), order)


# ---------------------------------------------------------------------------
# false theta identity
# ---------------------------------------------------------------------------

def false_theta_sides(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of the false theta identity modulo q^order:
    sum (-1)^l q^T(l)  against
    sum_{i,k>=0} (-1)^(i+k) q^(T(i)+T(k)-ik) [k+i; k] / ((q)_i (q)_k).

    The exponent T(i)+T(k)-ik is at least (i+k)/2, which bounds the
    summation range."""
    lhs_terms = []
    el = 0
    while triangular(el) < order:
        lhs_terms.append((triangular(el), _sign(el)))
        el += 1
    lhs = TruncSeries.from_poly(LaurentPoly(lhs_terms), order)

    # (q)_n for n < order, each from the one before; every larger n gives
    # (q)_(order-1) again modulo q^order
    poch = [TruncSeries.one(order)]
    for n in range(1, order):
        poch.append(poch[-1] * poch_series(n, 1, order))
    # [k+i; k] / ((q)_i (q)_k) = (q)_(i+k) / ((q)_i (q)_k)^2
    inv_sq = [r * r for r in (p.recip() for p in poch)]
    # q^e times a series is known modulo q^order from the series' first
    # order - e coefficients, so the product is cut there and then shifted
    rhs = [0] * order
    for i in range(2 * order + 1):
        for k in range(2 * order + 1):
            e = triangular(i) + triangular(k) - i * k
            if e >= order:
                continue
            cut = order - e
            term = TruncSeries(cut, poch[min(i + k, order - 1)].coeffs) \
                * TruncSeries(cut, inv_sq[min(i, order - 1)].coeffs) \
                * TruncSeries(cut, inv_sq[min(k, order - 1)].coeffs)
            sign = _sign(i + k)
            for n, c in enumerate(term.coeffs, e):
                rhs[n] += sign * c
    return lhs, TruncSeries(order, rhs)


# ---------------------------------------------------------------------------
# Jacobi cube formula: polynomial analog and series form
# ---------------------------------------------------------------------------

def jacobi_cube_poly_summands(L: int):
    """Both sides of the polynomial cube analog as summands (see
    keyid.lhs_summands): the list of (-1)^l (2l+1) q^T(l), l = 0..L, and a
    generator of the signed cycles (-1)^(i+j+k) q^(T(i)+T(j)+T(k))
    [L-k; i][L-i; j][L-j; k]."""
    lhs = [(triangular(el), (), _sign(el) * (2 * el + 1)) for el in range(L + 1)]
    rhs = (cycle_summand(i, j, k, L, _sign(i + j + k))
           for i, j, k in _cycle_tuples(L))
    return lhs, rhs


def jacobi_cube_poly_sides(L: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Polynomial analog of the cube formula:
    sum_{l=0..L} (-1)^l (2l+1) q^T(l)  against
    sum (-1)^(i+j+k) q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k]."""
    lhs, rhs = jacobi_cube_poly_summands(L)
    return summand_poly(lhs), summand_poly(rhs)


def jacobi_cube_series(order: int) -> tuple[TruncSeries, TruncSeries]:
    """The cube formula modulo q^order: the alternating (2l+1)-weighted
    theta sum against the cube of the Euler product."""
    terms = []
    el = 0
    while triangular(el) < order:
        terms.append((triangular(el), _sign(el) * (2 * el + 1)))
        el += 1
    lhs = TruncSeries.from_poly(LaurentPoly(terms), order)
    euler = poch_series(1, order, order)
    return lhs, euler * euler * euler


# ---------------------------------------------------------------------------
# the a-weighted cycle and its q = 1 collapse
# ---------------------------------------------------------------------------

def carl_poly_sides(L: int) -> tuple[BivarLaurent, BivarLaurent]:
    """The a-weighted polynomial cycle identity:
    sum_{l=0..L} a^(-l) (1+a^(2l+1))/(1+a) q^T(l)  against
    sum a^(i-j) (-1)^k q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k].

    The left factor (1+a^(2l+1))/(1+a) is expanded as the finite
    alternating sum sum_{m=0..2l} (-a)^m, never as a ring division."""
    pairs = []
    for el in range(L + 1):
        coeff = q_power(triangular(el))
        for m in range(2 * el + 1):
            pairs.append((m - el, coeff * _sign(m)))
    lhs = BivarLaurent(pairs)
    rhs_pairs = [(i - j, closed_form_diag(i, j, k, L) * _sign(k))
                 for i, j, k in _cycle_tuples(L)]
    return lhs, BivarLaurent(rhs_pairs)


def carlitz_sides(L: int) -> tuple[BivarLaurent, BivarLaurent]:
    """The q = 1 collapse of the a-weighted cycle:
    (a^(L+1) - a^(-L-1)) / (a - a^(-1)) = sum_{m=0..L} a^(L-2m)  against
    sum a^(i-j) (-1)^k C(L-k, i) C(L-i, j) C(L-j, k).
    Both sides are Laurent polynomials in a with integer coefficients."""
    lhs = BivarLaurent((L - 2 * m, ONE) for m in range(L + 1))
    pairs = []
    for i, j, k in _cycle_tuples(L):
        n = qbinom_q1(L - k, i) * qbinom_q1(L - i, j) * qbinom_q1(L - j, k)
        pairs.append((i - j, LaurentPoly.monomial(_sign(k) * n)))
    return lhs, BivarLaurent(pairs)


# ---------------------------------------------------------------------------
# four parameter key identity
# ---------------------------------------------------------------------------

def enumerate_decuples(i: int, j: int, k: int, l: int) -> list[Decuple]:
    """All nonnegative decuples with
    i = a+ab+ac+ad+Q, j = b+ab+bc+bd+Q, k = c+ac+bc+cd+Q, l = d+ad+bd+cd+Q,
    in lexicographic (ab, ac, ad, bc, bd, cd, Q) order."""
    if min(i, j, k, l) < 0:
        return []
    out = []
    for ab in range(min(i, j) + 1):
        for ac in range(min(i - ab, k) + 1):
            for ad in range(min(i - ab - ac, l) + 1):
                for bc in range(min(j - ab, k - ac) + 1):
                    for bd in range(min(j - ab - bc, l - ad) + 1):
                        for cd in range(min(k - ac - bc, l - ad - bd) + 1):
                            qmax = min(i - ab - ac - ad, j - ab - bc - bd,
                                       k - ac - bc - cd, l - ad - bd - cd)
                            for Q in range(qmax + 1):
                                out.append(Decuple(
                                    i - ab - ac - ad - Q, j - ab - bc - bd - Q,
                                    k - ac - bc - cd - Q, l - ad - bd - cd - Q,
                                    ab, ac, ad, bc, bd, cd, Q))
    return out


def four_param_sides(i: int, j: int, k: int, l: int,
                     order: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of the four parameter key identity modulo q^order.

    Each decuple contributes
    q^E {(1-q^a) + q^(a+bc+bd+Q)(1-q^b) + q^(a+bc+bd+Q+b+cd)}
        / ((q)_a (q)_b ... (q)_cd (q)_Q)
    with E = T(t) + T(ab)+T(ac)+T(ad)+T(bc)+T(bd)+T(cd) - bc-bd-cd
        + 4T(Q-1) + Q(3+2t); the right side is
    q^(T(i)+T(j)+T(k)+T(l)) / ((q)_i (q)_j (q)_k (q)_l)."""
    lhs_terms = []
    for dec in enumerate_decuples(i, j, k, l):
        t = dec.t
        e = (triangular(t) + triangular(dec.ab) + triangular(dec.ac)
             + triangular(dec.ad) + triangular(dec.bc) + triangular(dec.bd)
             + triangular(dec.cd) - dec.bc - dec.bd - dec.cd
             + 4 * triangular(dec.Q - 1) + dec.Q * (3 + 2 * t))
        head = dec.a + dec.bc + dec.bd + dec.Q
        numer = LaurentPoly([(0, 1), (dec.a, -1),
                             (head, 1), (head + dec.b, -1),
                             (head + dec.b + dec.cd, 1)])
        lhs_terms.append((numer.shift(e), dec))
    e = triangular(i) + triangular(j) + triangular(k) + triangular(l)
    return (poch_quotient_sum(lhs_terms, order),
            poch_quotient_sum([(q_power(e), (i, j, k, l))], order))
