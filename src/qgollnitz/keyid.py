"""Both sides of the doubly bounded key identity and everything derived
from it: vanishing and boundary cases, the second and fourth order
recurrences in L, the L = M diagonal closed form, the Schur specialization,
and the unbounded limit as a truncated series identity.

Conventions: g(i, j, k, L, M) is the colored-frequency double sum (lhs_g),
p(i, j, k, L, M) is the single s-sum (rhs_p).  Both are total functions on
Z^5; no argument is range-restricted.

Each side is written once, as a summand list (lhs_summands, rhs_summands,
and cycle_summand for the diagonal closed form).  check_key compares the
two lists with qcomb's summands_agree, and every memoised side (lhs_g,
rhs_p) is decoded from the same images by summand_poly.  Under a sweep the
sextuple rows of an (i, j, k) come from a small bounded memo (_sextuple_rows).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .qcore import ONE, ZERO, LaurentPoly, TruncSeries, q_power
from .qcomb import (poch_quotient_sum, qbinom_is_nonzero, summand_poly,
                    summands_agree, triangular)


class Sextuple(NamedTuple):
    """Color frequencies (a, b, c, ab, ac, bc); ab is one variable, not a*b."""
    a: int
    b: int
    c: int
    ab: int
    ac: int
    bc: int

    @property
    def t(self) -> int:
        """Total number of parts."""
        return self.a + self.b + self.c + self.ab + self.ac + self.bc


def enumerate_sextuples(i: int, j: int, k: int) -> list[Sextuple]:
    """All nonnegative (a, b, c, ab, ac, bc) with a+ab+ac = i, b+ab+bc = j,
    c+ac+bc = k, in lexicographic (ab, ac, bc) order.  Empty when any of
    i, j, k is negative."""
    if i < 0 or j < 0 or k < 0:
        return []
    out = []
    for ab in range(min(i, j) + 1):
        for ac in range(min(i - ab, k) + 1):
            for bc in range(min(j - ab, k - ac) + 1):
                out.append(Sextuple(i - ab - ac, j - ab - bc, k - ac - bc,
                                    ab, ac, bc))
    return out


@lru_cache(maxsize=8)
def _sextuple_rows(i: int, j: int, k: int) -> tuple:
    """(sextuple, t, T(t) + T(ab) + T(ac)) for each of enumerate_sextuples(i,
    j, k): what lhs_summands needs of a sextuple at every (L, M).  A sweep
    visits one (i, j, k) for many (L, M) in a row, so a few entries suffice."""
    return tuple((sx, sx.t, triangular(sx.t) + triangular(sx.ab) + triangular(sx.ac))
                 for sx in enumerate_sextuples(i, j, k))


_FIRST, _SECOND = 1, 2


def _live_sums(sx: Sextuple, t: int, L: int, M: int) -> int:
    """Which of the two displayed sums has a nonzero summand at this
    sextuple: the bits _FIRST and _SECOND, 0 for neither.  An int, so that
    the hot loop of lhs_summands allocates nothing for it."""
    a, b, c, ab, ac, bc = sx
    if not (qbinom_is_nonzero(L - t + b, b)
            and qbinom_is_nonzero(M - t + c, c)
            and qbinom_is_nonzero(L - t, ab)
            and qbinom_is_nonzero(M - t, ac)):
        return 0
    live = 0
    if qbinom_is_nonzero(L - t + a, a) and qbinom_is_nonzero(M - t, bc):
        live = _FIRST
    if a >= 1 and bc >= 1 and qbinom_is_nonzero(L - t + a - 1, a - 1) \
            and qbinom_is_nonzero(M - t, bc - 1):
        live |= _SECOND
    return live


def lhs_summands(i: int, j: int, k: int, L: int, M: int) -> tuple[list, list]:
    """The two displayed sums of the identity's left side, as summand lists.

    A summand is (shift, factors) or (shift, factors, coeff): coeff (1 when
    left out) times q^shift times the product of the factors, where a factor
    (top, b1, b2, ...) is the q-multinomial [top; b1, b2, ...] and so (n, m)
    is the q-binomial [n; m].  Only summands whose factors _live_sums finds
    nonzero are listed.

    The first sum carries exponent T(t)+T(ab)+T(ac)+T(bc) and binomial
    factors ending in [M-t; bc]; the second shifts bc down by one and the
    'a' binomial to [L-t+a-1; a-1].  On the diagonal M = L the split
    mirrors the smallest-part dichotomy of the staircase image.
    """
    first, second = [], []
    for sx, t, base in _sextuple_rows(i, j, k):
        live = _live_sums(sx, t, L, M)
        if not live:
            continue
        a, b, c, ab, ac, bc = sx
        common = ((L - t + b, b), (M - t + c, c), (L - t, ab), (M - t, ac))
        if live & _FIRST:
            first.append((base + triangular(bc),
                          common + ((L - t + a, a), (M - t, bc))))
        if live & _SECOND:
            second.append((base + triangular(bc - 1),
                           common + ((L - t + a - 1, a - 1), (M - t, bc - 1))))
    return first, second


def rhs_summands(i: int, j: int, k: int, L: int, M: int) -> list:
    """The right side as a summand list (see lhs_summands): over s,
    q^(s(M+2) - T(s) + T(i-s) + T(j-s) + T(k-s)) [L-s; s, i-s, j-s] [M-i-j; k-s].
    Only summands whose factors are all nonzero are listed, so the list is
    empty when any of i, j, k is negative."""
    return [(s * (M + 2) - triangular(s) + triangular(i - s) + triangular(j - s)
             + triangular(k - s), ((L - s, s, i - s, j - s), (M - i - j, k - s)))
            for s in range(min(i, j, k) + 1)
            if qbinom_is_nonzero(L - s, s) and qbinom_is_nonzero(L - 2 * s, i - s)
            and qbinom_is_nonzero(L - s - i, j - s)
            and qbinom_is_nonzero(M - i - j, k - s)]


def cycle_summand(i: int, j: int, k: int, L: int, coeff: int = 1) -> tuple:
    """coeff times the binomial cycle q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k]
    as a summand (see lhs_summands), the one place the cycle is written."""
    return (triangular(i) + triangular(j) + triangular(k),
            ((L - k, i), (L - i, j), (L - j, k)), coeff)


def lhs_g_parts(i: int, j: int, k: int, L: int, M: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The two displayed sums of the identity's left side, separately."""
    first, second = lhs_summands(i, j, k, L, M)
    return summand_poly(first), summand_poly(second)


@lru_cache(maxsize=8192)
def lhs_g(i: int, j: int, k: int, L: int, M: int) -> LaurentPoly:
    """Left side of the key identity: the double sum over color frequencies."""
    first, second = lhs_summands(i, j, k, L, M)
    return summand_poly(first + second)


@lru_cache(maxsize=8192)
def rhs_p(i: int, j: int, k: int, L: int, M: int) -> LaurentPoly:
    """Right side of the key identity: the s-sum of rhs_summands."""
    return summand_poly(rhs_summands(i, j, k, L, M))


def key_summands(i: int, j: int, k: int, L: int, M: int) -> tuple[list, list]:
    """Both sides of the key identity as summand lists: the left side's two
    sums in one list, and the right side."""
    first, second = lhs_summands(i, j, k, L, M)
    return first + second, rhs_summands(i, j, k, L, M)


def check_key(i: int, j: int, k: int, L: int, M: int) -> bool:
    """Exact equality of the two sides at one integer 5-tuple, decided on
    their summand lists by summands_agree."""
    return summands_agree(*key_summands(i, j, k, L, M))


def boundary_value(i: int, j: int, k: int, M: int) -> LaurentPoly:
    """Collapsed value of either side at L = i+j-1:
    delta(i,0) delta(j,0) q^T(k) [M-i-j; k]."""
    if i != 0 or j != 0:
        return ZERO
    return summand_poly([(triangular(k), ((M, k),))])


def check_boundary(i: int, j: int, k: int, M: int) -> bool:
    """Does the left side at L = i+j-1 equal the collapsed boundary value?"""
    return lhs_g(i, j, k, i + j - 1, M) == boundary_value(i, j, k, M)


def _recurrence_sides(f, i, j, k, L, M):
    # f(L,M) = f(L-1,M) + q^L f[i-1](L-1,M-1) + q^L f[j-1](L-1,M-1)
    #        + q^L f[i-1,j-1](L-2,M-1) - q^(2L-1) f[i-1,j-1](L-2,M-2)
    rhs = f(i, j, k, L - 1, M) \
        + f(i - 1, j, k, L - 1, M - 1).shift(L) \
        + f(i, j - 1, k, L - 1, M - 1).shift(L) \
        + f(i - 1, j - 1, k, L - 2, M - 1).shift(L) \
        - f(i - 1, j - 1, k, L - 2, M - 2).shift(2 * L - 1)
    return f(i, j, k, L, M), rhs


def recurrence_sides_g(i: int, j: int, k: int, L: int, M: int):
    """g(L, M) against its second order recurrence combination."""
    return _recurrence_sides(lhs_g, i, j, k, L, M)


def recurrence_sides_p(i: int, j: int, k: int, L: int, M: int):
    """p(L, M) against the same recurrence combination."""
    return _recurrence_sides(rhs_p, i, j, k, L, M)


def check_recurrence_g(i: int, j: int, k: int, L: int, M: int) -> bool:
    """Second order recurrence in L for the double-sum side."""
    lhs, rhs = recurrence_sides_g(i, j, k, L, M)
    return lhs == rhs


def check_recurrence_p(i: int, j: int, k: int, L: int, M: int) -> bool:
    """The same recurrence for the s-sum side."""
    lhs, rhs = recurrence_sides_p(i, j, k, L, M)
    return lhs == rhs


def andrews_sides(i: int, j: int, k: int, L: int, M: int):
    """g(L, M) against the twelve-term fourth order recurrence combination
    (the generalized form of Andrews' diagonal recursion)."""
    g = lhs_g
    one_minus = ONE - q_power(L - 1)
    rhs = g(i, j, k, L - 1, M - 1) \
        + g(i - 1, j, k, L - 1, M - 1).shift(L) \
        + g(i, j - 1, k, L - 1, M - 1).shift(L) \
        + g(i, j, k - 1, L - 1, M - 1).shift(M) \
        + one_minus * (g(i - 1, j - 1, k, L - 2, M - 2).shift(L)
                       + g(i - 1, j, k - 1, L - 2, M - 2).shift(M)
                       + g(i, j - 1, k - 1, L - 2, M - 2).shift(M)) \
        + g(i - 1, j - 1, k - 1, L - 3, M - 3).shift(2 * L + M - 3) \
        + g(i - 2, j - 1, k - 1, L - 3, M - 3).shift(L + M - 1) \
        + g(i - 1, j - 2, k - 1, L - 3, M - 3).shift(L + M - 1) \
        + g(i - 1, j - 1, k - 2, L - 3, M - 3).shift(2 * M - 1) \
        + g(i - 2, j - 2, k - 2, L - 4, M - 4).shift(L + 2 * M - 3)
    return g(i, j, k, L, M), rhs


def check_recurrence_andrews(i: int, j: int, k: int, L: int, M: int) -> bool:
    """Does the fourth order recurrence hold exactly for the double sum?"""
    lhs, rhs = andrews_sides(i, j, k, L, M)
    return lhs == rhs


def closed_form_diag(i: int, j: int, k: int, L: int) -> LaurentPoly:
    """Diagonal closed form q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k],
    the value of the s-sum side at M = L."""
    return summand_poly([cycle_summand(i, j, k, L)])


def schur_sides(j: int, k: int, L: int, M: int):
    """The i = 0 specialization: the single-sum form
    sum_bc q^(T(j+k-bc)+T(bc)) [L-k; j-bc][M-j; k-bc][M-j-k+bc; bc]
    against q^(T(j)+T(k)) [L; j][M-j; k]."""
    left = summand_poly(
        (triangular(j + k - bc) + triangular(bc),
         ((L - k, j - bc), (M - j, k - bc), (M - j - k + bc, bc)))
        for bc in range(min(j, k) + 1))
    right = summand_poly([(triangular(j) + triangular(k), ((L, j), (M - j, k)))])
    return left, right


def check_schur_case(j: int, k: int, L: int, M: int) -> bool:
    """Both sides of the i = 0 specialization agree, and both match the
    full two-sided evaluators at i = 0."""
    left, right = schur_sides(j, k, L, M)
    return left == right == lhs_g(0, j, k, L, M) == rhs_p(0, j, k, L, M)


def key_limit_lhs(i: int, j: int, k: int, order: int) -> TruncSeries:
    """Left side of the unbounded limit, modulo q^order:
    sum over frequencies of
    q^(T(t)+T(ab)+T(ac)+T(bc-1)) (1 - q^a + q^(a+bc)) / ((q)_a ... (q)_bc).
    Negative parameters give the empty sum, matching the vanishing of the
    bounded identity."""
    terms = []
    for sx in enumerate_sextuples(i, j, k):
        e = triangular(sx.t) + triangular(sx.ab) + triangular(sx.ac) \
            + triangular(sx.bc - 1)
        numer = LaurentPoly([(0, 1), (sx.a, -1), (sx.a + sx.bc, 1)])
        terms.append((numer.shift(e), sx))
    return poch_quotient_sum(terms, order)


def key_limit_rhs(i: int, j: int, k: int, order: int) -> TruncSeries:
    """Right side of the unbounded limit:
    q^(T(i)+T(j)+T(k)) / ((q)_i (q)_j (q)_k) modulo q^order, zero when any
    parameter is negative."""
    e = triangular(i) + triangular(j) + triangular(k)
    return poch_quotient_sum([(q_power(e), (i, j, k))], order)


def check_key_limit(i: int, j: int, k: int, order: int) -> bool:
    """Do both sides of the unbounded limit agree modulo q^order?"""
    return key_limit_lhs(i, j, k, order) == key_limit_rhs(i, j, k, order)


def check_support(i: int, j: int, k: int, L: int) -> bool:
    """On the diagonal M = L with L >= max(i+j, j+k, k+i): every frequency
    tuple whose summand is nonzero has t <= L.  Nonzero-ness of a summand is
    decided factor by factor through the support predicate (the coefficient
    ring has no zero divisors)."""
    if L < max(i + j, j + k, k + i):
        raise ValueError("support property needs L >= max(i+j, j+k, k+i)")
    for sx in enumerate_sextuples(i, j, k):
        t = sx.t
        if L - t < 0 and _live_sums(sx, t, L, L):
            return False
    return True
