"""Both sides of the doubly bounded key identity and everything derived
from it: vanishing and boundary cases, the second and fourth order
recurrences in L, the L = M diagonal closed form, the Schur specialization,
and the unbounded limit as a truncated series identity.

Conventions: g(i, j, k, L, M) is the colored-frequency double sum (lhs_g),
p(i, j, k, L, M) is the single s-sum (rhs_p).  Both are total functions on
Z^5; no argument is range-restricted.

Every binomial of either side depends on L alone or on M alone, so the
identity's three displayed sums (the left side's two and the right side's
s-sum) are built from halves in qcomb's normal form: _l_halves (keyed by
(i, j, k, L), 8 entries) and _m_halves (by (i, j, k, M), 24 entries).  A
half is dense, one slot per sextuple row for each left sum and one per s
for the right one, None where a factor is zero (the one support rule); its
weights are 0 there, and the right side's L slots carry its -1.  check_key
takes two dot products: the weights' is the bound B, and the slots' images
at q = 2^W, W = image_width(B), shifted (_images: 16 entries, keyed by half
and W), give the difference's.  _sum_normal joins a sum's L and M slots
into the list of qcomb terms that lhs_g and rhs_p decode.

A sweep runs M innermost, so one L half serves every M of its
(i, j, k, L), and one M half every L of its (i, j, k) while the M range
has at most 24 values: on acceptance criterion 1's grid each half memo
misses once per key, 4,802 times, and the image memo 3,217 times.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from operator import add, lshift, mul
from typing import NamedTuple

from .qcore import ZERO, LaurentPoly, TruncSeries, image_width, poly_sum, q_power
from . import qcomb
from .qcomb import (_times, normal_poly, pairs_image, poch_quotient_sum,
                    summand_poly, triangular)


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


def _no_sextuples(i: int, j: int, k: int) -> bool:
    """Is there no sextuple for (i, j, k)?  Exactly when one of them is negative."""
    return min(i, j, k) < 0


def enumerate_sextuples(i: int, j: int, k: int) -> list[Sextuple]:
    """All nonnegative (a, b, c, ab, ac, bc) with a+ab+ac = i, b+ab+bc = j,
    c+ac+bc = k, in lexicographic (ab, ac, bc) order.  Empty when any of
    i, j, k is negative (_no_sextuples)."""
    if _no_sextuples(i, j, k):
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
    """(a, b, c, ab, ac, bc, t, e1, e2) for each of enumerate_sextuples(i, j,
    k), with e1 = T(t) + T(ab) + T(ac) + T(bc) and e2 the same with T(bc-1):
    what the left halves need of a sextuple at every (L, M), and key_limit_lhs
    at every order.  A sweep visits one (i, j, k) for many (L, M) in a row,
    so a few entries suffice."""
    return tuple((*sx, sx.t, base + triangular(sx.bc), base + triangular(sx.bc - 1))
                 for sx in enumerate_sextuples(i, j, k)
                 for base in [triangular(sx.t) + triangular(sx.ab) + triangular(sx.ac)])


def _l_half(rows, L: int) -> tuple:
    """The L half of the left side's two sums, one slot per sextuple row:
    q^e1 [L-t+b; b, ab] [L-t+a; a] for the first sum and q^e2
    [L-t+b; b, ab] [L-t+a-1; a-1] for the second, as _times gives it."""
    normal = qcomb.factor_normal  # a local; the memo stays bound in qcomb only
    first, second = [], []
    for a, b, c, ab, ac, bc, t, e1, e2 in rows:
        lt = L - t
        u = normal((lt + b, b, ab))
        first.append(_times(u, normal((lt + a, a)), e1))
        second.append(_times(u, normal((lt + a - 1, a - 1)), e2))
    return tuple(first), tuple(second)


def _m_half(rows, M: int) -> tuple:
    """The M half: for each sum, one slot per row, [M-t+c; c, ac] [M-t; bc]
    (first sum) or [M-t+c; c, ac] [M-t; bc-1] (second), as _times gives it."""
    normal = qcomb.factor_normal
    first, second = [], []
    for a, b, c, ab, ac, bc, t, _, _ in rows:
        mt = M - t
        v = normal((mt + c, c, ac))
        first.append(_times(v, normal((mt, bc))))
        second.append(_times(v, normal((mt, bc - 1))))
    return tuple(first), tuple(second)


def _dense(first, second, right) -> tuple:
    """A half of the three displayed sums and its slots' weights, 0 for a zero slot."""
    parts = chain(first, second, right)
    return first, second, right, tuple([part[3] if part else 0 for part in parts])


@lru_cache(maxsize=8)
def _l_halves(i: int, j: int, k: int, L: int) -> tuple:
    """The L halves of the three displayed sums (_dense): the left side's two
    (_l_half) and the right side's, by s, minus [L-s; s, i-s, j-s] times
    q^(2s - T(s) + T(i-s) + T(j-s) + T(k-s)), so all three add to g - p."""
    right = tuple(_times(qcomb.factor_normal((L - s, s, i - s, j - s)), (-1, 0, (), 1),
                         2 * s - triangular(s) + triangular(i - s) + triangular(j - s)
                         + triangular(k - s))
                  for s in range(min(i, j, k) + 1))
    return _dense(*_l_half(_sextuple_rows(i, j, k), L), right)


@lru_cache(maxsize=24)
def _m_halves(i: int, j: int, k: int, M: int) -> tuple:
    """The M halves of the three displayed sums (_dense): the left side's two
    (_m_half) and the right side's, by s, [M-i-j; k-s] q^(sM)."""
    right = tuple(_times(qcomb.factor_normal((M - i - j, k - s)), e=s * M)
                  for s in range(min(i, j, k) + 1))
    return _dense(*_m_half(_sextuple_rows(i, j, k), M), right)


@lru_cache(maxsize=16)
def _images(halves, i: int, j: int, k: int, n: int, width: int) -> tuple:
    """Each slot of the half halves(i, j, k, n) at q = 2^width, its sign
    times its binomial images, and its shift less the half's lowest: both 0
    where its weight is."""
    half = halves(i, j, k, n)
    slots = list(zip(chain(*half[:3]), half[3]))
    low = min([part[1] for part, weight in slots if weight], default=0)
    return (tuple([weight and pairs_image(part[0], part[2], width) for part, weight in slots]),
            tuple([weight and part[1] - low for part, weight in slots]))


def _sum_normal(l_parts, m_parts, side: int = 1) -> list:
    """side (1 or -1) times one displayed sum as a list of qcomb normal-form
    terms: each L slot times the M slot of its index, where both are nonzero."""
    return [(side * l[0] * m[0], l[1] + m[1], l[2] + m[2], l[3] * m[3])
            for l, m in zip(l_parts, m_parts) if l is not None and m is not None]


def cycle_summand(i: int, j: int, k: int, L: int, coeff: int = 1) -> tuple:
    """coeff times the binomial cycle q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k]
    as a summand (see qcomb.summand_poly), the one place the cycle is written."""
    return (triangular(i) + triangular(j) + triangular(k),
            ((L - k, i), (L - i, j), (L - j, k)), coeff)


def lhs_g(i: int, j: int, k: int, L: int, M: int) -> LaurentPoly:
    """Left side of the key identity: the double sum over color frequencies.
    Without a sextuple it is the empty sum, ZERO, and takes no memo entry."""
    return ZERO if _no_sextuples(i, j, k) else _lhs_g(i, j, k, L, M)


@lru_cache(maxsize=8192)
def _lhs_g(i: int, j: int, k: int, L: int, M: int) -> LaurentPoly:
    return normal_poly(_sum_normal(chain(*_l_halves(i, j, k, L)[:2]),
                                   chain(*_m_halves(i, j, k, M)[:2])))


@lru_cache(maxsize=8192)
def rhs_p(i: int, j: int, k: int, L: int, M: int) -> LaurentPoly:
    """Right side of the key identity: the s-sum (_sum_normal), decoded."""
    return normal_poly(_sum_normal(_l_halves(i, j, k, L)[2], _m_halves(i, j, k, M)[2], -1))


def check_key(i: int, j: int, k: int, L: int, M: int) -> bool:
    """Exact equality of the two sides at one integer 5-tuple: B bounds the
    difference's coefficients (0: no live summand), and at W = image_width(B),
    2^W > B, so the difference is zero exactly when its image at q = 2^W is."""
    l_half, m_half = _l_halves(i, j, k, L), _m_halves(i, j, k, M)
    bound = sum(map(mul, l_half[3], m_half[3]))
    if not bound:
        return True
    width = image_width(bound)
    (l_images, l_shifts), (m_images, m_shifts) = \
        _images(_l_halves, i, j, k, L, width), _images(_m_halves, i, j, k, M, width)
    return not sum(map(lshift, map(mul, l_images, m_images),
                       map(mul, map(add, l_shifts, m_shifts), repeat(width))))


def boundary_value(i: int, j: int, k: int, M: int) -> LaurentPoly:
    """Collapsed value of either side at L = i+j-1:
    delta(i,0) delta(j,0) q^T(k) [M-i-j; k]."""
    if i != 0 or j != 0:
        return ZERO
    return summand_poly([(triangular(k), ((M, k),))])


def boundary_sides(i: int, j: int, k: int, M: int):
    """The left side at L = i+j-1 against the collapsed boundary value."""
    return lhs_g(i, j, k, i + j - 1, M), boundary_value(i, j, k, M)


def _recurrence_sides(f, i, j, k, L, M):
    # f(L,M) = f(L-1,M) + q^L f[i-1](L-1,M-1) + q^L f[j-1](L-1,M-1)
    #        + q^L f[i-1,j-1](L-2,M-1) - q^(2L-1) f[i-1,j-1](L-2,M-2)
    rhs = poly_sum([(1, 0, f(i, j, k, L - 1, M)),
                    (1, L, f(i - 1, j, k, L - 1, M - 1)),
                    (1, L, f(i, j - 1, k, L - 1, M - 1)),
                    (1, L, f(i - 1, j - 1, k, L - 2, M - 1)),
                    (-1, 2 * L - 1, f(i - 1, j - 1, k, L - 2, M - 2))])
    return f(i, j, k, L, M), rhs


def recurrence_sides_g(i: int, j: int, k: int, L: int, M: int):
    """g(L, M) against its second order recurrence combination."""
    return _recurrence_sides(lhs_g, i, j, k, L, M)


def recurrence_sides_p(i: int, j: int, k: int, L: int, M: int):
    """p(L, M) against the same recurrence combination."""
    return _recurrence_sides(rhs_p, i, j, k, L, M)


def andrews_sides(i: int, j: int, k: int, L: int, M: int):
    """g(L, M) against the twelve-term fourth order recurrence combination
    (the generalized form of Andrews' diagonal recursion)."""
    g = lhs_g
    # (1 - q^(L-1)) times each of the three middle terms, as two signed terms
    rhs = poly_sum([(1, 0, g(i, j, k, L - 1, M - 1)),
                    (1, L, g(i - 1, j, k, L - 1, M - 1)),
                    (1, L, g(i, j - 1, k, L - 1, M - 1)),
                    (1, M, g(i, j, k - 1, L - 1, M - 1)),
                    (1, L, x := g(i - 1, j - 1, k, L - 2, M - 2)), (-1, 2 * L - 1, x),
                    (1, M, y := g(i - 1, j, k - 1, L - 2, M - 2)), (-1, L + M - 1, y),
                    (1, M, z := g(i, j - 1, k - 1, L - 2, M - 2)), (-1, L + M - 1, z),
                    (1, 2 * L + M - 3, g(i - 1, j - 1, k - 1, L - 3, M - 3)),
                    (1, L + M - 1, g(i - 2, j - 1, k - 1, L - 3, M - 3)),
                    (1, L + M - 1, g(i - 1, j - 2, k - 1, L - 3, M - 3)),
                    (1, 2 * M - 1, g(i - 1, j - 1, k - 2, L - 3, M - 3)),
                    (1, L + 2 * M - 3, g(i - 2, j - 2, k - 2, L - 4, M - 4))])
    return g(i, j, k, L, M), rhs


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
    terms = [(LaurentPoly([(e2, 1), (e2 + a, -1), (e2 + a + bc, 1)]),
              (a, b, c, ab, ac, bc))
             for a, b, c, ab, ac, bc, _, _, e2 in _sextuple_rows(i, j, k)]
    return poch_quotient_sum(terms, order)


def key_limit_rhs(i: int, j: int, k: int, order: int) -> TruncSeries:
    """Right side of the unbounded limit:
    q^(T(i)+T(j)+T(k)) / ((q)_i (q)_j (q)_k) modulo q^order, zero when any
    parameter is negative."""
    e = triangular(i) + triangular(j) + triangular(k)
    return poch_quotient_sum([(q_power(e), (i, j, k))], order)


def key_limit_sides(i: int, j: int, k: int, order: int):
    """Both sides of the unbounded limit modulo q^order."""
    return key_limit_lhs(i, j, k, order), key_limit_rhs(i, j, k, order)


def check_support(i: int, j: int, k: int, L: int) -> bool:
    """On the diagonal M = L with L >= max(i+j, j+k, k+i): every frequency
    tuple whose summand is nonzero has t <= L.  A summand is nonzero when
    _sum_normal lists it: when none of its binomials is zero."""
    if L < max(i + j, j + k, k + i):
        raise ValueError("support property needs L >= max(i+j, j+k, k+i)")
    past = [row for row in _sextuple_rows(i, j, k) if row[6] > L]
    return not any(map(_sum_normal, _l_half(past, L), _m_half(past, L)))
