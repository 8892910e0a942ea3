"""q-combinatorial primitives: triangular numbers, the (1 - q^r) run step,
q-binomial and q-multinomial coefficients for arbitrary integer arguments,
and the recurrence/support facts they satisfy.

times_ratio multiplies a coefficient run in place by factors 1 - q^u and
divides it by factors 1 - q^d, modulo q^len(run); every (q)_n product and
quotient that the engine builds on a coefficient run goes through it.  Gaussian binomials with
top >= bottom >= 0 are built by it from the product formula
[n; m] = prod_{r=1..m} (1 - q^(n-m+r)) / (1 - q^r), with exact division;
a negative top is reduced to the nonnegative case by the closed
identity

    [-alpha; k] = (-1)^k [k+alpha-1; k] q^(-alpha*k - T(k-1)),

which is where negative q-exponents enter the engine.  qbinom is that
polynomial product, for qpascal's recurrence and the tests' oracle;
qmultinom is read off its image (summand_poly); the tests build their
polynomial reference of the q-multinomial recurrence from it.

A sum of q-binomial products written out term by term (the key identity's
diagonal closed form, the a-weighted cycle, the q-multinomial recurrence)
is a summand list: an integer times q^shift times a product of q-binomials
and q-multinomials.  Its one normal form is a list of factor_normal's terms
(sign, shift, pairs, weight): sign q^shift times the [n; m] of pairs, each
n > m > 0, with weight |sign| times their C(n, m).  _times joins two terms;
_normal_terms folds a summand's factors with it, and keyid builds both
sides of the key identity in that form directly.  _image gives a list's
value at q = 2^W, each term's binomials by the product formula over the
integers (pairs_image, shared with keyid.check_key).  B, the summed weight,
bounds every |coefficient| of the sum (each [n; m], n >= m >= 0, has
nonnegative coefficients summing to C(n, m)), so at W = image_width(B) the
sum is zero exactly when its image is, and normal_poly decodes it.
multinom_recurrence_holds decides the q-multinomial recurrence by that rule
on the same images, and multinom_recurrence_sides decodes the first point
it rejects with summand_poly, from the same summands.
poch_quotient_sum sums numerator / ((q)_n1 (q)_n2 ...) terms modulo q^order
with the same times_ratio division that builds the q-binomials.

Everything here behaves as a pure function.  The memo tables hold only the
entries asked for, are bounded, and hold immutable values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import sub
from typing import Sequence

from .qcore import ZERO, LaurentPoly, TruncSeries, decode, image_width, poly_sum


class NegativeLength(ValueError):
    """q-Pochhammer products are only defined here for length n >= 0."""


def triangular(n: int) -> int:
    """n-th triangular number n(n+1)/2, valid for every integer n.

    In particular triangular(-1) == 0 and triangular(-2) == 1, which the
    boundary cases of the identity checkers rely on.
    """
    return n * (n + 1) // 2


def qbinom_is_nonzero(top: int, bottom: int) -> bool:
    """Support predicate: [top; bottom] != 0 iff bottom >= 0 and
    (top < 0 or top >= bottom)."""
    return bottom >= 0 and (top < 0 or top >= bottom)


def qbinom_normal(top: int, bottom: int):
    """[top; bottom] as sign * q^shift * [n; bottom] with n >= bottom >= 0,
    returned as (sign, shift, n); None when [top; bottom] is zero.

    A negative top is reduced by
    [-alpha; k] = (-1)^k q^(-alpha*k - T(k-1)) [k+alpha-1; k].
    """
    if not qbinom_is_nonzero(top, bottom):
        return None
    if top >= 0:
        return 1, 0, top
    alpha = -top
    return (-1 if bottom & 1 else 1), -alpha * bottom - triangular(bottom - 1), \
        bottom + alpha - 1


@lru_cache(maxsize=4096)
def factor_normal(factor: tuple):
    """The factor (top, b1, b2, ...) = [top; b1, b2, ...] as sign * q^shift *
    [n1; m1] [n2; m2] ..., returned as (sign, shift, (n1, m1, n2, m2, ...),
    weight) with each n > m > 0 and weight the product of the C(n, m);
    None when the factor is zero."""
    sign, shift, pairs, weight = 1, 0, (), 1
    top = factor[0]
    for bottom in factor[1:]:
        if bottom:  # [top; 0] = 1
            normal = qbinom_normal(top, bottom)
            if normal is None:
                return None
            s, e, n = normal
            sign, shift = sign * s, shift + e
            if n != bottom:  # [n; n] = 1
                pairs, weight = pairs + (n, bottom), weight * comb(n, bottom)
            top -= bottom
    return sign, shift, pairs, weight


def times_ratio(run: list, ups, downs) -> None:
    """Multiply the coefficient run in place by prod (1 - q^u) over ups and
    divide it by prod (1 - q^d) over downs (each d >= 1), modulo q^len(run).
    A division is a running sum over each residue class mod d that has 2+ terms."""
    for u in ups:
        run[u:] = map(sub, run[u:], run[:max(len(run) - u, 0)])
    for d in downs:
        for res in range(min(d, len(run) - d)):
            run[res::d] = accumulate(run[res::d])


def _qbinom_nonneg(top: int, bottom: int) -> LaurentPoly:
    # [top; bottom] = prod_{r=1..m} (1 - q^(top-m+r)) / (1 - q^r), m the smaller
    # of bottom and top - bottom.  Step r pads the run with top - m zeros, so
    # that it holds the partial quotient [top-m+r; r], a polynomial of degree
    # r (top - m); times_ratio's product and division modulo q^len(run) then
    # give that quotient exactly.
    bottom = min(bottom, top - bottom)
    run = [1]
    for r in range(1, bottom + 1):
        run += [0] * (top - bottom)
        times_ratio(run, (top - bottom + r,), (r,))
    return LaurentPoly(enumerate(run))


def qbinom(top: int, bottom: int) -> LaurentPoly:
    """Gaussian binomial coefficient [top; bottom] for any integer pair.

    Zero when bottom < 0 or 0 <= top < bottom.  For top < 0 the value is a
    genuine Laurent polynomial with sign (-1)^bottom.
    """
    if 0 <= bottom <= top:
        return _qbinom_nonneg(top, bottom)
    normal = qbinom_normal(top, bottom)
    if normal is None:
        return ZERO
    sign, shift, n = normal
    value = _qbinom_nonneg(n, bottom).shift(shift)
    return value if sign > 0 else -value


# 512 entries hold what the key grid reuses from tuple to tuple, and bound
# what a sweep at large widths leaves behind.
@lru_cache(maxsize=512)
def qbinom_image(top: int, bottom: int, width: int) -> int:
    """[top; bottom] at q = 2^width, for top >= bottom >= 0: the product of
    (2^(width*(top-bottom+r)) - 1) / (2^(width*r) - 1) over r = 1..bottom,
    where each partial product is an integer, so each division is exact."""
    bottom = min(bottom, top - bottom)
    value = 1
    for r in range(1, bottom + 1):
        value = value * ((1 << width * (top - bottom + r)) - 1) \
            // ((1 << width * r) - 1)
    return value


def _times(u, x=(1, 0, (), 1), e=0):
    """u times x (1 when left out) times q^e, for two terms of the normal
    form (sign, shift, pairs, weight); None when either is zero."""
    if u is None or x is None:
        return None
    return u[0] * x[0], e + u[1] + x[1], u[2] + x[2], u[3] * x[3]


def _normal_terms(summands):
    """The nonzero summands of a summand list as normal-form terms, each
    summand's coefficient and shift joined to its factors' factor_normal by
    _times: [(c, e, (n1, m1, n2, m2, ...), weight), ...]."""
    terms = []
    for summand in summands:
        coeff = summand[2] if len(summand) > 2 else 1
        if coeff:
            term = coeff, summand[0], (), abs(coeff)
            for factor in summand[1]:
                if (term := _times(term, factor_normal(factor))) is None:
                    break
            else:
                terms.append(term)
    return terms


def pairs_image(value: int, pairs, width: int) -> int:
    """value times the [n; m] of pairs = (n1, m1, n2, m2, ...) at q = 2^width."""
    for at in range(0, len(pairs), 2):
        value *= qbinom_image(pairs[at], pairs[at + 1], width)
    return value


def _image(terms, width):
    """The sum of a nonempty list of terms at q = 2^width, times 2^(-width*low)
    for low the lowest term exponent: (low, image).  A term's coefficient is
    multiplied by its factor images before it is shifted by width * (e - low),
    so no product carries those trailing zero bits."""
    low = min(term[1] for term in terms)
    return low, sum(pairs_image(term[0], term[2], width) << width * (term[1] - low)
                    for term in terms)


def normal_poly(terms: list) -> LaurentPoly:
    """The sum of a list of terms as a Laurent polynomial, decoded from its
    image at W = image_width(B), B their summed weight."""
    if not terms:
        return ZERO
    width = image_width(sum(term[3] for term in terms))
    low, image = _image(terms, width)
    return decode(image, width, low)


def summand_poly(summands) -> LaurentPoly:
    """The value of a summand list (or any iterable of summands) as a
    Laurent polynomial, decoded from its image by normal_poly.  A summand
    (shift, factors, coeff) is coeff (1 when left out) times q^shift times
    the product of its factors (top, b1, b2, ...) = [top; b1, b2, ...]."""
    return normal_poly(_normal_terms(summands))


def poch_quotient_sum(terms, order: int) -> TruncSeries:
    """The sum of numer / ((q)_n1 (q)_n2 ...) modulo q^order over the
    (numer, (n1, n2, ...)) pairs of terms, numer a nonzero polynomial in q.
    A term is zero, and is skipped, when its numerator's valuation reaches
    the order or when some n is negative (1/(q)_n = 0 for n < 0).  A factor
    1 - q^r with r at or past the numerator's run is 1 modulo the order."""
    total = [0] * order
    for numer, lengths in terms:
        val = numer.valuation
        if val >= order or min(lengths) < 0:
            continue
        run = list(TruncSeries.from_poly(numer, order).coeffs[val:])
        for n in lengths:
            times_ratio(run, (), range(1, min(n, len(run) - 1) + 1))
        for e, c in enumerate(run, val):
            total[e] += c
    return TruncSeries(order, total)


def qbinom_q1(top: int, bottom: int) -> int:
    """The q = 1 binomial: C(top, bottom) with the same support rules."""
    normal = qbinom_normal(top, bottom)
    if normal is None:
        return 0
    sign, _, n = normal
    return sign * comb(n, bottom)


def qmultinom(total: int, parts: Sequence[int]) -> LaurentPoly:
    """q-multinomial [total; p1, p2, ...] = [total; p1][total-p1; p2]...,
    decoded from its image by summand_poly (factor_normal normalises it).

    Any negative part makes a zero factor, so the whole product vanishes;
    negative totals follow the Laurent branch of qbinom.
    """
    return summand_poly([(0, ((total, *parts),))])


def qpascal_sides(top: int, bottom: int) -> tuple[LaurentPoly, LaurentPoly]:
    """[top; bottom] against [top-1; bottom] + q^(top-bottom) [top-1; bottom-1]."""
    lhs = qbinom(top, bottom)
    rhs = poly_sum([(1, 0, qbinom(top - 1, bottom)),
                    (1, top - bottom, qbinom(top - 1, bottom - 1))])
    return lhs, rhs


def _multinom_terms(L, s, i, j):
    # [L; s,i,j] = [L-1; s,i,j] + q^(L-i)[L-1; s,i-1,j] + q^(L-j)[L-1; s,i,j-1]
    #            + q^(L-s-i-j)[L-1; s-1,i,j] + q^(L-i-j)(1-q^(L-1))[L-2; s,i-1,j-1]
    # as summands (shift, ((total, s, i, j),), sign), the left side first
    tail = ((L - 2, s, i - 1, j - 1),)
    return ((0, ((L, s, i, j),), 1), (0, ((L - 1, s, i, j),), 1),
            (L - i, ((L - 1, s, i - 1, j),), 1), (L - j, ((L - 1, s, i, j - 1),), 1),
            (L - s - i - j, ((L - 1, s - 1, i, j),), 1),
            (L - i - j, tail, 1), (2 * L - 1 - i - j, tail, -1))


def _multinom_points(L, s, i, j):
    return (("four-part", (L, s, i, j)), ("shifted", (L - s, s, i - s, j - s)),
            ("symmetric", (L, 0, i, j)))


def _multinom_point_holds(point) -> bool:
    # the relation at point, decided on right minus left at q = 2^W: for B the
    # live terms' summed weight and W = image_width(B), 2^W > B
    (e, factors, c), *rhs = _multinom_terms(*point)
    # [t; a, b, d] != 0 iff a, b, d >= 0 and not 0 <= t < a + b + d: tested
    # first, so that factor_normal's memo does not fill with zero factors
    live = [_times(normal, (c, e, (), abs(c)))
            for e, ((t, a, b, d),), c in ((e, factors, -c), *rhs)
            if a >= 0 and b >= 0 and d >= 0 and not 0 <= t < a + b + d
            and (normal := factor_normal((t, a, b, d)))]
    return not live or not _image(live, image_width(sum(term[3] for term in live)))[1]


def multinom_recurrence_holds(L: int, s: int, i: int, j: int) -> bool:
    """Does the four-part recurrence of _multinom_terms hold at (L, s, i, j),
    shifted to (L-s, s, i-s, j-s), and at (L, 0, i, j), where it is the
    two-part symmetric form ([L; 0, i, j] = [L; i, j], [L-1; -1, i, j] = 0)?
    Each distinct point is decided once: at s = 0 the three are one."""
    return all(map(_multinom_point_holds,
                   dict.fromkeys(point for _, point in _multinom_points(L, s, i, j))))


def multinom_recurrence_sides(L: int, s: int, i: int, j: int) -> tuple[str, str]:
    """The first point multinom_recurrence_holds rejects, else the last, as
    "label: lhs" and "label: rhs", decoded by summand_poly from its terms."""
    for label, point in _multinom_points(L, s, i, j):
        if not _multinom_point_holds(point):
            break
    lhs, *rhs = _multinom_terms(*point)
    return f"{label}: {summand_poly([lhs])}", f"{label}: {summand_poly(rhs)}"
