"""q-combinatorial primitives: triangular numbers, q-Pochhammer products,
q-binomial and q-multinomial coefficients for arbitrary integer arguments,
and the recurrence/support facts they satisfy.

Gaussian binomials with top >= bottom >= 0 are built by the product
formula [n; m] = prod_{r=1..m} (1 - q^(n-m+r)) / (1 - q^r), with exact
division; a negative top is reduced to the nonnegative case by the closed
identity

    [-alpha; k] = (-1)^k [k+alpha-1; k] q^(-alpha*k - T(k-1)),

which is where negative q-exponents enter the engine.  qbinom and
qmultinom are polynomial products, for the recurrences on them and as the
tests' oracle.

Every sum of q-binomial products in the engine (both sides of the key
identity, its diagonal closed form, the cube analog) is a summand list: an
integer times q^shift times a product of q-binomials and q-multinomials.
One evaluator, _image, gives a list's value at q = 2^W as an integer, each
binomial by the product formula over the integers (qbinom_image), each
factor reduced once to [n; m] pairs with n >= m > 0 (factor_normal; a key
sweep normalises a few hundred distinct factors over a million times).
summands_agree compares two lists' images, with W large enough that equal
integers mean equal polynomials, and builds no polynomial; summand_poly
reads a list's polynomial off the signed base-2^W digits of its image.
poch_quotient_sum sums numerator / ((q)_n1 (q)_n2 ...) terms modulo q^order
with the running sum that builds the q-binomials (divide_one_minus).

Everything here behaves as a pure function.  The memo tables hold only the
entries asked for, are bounded, and hold immutable values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Sequence

from .qcore import ONE, ZERO, LaurentPoly, TruncSeries, q_power, unpack_signed


class NegativeLength(ValueError):
    """q-Pochhammer products are only defined here for length n >= 0."""


def triangular(n: int) -> int:
    """n-th triangular number n(n+1)/2, valid for every integer n.

    In particular triangular(-1) == 0 and triangular(-2) == 1, which the
    boundary cases of the identity checkers rely on.
    """
    return n * (n + 1) // 2


def poch_qpow(k: int, n: int) -> LaurentPoly:
    """The finite product (q^k; q)_n = prod_{j=0..n-1} (1 - q^(k+j)).

    Empty product for n == 0.  k may be negative (the result is then a
    Laurent polynomial); the factor with exponent 0 collapses everything
    to zero.  Raises NegativeLength for n < 0.
    """
    if n < 0:
        raise NegativeLength(f"Pochhammer length must be >= 0, got {n}")
    result = ONE
    for j in range(n):
        if k + j == 0:
            return ZERO
        result = result - result.shift(k + j)
    return result


def qbinom_normal(top: int, bottom: int):
    """[top; bottom] as sign * q^shift * [n; bottom] with n >= bottom >= 0,
    returned as (sign, shift, n); None when [top; bottom] is zero.

    A negative top is reduced by
    [-alpha; k] = (-1)^k q^(-alpha*k - T(k-1)) [k+alpha-1; k].
    """
    if bottom < 0 or 0 <= top < bottom:
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
    weight) with each n >= m > 0 and weight the product of the C(n, m);
    None when the factor is zero."""
    sign, shift, pairs, weight = 1, 0, (), 1
    top = factor[0]
    for bottom in factor[1:]:
        if bottom:  # [top; 0] = 1
            normal = qbinom_normal(top, bottom)
            if normal is None:
                return None
            s, e, n = normal
            sign, shift, pairs = sign * s, shift + e, pairs + (n, bottom)
            weight *= comb(n, bottom)
            top -= bottom
    return sign, shift, pairs, weight


def divide_one_minus(run: list, r: int) -> None:
    """Divide the coefficient run in place by 1 - q^r (r >= 1) modulo
    q^len(run): a running sum over each residue class of exponents mod r."""
    for res in range(r):
        run[res::r] = accumulate(run[res::r])


@lru_cache(maxsize=4096)
def _qbinom_nonneg(top: int, bottom: int) -> LaurentPoly:
    # [top; bottom] = prod_{r=1..bottom} (1 - q^(top-bottom+r)) / (1 - q^r).
    # Each step multiplies a coefficient run by 1 - q^a and divides it by
    # 1 - q^r; the division is exact because the quotient [top-bottom+r; r]
    # is a polynomial, so the run's last r coefficients come out zero.
    if 2 * bottom > top:
        return _qbinom_nonneg(top, top - bottom)
    run = [1]
    for r in range(1, bottom + 1):
        a = top - bottom + r
        run = [x - y for x, y in zip(run + [0] * a, [0] * a + run)]
        divide_one_minus(run, r)
        del run[-r:]
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


# 512 entries hold what the key grid reuses from tuple to tuple; a larger
# table would keep the cube analog's large images alive after its sweep.
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


def _normal_terms(sides):
    """The nonzero summands of each (side, summands) pair of sides (side 1 or
    -1) as flat terms [c, e, n1, m1, n2, m2, ...], c q^e [n1; m1] [n2; m2] ...
    with each n >= m > 0 (factor_normal), and B, the sum of their
    weights |c| [n1; m1] [n2; m2] ... at q = 1: (B, terms)."""
    bound, terms = 0, []
    for side, summands in sides:
        for summand in summands:
            coeff = side * summand[2] if len(summand) > 2 else side
            if not coeff:
                continue
            weight, term = abs(coeff), [coeff, summand[0]]
            for factor in summand[1]:
                normal = factor_normal(factor)
                if normal is None:
                    break
                term[0] *= normal[0]
                term[1] += normal[1]
                term += normal[2]
                weight *= normal[3]
            else:
                bound += weight
                terms.append(term)
    return bound, terms


def _image(terms, width):
    """The sum of a nonempty list of flat terms at q = 2^width, times
    2^(-width*low) for low the lowest term exponent: (low, image)."""
    low = min(term[1] for term in terms)
    image = 0
    for term in terms:
        value = term[0] << width * (term[1] - low)
        for at in range(2, len(term), 2):
            value *= qbinom_image(term[at], term[at + 1], width)
        image += value
    return low, image


def summands_agree(left, right) -> bool:
    """Do two summand lists (or iterables of summands) have equal values?
    Decided by one comparison of integers, without building a polynomial.

    A summand may carry an integer coefficient as a third element, which
    defaults to 1.  Every [n; m] with n >= m >= 0 has nonnegative
    coefficients summing to C(n, m), and a negative top only adds a sign and
    a power of q (factor_normal).  So B, the sum over both lists of each
    summand's weight (|coefficient| times that product of C(n, m)), bounds
    every |coefficient| of left - right.  Take W with 2^W > B and D the
    lowest summand exponent: q^-D (left - right) is then a polynomial whose
    coefficients are all below 2^W in size, and its value at q = 2^W is zero
    exactly when it is the zero polynomial.  The comparison is exact, not a
    random-point test.

    Until W is known each summand is held as one flat list of small ints,
    so a long side passed as a generator (the cube analog's cycle sum) costs
    little memory.
    """
    bound, terms = _normal_terms(((1, left), (-1, right)))
    return not terms or _image(terms, bound.bit_length())[1] == 0


def summand_poly(summands) -> LaurentPoly:
    """The value of a summand list (or any iterable of summands) as a
    Laurent polynomial, decoded from its image at q = 2^W (see
    summands_agree).  W is a whole number of bytes above the bit length of
    B, so every coefficient c has |c| <= B < 2^(W-1), and the image's signed
    base-2^W digits are the coefficients."""
    bound, terms = _normal_terms(((1, summands),))
    if not terms:
        return ZERO
    nbytes = bound.bit_length() // 8 + 1
    low, image = _image(terms, 8 * nbytes)
    return LaurentPoly._raw(low, unpack_signed(image, nbytes))


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
            for r in range(1, min(n, len(run) - 1) + 1):
                divide_one_minus(run, r)
        for e, c in enumerate(run, val):
            total[e] += c
    return TruncSeries(order, total)


def qbinom_base(top: int, bottom: int, base_power: int) -> LaurentPoly:
    """qbinom with q replaced by q^base_power (base_power >= 1)."""
    if base_power < 1:
        raise ValueError(f"base power must be >= 1, got {base_power}")
    return qbinom(top, bottom).stretch(base_power)


def qbinom_q1(top: int, bottom: int) -> int:
    """The q = 1 binomial: C(top, bottom) with the same support rules."""
    normal = qbinom_normal(top, bottom)
    if normal is None:
        return 0
    sign, _, n = normal
    return sign * comb(n, bottom)


def qbinom_is_nonzero(top: int, bottom: int) -> bool:
    """Support predicate: [top; bottom] != 0 iff bottom >= 0 and
    (top < 0 or top >= bottom)."""
    return bottom >= 0 and (top < 0 or top >= bottom)


def qmultinom(total: int, parts: Sequence[int]) -> LaurentPoly:
    """q-multinomial [total; p1, p2, ...] as a product of successive
    q-binomials [total; p1][total-p1; p2]...

    Any negative part makes a zero factor, so the whole product vanishes;
    negative totals follow the Laurent branch of qbinom.
    """
    return _qmultinom(total, tuple(parts))


@lru_cache(maxsize=65536)
def _qmultinom(total: int, parts: tuple[int, ...]) -> LaurentPoly:
    result = ONE
    rem = total
    for p in parts:
        factor = qbinom(rem, p)
        if not factor:
            return ZERO
        result = result * factor
        rem -= p
    return result


def qpascal_sides(top: int, bottom: int) -> tuple[LaurentPoly, LaurentPoly]:
    """[top; bottom] against [top-1; bottom] + q^(top-bottom) [top-1; bottom-1]."""
    lhs = qbinom(top, bottom)
    rhs = qbinom(top - 1, bottom) + qbinom(top - 1, bottom - 1).shift(top - bottom)
    return lhs, rhs


def check_qpascal(top: int, bottom: int) -> bool:
    """Does the q-Pascal recurrence hold exactly at this pair?
    (It should, for all integers.)"""
    lhs, rhs = qpascal_sides(top, bottom)
    return lhs == rhs


def _multinom_three_sides(L, s, i, j):
    # [L; s,i,j] = [L-1; s,i,j] + q^(L-i)[L-1; s,i-1,j] + q^(L-j)[L-1; s,i,j-1]
    #            + q^(L-s-i-j)[L-1; s-1,i,j] + q^(L-i-j)(1-q^(L-1))[L-2; s,i-1,j-1]
    lhs = qmultinom(L, (s, i, j))
    rhs = qmultinom(L - 1, (s, i, j)) \
        + qmultinom(L - 1, (s, i - 1, j)).shift(L - i) \
        + qmultinom(L - 1, (s, i, j - 1)).shift(L - j) \
        + qmultinom(L - 1, (s - 1, i, j)).shift(L - s - i - j) \
        + (ONE - q_power(L - 1)) * qmultinom(L - 2, (s, i - 1, j - 1)).shift(L - i - j)
    return lhs, rhs


def _multinom_shifted_sides(L, s, i, j):
    # Same recurrence after L -> L-s, i -> i-s, j -> j-s, regrouping the last
    # two terms as (q^(L+s-i-j) - q^(2L-1-i-j)) [L-2-s; s,i-1-s,j-1-s].
    lhs = qmultinom(L - s, (s, i - s, j - s))
    tail = (q_power(L + s - i - j) - q_power(2 * L - 1 - i - j)) \
        * qmultinom(L - 2 - s, (s, i - 1 - s, j - 1 - s))
    rhs = qmultinom(L - 1 - s, (s, i - s, j - s)) \
        + qmultinom(L - 1 - s, (s, i - 1 - s, j - s)).shift(L - i) \
        + qmultinom(L - 1 - s, (s, i - s, j - 1 - s)).shift(L - j) \
        + qmultinom(L - 1 - s, (s - 1, i - s, j - s)).shift(L - i - j) \
        + tail
    return lhs, rhs


def _multinom_symmetric_sides(L, i, j):
    # [L; i,j] = [L-1; i,j] + q^(L-i)[L-1; i-1,j] + q^(L-j)[L-1; i,j-1]
    #          + q^(L-i-j)(1-q^(L-1))[L-2; i-1,j-1]
    lhs = qmultinom(L, (i, j))
    rhs = qmultinom(L - 1, (i, j)) \
        + qmultinom(L - 1, (i - 1, j)).shift(L - i) \
        + qmultinom(L - 1, (i, j - 1)).shift(L - j) \
        + (ONE - q_power(L - 1)) * qmultinom(L - 2, (i - 1, j - 1)).shift(L - i - j)
    return lhs, rhs


def multinom_recurrence_relations(L: int, s: int, i: int, j: int):
    """The three multinomial recurrences evaluated at one tuple, as
    (label, lhs, rhs) triples: the four-part form at (L, s, i, j), its
    shifted variant, and the two-part symmetric form at (L, i, j)."""
    return (("four-part",) + _multinom_three_sides(L, s, i, j),
            ("shifted",) + _multinom_shifted_sides(L, s, i, j),
            ("symmetric",) + _multinom_symmetric_sides(L, i, j))


def check_multinom_recurrence(L: int, s: int, i: int, j: int) -> bool:
    """Do all three multinomial recurrences hold exactly at this tuple?"""
    return all(lhs == rhs for _, lhs, rhs in
               multinom_recurrence_relations(L, s, i, j))
