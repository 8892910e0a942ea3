"""Test references kept out of the package: image deciders for summand
lists, the cube analog as summand lists, the q-multinomial recurrence as
polynomials, Pochhammer and q-binomial products factor by factor, the key
identity's two left sums, a brute-force partition count, and source
mutants of a module."""

import inspect
import types

from qgollnitz import corollaries, keyid, qcomb
from qgollnitz.keyid import cycle_summand
from qgollnitz.partcomb import iter_type1
from qgollnitz.qcomb import NegativeLength, _image, _normal_terms, normal_poly, qmultinom
from qgollnitz.qcore import ONE, ZERO, LaurentPoly, poly_sum


def poch_qpow(k, n):
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


def qbinom_stepwise(top, bottom):
    """[top; bottom] for top >= bottom >= 0 by the product formula, step r
    multiplying the whole run by 1 - q^(top-bottom+r), dividing it by
    1 - q^r as a running sum, and cutting the r trailing zeros."""
    if 2 * bottom > top:
        return qbinom_stepwise(top, top - bottom)
    run = [1]
    for r in range(1, bottom + 1):
        a = top - bottom + r
        run = [x - y for x, y in zip(run + [0] * a, [0] * a + run)]
        for e in range(r, len(run)):
            run[e] += run[e - r]
        assert not any(run[-r:])
        del run[-r:]
    return LaurentPoly(enumerate(run))


def lhs_g_parts(i, j, k, L, M):
    """The two displayed sums of the key identity's left side, separately.

    The first sum carries exponent T(t)+T(ab)+T(ac)+T(bc) and binomials
    ending in [L-t+a; a] [M-t; bc]; the second shifts bc down by one and the
    'a' binomial to [L-t+a-1; a-1].  On the diagonal M = L the split mirrors
    the smallest-part dichotomy of the staircase image."""
    return tuple(normal_poly(keyid._sum_normal(l_parts, m_parts)) for l_parts, m_parts
                 in zip(keyid._l_halves(i, j, k, L)[:2], keyid._m_halves(i, j, k, M)[:2]))


def count_G(L, n, freq):
    """Number of Type-1 partitions of n with largest part <= L and color
    frequencies freq, by exhaustive enumeration."""
    return sum(1 for p in iter_type1(L, freq) if p.weight == n)


def normal_is_zero(terms):
    """Is the sum of a list of normal-form terms zero?  Decided on its image
    at q = 2^W with W the bit length of B, their summed weight, so 2^W > B."""
    return not terms or _image(terms, sum(term[3] for term in terms).bit_length())[1] == 0


def summands_agree(left, right):
    """Do two summand lists (or iterables of summands) have equal values?
    Decided by one comparison of integers, without building a polynomial.

    Every [n; m] with n >= m >= 0 has nonnegative coefficients summing to
    C(n, m), and a negative top only adds a sign and a power of q
    (factor_normal).  So B, the sum over both lists of each summand's weight
    (|coefficient| times that product of C(n, m)), bounds every |coefficient|
    of left - right.  Take W with 2^W > B and D the lowest summand exponent:
    q^-D (left - right) is then a polynomial whose coefficients are all below
    2^W in size, and its value at q = 2^W is zero exactly when it is the zero
    polynomial: an exact test, not a random-point one."""
    return normal_is_zero(_normal_terms(left)
                          + [(-c, *rest) for c, *rest in _normal_terms(right)])


def cube_summands(L):
    """Both sides of the polynomial cube analog as summands: the list of the
    left side's coefficient-only terms, and a generator of the signed cycles
    (-1)^(i+j+k) q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k]."""
    lhs = [(e, (), c) for e, c in corollaries._cube_lhs(L)]
    rhs = (cycle_summand(i, j, k, L, corollaries._sign(i + j + k))
           for i, j, k in corollaries._cycle_tuples(L))
    return lhs, rhs


def multinom_three_sides(L, s, i, j):
    """Both sides of the four-part recurrence of qcomb._multinom_terms at
    (L, s, i, j), each q-multinomial decoded by qmultinom and the right side
    summed by poly_sum."""
    (sign, shift, lhs), *rhs = [(c, e, qmultinom(f[0], f[1:]))
                                for e, (f,), c in qcomb._multinom_terms(L, s, i, j)]
    lhs = lhs.shift(shift)
    return (lhs if sign > 0 else -lhs), poly_sum(rhs)


def multinom_recurrence_relations(L, s, i, j):
    """The four-part recurrence at the three points that
    qcomb.multinom_recurrence_holds decides, as polynomial (label, lhs, rhs):
    at (L, s, i, j), shifted to (L-s, s, i-s, j-s), and the two-part
    symmetric form at (L, 0, i, j), where [L; 0, i, j] = [L; i, j] and
    [L-1; -1, i, j] = 0."""
    return tuple((label,) + multinom_three_sides(*point)
                 for label, point in qcomb._multinom_points(L, s, i, j))


def _mutant(module, old, new, count=1):
    """A fresh copy of module with old, found count times in its source,
    replaced by new."""
    source = inspect.getsource(module)
    assert source.count(old) == count, old
    copy = types.ModuleType(module.__name__ + "_mutant")
    copy.__package__ = module.__package__
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(copy))
    return copy
