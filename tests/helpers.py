"""Test references kept out of the package: image deciders for summand
lists, the cube analog as summand lists, the q-multinomial recurrence as
polynomials, Pochhammer and q-binomial products factor by factor, the key
identity's two left sums, a brute-force partition count, the Type-1 test,
the staircase maps and the Type-1 column count written rule by rule, and
source mutants of a module."""

import inspect
import sys
import types

from qgollnitz import corollaries, keyid, qcomb
from qgollnitz.keyid import cycle_summand
from qgollnitz.partcomb import (_FREQ_ORDER, Color, ColoredPartition, InvalidImage,
                                NotType1, StaircaseImage, _images, iter_type1)
from qgollnitz.qcomb import NegativeLength, _image, _normal_terms, normal_poly, qmultinom
from qgollnitz.qcore import ONE, ZERO, LaurentPoly, decode, image_width, poly_sum


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


_PRIMARY = (Color.A, Color.B, Color.C)


def _gap_one_ok(upper, lower):
    # A gap of exactly 1 needs the same primary color on both parts, or the
    # larger part in a strictly higher-ranked color.
    return upper > lower or (upper is lower and upper in _PRIMARY)


# The letters (A, B, C) each color spends, by rank: AB spends (1, 1, 0).
_LETTERS = tuple((c, tuple(int(x in c.name) for x in "ABC")) for c in Color)


def is_type1_ref(p):
    """Type-1 test, pair by pair: part values strictly decrease, any gap of
    exactly 1 passes _gap_one_ok, and value 1 is primary colored."""
    parts = p.parts
    for (v1, c1), (v2, c2) in zip(parts, parts[1:]):
        gap = v1 - v2
        if gap < 1 or gap == 1 and not _gap_one_ok(c1, c2):
            return False
    return not parts or parts[-1][0] != 1 or parts[-1][1] in _PRIMARY


def validate_ref(img):
    """StaircaseImage.validate, one (name, image) pair at a time: raise
    InvalidImage naming the first broken condition."""
    a, b, c, ab, ac, bc = _images(img)
    if a and a[-1] < 0:
        raise InvalidImage("negative part in primary image A")
    if b and b[-1] < 0:
        raise InvalidImage("negative part in primary image B")
    if c and c[-1] < 0:
        raise InvalidImage("negative part in primary image C")
    for name, ps in (("AB", ab), ("AC", ac)):
        if ps and ps[-1] < 1:
            raise InvalidImage(f"part below 1 in image {name}")
        if ps and len(set(ps)) < len(ps):
            raise InvalidImage(f"parts of image {name} are not distinct")
    if bc and bc[-1] < 0:
        raise InvalidImage("negative part in image BC")
    if bc and len(set(bc)) < len(bc):
        raise InvalidImage("parts of image BC are not distinct")
    if bc and bc[-1] == 0 and not (a and a[-1] == 0):
        raise InvalidImage("BC image contains 0 but A image does not")


def staircase_forward_ref(p):
    """The staircase image of a Type-1 partition, part by part: the largest
    part loses t, the next t - 1, ..., and each lands in its color's image,
    built through the sorting constructor."""
    if not is_type1_ref(p):
        raise NotType1(f"not a Type-1 partition: {p}")
    images = {c: () for c in _FREQ_ORDER}
    for idx, (v, c) in enumerate(p.parts, start=-len(p.parts)):
        images[c] += (v + idx,)
    img = StaircaseImage(*(images[c] for c in _FREQ_ORDER))
    validate_ref(img)
    return img


def staircase_inverse_ref(img):
    """The Type-1 partition of a valid image: its (value, Color) pairs
    sorted largest first, ties by color rank, each given back t, ..., 1,
    through the normalising constructor."""
    validate_ref(img)
    merged = sorted([(v, c) for c, ps in zip(_FREQ_ORDER, _images(img))
                     for v in ps], reverse=True)
    return ColoredPartition(
        (v - idx, c) for idx, (v, c) in enumerate(merged, start=-len(merged)))


def type1_poly_ref(L, i, j, k):
    """partcomb._type1_poly with every rule tested at every step: a state is
    the color of part v (None: no part v) and the letters still owed, and
    its counts by weight are the digits of one image at q = 2^width."""
    if min(i, j, k) < 0:
        return ZERO
    width = image_width((6 * L + 1) ** (i + j + k))
    col = {(None, i, j, k): 1}
    for v in range(1, L + 1):
        nxt = {}
        for (low, a, b, c), counts in col.items():
            nxt[None, a, b, c] = nxt.get((None, a, b, c), 0) + counts
            counts <<= width * v
            for color, (da, db, dc) in _LETTERS:
                if (a < da or b < db or c < dc
                        or (v == 1 and color not in _PRIMARY)
                        or (low is not None and not _gap_one_ok(color, low))):
                    continue
                key = (color, a - da, b - db, c - dc)
                nxt[key] = nxt.get(key, 0) + counts
        col = nxt
    return decode(sum(n for (_, a, b, c), n in col.items() if a == b == c == 0), width)


def _mutant(module, old, new, count=1):
    """A fresh copy of module with old, found count times in its source,
    replaced by new.  The copy is in sys.modules while its source runs,
    where dataclasses looks up the module of a class it builds."""
    source = inspect.getsource(module)
    assert source.count(old) == count, old
    copy = types.ModuleType(module.__name__ + "_mutant")
    copy.__package__ = module.__package__
    sys.modules[copy.__name__] = copy
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), vars(copy))
    finally:
        del sys.modules[copy.__name__]
    return copy
