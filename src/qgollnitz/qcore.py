"""Exact arithmetic for sparse Laurent polynomials and truncated power series.

All values are immutable, use arbitrary-precision integer coefficients, and
compare by exact structural equality.  This module is the value layer for the
identity checkers; nothing here knows about q-binomials or partitions.

Internally a ``LaurentPoly`` stores a valuation plus a dense coefficient run,
and a product is the schoolbook convolution of two runs (_conv).  Large
values are not built by products here: the sweeps take them as integer
images at q = 2^W, W = image_width(B) for B a bound on every |coefficient|,
and read the coefficients back with decode.  image_width is the one rule
for W, so every image site is exact for the same reason.
"""

from __future__ import annotations

import re
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Union


class NegativeExponent(ValueError):
    """A power-series conversion met a term with a negative exponent."""


class NonUnitConstantTerm(ValueError):
    """Series reciprocal needs a constant term of +1 or -1."""


TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def _conv(a, b):
    """Schoolbook convolution of two dense coefficient runs."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def image_width(bound):
    """The width W of an integer image at q = 2^W of a sum whose coefficients
    are at most bound in size: whole bytes with 2^(W-1) > bound, so that the
    signed base-2^W digits are the coefficients, and at least 32 bits, so that
    small sums share one width, and any images a caller memoises at it."""
    return max(32, 8 * (bound.bit_length() // 8 + 1))


def decode(value, width, low=0):
    """The polynomial sum d_i q^(low+i) over the signed digits d_i of value in
    base F = 2^width (width whole bytes): the one run with -F/2 <= d < F/2 and
    value == sum d_i F^i.  value's two's complement bytes, at least one slot
    longer than it needs, are read slot by slot with a borrow carry; the
    spare slot takes the final carry, so the digits are exact."""
    nbytes = width // 8
    half, full = 1 << width - 1, 1 << width
    raw = value.to_bytes(((value.bit_length() + 1) // width + 2) * nbytes,
                         "little", signed=True)
    out = []
    carry = 0
    for at in range(0, len(raw), nbytes):
        d = int.from_bytes(raw[at:at + nbytes], "little") + carry
        carry = d >= half
        out.append(d - full if carry else d)
    return LaurentPoly._raw(low, out)


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients.

    Exponents may be negative.  Canonical form never stores a zero
    coefficient, so ``==`` is exact structural equality of the term maps.
    Instances are immutable and hashable.
    """

    __slots__ = ("_val", "_coeffs")

    def __init__(self, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + c
        acc = {e: c for e, c in acc.items() if c}
        if not acc:
            self._val = 0
            self._coeffs = ()
            return
        lo = min(acc)
        hi = max(acc)
        self._val = lo
        self._coeffs = tuple(acc.get(e, 0) for e in range(lo, hi + 1))

    @classmethod
    def _raw(cls, val, coeffs):
        """Build from a dense run, trimming zero fringes. Internal."""
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        p = object.__new__(cls)
        if lo == hi:
            p._val = 0
            p._coeffs = ()
        else:
            p._val = val + lo
            p._coeffs = tuple(coeffs[lo:hi])
        return p

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        if not coeff:
            return ZERO
        p = object.__new__(cls)
        p._val = exp
        p._coeffs = (coeff,)
        return p

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """The exponent -> coefficient map (no zero entries)."""
        return {self._val + i: c for i, c in enumerate(self._coeffs) if c}

    def iter_terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for i, c in enumerate(self._coeffs):
            if c:
                yield self._val + i, c

    def coeff(self, exp: int) -> int:
        i = exp - self._val
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    @property
    def valuation(self):
        """Lowest exponent, or None for the zero polynomial."""
        return self._val if self._coeffs else None

    @property
    def degree(self):
        """Highest exponent, or None for the zero polynomial."""
        return self._val + len(self._coeffs) - 1 if self._coeffs else None

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._val == other._val and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._val, self._coeffs))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        a, b = self._coeffs, other._coeffs
        lo, at = self._val, other._val - self._val
        if at < 0:
            a, b, lo, at = b, a, other._val, -at
        end = at + len(b)
        out = [*a, *[0] * (end - len(a))]  # the lower-starting run, padded
        out[at:end] = map(add, out[at:end], b)
        return LaurentPoly._raw(lo, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self._val, [-c for c in self._coeffs])

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly._raw(self._val, [c * other for c in self._coeffs])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(self._val + other._val,
                                _conv(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by q^n: every exponent increases by n."""
        if not self._coeffs or n == 0:
            return self
        p = object.__new__(LaurentPoly)
        p._val = self._val + n
        p._coeffs = self._coeffs
        return p

    def stretch(self, factor: int) -> "LaurentPoly":
        """Substitute q -> q^factor (factor >= 1)."""
        if factor < 1:
            raise ValueError("stretch factor must be >= 1")
        if factor == 1 or not self._coeffs:
            return self
        out = [0] * ((len(self._coeffs) - 1) * factor + 1)
        for i, c in enumerate(self._coeffs):
            out[i * factor] = c
        return LaurentPoly._raw(self._val * factor, out)

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(1)


def q_power(exp: int) -> LaurentPoly:
    """The monomial q^exp."""
    return LaurentPoly.monomial(1, exp)


def poly_sum(terms) -> LaurentPoly:
    """The sum of sign * q^shift * poly over the (sign, shift, poly) triples of
    terms, each sign 1 or -1: one slice add or subtract per term into one run."""
    runs = [(sign, shift + p._val, p._coeffs) for sign, shift, p in terms if p._coeffs]
    lo = min((run[1] for run in runs), default=0)
    out = [0] * (max((run[1] + len(run[2]) for run in runs), default=lo) - lo)
    for sign, at, coeffs in runs:
        at -= lo
        end = at + len(coeffs)
        out[at:end] = map(add if sign > 0 else sub, out[at:end], coeffs)
    return LaurentPoly._raw(lo, out)


# ---------------------------------------------------------------------------
# canonical text rendering and parsing
# ---------------------------------------------------------------------------

def render_poly(p: LaurentPoly) -> str:
    """Canonical text form: ascending exponents, e.g. ``1 - q + 2*q^3``."""
    if not p:
        return "0"
    parts = []
    for e, c in p.iter_terms():
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# One signed term: a coefficient, q, q^e, c*q or c*q^e, with blanks allowed
# between any two tokens.  The c*q forms come first so that a bare
# coefficient does not match the start of c*q.
_TERM_RE = re.compile(r"""\s*(?P<sign>[+-])?\s*
    (?: (?:(?P<coeff>\d+)\s*\*\s*)? q (?:\s*\^\s*(?P<neg>-?)\s*(?P<exp>\d+))?
      | (?P<const>\d+) )\s*""", re.VERBOSE)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical rendering back into a LaurentPoly.  Only the
    first term may leave out its sign; bad text raises ValueError."""
    terms: list[tuple[int, int]] = []
    pos = 0
    while pos < len(text) or not terms:
        m = _TERM_RE.match(text, pos)
        if m is None or (terms and m["sign"] is None):
            raise ValueError(f"bad polynomial text at offset {pos}: {text[pos:]!r}")
        if m["const"] is not None:
            exp, coeff = 0, int(m["const"])
        else:
            exp = int(m["neg"] + m["exp"]) if m["exp"] else 1
            coeff = int(m["coeff"]) if m["coeff"] else 1
        terms.append((exp, -coeff if m["sign"] == "-" else coeff))
        pos = m.end()
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncSeries:
    """Power series in q known modulo q^order, with integer coefficients.

    Arithmetic results carry the minimum order of the operands; equality
    compares coefficients up to the common order only (so instances are not
    hashable).  Negative exponents are not representable here, by design.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[int] = ()):
        if order < 1:
            raise ValueError("series order must be >= 1")
        cs = list(coeffs)
        if len(cs) > order:
            cs = cs[:order]
        else:
            cs.extend([0] * (order - len(cs)))
        self._order = order
        self._coeffs = tuple(cs)

    @classmethod
    def from_poly(cls, p: LaurentPoly, order: int) -> "TruncSeries":
        """Truncate a polynomial with nonnegative exponents to a series."""
        if p and p.valuation < 0:
            raise NegativeExponent(
                f"cannot truncate a Laurent polynomial with valuation {p.valuation}")
        cs = [0] * order
        for e, c in p.iter_terms():
            if e < order:
                cs[e] = c
        return cls(order, cs)

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def as_poly(self) -> LaurentPoly:
        """The known coefficients as an exact polynomial."""
        return LaurentPoly(dict(enumerate(self._coeffs)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        m = min(self._order, other._order)
        return self._coeffs[:m] == other._coeffs[:m]

    __hash__ = None  # equality is only defined up to the common order

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # the product of the known coefficients as polynomials, truncated
        m = min(self._order, other._order)
        prod = LaurentPoly._raw(0, self._coeffs[:m]) \
            * LaurentPoly._raw(0, other._coeffs[:m])
        return TruncSeries.from_poly(prod, m)

    def recip(self) -> "TruncSeries":
        """Multiplicative inverse modulo q^order.

        Solves the triangular system coefficient by coefficient; exact over
        the integers because the constant term is a unit.
        """
        c0 = self._coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {c0} is not +1 or -1")
        n = self._order
        s = self._coeffs
        out = [0] * n
        out[0] = c0
        for m in range(1, n):
            acc = 0
            for k in range(1, m + 1):
                if s[k]:
                    acc += s[k] * out[m - k]
            if acc:
                out[m] = -c0 * acc
        return TruncSeries(n, out)

    def __str__(self) -> str:
        body = render_poly(self.as_poly())
        return f"{body} + O(q^{self._order})"

    def __repr__(self) -> str:
        return f"TruncSeries('{self}')"
