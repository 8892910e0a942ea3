"""Exact arithmetic for sparse Laurent polynomials and truncated power series.

All values are immutable, use arbitrary-precision integer coefficients, and
compare by exact structural equality.  This module is the value layer for the
identity checkers; nothing here knows about q-binomials or partitions.

Internally a ``LaurentPoly`` stores a valuation plus a dense coefficient run.
Large products are computed by Kronecker substitution (pack the coefficients
into one big integer, multiply once, unpack), which keeps sweeps over tens of
thousands of identity instances fast without leaving exact integer land.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Union


class NegativeExponent(ValueError):
    """A power-series conversion met a term with a negative exponent."""


class NonUnitConstantTerm(ValueError):
    """Series reciprocal needs a constant term of +1 or -1."""


TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]]]

# Products with at most this many coefficient pairs use the schoolbook loop;
# beyond it the Kronecker path wins.
_SCHOOLBOOK_CAP = 600


def _conv(a, b):
    """Schoolbook convolution of two dense coefficient runs."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _pack(coeffs, width):
    """Pack a coefficient run into one integer, ``width`` bytes per slot."""
    n = len(coeffs)
    pos = bytearray(n * width)
    neg = bytearray(n * width)
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[i * width:(i + 1) * width] = c.to_bytes(width, "little")
        elif c < 0:
            neg[i * width:(i + 1) * width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack_signed(value, nbytes):
    """The signed digits of value in base F = 2^(8*nbytes), lowest first and
    with no trailing zero digit: the one run of d with -F/2 <= d < F/2 and
    value == sum d_i F^i.  value's two's complement bytes, at least one slot
    longer than it needs, are read slot by slot with a borrow carry; the
    spare slot takes the final carry, so the digits are exact."""
    field = 8 * nbytes
    half, full = 1 << field - 1, 1 << field
    raw = value.to_bytes(((value.bit_length() + 1) // field + 2) * nbytes,
                         "little", signed=True)
    out = []
    carry = 0
    for at in range(0, len(raw), nbytes):
        d = int.from_bytes(raw[at:at + nbytes], "little") + carry
        carry = d >= half
        out.append(d - full if carry else d)
    while out and not out[-1]:
        out.pop()
    return out


def _kron_conv(a, b):
    """Convolution via Kronecker substitution.

    The slot width is chosen so every true product coefficient and every
    coefficient of either run fits in a signed slot (an all-zero run counts
    its largest as 1), so unpack_signed gives the coefficients back exactly.
    """
    amax = max(max(map(abs, a)), 1)
    bmax = max(max(map(abs, b)), 1)
    width = ((amax * bmax * min(len(a), len(b))).bit_length() + 9) // 8
    out = unpack_signed(_pack(a, width) * _pack(b, width), width)
    return out + [0] * (len(a) + len(b) - 1 - len(out))


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
            return _ZERO
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

    def at_one(self) -> int:
        """Value at q = 1, i.e. the coefficient sum."""
        return sum(self._coeffs)

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
        lo = min(self._val, other._val)
        hi = max(self._val + len(self._coeffs), other._val + len(other._coeffs))
        out = [0] * (hi - lo)
        for i, c in enumerate(self._coeffs):
            out[self._val - lo + i] = c
        for i, c in enumerate(other._coeffs):
            out[other._val - lo + i] += c
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

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            if other == 1:
                return self
            return LaurentPoly._raw(self._val, [c * other for c in self._coeffs])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            return (other * a[0]).shift(self._val)
        if len(b) == 1:
            return (self * b[0]).shift(other._val)
        if len(a) * len(b) <= _SCHOOLBOOK_CAP:
            out = _conv(a, b)
        else:
            out = _kron_conv(a, b)
        return LaurentPoly._raw(self._val + other._val, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        return parse_poly(text)


_ZERO = LaurentPoly()
_ONE = LaurentPoly.monomial(1)

ZERO = _ZERO
ONE = _ONE
Q = LaurentPoly.monomial(1, 1)


def q_power(exp: int) -> LaurentPoly:
    """The monomial q^exp."""
    return LaurentPoly.monomial(1, exp)


def poly_prod(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    total = None
    for p in polys:
        if not p:
            return _ZERO
        total = p if total is None else total * p
    return _ONE if total is None else total


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
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, (1,))

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

    def coeff(self, exp: int) -> int:
        if not 0 <= exp < self._order:
            raise IndexError(f"exponent {exp} outside known range [0, {self._order})")
        return self._coeffs[exp]

    def as_poly(self) -> LaurentPoly:
        """The known coefficients as an exact polynomial."""
        return LaurentPoly(dict(enumerate(self._coeffs)))

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        m = min(self._order, other._order)
        return self._coeffs[:m] == other._coeffs[:m]

    __hash__ = None  # equality is only defined up to the common order

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        m = min(self._order, other._order)
        return TruncSeries(m, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self._order, [-c for c in self._coeffs])

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


# ---------------------------------------------------------------------------
# Laurent polynomials in one auxiliary variable
# ---------------------------------------------------------------------------

class BivarLaurent:
    """Laurent polynomial in an auxiliary variable A over q-coefficients.

    Coefficients are usually LaurentPoly values but any ring type with
    ``+``, ``*``, ``==`` and truthiness works (truncated series included).
    The constructor sums the terms that share an exponent and drops zero
    coefficients, so dict equality is exact; ``+`` and ``*`` go through it.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, object], Iterable[tuple[int, object]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, object] = {}
        for e, c in items:
            if e in acc:
                acc[e] = acc[e] + c
            else:
                acc[e] = c
        self._terms = {e: c for e, c in acc.items() if c}

    @classmethod
    def monomial(cls, coeff, aux_exp: int = 0) -> "BivarLaurent":
        return cls([(aux_exp, coeff)])

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coeff(self, aux_exp: int):
        return self._terms.get(aux_exp)

    def iter_terms(self) -> Iterator[tuple[int, object]]:
        for e in sorted(self._terms):
            yield e, self._terms[e]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarLaurent):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other) -> "BivarLaurent":
        if not isinstance(other, BivarLaurent):
            return NotImplemented
        return BivarLaurent([*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "BivarLaurent":
        return BivarLaurent({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "BivarLaurent":
        if not isinstance(other, BivarLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BivarLaurent":
        if not isinstance(other, BivarLaurent):
            return NotImplemented
        return BivarLaurent((e1 + e2, c1 * c2)
                            for e1, c1 in self._terms.items()
                            for e2, c2 in other._terms.items())

    def substitute_one(self):
        """Set the auxiliary variable to 1: the sum of all coefficients."""
        total = None
        for c in self._terms.values():
            total = c if total is None else total + c
        return _ZERO if total is None else total

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"BivarLaurent('{self}')"

    def render(self, var: str = "A") -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.iter_terms():
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*{var}")
            else:
                parts.append(f"({c})*{var}^{e}")
        return " + ".join(parts)
