"""Bounded Jacobi triple product, false theta identity, polynomial analogs
of Jacobi's cube formula, the q = 1 (Carlitz) collapse, and the four
parameter key identity, each computed two-sidedly in exact arithmetic.

Right sides here are signed, auxiliary-weighted sums of the same binomial
cycle [L-k; i][L-i; j][L-j; k] that closes the diagonal of the key identity,
so they are built on keyid.cycle_summand (in base q^2 by stretching it), or,
for the cube analog, as trace(C^3) (_cube_trace).

A side weighted by A or a is a {power: coefficient} dict with no zero
coefficient, so == compares two sides exactly; render_powers prints one.
"""

from __future__ import annotations

from math import isqrt
from operator import add, lshift, sub
from typing import NamedTuple

from .qcore import LaurentPoly, TruncSeries, decode, image_width, q_power
from .qcomb import (NegativeLength, poch_quotient_sum, qbinom_q1, summand_poly,
                    times_ratio, triangular)
from .keyid import cycle_summand


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


def _by_power(pairs) -> dict:
    """The {power: coefficient} dict of (power, coefficient) pairs: the
    coefficients of one power are summed, and a zero sum is left out."""
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


def _cycle_sums(L: int, lower: bool = False) -> dict:
    """The signed cycles (-1)^k cycle_summand(i, j, k, L) summed by i - j,
    {i - j: value}, each group decoded from one summand list; with lower,
    each cycle is first divided by q^((i+j)//2)."""
    groups = {}
    for i, j, k in _cycle_tuples(L):
        e, factors, coeff = cycle_summand(i, j, k, L, _sign(k))
        groups.setdefault(i - j, []).append((e - lower * ((i + j) // 2), factors, coeff))
    return {power: summand_poly(cycles) for power, cycles in groups.items()}


def render_powers(side: dict, var: str) -> str:
    """A {power: coefficient} dict as (c) + (c)*var + (c)*var^e + ..., in
    ascending powers of var; 0 for the empty dict."""
    parts = []
    for e in sorted(side):
        power = "" if e == 0 else f"*{var}" if e == 1 else f"*{var}^{e}"
        parts.append(f"({side[e]}){power}")
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# bounded Jacobi triple product and its series limit
# ---------------------------------------------------------------------------

def bounded_jtp_lhs(L: int) -> dict:
    """Left side of the bounded triple product, by power of A:
    sum_{l=0..L} (-1)^(L+l) q^(2(T(L)-T(l))) sum_{n=-l..l} A^n q^(n^2)."""
    pairs = []
    for el in range(L + 1):
        coeff = _sign(L + el)
        e = 2 * (triangular(L) - triangular(el))
        for n in range(-el, el + 1):
            pairs.append((n, LaurentPoly.monomial(coeff, n * n + e)))
    return _by_power(pairs)


def bounded_jtp_rhs(L: int) -> dict:
    """Right side: the base-q^2 binomial cycle
    sum (-1)^k A^(i-j) q^(i^2 + j^2 + 2T(k)) [L-k; i][L-i; j][L-j; k] (all
    binomials in base q^2), over i, j, k >= 0 with pair sums at most L.
    Since 2T(n) = n^2 + n, each term is the signed cycle in q^2 times
    q^-(i+j), and i + j has the parity of the power i - j: so the cycles of
    one power, each lowered by q^((i+j)//2), are summed in base q (as carl's
    are), then stretched to q^2 and lowered by one more q for an odd power."""
    return _by_power((power, value.stretch(2).shift(-(power & 1)))
                     for power, value in _cycle_sums(L, lower=True).items())


def bounded_jtp_sides(L: int) -> tuple[dict, dict]:
    """Both sides of the bounded triple product."""
    return bounded_jtp_lhs(L), bounded_jtp_rhs(L)


def jtp_series(order: int) -> tuple[dict, dict]:
    """Both sides of the triple product identity modulo q^order, by power
    of A: sum_n A^n q^(n^2) against the infinite product
    prod_m (1 + A q^(2m-1)) (1 + A^-1 q^(2m-1)) (1 - q^(2m)), factors
    taken while they still touch exponents below the truncation order.

    The product is one coefficient run per power A^n with n^2 < order:
    a partial product's A^n coefficient starts at q^(n^2) or later, so no
    other power reaches below the order."""
    bound = isqrt(order - 1)
    lhs = {n: TruncSeries.from_poly(q_power(n * n), order)
           for n in range(-bound, bound + 1)}
    runs = [[0] * order for _ in range(2 * bound + 1)]  # A^n at bound + n
    runs[bound][0] = 1
    for e in range(1, order, 2):
        # times 1 + A q^e, then 1 + A^-1 q^e: each run gains its neighbour
        # below, then above, shifted by e and read before it changes
        for n in range(2 * bound, 0, -1):
            runs[n][e:] = map(add, runs[n][e:], runs[n - 1][:order - e])
        for n in range(2 * bound):
            runs[n][e:] = map(add, runs[n][e:], runs[n + 1][:order - e])
        for run in runs:  # times 1 - q^(e+1), which is 1 at e + 1 = order
            times_ratio(run, (e + 1,), ())
    rhs = {n - bound: TruncSeries(order, run)
           for n, run in enumerate(runs) if any(run)}
    return lhs, rhs


# ---------------------------------------------------------------------------
# truncated Pochhammer helpers
# ---------------------------------------------------------------------------

def poch_series(k: int, n: int, order: int) -> TruncSeries:
    """(q^k; q)_n modulo q^order for k >= 1, one factor 1 - q^r at a time on
    a coefficient run cut at the order; factors with r >= order are 1 modulo
    q^order, so they are left out.  Raises NegativeLength for n < 0."""
    if k < 1:
        raise ValueError("poch_series needs k >= 1")
    if n < 0:
        raise NegativeLength(f"Pochhammer length must be >= 0, got {n}")
    run = [1] + [0] * (order - 1)
    times_ratio(run, range(k, min(k + n, order)), ())
    return TruncSeries(order, run)


def _theta_series(order: int, weight) -> TruncSeries:
    """sum_{l>=0} (-1)^l weight(l) q^T(l) modulo q^order."""
    return TruncSeries.from_poly(LaurentPoly(
        (triangular(el), _sign(el) * weight(el))
        for el in range(order) if triangular(el) < order), order)


# ---------------------------------------------------------------------------
# false theta identity
# ---------------------------------------------------------------------------

def false_theta_sides(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of the false theta identity modulo q^order:
    sum (-1)^l q^T(l)  against
    sum_{i,k>=0} (-1)^(i+k) q^(T(i)+T(k)-ik) [k+i; k] / ((q)_i (q)_k).

    Each term is symmetric in i and k, so the sum runs over i <= k with the
    off-diagonal terms doubled.  For k >= i the exponent e = T(i)+T(k)-ik =
    k + T(k-i-1) is at least k and grows with k, which bounds the range.
    Term (i, k+1) is term (i, k) times -q^(k+1-i) (1 - q^(i+k+1)) / (1 - q^(k+1))^2,
    and (i+1, i+1) is (i, i) times q (1 - q^(2i+1)) (1 - q^(2i+2)) / (1 - q^(i+1))^4,
    each walked on a coefficient run cut at order - e."""
    lhs = _theta_series(order, lambda el: 1)
    rhs, off = [0] * order, [0] * order  # the diagonal terms, and the others
    diag = [1] + [0] * (order - 1)  # term(0, 0)
    for i in range(order):
        rhs[i:] = map(add, rhs[i:], diag)
        run, e = diag[:], i
        for k in range(i + 1, order):
            e += k - i
            if e >= order:
                break
            del run[order - e:]
            times_ratio(run, (i + k,), (k, k))
            off[e:] = map(sub if (i + k) & 1 else add, off[e:], run)
        del diag[-1]
        times_ratio(diag, (2 * i + 1, 2 * i + 2), (i + 1,) * 4)
    return lhs, TruncSeries(order, [d + 2 * o for d, o in zip(rhs, off)])


# ---------------------------------------------------------------------------
# Jacobi cube formula: polynomial analog and series form
# ---------------------------------------------------------------------------

def _cube_lhs(L: int) -> list:
    """The cube analog's left side as (T(l), (-1)^l (2l+1)) pairs, l = 0..L."""
    return [(triangular(el), _sign(el) * (2 * el + 1)) for el in range(L + 1)]


def _cube_trace(L: int, width: int, sign: int) -> int:
    """trace(C^3) at q = 2^width for C[a][b] = sign^b q^T(b) [L-a; b], 0 <= a, b <= L,
    zero for a + b > L.  With sign -1, C[k][i] C[i][j] C[j][k] is the cube analog's
    cycle at (i, j, k).

    C = J P D with P[m][b] = [m; b], D = diag(sign^b q^T(b)) and J reversing the
    rows, so (C x)[a] = (P D x)[L-a].  The q-Pascal rule [m; b] = [m-1; b-1] +
    q^b [m-1; b] builds P's rows by shifts, and makes (P y)[m] the z[0] left by m
    steps z[i] <- z[i+1] + q^i z[i] from z = y.  For each b, C e_b is column b of
    the rows, and C^2 e_b takes all L steps.  (C^3)[b][b] is z[0] after L - b
    steps from D C^2 e_b; the steps are linear, so every b's D C^2 e_b joins one
    z with L - b steps left, and z[0] at the end is the trace.  Images are only
    shifted, added and negated: no two are multiplied."""
    rows = [[1]]
    for m in range(1, L + 1):
        up = rows[-1]
        rows.append([1] + [up[b - 1] + (up[b] << width * b) for b in range(1, m)] + [1])
    lifts = [width * triangular(a) for a in range(L + 1)]
    shifts = [width * i for i in range(L + 1)]
    odd = sign < 0

    def lift(x, b=0):
        # D x, each entry also times sign^b q^T(b)
        return [-(v << s + lifts[b]) if odd and (a + b) & 1 else v << s + lifts[b]
                for a, (v, s) in enumerate(zip(x, lifts))]

    def step(z, keep):
        # z[i] <- z[i+1] + q^i z[i] for i < keep, zero past z's end
        z.append(0)
        return list(map(add, map(lshift, z[:keep], shifts), z[1:]))

    last = [0] * (L + 1)  # the z of the last application, which every b joins
    for b in range(L + 1):
        z = lift([rows[L - a][b] for a in range(L - b + 1)], b)  # D C e_b
        tops = [z[0]]  # (C^2 e_b)[L - m] for m = 0..L
        for left in range(L, 0, -1):
            z = step(z, left)
            tops.append(z[0])
        # D C^2 e_b, read up to a = L - b, joins with L - b steps left
        last = list(map(add, step(last, L - b + 1), lift(tops[b:][::-1])))
    return sum(last[:1])  # 0 for L < 0, where C is empty


def _cube_bound(L: int, lhs: list) -> int:
    """B, the left side's summed |coefficient| plus the unsigned trace at q = 1:
    it bounds every |coefficient| of either side, and of left - trace(C^3)."""
    return sum(abs(c) for _, c in lhs) + _cube_trace(L, 0, 1)


def jacobi_cube_poly_sides(L: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Polynomial analog of the cube formula:
    sum_{l=0..L} (-1)^l (2l+1) q^T(l)  against
    sum (-1)^(i+j+k) q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k] = trace(C^3),
    decoded from its image at W = image_width(B) (_cube_bound)."""
    lhs = _cube_lhs(L)
    width = image_width(_cube_bound(L, lhs))
    return LaurentPoly(lhs), decode(_cube_trace(L, width, -1), width)


def jacobi_cube_poly_holds(L: int) -> bool:
    """Does the polynomial cube analog hold at L?  Decided at q = 2^W with
    W = image_width(B) (_cube_bound): left - trace(C^3) has every coefficient
    below 2^W in size, so it is zero exactly when its image at q = 2^W is."""
    lhs = _cube_lhs(L)
    width = image_width(_cube_bound(L, lhs))
    return sum(c << width * e for e, c in lhs) == _cube_trace(L, width, -1)


def jacobi_cube_series(order: int) -> tuple[TruncSeries, TruncSeries]:
    """The cube formula modulo q^order: the alternating (2l+1)-weighted
    theta sum against the cube of the Euler product, built on one run by
    three passes of each factor 1 - q^r, r < order."""
    lhs = _theta_series(order, lambda el: 2 * el + 1)
    run = [1] + [0] * (order - 1)
    times_ratio(run, [r for r in range(1, order) for _ in range(3)], ())
    return lhs, TruncSeries(order, run)


# ---------------------------------------------------------------------------
# the a-weighted cycle and its q = 1 collapse
# ---------------------------------------------------------------------------

def carl_poly_sides(L: int) -> tuple[dict, dict]:
    """The a-weighted polynomial cycle identity, by power of a:
    sum_{l=0..L} a^(-l) (1+a^(2l+1))/(1+a) q^T(l)  against
    sum a^(i-j) (-1)^k q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k].

    The left factor (1+a^(2l+1))/(1+a) is expanded as the finite
    alternating sum sum_{m=0..2l} (-a)^m, never as a ring division.  The
    right side's cycles are grouped by i - j, and each group is one
    summand list."""
    pairs = []
    for el in range(L + 1):
        coeff = q_power(triangular(el))
        for m in range(2 * el + 1):
            pairs.append((m - el, coeff * _sign(m)))
    return _by_power(pairs), _by_power(_cycle_sums(L).items())


def carlitz_sides(L: int) -> tuple[dict, dict]:
    """The q = 1 collapse of the a-weighted cycle, by power of a:
    (a^(L+1) - a^(-L-1)) / (a - a^(-1)) = sum_{m=0..L} a^(L-2m)  against
    sum a^(i-j) (-1)^k C(L-k, i) C(L-i, j) C(L-j, k).
    Both sides are Laurent polynomials in a with integer coefficients."""
    pairs = []
    for i, j, k in _cycle_tuples(L):
        n = qbinom_q1(L - k, i) * qbinom_q1(L - i, j) * qbinom_q1(L - j, k)
        pairs.append((i - j, _sign(k) * n))
    return {L - 2 * m: 1 for m in range(L + 1)}, _by_power(pairs)


def check_carlitz(L: int) -> bool:
    """The q = 1 collapse holds at L, and its left side at a = 1 counts the
    L + 1 terms a^(L-2m) (none for L < 0)."""
    lhs, rhs = carlitz_sides(L)
    return lhs == rhs and sum(lhs.values()) == max(L + 1, 0)


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
