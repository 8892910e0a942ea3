"""Reference values for the benchmark's output checks, made apart from the
program.

Nothing here imports qgollnitz.  Polynomials are plain ``{exponent:
coefficient}`` dicts with no zero entries, truncated series are coefficient
lists, and every value is built by counting (subsets, partitions, products
expanded term by term) rather than by the program's recurrences.  Callers
compare the program's value, in that plain form, with the reference value;
``check_staircase`` combines the staircase map's three conditions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb


def tri(n: int) -> int:
    """Triangular number n(n+1)/2."""
    return n * (n + 1) // 2


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_shift(a: dict, n: int) -> dict:
    return {e + n: c for e, c in a.items()}


def series_mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                out[i + j] += a[i] * b[j]
    return out


@lru_cache(maxsize=None)
def _gaussian(n: int, k: int) -> tuple:
    counts: dict = {}
    for subset in combinations(range(1, n + 1), k):
        e = sum(subset) - tri(k)
        counts[e] = counts.get(e, 0) + 1
    return tuple(sorted(counts.items()))


def gaussian(n: int, k: int) -> dict:
    """Gaussian binomial [n; k] for n >= 0: the k-subsets of {1..n} counted
    by their sum, which is q^T(k) [n; k].  Zero for k < 0 or k > n."""
    if k < 0:
        return {}
    if n < 0:
        raise ValueError(f"the subset count needs a top >= 0, got {n}")
    return dict(_gaussian(n, k)) if k <= n else {}


def multinomial(total: int, parts) -> dict:
    """q-multinomial [total; p1, p2, ...] = [total; p1][total-p1; p2]...
    for total >= 0 and parts >= 0.  A factor with bottom above top is 0, so
    no later factor ever has a negative top."""
    out = {0: 1}
    rem = total
    for p in parts:
        factor = gaussian(rem, p)
        if not factor:
            return {}
        out = poly_mul(out, factor)
        rem -= p
    return out


def diagonal_defined(i: int, j: int, k: int, L: int) -> bool:
    """Whether diagonal() covers this tuple: some bottom is negative (the
    value is 0), or every top L-k, L-i, L-j is nonnegative."""
    return min(i, j, k) < 0 or min(L - k, L - i, L - j) >= 0


def diagonal(i: int, j: int, k: int, L: int) -> dict:
    """q^(T(i)+T(j)+T(k)) [L-k; i][L-i; j][L-j; k], the key identity's value
    on the diagonal M = L."""
    if min(i, j, k) < 0:
        return {}
    prod = poly_mul(poly_mul(gaussian(L - k, i), gaussian(L - i, j)),
                    gaussian(L - j, k))
    return poly_shift(prod, tri(i) + tri(j) + tri(k))


def cube_theta(L: int) -> dict:
    """Left side of the polynomial cube analog: sum_{l<=L} (-1)^l (2l+1) q^T(l)."""
    return {tri(el): (-1) ** el * (2 * el + 1) for el in range(L + 1)}


def false_theta(order: int) -> list:
    """sum_l (-1)^l q^T(l) modulo q^order."""
    out = [0] * order
    el = 0
    while tri(el) < order:
        out[tri(el)] += (-1) ** el
        el += 1
    return out


def partitions_max_part(n: int, order: int) -> list:
    """Coefficients of 1/(q)_n modulo q^order: partitions of m into parts
    of size at most n, counted for m < order."""
    ways = [1] + [0] * (order - 1)
    for part in range(1, n + 1):
        for m in range(part, order):
            ways[m] += ways[m - part]
    return ways


def key_limit_rhs(i: int, j: int, k: int, order: int) -> list:
    """q^(T(i)+T(j)+T(k)) / ((q)_i (q)_j (q)_k) modulo q^order."""
    if min(i, j, k) < 0:
        return [0] * order
    prod = series_mul(series_mul(partitions_max_part(i, order),
                                 partitions_max_part(j, order)),
                      partitions_max_part(k, order))
    e = tri(i) + tri(j) + tri(k)
    return ([0] * e + prod)[:order]


def gollnitz_b(nmax: int) -> list:
    """B(0..nmax): coefficients of prod (1 + q^m) over m = 2, 4, 5 mod 6."""
    poly = {0: 1}
    for m in range(1, nmax + 1):
        if m % 6 in (2, 4, 5):
            poly = poly_mul(poly, {0: 1, m: 1})
    return [poly.get(n, 0) for n in range(nmax + 1)]


def theorem1_q1(i: int, j: int, k: int, L: int) -> int:
    """Theorem 1 at q = 1: C(L-k, i) C(L-i, j) C(L-j, k)."""
    return comb(L - k, i) * comb(L - i, j) * comb(L - j, k)


# Colours ranked AB < AC < A < BC < B < C; A, B and C are the primary ones.
RANK = {"AB": 0, "AC": 1, "A": 2, "BC": 3, "B": 4, "C": 5}
PRIMARY = ("A", "B", "C")


def type1_count(max_part: int) -> int:
    """Number of Type-1 partitions with parts <= max_part, the empty one
    included: distinct part values, a part 1 only in a primary colour, and
    parts one apart only in the same primary colour or with the larger part
    in the higher-ranked colour.  Counted by a walk up the values whose
    state is the colour used at the value below (None for no part)."""
    ways = {None: 1}
    for v in range(1, max_part + 1):
        nxt = {None: sum(ways.values())}
        for colour in RANK:
            if v == 1 and colour not in PRIMARY:
                continue
            nxt[colour] = sum(
                n for below, n in ways.items()
                if below is None
                or (below == colour and colour in PRIMARY)
                or RANK[colour] > RANK[below])
        ways = nxt
    return sum(ways.values())


def staircase_image(parts) -> dict:
    """The staircase image of a Type-1 partition given as (value, colour
    name) pairs: subtract 1 from the smallest part, 2 from the next, and so
    on, then split by colour; each colour's parts largest first."""
    image: dict = {colour: [] for colour in RANK}
    for idx, (v, colour) in enumerate(sorted(parts), start=1):
        image[colour].append(v - idx)
    return {colour: tuple(sorted(ps, reverse=True))
            for colour, ps in image.items()}


def check_staircase(parts, image: dict, back) -> bool:
    """The image is the staircase image of parts, it weighs T(t) less, and
    the inverse map gave parts back."""
    t = len(parts)
    weight = sum(v for v, _ in parts)
    image_weight = sum(sum(ps) for ps in image.values())
    return (image == staircase_image(parts)
            and weight == image_weight + tri(t)
            and sorted(back) == sorted(parts))
