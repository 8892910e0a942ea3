"""Six-color partitions and the combinatorial face of the key identity:
the Type-1 gap condition, the staircase bijection onto monochromatic
images, bounded double counting, the big Gollnitz theorem at the level of
exact counts, and the color-to-residue substitution that links the two.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Sequence

from .qcore import ZERO, LaurentPoly, poly_prod
from . import keyid


class NotType1(ValueError):
    """The colored partition violates the Type-1 gap/color rules."""


class InvalidImage(ValueError):
    """The staircase image breaks one of its structural conditions."""


class PreconditionViolated(ValueError):
    """A bound required by the counting theorem does not hold."""


class Color(IntEnum):
    """Part colors; the value is the rank, AB < AC < A < BC < B < C."""
    AB = 0
    AC = 1
    A = 2
    BC = 3
    B = 4
    C = 5

    @property
    def is_primary(self) -> bool:
        return self in _PRIMARY


_PRIMARY = frozenset((Color.A, Color.B, Color.C))
_COLORS_BY_RANK = tuple(Color)

# Residue substitution: part n in a color maps to 6n - offset, landing on
# a fixed residue class mod 6 per color.
RESIDUE_OFFSET = {
    Color.A: 4, Color.B: 2, Color.C: 1,
    Color.AB: 6, Color.AC: 5, Color.BC: 3,
}

# Frequency records run (a, b, c, ab, ac, bc).
_FREQ_ORDER = (Color.A, Color.B, Color.C, Color.AB, Color.AC, Color.BC)


def _gap_one_ok(upper: Color, lower: Color) -> bool:
    # A gap of exactly 1 needs the same primary color on both parts, or the
    # larger part in a strictly higher-ranked color.
    return upper > lower or (upper is lower and upper in _PRIMARY)


@dataclass(frozen=True)
class ColoredPartition:
    """A partition with colored parts, stored largest part first."""

    parts: tuple[tuple[int, Color], ...]

    def __init__(self, parts: Iterable[tuple[int, Color]] = ()):
        norm = sorted(((int(v), c) for v, c in parts), reverse=True)
        if any(v < 1 for v, _ in norm):
            raise ValueError("part values must be positive")
        object.__setattr__(self, "parts", tuple(norm))

    @property
    def weight(self) -> int:
        return sum(v for v, _ in self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def frequencies(self) -> tuple[int, int, int, int, int, int]:
        """Color frequencies in (a, b, c, ab, ac, bc) order."""
        counts = [0] * 6
        for _, c in self.parts:
            counts[c] += 1
        return tuple(counts[c] for c in _FREQ_ORDER)

    def __str__(self) -> str:
        if not self.parts:
            return "(empty)"
        return " + ".join(f"{v}_{c.name}" for v, c in self.parts)


def is_type1(p: ColoredPartition) -> bool:
    """Type-1 test: part values strictly decrease, value 1 is primary
    colored, and any gap of exactly 1 passes the color-order rule."""
    parts = p.parts
    for (v1, c1), (v2, c2) in zip(parts, parts[1:]):
        gap = v1 - v2
        if gap < 1:
            return False
        if gap == 1 and not _gap_one_ok(c1, c2):
            return False
    if parts and parts[-1][0] == 1 and parts[-1][1] not in _PRIMARY:
        return False
    return True


@dataclass(frozen=True)
class StaircaseImage:
    """The six monochromatic partitions left after staircase subtraction.

    Primary images may repeat parts and may contain 0; the AB and AC images
    have distinct parts >= 1; the BC image has distinct parts >= 0 but may
    contain 0 only when the A image does.
    """

    parts_a: tuple[int, ...]
    parts_b: tuple[int, ...]
    parts_c: tuple[int, ...]
    parts_ab: tuple[int, ...]
    parts_ac: tuple[int, ...]
    parts_bc: tuple[int, ...]

    def __init__(self, parts_a=(), parts_b=(), parts_c=(),
                 parts_ab=(), parts_ac=(), parts_bc=()):
        for name, val in (("parts_a", parts_a), ("parts_b", parts_b),
                          ("parts_c", parts_c), ("parts_ab", parts_ab),
                          ("parts_ac", parts_ac), ("parts_bc", parts_bc)):
            object.__setattr__(self, name, tuple(sorted(val, reverse=True)))

    def by_color(self) -> dict[Color, tuple[int, ...]]:
        return {Color.A: self.parts_a, Color.B: self.parts_b,
                Color.C: self.parts_c, Color.AB: self.parts_ab,
                Color.AC: self.parts_ac, Color.BC: self.parts_bc}

    @property
    def frequencies(self) -> tuple[int, int, int, int, int, int]:
        return (len(self.parts_a), len(self.parts_b), len(self.parts_c),
                len(self.parts_ab), len(self.parts_ac), len(self.parts_bc))

    @property
    def t(self) -> int:
        return sum(self.frequencies)

    @property
    def weight(self) -> int:
        return sum(sum(ps) for ps in self.by_color().values())

    def validate(self) -> None:
        """Raise InvalidImage unless all structural conditions hold."""
        # __init__ sorts every image largest first, so its smallest part is
        # its last
        for name, ps in (("A", self.parts_a), ("B", self.parts_b),
                         ("C", self.parts_c)):
            if ps and ps[-1] < 0:
                raise InvalidImage(f"negative part in primary image {name}")
        for name, ps in (("AB", self.parts_ab), ("AC", self.parts_ac)):
            if ps and ps[-1] < 1:
                raise InvalidImage(f"part below 1 in image {name}")
            if len(set(ps)) < len(ps):
                raise InvalidImage(f"parts of image {name} are not distinct")
        ps = self.parts_bc
        if ps and ps[-1] < 0:
            raise InvalidImage("negative part in image BC")
        if len(set(ps)) < len(ps):
            raise InvalidImage("parts of image BC are not distinct")
        if 0 in ps and 0 not in self.parts_a:
            raise InvalidImage("BC image contains 0 but A image does not")

    def fits_bound(self, max_part: int) -> bool:
        """Largest-part condition relative to a bound L: every image part
        is at most L - t."""
        cap = max_part - self.t
        return all(not ps or ps[0] <= cap for ps in self.by_color().values())


def staircase_forward(p: ColoredPartition) -> StaircaseImage:
    """Subtract 1 from the smallest part, 2 from the next, ..., t from the
    largest (removing weight T(t) in total) and split the remainder by
    color.  Requires a Type-1 input."""
    if not is_type1(p):
        raise NotType1(f"not a Type-1 partition: {p}")
    buckets: list[list[int]] = [[] for _ in Color]
    for idx, (v, c) in enumerate(reversed(p.parts), start=1):  # ascending
        buckets[c].append(v - idx)
    img = StaircaseImage(*(buckets[c] for c in _FREQ_ORDER))
    img.validate()
    return img


def staircase_inverse(img: StaircaseImage) -> ColoredPartition:
    """Rebuild the Type-1 partition: merge the images smallest first
    (ties resolved by color rank) and add back 1, 2, ..., t."""
    img.validate()
    merged = []
    for color, ps in img.by_color().items():
        merged.extend((v, color) for v in ps)
    merged.sort()
    return ColoredPartition((v + idx, c)
                            for idx, (v, c) in enumerate(merged, start=1))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _dfs_type1(v, counts, prev_color, acc):
    # Walk part values downward deciding skip-or-color at each; every
    # partition is emitted exactly once, when its decision path ends.
    # counts: remaining frequency per color, or None for unbounded.
    if counts is not None:
        rem = sum(counts)
        if rem == 0:
            yield tuple(acc)
            return
        if v < 1 or rem > v:  # distinct values below v cannot fit rem parts
            return
    elif v < 1:
        yield tuple(acc)
        return
    yield from _dfs_type1(v - 1, counts, None, acc)
    for color in _COLORS_BY_RANK:
        if counts is not None and counts[color] == 0:
            continue
        if v == 1 and color not in _PRIMARY:
            continue
        if prev_color is not None and not _gap_one_ok(prev_color, color):
            continue
        if counts is not None:
            counts[color] -= 1
        acc.append((v, color))
        yield from _dfs_type1(v - 1, counts, color, acc)
        acc.pop()
        if counts is not None:
            counts[color] += 1


def iter_type1(max_part: int, freq: Sequence[int]) -> Iterator[ColoredPartition]:
    """All Type-1 partitions with parts <= max_part and the exact color
    frequencies freq = (a, b, c, ab, ac, bc)."""
    if any(f < 0 for f in freq):
        return
    counts = [0] * 6
    for color, f in zip(_FREQ_ORDER, freq):
        counts[color] = f
    for parts in _dfs_type1(max_part, counts, None, []):
        yield ColoredPartition(parts)


def iter_type1_all(max_part: int) -> Iterator[ColoredPartition]:
    """All Type-1 partitions with parts <= max_part, any color frequencies
    (the empty partition included)."""
    for parts in _dfs_type1(max_part, None, None, []):
        yield ColoredPartition(parts)


def count_G(L: int, n: int, freq: Sequence[int]) -> int:
    """Number of Type-1 partitions of n with largest part <= L and color
    frequencies freq, by exhaustive enumeration."""
    return sum(1 for p in iter_type1(L, freq) if p.weight == n)


def _distinct_weight_poly(count: int, bound: int) -> LaurentPoly:
    # weight polynomial of the `count`-element subsets of {1..bound}: 1 for
    # count 0 (the empty subset), 0 for a negative count
    if count < 0:
        return ZERO
    return LaurentPoly(Counter(
        map(sum, itertools.combinations(range(1, bound + 1), count))))


def _tricolor_poly(L: int, i: int, j: int, k: int) -> LaurentPoly:
    # weight polynomial of the tri-colored partitions counted by count_P
    return poly_prod((_distinct_weight_poly(i, L - k),
                      _distinct_weight_poly(j, L - i),
                      _distinct_weight_poly(k, L - j)))


def count_P(L: int, n: int, i: int, j: int, k: int) -> int:
    """Number of tri-colored partitions of n: i distinct parts in the first
    color bounded by L-k, j in the second bounded by L-i, k in the third
    bounded by L-j.  Exhaustive enumeration per color class."""
    return _tricolor_poly(L, i, j, k).coeff(n)


def check_theorem1(L: int, i: int, j: int, k: int) -> bool:
    """Bounded double counting: the weight polynomial of the Type-1
    partitions with parts <= L, summed over all frequency solutions, equals
    the tri-colored one, and the two match the algebraic sides evaluated at
    M = L."""
    if L < max(i + j, j + k, k + i):
        raise PreconditionViolated(
            f"need L >= max(i+j, j+k, k+i), got L={L}, (i,j,k)=({i},{j},{k})")
    type1 = LaurentPoly(Counter(p.weight
                                for sx in keyid.enumerate_sextuples(i, j, k)
                                for p in iter_type1(L, sx)))
    tricolor = _tricolor_poly(L, i, j, k)
    return (type1 == tricolor and type1 == keyid.lhs_g(i, j, k, L, L)
            and tricolor == keyid.closed_form_diag(i, j, k, L))


# ---------------------------------------------------------------------------
# Gollnitz counting and the residue transform
# ---------------------------------------------------------------------------

def gollnitz_B(n: int) -> int:
    """Partitions of n into distinct parts congruent to 2, 4 or 5 mod 6."""
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for v in range(2, n + 1):
        if v % 6 in (2, 4, 5):
            for m in range(n, v - 1, -1):
                ways[m] += ways[m - v]
    return ways[n]


def gollnitz_C(n: int) -> int:
    """Partitions of n with no part 1 or 3 and gaps of at least 6 between
    consecutive parts, the gap strict below parts = 0, 1, 3 mod 6."""
    if n < 0:
        return 0
    # cols[-d] counts, by weight 0..n, the partitions with largest part
    # <= u - d; below a part u the next part is <= u - 6, or <= u - 7 when
    # u = 0, 1, 3 mod 6, so seven columns and the new one suffice
    cols = deque([[1] + [0] * n] * 7, maxlen=7)
    for u in range(2, n + 1):
        col = cols[-1]
        if u != 3:
            below = cols[-7] if u % 6 in (0, 1, 3) else cols[-6]
            col = col[:u] + [x + y for x, y in zip(col[u:], below)]
        cols.append(col)
    return cols[-1][n]


def is_c_partition(parts: Sequence[int]) -> bool:
    """Membership test for the gap-condition class counted by gollnitz_C."""
    ps = sorted(parts, reverse=True)
    if any(v < 2 or v == 3 for v in ps):
        return False
    for hi, lo in zip(ps, ps[1:]):
        need = 7 if hi % 6 in (0, 1, 3) else 6
        if hi - lo < need:
            return False
    return True


def remark3_transform(p: ColoredPartition) -> list[int]:
    """Substitute part n of each color by 6n - offset with offsets
    (A, B, C, AB, AC, BC) -> (4, 2, 1, 6, 5, 3); Type-1 inputs land in the
    gap-condition class."""
    if not is_type1(p):
        raise NotType1(f"not a Type-1 partition: {p}")
    return sorted((6 * v - RESIDUE_OFFSET[c] for v, c in p.parts), reverse=True)


def transformed_weight(p: ColoredPartition) -> int:
    """Weight of the residue transform of p."""
    return sum(6 * v - RESIDUE_OFFSET[c] for v, c in p.parts)


def _dfs_transformed(v, budget, prev_color, acc):
    # Type-1 partitions whose transform weighs at most the remaining budget;
    # no largest-part bound beyond what the budget itself forces.  Cheapest
    # transformed part costs 2, so a budget under 2 ends the path.
    if v < 1 or budget < 2:
        yield tuple(acc)
        return
    yield from _dfs_transformed(v - 1, budget, None, acc)
    for color in _COLORS_BY_RANK:
        if v == 1 and color not in _PRIMARY:
            continue
        if prev_color is not None and not _gap_one_ok(prev_color, color):
            continue
        cost = 6 * v - RESIDUE_OFFSET[color]
        if cost > budget:
            continue
        acc.append((v, color))
        yield from _dfs_transformed(v - 1, budget - cost, color, acc)
        acc.pop()


def iter_type1_transformed(max_weight: int) -> Iterator[ColoredPartition]:
    """All Type-1 partitions (no part bound) whose residue transform weighs
    at most max_weight."""
    vmax = (max_weight + 6) // 6
    for parts in _dfs_transformed(vmax, max_weight, None, []):
        yield ColoredPartition(parts)


def check_remark3(n: int) -> bool:
    """Certify the residue transform at one weight: the images of all Type-1
    partitions transforming to weight n are distinct, satisfy the gap
    conditions, and are exactly gollnitz_C(n) in number."""
    seen = set()
    for p in iter_type1_transformed(n):
        if transformed_weight(p) != n:
            continue
        image = tuple(remark3_transform(p))
        if not is_c_partition(image):
            return False
        if image in seen:
            return False
        seen.add(image)
    return len(seen) == gollnitz_C(n)
