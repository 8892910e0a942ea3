"""Six-color partitions and the combinatorial face of the key identity:
the Type-1 gap condition, the staircase bijection onto monochromatic
images, bounded double counting, the big Gollnitz theorem at the level of
exact counts, and the color-to-residue substitution that links the two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from enum import IntEnum
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .qcore import ZERO, LaurentPoly, poly_prod, unpack_signed
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
_COLOR_OF_RESIDUE = {-offset % 6: c for c, offset in RESIDUE_OFFSET.items()}

# Frequency records and staircase images run (a, b, c, ab, ac, bc).
_FREQ_ORDER = (Color.A, Color.B, Color.C, Color.AB, Color.AC, Color.BC)

# The letters (A, B, C) each color spends, by rank: AB spends (1, 1, 0).
_LETTERS = tuple((c, tuple(int(x in c.name) for x in "ABC")) for c in Color)


def _gap_one_ok(upper: Color, lower: Color) -> bool:
    # A gap of exactly 1 needs the same primary color on both parts, or the
    # larger part in a strictly higher-ranked color.
    return upper > lower or (upper is lower and upper in _PRIMARY)


# The colors, by rank, allowed one below a part of each color (None: no part).
_BELOW = {None: _COLORS_BY_RANK, **{
    c: tuple(d for d in Color if _gap_one_ok(c, d)) for c in Color}}


@dataclass(frozen=True)
class ColoredPartition:
    """A partition whose parts are in normal form: (int, Color) pairs, each
    value >= 1, sorted largest first.  ``_raw`` wraps a tuple already so."""

    parts: tuple[tuple[int, Color], ...]

    def __init__(self, parts: Iterable[tuple[int, Color]] = ()):
        norm = sorted([(int(v), c if type(c) is Color else Color(c))
                       for v, c in parts], reverse=True)
        if norm and norm[-1][0] < 1:
            raise ValueError("part values must be positive")
        object.__setattr__(self, "parts", tuple(norm))

    @classmethod
    def _raw(cls, parts: tuple) -> ColoredPartition:
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        return p

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
        if gap < 1 or gap == 1 and not _gap_one_ok(c1, c2):
            return False
    return not parts or parts[-1][0] != 1 or parts[-1][1] in _PRIMARY


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
        for name, val in zip(_IMAGE_FIELDS, (parts_a, parts_b, parts_c,
                                             parts_ab, parts_ac, parts_bc)):
            object.__setattr__(self, name, tuple(sorted(val, reverse=True)))

    def by_color(self) -> dict[Color, tuple[int, ...]]:
        return dict(zip(_FREQ_ORDER, _images(self)))

    @property
    def frequencies(self) -> tuple[int, int, int, int, int, int]:
        return tuple(map(len, _images(self)))

    @property
    def t(self) -> int:
        return sum(self.frequencies)

    @property
    def weight(self) -> int:
        return sum(map(sum, _images(self)))

    def validate(self) -> None:
        """Raise InvalidImage naming the first of the conditions below that
        fails; images are stored largest first, so the smallest is last."""
        a, b, c, ab, ac, bc = _images(self)
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

    def fits_bound(self, max_part: int) -> bool:
        """Largest-part condition relative to a bound L: every image part
        is at most L - t."""
        cap = max_part - self.t
        return all(not ps or ps[0] <= cap for ps in _images(self))


_IMAGE_FIELDS = tuple(f.name for f in fields(StaircaseImage))
_images = attrgetter(*_IMAGE_FIELDS)  # the six images, in field order
_FIELD_OF = tuple(_IMAGE_FIELDS[_FREQ_ORDER.index(c)] for c in _COLORS_BY_RANK)
_NO_IMAGES = dict.fromkeys(_IMAGE_FIELDS, ())


def staircase_forward(p: ColoredPartition) -> StaircaseImage:
    """Subtract 1 from the smallest part, 2 from the next, ..., t from the
    largest (removing weight T(t) in total) and split the remainder by
    color.  Requires a Type-1 input."""
    if not is_type1(p):
        raise NotType1(f"not a Type-1 partition: {p}")
    img = object.__new__(StaircaseImage)  # the images need no __init__ sort
    images = vars(img)
    images.update(_NO_IMAGES)
    # largest part first, so it loses t and each image comes out sorted
    for idx, (v, c) in enumerate(p.parts, start=-len(p.parts)):
        images[_FIELD_OF[c]] += (v + idx,)
    img.validate()
    return img


def staircase_inverse(img: StaircaseImage) -> ColoredPartition:
    """Rebuild the Type-1 partition: merge the images largest first (ties
    by color rank) and add back t, ..., 2, 1, which yields normal form."""
    img.validate()
    merged = sorted([(v, c) for c, ps in zip(_FREQ_ORDER, _images(img))
                     for v in ps], reverse=True)
    return ColoredPartition._raw(tuple([
        (v - idx, c) for idx, (v, c) in enumerate(merged, start=-len(merged))]))


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
    for color in _BELOW[prev_color]:
        if counts is not None and counts[color] == 0:
            continue
        if v == 1 and color not in _PRIMARY:
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
    counts = [freq[_FREQ_ORDER.index(c)] for c in _COLORS_BY_RANK]
    yield from map(ColoredPartition._raw, _dfs_type1(max_part, counts, None, []))


def iter_type1_all(max_part: int) -> Iterator[ColoredPartition]:
    """All Type-1 partitions with parts <= max_part, any color frequencies
    (the empty partition included)."""
    yield from map(ColoredPartition._raw, _dfs_type1(max_part, None, None, []))


def count_G(L: int, n: int, freq: Sequence[int]) -> int:
    """Number of Type-1 partitions of n with largest part <= L and color
    frequencies freq, by exhaustive enumeration."""
    return sum(1 for p in iter_type1(L, freq) if p.weight == n)


def _distinct_weight_poly(count: int, bound: int) -> LaurentPoly:
    # weight polynomial of the `count`-element subsets of {1..bound}: 1 for
    # count 0 (the empty subset), 0 for a negative count.  rows[m] counts
    # the m-subsets of {1..x} by weight, as base-2^(8 nbytes) digits
    if count < 0:
        return ZERO
    nbytes = max(bound, 0) // 8 + 1  # a count is at most 2^bound
    rows = [1] + [0] * count
    for x in range(1, bound + 1):
        for m in range(min(x, count), 0, -1):
            rows[m] += rows[m - 1] << 8 * nbytes * x
    return LaurentPoly._raw(0, unpack_signed(rows[count], nbytes))


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


def _type1_poly(L: int, i: int, j: int, k: int) -> LaurentPoly:
    # weight polynomial of the Type-1 partitions with parts <= L spending i
    # letters A, j B and k C, by columns v = 1..L.  A state is the color of
    # part v (None: no part v) and the letters owed; its counts by weight
    # are the signed base-2^width digits of one int, each at most
    # (6L+1)^(i+j+k) < 2^(width-1), with width a whole number of bytes.
    if min(i, j, k) < 0:
        return ZERO
    nbytes = ((6 * L + 1) ** (i + j + k)).bit_length() // 8 + 1
    width = 8 * nbytes
    col = {(None, i, j, k): 1}
    for v in range(1, L + 1):
        nxt: dict[tuple, int] = {}
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
    counts = sum(n for (_, a, b, c), n in col.items() if a == b == c == 0)
    return LaurentPoly._raw(0, unpack_signed(counts, nbytes))


def theorem1_pairs(L: int, i: int, j: int, k: int) -> Iterator[tuple]:
    """The pairs check_theorem1 compares, in order, each side built when its
    pair is reached: Type-1 (parts <= L) against tri-colored, Type-1 against
    lhs_g at M = L, tri-colored against closed_form_diag."""
    if L < max(i + j, j + k, k + i):
        raise PreconditionViolated(
            f"need L >= max(i+j, j+k, k+i), got L={L}, (i,j,k)=({i},{j},{k})")
    type1, tricolor = _type1_poly(L, i, j, k), _tricolor_poly(L, i, j, k)
    yield type1, tricolor
    yield type1, keyid.lhs_g(i, j, k, L, L)
    yield tricolor, keyid.closed_form_diag(i, j, k, L)


def check_theorem1(L: int, i: int, j: int, k: int) -> bool:
    """Bounded double counting: the Type-1 and tri-colored weight polynomials
    are equal, and match the algebraic sides evaluated at M = L."""
    return all(left == right for left, right in theorem1_pairs(L, i, j, k))


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


def _dfs_transformed(v, budget, prev_color, acc):
    # Type-1 partitions with parts <= v whose transform weighs exactly the
    # budget; parts 1..v all in C, the dearest color, weigh v(3v + 2).  Costs
    # rise with color rank, so the images come out in increasing order.
    if budget == 0:
        yield tuple(acc)
        return
    if v < 1 or budget > v * (3 * v + 2):
        return
    yield from _dfs_transformed(v - 1, budget, None, acc)
    for color in _BELOW[prev_color]:  # rank order, so costs rise
        cost = 6 * v - RESIDUE_OFFSET[color]
        if cost > budget:
            break
        if v == 1 and color not in _PRIMARY:
            continue
        acc.append((v, color))
        yield from _dfs_transformed(v - 1, budget - cost, color, acc)
        acc.pop()


def iter_type1_transformed(n: int) -> Iterator[ColoredPartition]:
    """All Type-1 partitions (no part bound) whose residue transform weighs
    exactly n, in increasing order of their images, largest part first."""
    yield from map(ColoredPartition._raw,
                   _dfs_transformed((n + 6) // 6, n, None, []))


def check_remark3(n: int) -> bool:
    """Certify the residue transform at one weight: each Type-1 partition
    transforming to weight n lands in the gap-condition class, and
    x -> ((x + 6) // 6, color of x mod 6) maps it back; the images strictly
    increase, so are distinct, and number gollnitz_C(n)."""
    count, last = 0, None
    for p in iter_type1_transformed(n):
        image = tuple(remark3_transform(p))
        back = ColoredPartition(((x + 6) // 6, _COLOR_OF_RESIDUE[x % 6])
                                for x in image)
        if (sum(image) != n or not is_c_partition(image) or back != p
                or (last is not None and image <= last)):
            return False
        count, last = count + 1, image
    return count == gollnitz_C(n)
