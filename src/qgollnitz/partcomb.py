"""Six-color partitions and the combinatorial face of the key identity:
the Type-1 gap condition, the staircase bijection onto monochromatic
images, bounded double counting, the big Gollnitz theorem at the level of
exact counts, and the color-to-residue substitution that links the two.
check_theorem1 is the equality of theorem1_sides, the first compared pair
that differs, which a failing theorem1 row shows.

The Type-1 rules are written once, in _staircase_rows, one walk that also
subtracts the staircase; the value classes are frozen and slotted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from math import comb, prod
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .qcore import ZERO, LaurentPoly, decode, image_width
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

# The (upper, lower) colors allowed on parts exactly 1 apart: the same
# primary color on both, or the larger part in a strictly higher rank.
_GAP_ONE = frozenset((upper, lower) for upper in Color for lower in Color
                     if upper > lower or (upper is lower and upper in _PRIMARY))
# The colors part v may take below each color of part v + 1 (None: none),
# highest rank first as the walks push them: for v > 1, then v = 1 (primaries).
_CHILDREN = {up: tuple(tuple(c for c in reversed(Color) if (up is None or (up, c) in _GAP_ONE)
                             and (c in _PRIMARY or not at_one)) for at_one in (False, True))
             for up in (None, *Color)}


@dataclass(frozen=True, slots=True)
class ColoredPartition:
    """A frozen, slotted partition whose parts are in normal form: (int,
    Color) pairs, each value >= 1, sorted largest first.  ``_raw`` fills
    the slot with a tuple already so, checking nothing."""

    parts: tuple[tuple[int, Color], ...]

    def __init__(self, parts: Iterable[tuple[int, Color]] = ()):
        norm = sorted([(int(v), c if type(c) is Color else Color(c))
                       for v, c in parts], reverse=True)
        if norm and norm[-1][0] < 1:
            raise ValueError("part values must be positive")
        _set_parts(self, tuple(norm))

    @classmethod
    def _raw(cls, parts: tuple) -> ColoredPartition:
        p = object.__new__(cls)
        _set_parts(p, parts)
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


def _staircase_rows(parts: tuple) -> list | None:
    # is_type1's rules and the staircase in one walk: the images by color
    # rank, each largest first, or None at the first broken rule.
    rows: list = [[], [], [], [], [], []]
    hi, upper = (parts[0][0] + 2 if parts else 0), None  # the first gap is > 1
    for idx, (v, c) in enumerate(parts, start=-len(parts)):
        gap = hi - v
        if gap < 1 or gap == 1 and (upper, c) not in _GAP_ONE:
            return None
        rows[c].append(v + idx)
        hi, upper = v, c
    return None if hi == 1 and upper not in _PRIMARY else rows


def is_type1(p: ColoredPartition) -> bool:
    """Type-1 test: part values strictly decrease, value 1 is primary
    colored, and any gap of exactly 1 passes the color-order rule."""
    return _staircase_rows(p.parts) is not None


@dataclass(frozen=True, slots=True)
class StaircaseImage:
    """The six monochromatic partitions left after staircase subtraction,
    each stored largest first in a slot of this frozen dataclass.

    Primary images may repeat parts and may contain 0; the AB and AC images
    have distinct parts >= 1; the BC image has distinct parts >= 0 but may
    contain 0 only when the A image does.
    """

    parts_a: tuple[int, ...] = ()
    parts_b: tuple[int, ...] = ()
    parts_c: tuple[int, ...] = ()
    parts_ab: tuple[int, ...] = ()
    parts_ac: tuple[int, ...] = ()
    parts_bc: tuple[int, ...] = ()

    def __post_init__(self):
        for set_image, val in zip(_SET_IMAGE, _images(self)):
            set_image(self, tuple(sorted(val, reverse=True)))

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
        if ab and ab[-1] < 1:
            raise InvalidImage("part below 1 in image AB")
        if len(ab) > 1 and len(set(ab)) < len(ab):
            raise InvalidImage("parts of image AB are not distinct")
        if ac and ac[-1] < 1:
            raise InvalidImage("part below 1 in image AC")
        if len(ac) > 1 and len(set(ac)) < len(ac):
            raise InvalidImage("parts of image AC are not distinct")
        if bc and bc[-1] < 0:
            raise InvalidImage("negative part in image BC")
        if len(bc) > 1 and len(set(bc)) < len(bc):
            raise InvalidImage("parts of image BC are not distinct")
        if bc and bc[-1] == 0 and not (a and a[-1] == 0):
            raise InvalidImage("BC image contains 0 but A image does not")


_set_parts = ColoredPartition.parts.__set__
_images = attrgetter(*StaircaseImage.__slots__)  # the six images, in field order
_SET_IMAGE = tuple(getattr(StaircaseImage, name).__set__ for name in StaircaseImage.__slots__)
_set_a, _set_b, _set_c, _set_ab, _set_ac, _set_bc = _SET_IMAGE


def staircase_forward(p: ColoredPartition) -> StaircaseImage:
    """Subtract 1 from the smallest part, 2 from the next, ..., t from the
    largest (removing weight T(t) in total) and split the remainder by
    color.  Requires a Type-1 input."""
    if (rows := _staircase_rows(p.parts)) is None:
        raise NotType1(f"not a Type-1 partition: {p}")
    ab, ac, a, bc, b, c = rows  # by color rank, and already sorted
    img = object.__new__(StaircaseImage)
    _set_a(img, tuple(a))
    _set_b(img, tuple(b))
    _set_c(img, tuple(c))
    _set_ab(img, tuple(ab))
    _set_ac(img, tuple(ac))
    _set_bc(img, tuple(bc))
    img.validate()
    return img


def staircase_inverse(img: StaircaseImage) -> ColoredPartition:
    """Rebuild the Type-1 partition: merge the images largest first (ties
    by color rank) and add back t, ..., 2, 1, which yields normal form."""
    img.validate()
    # 6v + rank orders as (v, rank) does; // 6 and % 6 give both back
    keys = [6 * v + rank for rank, ps in zip(_FREQ_ORDER, _images(img)) for v in ps]
    keys.sort(reverse=True)
    return ColoredPartition._raw(tuple([
        (key // 6 - idx, _COLORS_BY_RANK[key % 6])
        for idx, key in enumerate(keys, start=-len(keys))]))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _dfs_type1(max_part, counts):
    # Walk part values downward deciding skip, then each color by rank, at
    # each, depth first; a partition is emitted when its decision path ends.
    # counts: remaining frequency per color by rank, or None for unbounded.
    stack = [(max_part, counts, None, ())]
    while stack:
        v, counts, prev_color, acc = stack.pop()
        # parts still to place: None while unbounded and v >= 1
        rem = (0 if v < 1 else None) if counts is None else sum(counts)
        if rem == 0:
            yield acc
            continue
        if rem is not None and rem > v:  # distinct values up to v cannot fit rem parts
            continue
        for color in _CHILDREN[prev_color][v == 1]:
            if counts is None or counts[color]:
                left = counts and counts[:color] + (counts[color] - 1,) + counts[color + 1:]
                stack.append((v - 1, left, color, acc + ((v, color),)))
        stack.append((v - 1, counts, None, acc))


def iter_type1(max_part: int, freq: Sequence[int]) -> Iterator[ColoredPartition]:
    """All Type-1 partitions with parts <= max_part and the exact color
    frequencies freq = (a, b, c, ab, ac, bc)."""
    if any(f < 0 for f in freq):
        return
    counts = tuple(freq[_FREQ_ORDER.index(c)] for c in _COLORS_BY_RANK)
    yield from map(ColoredPartition._raw, _dfs_type1(max_part, counts))


def iter_type1_all(max_part: int) -> Iterator[ColoredPartition]:
    """All Type-1 partitions with parts <= max_part, any color frequencies
    (the empty partition included)."""
    yield from map(ColoredPartition._raw, _dfs_type1(max_part, None))


def _tricolor_poly(L: int, i: int, j: int, k: int) -> LaurentPoly:
    # weight polynomial of the tri-colored partitions: i distinct parts in the
    # first color bounded by L-k, j in the second bounded by L-i, k in the
    # third bounded by L-j.  It is the product of each color's weight
    # polynomial of its `count`-subsets of {1..bound}, taken as images at one
    # width.  Each factor's coefficients are nonnegative and sum to
    # C(bound, count), so their product bounds every coefficient.
    bounds = ((i, L - k), (j, L - i), (k, L - j))
    if min(i, j, k) < 0:
        return ZERO
    width = image_width(prod(comb(max(bound, 0), count) for count, bound in bounds))
    image = 1
    for count, bound in bounds:
        rows = [1] + [0] * count  # rows[m]: the m-subsets of {1..x} by weight
        for x in range(1, bound + 1):
            for m in range(min(x, count), 0, -1):
                rows[m] += rows[m - 1] << width * x
        image *= rows[count]
    return decode(image, width)


# _type1_poly's steps above each color of part v - 1 (None: none): part v's
# color and the letters (A, B, C) it spends; for v > 1, then v = 1 (primaries).
_STEPS = tuple({low: tuple((c, *(int(x in c.name) for x in "ABC")) for c in Color
                           if (low is None or (c, low) in _GAP_ONE)
                           and (c in _PRIMARY or not at_one)) for low in (None, *Color)}
               for at_one in (False, True))


def _type1_poly(L: int, i: int, j: int, k: int) -> LaurentPoly:
    # weight polynomial of the Type-1 partitions with parts <= L spending i
    # letters A, j B and k C, by columns v = 1..L.  A state is the color of
    # part v (None: no part v) and the letters owed; its counts by weight
    # are the digits of one image at q = 2^width, each at most (6L+1)^(i+j+k).
    if min(i, j, k) < 0:
        return ZERO
    width = image_width((6 * L + 1) ** (i + j + k))
    col = {(None, i, j, k): 1}
    for v in range(1, L + 1):
        nxt: dict[tuple, int] = {}
        for (low, a, b, c), counts in col.items():
            nxt[None, a, b, c] = nxt.get((None, a, b, c), 0) + counts
            counts <<= width * v
            for color, da, db, dc in _STEPS[v == 1][low]:
                if a >= da and b >= db and c >= dc:
                    key = (color, a - da, b - db, c - dc)
                    nxt[key] = nxt.get(key, 0) + counts
        col = nxt
    counts = sum(n for (_, a, b, c), n in col.items() if a == b == c == 0)
    return decode(counts, width)


def theorem1_sides(L: int, i: int, j: int, k: int) -> tuple:
    """The first pair check_theorem1 compares that differs, else the last,
    each side built when its pair is reached: Type-1 (parts <= L) against
    tri-colored, Type-1 against lhs_g at M = L, tri-colored against
    closed_form_diag."""
    if L < max(i + j, j + k, k + i):
        raise PreconditionViolated(
            f"need L >= max(i+j, j+k, k+i), got L={L}, (i,j,k)=({i},{j},{k})")
    type1, tricolor = _type1_poly(L, i, j, k), _tricolor_poly(L, i, j, k)
    if type1 != tricolor:
        return type1, tricolor
    if type1 != (lhs := keyid.lhs_g(i, j, k, L, L)):
        return type1, lhs
    return tricolor, keyid.closed_form_diag(i, j, k, L)


def check_theorem1(L: int, i: int, j: int, k: int) -> bool:
    """Bounded double counting: the Type-1 and tri-colored weight polynomials
    are equal, and match the algebraic sides evaluated at M = L."""
    left, right = theorem1_sides(L, i, j, k)
    return left == right


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


def _dfs_transformed(max_part, n):
    # Type-1 partitions with parts <= max_part whose transform weighs exactly
    # n, walked as _dfs_type1 walks: skip, then each color by rank, at each
    # part value v.  Parts 1..v all in C, the dearest color, weigh v(3v + 2).
    # Costs rise with color rank, so the images come out in increasing order.
    stack = [(max_part, n, None, ())]
    while stack:
        v, budget, prev_color, acc = stack.pop()
        if budget == 0:
            yield acc
            continue
        if v < 1 or budget > v * (3 * v + 2):
            continue
        for color in _CHILDREN[prev_color][v == 1]:
            cost = 6 * v - RESIDUE_OFFSET[color]
            if cost <= budget:
                stack.append((v - 1, budget - cost, color, acc + ((v, color),)))
        stack.append((v - 1, budget, None, acc))


def iter_type1_transformed(n: int) -> Iterator[ColoredPartition]:
    """All Type-1 partitions (no part bound) whose residue transform weighs
    exactly n, in increasing order of their images, largest part first."""
    yield from map(ColoredPartition._raw, _dfs_transformed((n + 6) // 6, n))


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
