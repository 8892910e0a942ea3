"""Colored partition tests: Type-1 rules, staircase bijection, double
counting, Gollnitz counts, and the residue transform."""

import itertools

import pytest
from hypothesis import given, strategies as st

from qgollnitz.qcore import LaurentPoly
from qgollnitz import keyid, partcomb
from qgollnitz.qcomb import qbinom, triangular
from qgollnitz.partcomb import (Color, ColoredPartition, InvalidImage,
                                NotType1, PreconditionViolated,
                                StaircaseImage, check_remark3,
                                check_theorem1, count_G, count_P, gollnitz_B,
                                gollnitz_C, is_c_partition, is_type1,
                                iter_type1, iter_type1_all,
                                iter_type1_transformed, remark3_transform,
                                staircase_forward, staircase_inverse)

A, B, C, AB, AC, BC = Color.A, Color.B, Color.C, Color.AB, Color.AC, Color.BC


def CP(parts):
    return ColoredPartition(parts)


# -- colors ------------------------------------------------------------------

def test_color_order_and_primaries():
    assert [c.name for c in sorted(Color)] == \
        ["AB", "AC", "A", "BC", "B", "C"]
    assert {c for c in Color if c.is_primary} == {A, B, C}


def test_partition_colors_are_colors():
    # an int names the color of that rank; anything else is refused
    assert CP([(1, 2)]).parts == ((1, A),) and str(CP([(1, 2)])) == "1_A"
    assert type(CP([(3, 5)]).parts[0][1]) is Color
    for bad in (-1, 6, 7, "A", None):
        with pytest.raises(ValueError):
            CP([(2, bad)])
    with pytest.raises(ValueError, match="positive"):
        CP([(3, A), (0, B)])


# -- Type-1 test -------------------------------------------------------------

def test_type1_examples():
    assert is_type1(CP([]))
    assert is_type1(CP([(2, BC), (1, A)]))
    assert not is_type1(CP([(2, AB), (1, C)]))
    assert str(CP([(2, BC), (1, A)])) == "2_BC + 1_A"


def test_type1_part_one_must_be_primary():
    assert is_type1(CP([(1, B)]))
    assert not is_type1(CP([(1, BC)]))
    assert not is_type1(CP([(1, AB)]))


def test_type1_no_repeated_values():
    assert not is_type1(CP([(3, A), (3, B)]))
    assert not is_type1(CP([(2, C), (2, C)]))
    # equal values are stored in descending color rank
    assert CP([(3, AB), (3, B), (3, A)]).parts == ((3, B), (3, A), (3, AB))


def test_type1_gap_one_rules():
    assert is_type1(CP([(3, A), (2, A)]))       # same primary color
    assert not is_type1(CP([(3, AB), (2, AB)]))  # same secondary color
    assert is_type1(CP([(3, C), (2, B)]))        # higher rank above
    assert not is_type1(CP([(3, B), (2, C)]))    # lower rank above
    assert is_type1(CP([(4, B), (2, C)]))        # gap 2: no constraint


# -- staircase ---------------------------------------------------------------

def test_staircase_empty():
    img = staircase_forward(CP([]))
    assert img.t == 0 and img.weight == 0
    assert staircase_inverse(img) == CP([])


def test_staircase_single_part():
    img = staircase_forward(CP([(2, A)]))
    assert img.parts_a == (1,) and img.t == 1


def test_staircase_two_parts():
    img = staircase_forward(CP([(3, B), (1, A)]))
    assert img.parts_a == (0,)
    assert img.parts_b == (1,)
    assert img.t == 2


def test_staircase_weight_relation():
    p = CP([(5, BC), (3, AB), (1, A)])
    assert is_type1(p)
    assert p.frequencies() == (1, 0, 0, 1, 0, 1)
    assert CP([(6, C), (4, C), (2, AC), (1, B)]).frequencies() == (0, 1, 2, 0, 1, 0)
    img = staircase_forward(p)
    assert p.weight == img.weight + img.t * (img.t + 1) // 2


def test_staircase_rejects_non_type1():
    with pytest.raises(NotType1, match=r"^not a Type-1 partition: 2_AB \+ 1_C$"):
        staircase_forward(CP([(2, AB), (1, C)]))


def test_staircase_inverse_examples():
    assert staircase_inverse(staircase_forward(CP([(2, A)]))) == CP([(2, A)])
    img = StaircaseImage(parts_a=(0,), parts_b=(1,))
    assert staircase_inverse(img) == CP([(3, B), (1, A)])


def test_staircase_inverse_zero_tie_order():
    # A and BC images both holding 0 rebuild as 1_A, 2_BC
    img = StaircaseImage(parts_a=(0,), parts_bc=(0,))
    assert staircase_inverse(img) == CP([(2, BC), (1, A)])


def test_invalid_images_rejected():
    with pytest.raises(InvalidImage):
        staircase_inverse(StaircaseImage(parts_ab=(0,)))  # AB part below 1
    with pytest.raises(InvalidImage):
        staircase_inverse(StaircaseImage(parts_bc=(0,)))  # BC zero without A zero
    with pytest.raises(InvalidImage):
        staircase_inverse(StaircaseImage(parts_ac=(2, 2)))  # repeated secondary
    with pytest.raises(InvalidImage):
        staircase_inverse(StaircaseImage(parts_a=(-1,)))


@pytest.mark.parametrize("image, message", [
    (StaircaseImage(parts_a=(1,), parts_c=(2, -1)), "negative part in primary image C"),
    (StaircaseImage(parts_ac=(3, 0)), "part below 1 in image AC"),
    (StaircaseImage(parts_ab=(1, 4, 4)), "parts of image AB are not distinct"),
    (StaircaseImage(parts_bc=(2, -1)), "negative part in image BC"),
    (StaircaseImage(parts_a=(0,), parts_bc=(0, 3, 0)), "parts of image BC are not distinct"),
    (StaircaseImage(parts_a=(1,), parts_bc=(2, 0)), "BC image contains 0 but A image does not"),
    # an image that breaks several rules is reported by the first of them
    (StaircaseImage(parts_b=(-2,), parts_ab=(0,), parts_bc=(1, 1)),
     "negative part in primary image B"),
    (StaircaseImage(parts_ac=(2, 2, 0), parts_bc=(-1,)), "part below 1 in image AC"),
])
def test_invalid_image_messages(image, message):
    with pytest.raises(InvalidImage) as caught:
        image.validate()
    assert str(caught.value) == message


def test_staircase_round_trip_small():
    seen = 0
    for p in iter_type1_all(6):
        img = staircase_forward(p)
        assert staircase_inverse(img) == p
        seen += 1
    assert seen > 1000


def test_image_bound_matches_partition_bound():
    L = 6
    for p in iter_type1_all(L):
        assert staircase_forward(p).fits_bound(L)


@st.composite
def type1_partitions(draw, max_part=30):
    # one draw per value, largest first: no part, or a color; a color that
    # breaks the Type-1 rules against the part above is dropped
    parts = []
    choices = draw(st.lists(st.sampled_from((None, *Color)),
                            min_size=max_part, max_size=max_part))
    for v, color in zip(range(max_part, 0, -1), choices):
        if color is not None and is_type1(CP(parts[-1:] + [(v, color)])):
            parts.append((v, color))
    return CP(parts)


@given(type1_partitions())
def test_staircase_round_trip_property(p):
    img = staircase_forward(p)
    img.validate()
    assert img.weight == p.weight - img.t * (img.t + 1) // 2
    assert img.t == p.num_parts and img.fits_bound(30)
    assert staircase_inverse(img) == p


def _small_valid_images():
    # every valid image whose parts come from a few short runs per color,
    # ties across colors included
    primary, secondary = [(), (0,), (0, 0), (1, 0)], [(), (1,), (2, 1)]
    bc = [(), (0,), (1, 0)]
    for runs in itertools.product(primary, primary, primary,
                                  secondary, secondary, bc):
        img = StaircaseImage(*runs)
        try:
            img.validate()
        except InvalidImage:
            continue
        yield img


def test_producers_build_partitions_in_normal_form():
    # the enumerators and the staircase inverse skip the constructor's
    # normalisation, so what they build must be what it would build
    produced = [*iter_type1_all(6),
                *(p for L in range(6)
                  for freq in itertools.product(range(2), repeat=6)
                  for p in iter_type1(L, freq)),
                *(p for n in range(61) for p in iter_type1_transformed(n))]
    produced += [staircase_inverse(staircase_forward(p)) for p in produced]
    produced += map(staircase_inverse, _small_valid_images())
    assert len(produced) > 18000
    for p in produced:
        norm = ColoredPartition(p.parts)
        assert p == norm and p.parts == norm.parts, p.parts
        assert all(type(v) is int and type(c) is Color for v, c in p.parts)


# -- counting ----------------------------------------------------------------

def test_count_G_examples():
    assert count_G(1, 1, (1, 0, 0, 0, 0, 0)) == 1
    assert count_G(9, 0, (0, 0, 0, 0, 0, 0)) == 1
    assert count_G(3, 3, (0, 0, 0, 0, 0, 1)) == 1


def test_count_P_examples():
    assert count_P(3, 3, 1, 1, 1) == 1
    assert count_P(5, 0, 0, 0, 0) == 1
    assert count_P(4, 6, 2, 0, 0) == 1
    # like qbinom(n, -1) == 0: no partition has -1 parts in a color
    assert count_P(3, 0, -1, 0, 0) == count_P(4, 3, 1, -2, 1) == 0


def _subsets(count, bound):
    # every subset of {1..bound} with exactly `count` elements, found among
    # all subsets, so a negative count or one above the bound finds none
    values = range(1, bound + 1)
    return [s for r in range(len(values) + 1)
            for s in itertools.combinations(values, r) if len(s) == count]


def test_count_P_matches_brute_force():
    for L in range(-1, 7):
        for i, j, k in itertools.product(range(-1, 4), repeat=3):
            weights = [sum(x) + sum(y) + sum(z) for x, y, z in itertools.product(
                _subsets(i, L - k), _subsets(j, L - i), _subsets(k, L - j))]
            for n in range(-1, 3 * max(L, 0) ** 2 + 2):
                assert count_P(L, n, i, j, k) == weights.count(n), (L, n, i, j, k)


def test_tricolor_poly_is_the_product_of_its_colors():
    # the m-subsets of {1..b} by weight are q^T(m) [b; m] (none past b, and
    # only the empty one for b < 0); the three colors' polynomials multiplied
    # as LaurentPolys.  At i = j = k = 0 one coefficient takes all the mass.
    def color(count, bound):
        return qbinom(max(bound, 0), count).shift(triangular(count))

    for i, j, k in itertools.product(range(5), repeat=3):
        for L in range(31):
            expected = color(i, L - k) * color(j, L - i) * color(k, L - j)
            assert partcomb._tricolor_poly(L, i, j, k) == expected, (L, i, j, k)


def test_theorem1_examples():
    assert check_theorem1(3, 1, 1, 1)
    assert check_theorem1(0, 0, 0, 0)
    assert check_theorem1(5, 2, 1, 1)
    assert check_theorem1(2, -1, 0, 0)
    # past what enumerating the Type-1 side could reach in a test
    assert check_theorem1(12, 3, 3, 3)
    assert check_theorem1(16, 4, 4, 4)
    assert check_theorem1(20, 4, 4, 4)


def _decisions(p, max_part):
    # the walk's choice at each value from max_part down: -1 for no part,
    # else the part's color rank
    colors = dict(p.parts)
    return [colors.get(v, -1) for v in range(max_part, 0, -1)]


def test_type1_enumeration_order():
    # the benchmark samples partitions by index, so the order is part of the
    # interface: depth first from the largest value down, no part before a
    # part, colors by rank, so the choice sequences strictly increase
    walks = [(L, iter_type1_all(L)) for L in range(8)]
    walks += [(L, iter_type1(L, f)) for L in range(6)
              for f in itertools.product(range(2), repeat=6)]
    for max_part, parts in walks:
        keys = [_decisions(p, max_part) for p in parts]
        assert all(a < b for a, b in zip(keys, keys[1:])), max_part


def _letters(p):
    # letters (A, B, C) the colors of p spend
    return tuple(sum(letter in c.name for _, c in p.parts) for letter in "ABC")


def test_type1_column_count_matches_enumeration():
    # one walk over parts <= 8, histogrammed by letters, largest part, weight
    hist = {}
    for p in iter_type1_all(8):
        key = (_letters(p), p.parts[0][0] if p.parts else 0, p.weight)
        hist[key] = hist.get(key, 0) + 1
    for L in range(9):
        for ijk in itertools.product(range(4), repeat=3):
            want = LaurentPoly((weight, n) for (letters, largest, weight), n
                               in hist.items() if letters == ijk and largest <= L)
            assert partcomb._type1_poly(L, *ijk) == want, (L, ijk)
    assert partcomb._type1_poly(5, -1, 2, 2) == LaurentPoly()


def _drop_one_partition(count):
    def corrupted(*args):
        poly = count(*args)
        return poly - LaurentPoly.monomial(1, poly.degree)
    return corrupted


def _shifted(fn):
    return lambda *args: fn(*args).shift(1)


@pytest.mark.parametrize("patches", [
    [(partcomb, "_type1_poly", _drop_one_partition)],
    [(partcomb, "_tricolor_poly", _shifted)],
    [(keyid, "lhs_g", _shifted)],
    [(keyid, "closed_form_diag", _shifted)],
    # the tri-colored count and its closed form corrupted alike: only the
    # direct comparison of the two counts sees it
    [(partcomb, "_tricolor_poly", _shifted),
     (keyid, "closed_form_diag", _shifted)],
], ids=["type1-walk", "tricolor", "lhs_g", "closed_form_diag", "both-counts"])
def test_theorem1_fails_on_corrupted_values(monkeypatch, patches):
    cases = [(3, 1, 1, 1), (5, 2, 1, 1), (4, 0, 2, 1)]
    assert all(check_theorem1(*case) for case in cases)
    for module, name, corrupt in patches:
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    for case in cases:
        assert not check_theorem1(*case), case


def test_theorem1_precondition():
    with pytest.raises(PreconditionViolated):
        check_theorem1(2, 2, 1, 0)


def test_generating_function_bridge_small():
    # sum over weights and frequencies of Type-1 counts = g(L, L)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                L = max(i + j, j + k, k + i) + 1
                hist = {}
                for sx in keyid.enumerate_sextuples(i, j, k):
                    freq = (sx.a, sx.b, sx.c, sx.ab, sx.ac, sx.bc)
                    for p in iter_type1(L, freq):
                        hist[p.weight] = hist.get(p.weight, 0) + 1
                assert LaurentPoly(hist) == keyid.lhs_g(i, j, k, L, L)


def test_split_sums_match_smallest_part_classes():
    # first displayed sum <-> BC image avoiding 0, second <-> BC image holding 0
    for (i, j, k, L) in [(1, 1, 1, 3), (2, 1, 1, 4), (1, 2, 2, 5)]:
        hist1, hist2 = {}, {}
        for sx in keyid.enumerate_sextuples(i, j, k):
            freq = (sx.a, sx.b, sx.c, sx.ab, sx.ac, sx.bc)
            for p in iter_type1(L, freq):
                img = staircase_forward(p)
                target = hist2 if 0 in img.parts_bc else hist1
                target[p.weight] = target.get(p.weight, 0) + 1
        first, second = keyid.lhs_g_parts(i, j, k, L, L)
        assert LaurentPoly(hist1) == first
        assert LaurentPoly(hist2) == second


def test_part_count_never_exceeds_bound():
    # combinatorial face of the support property: parts have distinct values
    for p in iter_type1_all(5):
        assert p.num_parts <= 5


# -- Gollnitz ----------------------------------------------------------------

def test_gollnitz_B_examples():
    assert gollnitz_B(0) == 1
    assert gollnitz_B(6) == 1
    assert gollnitz_B(11) == 2  # {11} and {2, 4, 5}


def test_gollnitz_C_examples():
    assert gollnitz_C(0) == 1
    assert gollnitz_C(6) == 1
    assert gollnitz_C(1) == 0 and gollnitz_C(3) == 0


def test_gollnitz_equal_to_30():
    for n in range(31):
        assert gollnitz_B(n) == gollnitz_C(n), n


def test_gollnitz_C_equals_B_at_large_n():
    assert all(gollnitz_B(n) == gollnitz_C(n) for n in range(301))
    assert gollnitz_C(2000) == gollnitz_B(2000)


def test_is_c_partition():
    assert is_c_partition([])
    assert is_c_partition([6])
    assert is_c_partition([11, 5])
    assert not is_c_partition([3])
    assert not is_c_partition([10, 5])      # gap 5 < 6
    assert not is_c_partition([12, 6])      # 12 = 0 mod 6 needs gap 7
    assert is_c_partition([13, 6])


# -- residue transform -------------------------------------------------------

def test_remark3_examples():
    assert remark3_transform(CP([(1, A)])) == [2]
    assert remark3_transform(CP([])) == []
    with pytest.raises(NotType1):
        remark3_transform(CP([(2, AB), (1, B)]))


def test_remark3_offsets():
    p = CP([(6, C), (5, B), (4, BC), (3, A), (2, AC)])
    assert is_type1(p)
    assert remark3_transform(p) == [35, 28, 21, 14, 7]
    assert sum(remark3_transform(p)) == 105


def test_remark3_images_are_c_partitions():
    for n in range(41):
        for p in iter_type1_transformed(n):
            image = remark3_transform(p)
            assert sum(image) == n and is_c_partition(image)


def test_remark3_walk_reaches_weights_past_the_recursion_limit():
    # the walk starts at part (n + 6) // 6 = 1167 and keeps no Python frame
    # per part value, so its first partitions come out at once
    first = list(itertools.islice(iter_type1_transformed(7000), 3))
    assert len(first) == 3
    for p in first:
        assert is_type1(p) and sum(remark3_transform(p)) == 7000, p


def test_remark3_bijection_to_30():
    for n in range(31):
        assert check_remark3(n), n
    assert check_remark3(-1)


def test_remark3_fails_on_repeated_partition(monkeypatch):
    # the walk emits its first partition twice and drops its second: the
    # count still matches C(n), so only the distinctness check sees it
    def corrupted(walk):
        def repeat_first(n):
            parts = walk(n)
            first = next(parts)
            next(parts)
            yield first
            yield first
            yield from parts
        return repeat_first

    assert check_remark3(30)
    monkeypatch.setattr(partcomb, "iter_type1_transformed",
                        corrupted(partcomb.iter_type1_transformed))
    assert not check_remark3(30)
