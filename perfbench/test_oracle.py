"""Tests of the benchmark's output checks: each reference value equals the
program's value and differs from a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py
"""

import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qgollnitz import corollaries, keyid, partcomb, qcomb  # noqa: E402

import oracle  # noqa: E402


def times_q(poly: dict) -> dict:
    return {e + 1: c for e, c in poly.items()}


def series_times_q(coeffs) -> list:
    return [0] + list(coeffs)[:-1]


def bump(poly: dict) -> dict:
    low = min(poly)
    return {**poly, low: poly[low] + 1}


@pytest.mark.parametrize("n", range(9))
def test_gaussian_counts_subsets(n):
    for k in range(-1, n + 2):
        value = oracle.gaussian(n, k)
        assert sum(value.values()) == (comb(n, k) if k >= 0 else 0)
        assert qcomb.qbinom(n, k).terms == value
        if value:
            assert times_q(value) != value


def test_gaussian_refuses_negative_top():
    with pytest.raises(ValueError):
        oracle.gaussian(-3, 2)


def test_multinomial():
    for parts in [(1, 2, 0), (2, 2, 2), (3, 0, 1), (4, 4, 1)]:
        value = qcomb.qmultinom(7, parts).terms
        want = oracle.multinomial(7, parts)
        assert value == want
        if value:
            assert times_q(value) != want


@pytest.mark.parametrize("ijk", [(0, 0, 0), (1, 2, 0), (2, 1, 3), (3, 3, 3), (-1, 2, 0)])
def test_diagonal(ijk):
    i, j, k = ijk
    for L in range(-3, 11):
        if not oracle.diagonal_defined(i, j, k, L):
            continue
        value = keyid.lhs_g(i, j, k, L, L).terms
        want = oracle.diagonal(i, j, k, L)
        assert value == want
        assert keyid.rhs_p(i, j, k, L, L).terms == want
        if value:
            assert times_q(value) != want
            assert bump(value) != want
        else:
            assert want != {0: 1}


def test_diagonal_domain():
    assert oracle.diagonal_defined(-1, 5, 5, 0)
    assert oracle.diagonal_defined(2, 1, 3, 3)
    assert not oracle.diagonal_defined(2, 1, 3, 2)


@pytest.mark.parametrize("L", [0, 1, 5, 12])
def test_cube_theta(L):
    want = oracle.cube_theta(L)
    for side in corollaries.jacobi_cube_poly_sides(L):
        assert side.terms == want
        assert times_q(side.terms) != want
        assert bump(side.terms) != want


@pytest.mark.parametrize("order", [1, 6, 15])
def test_false_theta(order):
    want = oracle.false_theta(order)
    for side in corollaries.false_theta_sides(order):
        assert list(side.coeffs) == want
        assert series_times_q(side.coeffs) != want


@pytest.mark.parametrize("ijk", [(0, 0, 0), (1, 0, 2), (3, 2, 1), (-1, 0, 0)])
def test_key_limit(ijk):
    i, j, k = ijk
    want = oracle.key_limit_rhs(i, j, k, 25)
    for fn in (keyid.key_limit_lhs, keyid.key_limit_rhs):
        coeffs = fn(i, j, k, 25).coeffs
        assert list(coeffs) == want
        if any(coeffs):
            assert series_times_q(coeffs) != want


def test_gollnitz_b():
    bs = [partcomb.gollnitz_B(n) for n in range(61)]
    cs = [partcomb.gollnitz_C(n) for n in range(61)]
    want = oracle.gollnitz_b(60)
    assert bs == want and cs == want
    assert series_times_q(bs) != want
    assert bs[:-1] + [bs[-1] + 1] != want


@pytest.mark.parametrize("ijkL", [(0, 0, 0, 0), (1, 1, 0, 2), (2, 1, 1, 4), (2, 2, 2, 5)])
def test_theorem1_q1(ijkL):
    i, j, k, L = ijkL
    count = sum(1 for sx in keyid.enumerate_sextuples(i, j, k)
                for _ in partcomb.iter_type1(L, (sx.a, sx.b, sx.c, sx.ab, sx.ac, sx.bc)))
    assert count == oracle.theorem1_q1(i, j, k, L)
    assert count + 1 != oracle.theorem1_q1(i, j, k, L)


@pytest.mark.parametrize("max_part", range(6))
def test_type1_count(max_part):
    assert oracle.type1_count(max_part) == sum(1 for _ in partcomb.iter_type1_all(max_part))


def test_type1_count_of_the_staircase_grid():
    assert oracle.type1_count(8) == 98209


def test_staircase():
    checked = 0
    for p in partcomb.iter_type1_all(4):
        image = partcomb.staircase_forward(p)
        back = partcomb.staircase_inverse(image)
        parts = [(v, c.name) for v, c in p.parts]
        by_name = {c.name: ps for c, ps in image.by_color().items()}
        back_parts = [(v, c.name) for v, c in back.parts]
        assert oracle.check_staircase(parts, by_name, back_parts)
        if parts:
            shifted = {c: tuple(v + 1 for v in ps) for c, ps in by_name.items()}
            assert not oracle.check_staircase(parts, shifted, back_parts)
            assert not oracle.check_staircase(parts, by_name, back_parts[1:])
            checked += 1
    assert checked > 100
