"""q-binomial and q-multinomial tests against counting oracles."""

import ast
import importlib
import inspect
import itertools
import math
import pkgutil

import pytest

import qgollnitz
from qgollnitz.qcore import LaurentPoly, poly_prod
from qgollnitz import qcomb
from qgollnitz.qcomb import (NegativeLength, check_multinom_recurrence,
                             check_qpascal, factor_normal, poch_qpow, qbinom,
                             qbinom_base, qbinom_image, qbinom_is_nonzero,
                             qbinom_normal, qbinom_q1, qmultinom, triangular)


def P(terms):
    return LaurentPoly(terms)


def box_partition_counts(rows, cols):
    """Oracle: number of partitions of m into at most `rows` parts each at
    most `cols`, for every m.  DP over part sizes tracking parts used."""
    top = rows * cols
    dp = [[0] * (top + 1) for _ in range(rows + 1)]  # dp[parts][weight]
    dp[0][0] = 1
    for size in range(1, cols + 1):
        new = [[0] * (top + 1) for _ in range(rows + 1)]
        for p in range(rows + 1):
            for m in range(top + 1):
                new[p][m] = sum(dp[p - u][m - u * size]
                                for u in range(min(p, m // size) + 1))
        dp = new
    return [sum(dp[p][m] for p in range(rows + 1)) for m in range(top + 1)]


def test_triangular_examples():
    assert triangular(3) == 6
    assert triangular(-1) == 0
    assert triangular(-2) == 1
    assert triangular(0) == 0


@pytest.mark.parametrize("n", range(-12, 13))
def test_triangular_reflection(n):
    assert triangular(n) == triangular(-1 - n)


def test_poch_examples():
    assert poch_qpow(1, 3) == P({0: 1, 1: -1}) * P({0: 1, 2: -1}) * P({0: 1, 3: -1})
    assert poch_qpow(5, 0) == P({0: 1})
    assert poch_qpow(-1, 3) == P({})  # the j = 1 factor is 1 - q^0 = 0
    with pytest.raises(NegativeLength):
        poch_qpow(1, -1)


def test_poch_negative_start_is_laurent():
    # (q^-2; q)_2 = (1 - q^-2)(1 - q^-1)
    assert poch_qpow(-2, 2) == P({0: 1, -2: -1}) * P({0: 1, -1: -1})


def test_qbinom_frozen_example():
    assert qbinom(4, 2) == P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_qbinom_top_beyond_recursion_limit():
    # a table that recursed once per row would overflow the stack here
    assert qbinom(1100, 1) == P({e: 1 for e in range(1100)})


def test_qbinom_memo_holds_only_requested_entries():
    # a q-Pascal table would hold the whole band below row 3000 (8,995 entries)
    qcomb._qbinom_nonneg.cache_clear()
    value = qbinom(3000, 2)
    assert qcomb._qbinom_nonneg.cache_info().currsize == 1
    assert value.degree == 2 * 2998 and value.at_one() == math.comb(3000, 2)
    assert qbinom(3000, 2998) == value
    assert qcomb._qbinom_nonneg.cache_info().currsize == 2


def test_every_package_memo_is_bounded():
    # found as the benchmark's tracer finds them: any attribute of a package
    # module that has cache_info
    caches = {}
    for info in pkgutil.iter_modules(qgollnitz.__path__):
        module = importlib.import_module(f"qgollnitz.{info.name}")
        caches.update((f"{info.name}.{name}", obj) for name, obj in vars(module).items()
                      if hasattr(obj, "cache_info"))
    assert {"qcomb._qbinom_nonneg", "qcomb.factor_normal",
            "keyid._sextuple_rows"} <= set(caches)
    unbounded = [name for name, cache in caches.items()
                 if cache.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_memos_live_in_their_own_module_and_qcomb_imports_no_consumer():
    # the benchmark's tracer sums memo stats per module namespace, so a memo
    # bound in a second module would be counted twice, and under the wrong
    # module; qcomb, which holds the memos, sits below every module using them
    homes = {}
    for info in pkgutil.iter_modules(qgollnitz.__path__):
        module = importlib.import_module(f"qgollnitz.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                homes.setdefault(obj, []).append(module.__name__)
    assert homes
    assert {cache: where for cache, where in homes.items()
            if where != [cache.__module__]} == {}
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(qcomb))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module is None:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    consumers = {"keyid", "partcomb", "corollaries", "cli"}
    assert {name for name in imported if name and
            name.rsplit(".", 1)[-1] in consumers} == set()


def test_qbinom_normal_form():
    for top in range(-8, 10):
        for bottom in range(-2, 9):
            normal = qbinom_normal(top, bottom)
            if normal is None:
                assert not qbinom(top, bottom)
                continue
            sign, shift, n = normal
            assert n >= bottom >= 0
            assert qbinom(top, bottom) == qbinom(n, bottom).shift(shift) * sign
    # factor_normal on pairs and 2- and 3-part multinomials (top, b1, ...)
    parts = range(-2, 7)
    for top in range(-8, 13):
        for bottoms in itertools.chain(itertools.product(parts, repeat=1),
                                       itertools.product(parts, repeat=2),
                                       itertools.product(parts, repeat=3)):
            factor = (top, *bottoms)
            value = qmultinom(top, bottoms)
            normal = factor_normal(factor)
            assert (normal is None) == (not value), factor
            if normal is None:
                continue
            sign, shift, pairs, weight = normal
            ns, ms = pairs[::2], pairs[1::2]
            assert all(n >= m > 0 for n, m in zip(ns, ms)), factor
            product = poly_prod([qbinom(n, m) for n, m in zip(ns, ms)])
            assert value == product.shift(shift) * sign, factor
            assert weight == abs(sum(c for _, c in value.iter_terms())), factor


def test_qbinom_image_is_value_at_power_of_two():
    for width in (1, 2, 7, 34):
        for top in range(14):
            for bottom in range(top + 1):
                value = sum(c << width * e for e, c in qbinom(top, bottom).iter_terms())
                assert qbinom_image(top, bottom, width) == value


def test_qbinom_support_trivia():
    for n in (-3, 0, 1, 7):
        assert qbinom(n, 0) == P({0: 1})
    assert qbinom(2, 3) == P({})
    assert qbinom(5, -1) == P({})


def test_qbinom_counts_box_partitions():
    # [top; bottom] generates partitions in a bottom x (top-bottom) box
    for top in range(11):
        for bottom in range(top + 1):
            counts = box_partition_counts(bottom, top - bottom)
            expected = LaurentPoly({m: c for m, c in enumerate(counts)})
            assert qbinom(top, bottom) == expected, (top, bottom)


def test_qbinom_negative_top_examples():
    assert qbinom(-1, 1) == P({-1: -1})
    # [-2; 1] = (1 - q^-2)/(1 - q) = -q^-2 - q^-1
    assert qbinom(-2, 1) == P({-2: -1, -1: -1})


@pytest.mark.parametrize("alpha", range(1, 6))
@pytest.mark.parametrize("k", range(0, 6))
def test_qbinom_negative_top_against_quotient(alpha, k):
    # oracle: [-alpha; k] (q)_k = (q^(1-alpha-k))_k, both as Laurent products
    lhs = qbinom(-alpha, k) * poch_qpow(1, k)
    rhs = poch_qpow(-alpha - k + 1, k)
    assert lhs == rhs


def test_qbinom_base():
    assert qbinom_base(2, 1, 2) == P({0: 1, 2: 1})
    assert qbinom_base(5, 0, 2) == P({0: 1})
    assert qbinom_base(4, 2, 1) == qbinom(4, 2)
    with pytest.raises(ValueError):
        qbinom_base(4, 2, 0)


def test_qbinom_q1():
    assert qbinom_q1(4, 2) == 6
    assert qbinom_q1(3, 0) == 1
    assert qbinom_q1(2, 3) == 0
    assert qbinom_q1(5, -2) == 0
    assert qbinom_q1(-1, 1) == -1
    # matches the polynomial at q = 1 wherever both are defined
    for top in range(-6, 9):
        for bottom in range(0, 9):
            assert qbinom(top, bottom).at_one() == qbinom_q1(top, bottom)


def test_qmultinom_examples():
    assert qmultinom(3, [1, 1]) == P({0: 1, 1: 2, 2: 2, 3: 1})
    assert qmultinom(7, []) == P({0: 1})
    assert qmultinom(2, [1, -1]) == P({})


def test_qmultinom_is_successive_binomials():
    assert qmultinom(6, [2, 1, 2]) == qbinom(6, 2) * qbinom(4, 1) * qbinom(3, 2)


def test_qmultinom_order_invariance():
    for a in range(4):
        for b in range(4 - a + 1):
            assert qmultinom(4, [a, b]) == qmultinom(4, [b, a])


def test_qbinom_support_predicate_matches_polynomial():
    for top in range(-8, 13):
        for bottom in range(0, 13):
            assert qbinom_is_nonzero(top, bottom) == bool(qbinom(top, bottom))
    assert qbinom_is_nonzero(5, 2)
    assert not qbinom_is_nonzero(2, 5)
    assert qbinom_is_nonzero(-3, 2)
    assert not qbinom_is_nonzero(3, -1)


def test_qbinom_shape_properties():
    for top in range(13):
        for bottom in range(top + 1):
            p = qbinom(top, bottom)
            assert all(c > 0 for c in p.terms.values())
            assert p.degree == bottom * (top - bottom)
            assert p.at_one() == math.comb(top, bottom)
            assert p == qbinom(top, top - bottom)


def test_qpascal_examples():
    assert check_qpascal(4, 2)
    assert check_qpascal(0, 0)
    assert check_qpascal(-2, 1)


def test_qpascal_small_grid():
    assert all(check_qpascal(t, b) for t in range(-4, 7) for b in range(-4, 7))


def test_multinom_recurrence_examples():
    assert check_multinom_recurrence(5, 1, 2, 1)
    assert check_multinom_recurrence(0, 0, 0, 0)
    assert check_multinom_recurrence(6, 2, 2, 2)


def test_multinom_recurrence_small_grid():
    assert all(check_multinom_recurrence(L, s, i, j)
               for L in range(5) for s in range(5)
               for i in range(5) for j in range(5))
