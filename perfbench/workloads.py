"""The benchmark's four workloads.

A workload is a list of tasks, run in a fixed order, plus the number of
checks its tasks must attempt and the output checks made against
``oracle`` after the timed sweep.  Every task drives the program through
``cli.run_sweep`` or public module functions, with ``--jobs 1``.

The grids and the task order are fixed, so every seed times the same work:
the order changes memo hits, and with them sweep time by up to a third on
``recurrences``.  The seed and the round draw which outputs the oracle
checks re-derive.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from qgollnitz import cli, corollaries, keyid, partcomb, qcomb

import oracle

# Ranges of acceptance criterion 1: (i, j, k) in [-2, 4]^3, (L, M) in [-3, 10]^2.
KEY_IJK = (-2, 4)
KEY_LM = (-3, 10)
RECURRENCES = ("recurrence-g", "recurrence-p", "recurrence-andrews",
               "qpascal", "multinom-rec")
COROLLARIES = ("jacobi-cube-poly", "false-theta", "key-limit", "four-param",
               "jtp-bounded", "carl", "carlitz")
FALSE_THETA_ORDER = 50
THEOREM1_L = 8
STAIRCASE_MAX_PART = 8
GOLLNITZ_N = 60
ORACLE_SAMPLE = 200


@dataclass
class Workload:
    tasks: list[Callable[[], tuple[int, int]]]  # -> (checks attempted, failed)
    expected: int  # checks the tasks must attempt in one round
    verify: Callable[[], list[str]]  # -> names of failed checks


def _sweep(identity, ranges=None):
    spec = cli.SweepSpec(identity, ranges or {}, None, jobs=1)

    def run():
        report = cli.run_sweep(spec)
        return report.total, len(report.failures)
    return run


def _grid_size(identity, ranges=None) -> int:
    # counted here, apart from run_sweep's own grid build
    spec = cli.IDENTITIES[identity]
    ranges = {**spec.defaults, **(ranges or {})}
    axes = [range(ranges[name][0], ranges[name][1] + 1) for name in spec.params]
    if spec.tuple_filter is None:
        return math.prod(map(len, axes))
    return sum(1 for combo in itertools.product(*axes)
               if spec.tuple_filter(dict(zip(spec.params, combo))))


def _fail(failed, name, ok):
    if not ok:
        failed.append(name)


def _check_diagonals(failed, tuples):
    for i, j, k, L in tuples:
        want = f"diagonal {i},{j},{k},{L}"
        value = oracle.diagonal(i, j, k, L)
        _fail(failed, "lhs_g " + want, keyid.lhs_g(i, j, k, L, L).terms == value)
        _fail(failed, "rhs_p " + want, keyid.rhs_p(i, j, k, L, L).terms == value)


def _diagonals(ijk, ls):
    return [(i, j, k, L) for i, j, k in itertools.product(range(ijk[0], ijk[1] + 1),
                                                          repeat=3)
            for L in range(ls[0], ls[1] + 1) if oracle.diagonal_defined(i, j, k, L)]


def key_grid(rng: random.Random) -> Workload:
    ranges = {"i": KEY_IJK, "j": KEY_IJK, "k": KEY_IJK, "L": KEY_LM, "M": KEY_LM}
    diagonals = _diagonals(KEY_IJK, KEY_LM)

    def verify():
        failed = []
        _check_diagonals(failed, rng.sample(diagonals, ORACLE_SAMPLE))
        return failed
    return Workload([_sweep("key", ranges)], _grid_size("key", ranges), verify)


def recurrences(rng: random.Random) -> Workload:
    diagonals = _diagonals((0, 3), (0, 8))
    multinoms = list(itertools.product(range(9), repeat=4))

    def verify():
        failed = []
        _check_diagonals(failed, rng.sample(diagonals, ORACLE_SAMPLE // 2))
        for top in range(0, 11):
            for bottom in range(-6, 11):
                _fail(failed, f"qbinom {top},{bottom}",
                      qcomb.qbinom(top, bottom).terms == oracle.gaussian(top, bottom))
        for L, s, i, j in rng.sample(multinoms, ORACLE_SAMPLE):
            _fail(failed, f"qmultinom {L};{s},{i},{j}",
                  qcomb.qmultinom(L, (s, i, j)).terms
                  == oracle.multinomial(L, (s, i, j)))
        return failed
    return Workload([_sweep(name) for name in RECURRENCES],
                    sum(_grid_size(name) for name in RECURRENCES), verify)


def _false_theta(kept: list):
    # the false-theta sweep has one tuple; calling its public function keeps
    # the order-50 sides for the oracle without computing them twice
    def run():
        lhs, rhs = corollaries.false_theta_sides(FALSE_THETA_ORDER)
        kept.extend((lhs, rhs))
        return 1, int(lhs != rhs)
    return run


def corollaries_(rng: random.Random) -> Workload:
    kept: list = []
    tasks = [_false_theta(kept) if name == "false-theta" else _sweep(name)
             for name in COROLLARIES]
    key_limit_order = cli.IDENTITIES["key-limit"].default_order

    def verify():
        failed = []
        for L in rng.sample(range(21), 2):
            for side, value in zip("lr", corollaries.jacobi_cube_poly_sides(L)):
                _fail(failed, f"jacobi-cube-poly {side} L={L}",
                      value.terms == oracle.cube_theta(L))
        for side, value in zip("lr", kept):
            _fail(failed, f"false-theta {side} order={FALSE_THETA_ORDER}",
                  list(value.coeffs) == oracle.false_theta(FALSE_THETA_ORDER))
        for i, j, k in rng.sample(list(itertools.product(range(4), repeat=3)), 4):
            want = oracle.key_limit_rhs(i, j, k, key_limit_order)
            for side, fn in (("l", keyid.key_limit_lhs), ("r", keyid.key_limit_rhs)):
                _fail(failed, f"key-limit {side} {i},{j},{k}",
                      list(fn(i, j, k, key_limit_order).coeffs) == want)
        return failed
    return Workload(tasks, sum(_grid_size(n) for n in COROLLARIES), verify)


def _staircase(keep: set, kept: list):
    def run():
        total = failed = 0
        for p in partcomb.iter_type1_all(STAIRCASE_MAX_PART):
            image = partcomb.staircase_forward(p)
            back = partcomb.staircase_inverse(image)
            if back != p:
                failed += 1
            if total in keep:
                kept.append((p, image, back))
            total += 1
        return total, failed
    return run


def partitions(rng: random.Random) -> Workload:
    theorem1 = {"L": (0, THEOREM1_L)}
    gollnitz = {"n": (0, GOLLNITZ_N)}
    staircase_total = oracle.type1_count(STAIRCASE_MAX_PART)
    kept: list = []
    keep = set(rng.sample(range(staircase_total), ORACLE_SAMPLE))
    tasks = [_sweep("theorem1", theorem1), _staircase(keep, kept),
             _sweep("gollnitz", gollnitz), _sweep("remark3", gollnitz)]
    expected = _grid_size("theorem1", theorem1) + staircase_total \
        + _grid_size("gollnitz", gollnitz) + _grid_size("remark3", gollnitz)
    theorem1_tuples = [(i, j, k, L) for i, j, k in itertools.product(range(4), repeat=3)
                       for L in range(max(i + j, j + k, k + i), 7)]

    def verify():
        failed = []
        bs = oracle.gollnitz_b(GOLLNITZ_N)
        _fail(failed, "gollnitz B",
              [partcomb.gollnitz_B(n) for n in range(GOLLNITZ_N + 1)] == bs)
        _fail(failed, "gollnitz C",
              [partcomb.gollnitz_C(n) for n in range(GOLLNITZ_N + 1)] == bs)
        for i, j, k, L in rng.sample(theorem1_tuples, 3):
            count = sum(1 for sx in keyid.enumerate_sextuples(i, j, k)
                        for _ in partcomb.iter_type1(L, (sx.a, sx.b, sx.c,
                                                         sx.ab, sx.ac, sx.bc)))
            _fail(failed, f"theorem1 q=1 {i},{j},{k},{L}",
                  count == oracle.theorem1_q1(i, j, k, L))
        if len(kept) != len(keep):
            failed.append("staircase sample")
        for p, image, back in kept:
            parts = [(v, c.name) for v, c in p.parts]
            by_name = {c.name: ps for c, ps in image.by_color().items()}
            _fail(failed, f"staircase {p}", oracle.check_staircase(
                parts, by_name, [(v, c.name) for v, c in back.parts]))
        return failed
    return Workload(tasks, expected, verify)


WORKLOADS = {
    "key-grid": key_grid,
    "recurrences": recurrences,
    "corollaries": corollaries_,
    "partitions": partitions,
}


def build(name: str, seed: int, rnd: int) -> Workload:
    """The workload for one round; seed and round draw the samples of its
    output checks."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}/{rnd}"))
