"""Acceptance sweep: every criterion at its stated grid, exact equality.

Runs with plain pytest; each criterion prints one PASS/FAIL line (visible
with -s or in failure output).  All tolerances are zero: the engine works
in exact integer arithmetic, so sides either match or they do not.
"""

import json
import operator
import time

from qgollnitz import cli, corollaries, keyid, partcomb, qcomb

from helpers import multinom_recurrence_relations


def _report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_key_identity_full_grid():
    start = time.perf_counter()
    ok = all(keyid.check_key(i, j, k, L, M)
             for i in range(-2, 5) for j in range(-2, 5) for k in range(-2, 5)
             for L in range(-3, 11) for M in range(-3, 11))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(1, "key identity on [-2,4]^3 x [-3,10]^2 "
               f"(67228 tuples, {elapsed:.1f}s)", ok)


def test_criterion_02_boundary_identity():
    ok = all(operator.eq(*keyid.boundary_sides(i, j, k, M))
             for i in range(5) for j in range(5) for k in range(5)
             for M in range(11))
    _report(2, "boundary collapse at L = i+j-1 on [0,4]^3 x [0,10]", ok)


def test_criterion_03_recurrences():
    ok = all(operator.eq(*sides(i, j, k, L, M))
             for sides in (keyid.recurrence_sides_g, keyid.recurrence_sides_p,
                           keyid.andrews_sides)
             for i in range(4) for j in range(4) for k in range(4)
             for L in range(9) for M in range(9))
    ok = ok and all(operator.eq(*qcomb.qpascal_sides(top, bottom))
                    for top in range(-6, 11) for bottom in range(-6, 11))
    ok = ok and all(lhs == rhs
                    for L in range(9) for s in range(9)
                    for i in range(9) for j in range(9)
                    for _, lhs, rhs in multinom_recurrence_relations(L, s, i, j))
    _report(3, "second/fourth order recurrences, q-Pascal, multinomial "
               "recurrences", ok)


def test_criterion_04_diagonal_closed_form():
    ok = True
    for i in range(5):
        for j in range(5):
            for k in range(5):
                for L in range(11):
                    v = keyid.closed_form_diag(i, j, k, L)
                    ok = ok and keyid.rhs_p(i, j, k, L, L) == v
                    ok = ok and v == keyid.closed_form_diag(j, k, i, L)
    _report(4, "diagonal closed form and cyclic symmetry on [0,4]^3 x [0,10]",
            ok)


def test_criterion_05_theorem1_double_counting():
    ok = all(partcomb.check_theorem1(L, i, j, k)
             for i in range(4) for j in range(4) for k in range(4)
             for L in range(max(i + j, j + k, k + i), 8))
    _report(5, "bounded double counting with generating-function bridge", ok)


def test_criterion_06_gollnitz_and_remark3():
    ok = all(partcomb.gollnitz_B(n) == partcomb.gollnitz_C(n)
             for n in range(61))
    ok = ok and all(partcomb.check_remark3(n) for n in range(61))
    _report(6, "B(n) = C(n) and residue-transform bijection for n <= 60", ok)


def test_criterion_07_staircase_round_trip():
    count = 0
    ok = True
    for p in partcomb.iter_type1_all(8):
        image = partcomb.staircase_forward(p)
        ok = ok and partcomb.staircase_inverse(image) == p \
            and p.weight == image.weight + image.t * (image.t + 1) // 2
        count += 1
    _report(7, f"staircase bijection round trip on {count} partitions "
               "with parts <= 8", ok and count == 98209)


def test_criterion_08_series_limits():
    ok = all(operator.eq(*keyid.key_limit_sides(i, j, k, 25))
             for i in range(4) for j in range(4) for k in range(4))
    lhs, rhs = corollaries.jtp_series(10)
    ok = ok and lhs == rhs
    lhs, rhs = corollaries.jacobi_cube_series(50)
    ok = ok and lhs == rhs
    lhs, rhs = corollaries.false_theta_sides(30)
    ok = ok and lhs == rhs
    _report(8, "unbounded limits: key mod q^25, triple product mod q^10, "
               "cube mod q^50, false theta mod q^30", ok)


def test_criterion_09_polynomial_identities():
    ok = all(operator.eq(*corollaries.bounded_jtp_sides(L)) for L in range(9))
    for L in range(21):
        lhs, rhs = corollaries.jacobi_cube_poly_sides(L)
        ok = ok and lhs == rhs
    for L in range(11):
        lhs, rhs = corollaries.carl_poly_sides(L)
        ok = ok and lhs == rhs
    ok = ok and all(corollaries.check_carlitz(L) for L in range(13))
    _report(9, "bounded triple product L <= 8, cube analog L <= 20, "
               "a-weighted cycle L <= 10, q = 1 collapse L <= 12", ok)


def test_criterion_10_four_parameter_identity():
    ok = True
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    lhs, rhs = corollaries.four_param_sides(i, j, k, l, 20)
                    ok = ok and lhs == rhs
    for i in range(3):
        for j in range(3):
            for k in range(3):
                lhs, rhs = corollaries.four_param_sides(i, j, k, 0, 20)
                ok = ok and lhs == keyid.key_limit_lhs(i, j, k, 20)
                ok = ok and rhs == keyid.key_limit_rhs(i, j, k, 20)
    _report(10, "four parameter identity mod q^20 on [0,2]^4 and its l = 0 "
                "collapse", ok)


def test_criterion_11_support_properties():
    ok = all(keyid.check_support(i, j, k, L)
             for i in range(5) for j in range(5) for k in range(5)
             for L in range(max(i + j, j + k, k + i), 11))
    ok = ok and all(qcomb.qbinom_is_nonzero(top, bottom)
                    == bool(qcomb.qbinom(top, bottom))
                    for top in range(-8, 13) for bottom in range(0, 13))
    _report(11, "nonzero summands keep L-t >= 0; support predicate matches "
                "polynomial nonzero-ness", ok)


def test_criterion_12_harness_determinism():
    ranges = {"i": (0, 2), "j": (0, 2), "k": (0, 2), "L": (0, 4), "M": (0, 4)}
    outs = []
    for jobs in (1, 8):
        report = cli.run_sweep(cli.SweepSpec("key", ranges, jobs=jobs))
        outs.append(cli.render_report(report, "json"))
    ok = outs[0] == outs[1] and json.loads(outs[0])["failures"] == []

    def shifted(i, j, k, L, M):
        lhs = keyid.lhs_g(i, j, k, L, M).shift(1)
        rhs = keyid.rhs_p(i, j, k, L, M)
        return (True, "", "") if lhs == rhs else (False, str(lhs), str(rhs))

    spec = cli.IdentitySpec("shifted-key", ("i", "j", "k", "L", "M"),
                            {"i": (0, 1), "j": (0, 1), "k": (0, 1),
                             "L": (1, 3), "M": (1, 3)}, shifted)
    cli.IDENTITIES[spec.name] = spec
    try:
        bad_outs = [cli.render_report(
            cli.run_sweep(cli.SweepSpec("shifted-key", jobs=jobs)), "json")
            for jobs in (1, 8)]
    finally:
        del cli.IDENTITIES[spec.name]
    ok = ok and bad_outs[0] == bad_outs[1] \
        and json.loads(bad_outs[0])["failures"]
    _report(12, "byte-identical JSON reports for --jobs 1 and --jobs 8, "
                "passing and failing sweeps", ok)
