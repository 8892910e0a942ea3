"""Harness tests: sweeping, reporting, determinism, exit codes, golden corpus."""

import argparse
import dataclasses
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

from qgollnitz import cli, corollaries, keyid, partcomb, qcomb
from qgollnitz.qcore import TruncSeries, q_power
from qgollnitz.cli import (IDENTITIES, IdentitySpec, SweepSpec, UsageError,
                           render_report, run_golden, run_sweep)

from helpers import multinom_recurrence_relations


def small_key_spec(**kw):
    ranges = {"i": (0, 1), "j": (0, 1), "k": (0, 1), "L": (0, 3), "M": (0, 3)}
    return SweepSpec("key", ranges, **kw)


def test_run_sweep_key_passes():
    report = run_sweep(small_key_spec())
    assert report.ok
    assert report.total == 2 * 2 * 2 * 4 * 4
    assert report.failures == []
    assert report.identity == "key"


def test_run_sweep_defaults_fill_ranges():
    report = run_sweep(SweepSpec("gollnitz", {"n": (0, 12)}))
    assert report.ok and report.total == 13


def test_run_sweep_rejects_unknown_identity():
    with pytest.raises(UsageError):
        run_sweep(SweepSpec("not-a-thing"))


def test_run_sweep_rejects_foreign_parameter():
    with pytest.raises(UsageError):
        run_sweep(SweepSpec("key", {"n": (0, 3)}))


def test_run_sweep_rejects_empty_range():
    with pytest.raises(UsageError):
        run_sweep(SweepSpec("key", {"i": (3, 1)}))


def test_run_sweep_rejects_bad_order():
    with pytest.raises(UsageError):
        run_sweep(SweepSpec("key-limit", {}, order=0))


def test_theorem1_sweep_filters_unbounded_tuples():
    spec = SweepSpec("theorem1", {"i": (0, 2), "j": (0, 2), "k": (0, 2),
                                  "L": (0, 4)})
    report = run_sweep(spec)
    assert report.ok
    expected = sum(1 for i in range(3) for j in range(3) for k in range(3)
                   for L in range(5) if L >= max(i + j, j + k, k + i))
    assert report.total == expected


@pytest.mark.parametrize("module, name, side, shown", [
    (partcomb, "_type1_poly", "type1", ("type1", "tricolor")),
    (keyid, "lhs_g", "lhs_g", ("type1", "lhs_g")),
    (keyid, "closed_form_diag", "closed_form_diag", ("tricolor", "closed_form_diag")),
])
def test_theorem1_failure_row_shows_the_sides_that_differ(monkeypatch, module,
                                                          name, side, shown):
    # one side loses q^3; the row renders the first compared pair that differs
    i, j, k, L = 1, 1, 1, 3
    sides = {"type1": partcomb._type1_poly(L, i, j, k),
             "tricolor": partcomb._tricolor_poly(L, i, j, k),
             "lhs_g": keyid.lhs_g(i, j, k, L, L),
             "closed_form_diag": keyid.closed_form_diag(i, j, k, L)}
    sides[side] -= q_power(3)
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) - q_power(3))
    ok, left, right = IDENTITIES["theorem1"].check(i, j, k, L)
    assert not ok and left != right
    assert (left, right) == (str(sides[shown[0]]), str(sides[shown[1]]))


def test_key_sweep_on_wide_bounds():
    ranges = {"i": (0, 4), "j": (0, 4), "k": (0, 4), "L": (0, 20), "M": (0, 20)}
    report = run_sweep(SweepSpec("key", ranges))
    assert report.ok, report.failures[:1]
    assert report.total == 5 ** 3 * 21 ** 2


def test_key_sweep_fails_exactly_where_polynomials_differ(monkeypatch):
    # the right side's dense halves are corrupted; its L half is keyed by
    # (i, j, k, L), so the kind of corruption follows i + j + L.  The sweep
    # decides on the halves' images and the expected rows decode them, so
    # the two evaluators must agree on every corrupted tuple
    real_l, real_m = keyid._l_halves, keyid._m_halves

    def corrupted_l(i, j, k, L):
        first, second, right, *_ = real_l(i, j, k, L)
        kind = (i + j + L) % 3
        if kind == 0:  # times q
            right = tuple(p and (p[0], p[1] + 1, *p[2:]) for p in right)
        elif kind == 1:  # + q^M, joined to the M half's last slot; L slots carry -1
            right += ((-1, 0, (), 1),)
        elif any(right):  # one summand dropped
            last = max(s for s, p in enumerate(right) if p)
            right = right[:last] + (None,) + right[last + 1:]
        return keyid._dense(first, second, right)

    def corrupted_m(i, j, k, M):
        first, second, right, *_ = real_m(i, j, k, M)
        return keyid._dense(first, second, right + ((1, M, (), 1),))

    ranges = {"i": (0, 2), "j": (-1, 2), "k": (0, 1), "L": (-2, 3), "M": (-1, 3)}
    monkeypatch.setattr(keyid, "_l_halves", corrupted_l)
    monkeypatch.setattr(keyid, "_m_halves", corrupted_m)
    memos = (keyid.rhs_p, keyid._images)
    for memo in memos:
        memo.cache_clear()
    try:
        report = run_sweep(SweepSpec("key", ranges))
        expected = []
        for i, j, k, L, M in itertools.product(
                *(range(lo, hi + 1) for lo, hi in ranges.values())):
            lhs, rhs = keyid.lhs_g(i, j, k, L, M), keyid.rhs_p(i, j, k, L, M)
            if lhs != rhs:
                expected.append({"params": {"i": i, "j": j, "k": k, "L": L, "M": M},
                                 "lhs": str(lhs), "rhs": str(rhs)})
    finally:
        for memo in memos:
            memo.cache_clear()
    assert 0 < len(expected) < report.total
    assert report.failures == expected


def test_multinom_sweep_fails_exactly_where_polynomials_differ(monkeypatch):
    # the shared term list is corrupted, which term and how following the
    # point; the sweep decides on images and decodes its rows from the same
    # terms, so its rows must be the ones the polynomial reference gives
    real = qcomb._multinom_terms

    def corrupted(L, s, i, j):
        terms = list(real(L, s, i, j))
        at = (L + i) % len(terms)
        shift, factors, sign = terms[at]
        terms[at:at + 1] = ([], [(shift + 1, factors, sign)],
                            [(shift, factors, -sign)])[(s + j) % 3]
        return tuple(terms)

    monkeypatch.setattr(qcomb, "_multinom_terms", corrupted)
    ranges = {"L": (-2, 6), "s": (-1, 3), "i": (-1, 3), "j": (-1, 3)}
    report = run_sweep(SweepSpec("multinom-rec", ranges))
    expected = []
    for L, s, i, j in itertools.product(
            *(range(lo, hi + 1) for lo, hi in ranges.values())):
        for label, lhs, rhs in multinom_recurrence_relations(L, s, i, j):
            if lhs != rhs:
                expected.append({"params": {"L": L, "s": s, "i": i, "j": j},
                                 "lhs": f"{label}: {lhs}", "rhs": f"{label}: {rhs}"})
                break
    assert 0 < len(expected) < report.total
    assert report.failures == expected


def test_multinom_row_shows_the_point_its_verdict_rejects(monkeypatch):
    # the image of [3; 1] is one too large, so the sweep's sides differ from
    # the polynomial ones; each failing tuple's row must still name the point
    # its verdict rejects and show that point's sides, decoded from the same
    # images, as unequal, not raise from a second evaluator
    real = qcomb.qbinom_image
    monkeypatch.setattr(qcomb, "qbinom_image", lambda top, bottom, width:
                        real(top, bottom, width) + ((top, bottom) == (3, 1)))
    report = run_sweep(SweepSpec("multinom-rec"))
    assert report.failures
    for row in report.failures:
        points = qcomb._multinom_points(*row["params"].values())
        rejected = next(label for label, point in points
                        if not qcomb._multinom_point_holds(point))
        (label, lhs), (rlabel, rhs) = (row[side].split(": ", 1) for side in ("lhs", "rhs"))
        assert label == rlabel == rejected and lhs != rhs, row


def test_every_identity_is_checked_through_checker():
    built = cli._checker(str).__code__
    assert [name for name, spec in IDENTITIES.items()
            if spec.check.__code__ is not built] == []


def test_cube_sweep_fails_exactly_where_polynomials_differ(monkeypatch):
    # each corruption, of the left side's terms or of trace(C^3), reaches both
    # the decision and the rendered sides, which read the same two functions
    real_lhs = corollaries._cube_lhs
    real_trace = corollaries._cube_trace

    def lhs(L):
        terms = real_lhs(L)
        if L % 3 == 0 and terms:  # 1 added to the last (2l+1) coefficient
            return terms[:-1] + [(terms[-1][0], terms[-1][1] + 1)]
        if L % 3 == 1:  # a zero term leaves the value alone
            return terms + [(L * L + 7, 0)]
        return terms

    def trace(L, width, sign):  # times q, on the right side only
        value = real_trace(L, width, sign)
        return value << width if L % 3 == 2 and sign < 0 else value

    monkeypatch.setattr(corollaries, "_cube_lhs", lhs)
    monkeypatch.setattr(corollaries, "_cube_trace", trace)
    report = run_sweep(SweepSpec("jacobi-cube-poly", {"L": (-2, 8)}))
    expected = []
    for L in range(-2, 9):
        lhs, rhs = corollaries.jacobi_cube_poly_sides(L)
        assert (lhs == rhs) is (L % 3 == 1 or L < 0)
        if lhs != rhs:
            expected.append({"params": {"L": L}, "lhs": str(lhs), "rhs": str(rhs)})
    assert report.total == 11
    assert [f["params"]["L"] for f in expected] == [0, 2, 3, 5, 6, 8]
    assert report.failures == expected


def _count_calls(monkeypatch, module, name):
    """Wrap module.name in a counter, and return the count's one-entry list."""
    real, calls = getattr(module, name), [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_cube_sweep_runs_one_trace_per_tuple(monkeypatch):
    # the sides decide the tuple, and the width bound is in closed form
    calls = _count_calls(monkeypatch, corollaries, "_cube_trace")
    assert run_sweep(SweepSpec("jacobi-cube-poly")).ok
    assert calls == [21]


def test_multinom_sweep_decides_each_point_of_a_tuple_once(monkeypatch):
    # at s = 0 the four-part, shifted and symmetric points are one point:
    # 9^4 tuples times 3 points, less 2 for each of the 9^3 tuples with s = 0
    calls = _count_calls(monkeypatch, qcomb, "_multinom_point_holds")
    assert run_sweep(SweepSpec("multinom-rec")).ok
    assert calls == [3 * 9 ** 4 - 2 * 9 ** 3] == [18225]


def test_cube_sweep_leaves_the_binomial_memos_empty():
    # a passing cube tuple is decided on q-Pascal images, which take no memo
    for memo in (qcomb.qbinom_image, qcomb.factor_normal):
        memo.cache_clear()
    assert run_sweep(SweepSpec("jacobi-cube-poly")).ok
    assert qcomb.qbinom_image.cache_info().currsize == 0
    assert qcomb.factor_normal.cache_info().currsize == 0


@pytest.mark.parametrize("lo, hi", [(21, 26), (-3, 0)])
def test_cube_sweep_outside_the_default_grid(lo, hi):
    # for L < 0 both sides are empty sums
    report = run_sweep(SweepSpec("jacobi-cube-poly", {"L": (lo, hi)}))
    assert report.ok, report.failures[:1]
    assert report.total == hi - lo + 1


def test_raising_checker_becomes_a_failure_row(monkeypatch, capsys):
    def check(n, L):
        if (n, L) == (37, 64):
            raise ZeroDivisionError("no value at this tuple")
        return True, "", ""

    spec = IdentitySpec("raises-once", ("n", "L"), {"n": (0, 99), "L": (0, 99)},
                        check)
    monkeypatch.setitem(IDENTITIES, spec.name, spec)
    assert cli.main(["raises-once", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["total"] == 10 ** 4
    assert payload["failures"] == [
        {"params": {"n": 37, "L": 64},
         "lhs": "ZeroDivisionError: no value at this tuple", "rhs": ""}]
    assert "Traceback" not in out + err
    assert cli.main(["raises-once"]) == 1
    assert "ZeroDivisionError" in capsys.readouterr().out


@pytest.fixture
def corrupt_identity():
    """A key-identity checker with a deliberately shifted left side."""
    def bad_check(i, j, k, L, M):
        lhs = keyid.lhs_g(i, j, k, L, M).shift(1)  # corrupted exponent
        rhs = keyid.rhs_p(i, j, k, L, M)
        if lhs == rhs:
            return True, "", ""
        return False, str(lhs), str(rhs)

    spec = IdentitySpec("corrupt-key", ("i", "j", "k", "L", "M"),
                        {"i": (0, 1), "j": (0, 1), "k": (0, 1),
                         "L": (1, 2), "M": (1, 2)}, bad_check)
    IDENTITIES[spec.name] = spec
    yield spec
    del IDENTITIES[spec.name]


def test_corrupted_identity_reports_failures(corrupt_identity):
    report = run_sweep(SweepSpec("corrupt-key"))
    assert not report.ok
    assert 0 < len(report.failures) <= report.total
    first = report.failures[0]
    assert first["params"] == {"i": 0, "j": 0, "k": 0, "L": 1, "M": 1}
    assert first["lhs"] == "q"
    assert first["rhs"] == "1"


def test_corrupted_identity_exit_code(corrupt_identity, capsys):
    rc = cli.main(["corrupt-key", "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"]


def test_render_json_schema():
    report = run_sweep(small_key_spec())
    payload = json.loads(render_report(report, "json"))
    assert list(payload) == ["identity", "total", "failures", "elapsed_ms",
                             "version"]
    assert payload["identity"] == "key"
    assert payload["total"] == report.total
    assert payload["failures"] == []
    assert payload["elapsed_ms"] == 0
    assert payload["version"] == cli.__version__


def test_render_text_table(corrupt_identity):
    report = run_sweep(SweepSpec("corrupt-key"))
    text = render_report(report, "text")
    assert "identity: corrupt-key" in text
    assert "params" in text and "lhs" in text and "rhs" in text
    assert "i=0, j=0, k=0, L=1, M=1" in text


@pytest.mark.parametrize("text, want", [("5", (5, 5)), ("-2..4", (-2, 4))])
def test_parse_range_reads_a_value_or_a_range(text, want):
    assert cli._parse_range(text) == want


@pytest.mark.parametrize("text", ["3..", "..4", "1..2..3", "a"])
def test_parse_range_rejects_malformed_text(text):
    with pytest.raises(argparse.ArgumentTypeError, match=f"bad range {text!r}"):
        cli._parse_range(text)


def test_render_rejects_unknown_format():
    report = run_sweep(SweepSpec("gollnitz", {"n": (0, 2)}))
    with pytest.raises(UsageError):
        render_report(report, "yaml")


def test_reports_byte_identical_across_jobs(corrupt_identity):
    texts = []
    for jobs in (1, 8):
        report = run_sweep(SweepSpec("corrupt-key", jobs=jobs))
        texts.append(render_report(report, "json"))
    assert texts[0] == texts[1]
    ok_texts = [render_report(run_sweep(small_key_spec(jobs=jobs)), "json")
                for jobs in (1, 8)]
    assert ok_texts[0] == ok_texts[1]


def test_main_pass_and_exit_codes(capsys):
    rc = cli.main(["key", "--i", "0..1", "--j", "0..1", "--k", "0..1",
                   "--L", "0..2", "--M", "0..2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["total"] == 72 and payload["failures"] == []


def test_main_single_value_range(capsys):
    rc = cli.main(["carlitz", "--L", "5", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["total"] == 1


def test_main_usage_errors(capsys):
    assert cli.main(["no-such-identity"]) == 2
    assert cli.main(["key", "--n", "0..3"]) == 2
    assert cli.main(["key-limit", "--order", "0"]) == 2


def test_golden_corpus_checks_clean():
    report = run_golden()
    assert report.ok
    assert report.total == 54


def test_golden_emit_matches_packaged_file(capsys):
    rc = cli.main(["golden", "--emit"])
    assert rc == 0
    emitted = capsys.readouterr().out
    from importlib import resources
    stored = resources.files("qgollnitz").joinpath("data/golden_key.txt") \
        .read_text(encoding="utf-8")
    assert emitted == stored


def test_golden_rejects_range_and_order(capsys):
    assert cli.main(["golden", "--i", "0..3"]) == 2
    assert cli.main(["golden", "--order", "5"]) == 2
    assert cli.main(["golden", "--emit", "--L", "2"]) == 2
    assert "takes no range and no order" in capsys.readouterr().err
    assert cli.main(["golden", "--jobs", "0"]) == 2


def test_golden_emit_rejects_a_json_format(capsys):
    # --emit prints the text corpus, so a JSON request is a usage error
    assert cli.main(["golden", "--emit", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "--format" in captured.err and captured.out == ""


def test_golden_json_report_still_works(capsys):
    assert cli.main(["golden", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identity"] == "golden" and report["total"] == 54
    assert report["failures"] == []


def test_golden_emit_into_a_closed_pipe_ends_without_traceback():
    # the reader closes its end after one line, as `| head -1` does; an
    # unbuffered child writes each later line into the closed pipe
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "qgollnitz.cli", "golden", "--emit"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first.startswith(b"0 0 0 0 0\t")
    assert b"Traceback" not in err
    assert proc.returncode in (0, 1)


def test_emit_rejected_without_golden(capsys):
    assert cli.main(["key", "--emit"]) == 2
    assert "--emit" in capsys.readouterr().err


def test_theorem1_sweep_with_negative_color_total():
    assert cli.main(["theorem1", "--i", "-1..0", "--L", "0..2"]) == 0


def _golden_with_line_4(monkeypatch, edit):
    """run_golden on the shipped corpus with line 4 replaced by
    edit(head, lhs, rhs), and that line as shipped."""
    from importlib import resources
    stored = resources.files("qgollnitz").joinpath("data/golden_key.txt") \
        .read_text(encoding="utf-8")
    lines = stored.splitlines()
    shipped = lines[3]
    lines[3] = edit(*shipped.split("\t"))
    corrupted = "\n".join(lines) + "\n"

    class FakeResource:
        def joinpath(self, _):
            return self

        def read_text(self, encoding="utf-8"):
            return corrupted

    monkeypatch.setattr(cli.resources, "files", lambda _: FakeResource())
    return run_golden(), lines[3], shipped


def test_golden_catches_corruption(tmp_path, monkeypatch):
    report, _, _ = _golden_with_line_4(
        monkeypatch, lambda head, lhs, rhs: "\t".join((head, lhs + " + q^99", rhs)))
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0]["params"]["i"] == 0


@pytest.mark.parametrize("edit, params", [
    # a polynomial that does not parse, under a valid head
    (lambda head, lhs, rhs: "\t".join((head, lhs + " +* q", rhs)),
     {"i": 0, "j": 0, "k": 0, "L": 5, "M": 7}),
    # a head with four integers
    (lambda head, lhs, rhs: "\t".join((head.rsplit(" ", 1)[0], lhs, rhs)),
     {"line": 4}),
    # a line with two tab fields
    (lambda head, lhs, rhs: "\t".join((head, lhs)), {"line": 4}),
], ids=["bad-polynomial", "short-head", "two-fields"])
def test_golden_row_carries_a_malformed_line(monkeypatch, edit, params):
    report, line, shipped = _golden_with_line_4(monkeypatch, edit)
    assert report.failures == [{"params": params, "lhs": line, "rhs": shipped}]


# A small range per parameter, and the number of tuples each identity
# sweeps on it (theorem1 and support keep only L >= every pair sum).
SMALL_RANGES = {"i": (0, 1), "j": (0, 1), "k": (0, 1), "l": (0, 1),
                "s": (0, 1), "L": (0, 2), "M": (0, 2), "n": (0, 6),
                "top": (-2, 2), "bottom": (-1, 2)}
SMALL_TOTALS = {"key": 72, "boundary": 24, "recurrence-g": 72,
                "recurrence-p": 72, "recurrence-andrews": 72, "schur": 36,
                "key-limit": 8, "theorem1": 13, "gollnitz": 7, "remark3": 7,
                "jtp-bounded": 3, "jtp-series": 1, "false-theta": 1,
                "jacobi-cube-poly": 3, "jacobi-cube-series": 1, "carl": 3,
                "carlitz": 3, "four-param": 16, "qpascal": 20,
                "multinom-rec": 24, "support": 13}


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_every_identity_sweeps_clean_on_a_small_grid(name):
    ident = IDENTITIES[name]
    ranges = {p: SMALL_RANGES[p] for p in ident.params}
    order = None if ident.default_order is None else 6
    report = run_sweep(SweepSpec(name, ranges, order))
    assert report.ok, report.failures[:1]
    assert report.total == SMALL_TOTALS[name]


def test_extra_predicate_fails_equal_sides_rendered_in_a(monkeypatch):
    # doubled sides stay equal but break carlitz's a = 1 count
    real = corollaries.carlitz_sides
    monkeypatch.setattr(corollaries, "carlitz_sides", lambda L: tuple(
        {e: 2 * c for e, c in side.items()} for side in real(L)))
    report = run_sweep(SweepSpec("carlitz", {"L": (0, 1)}))
    assert report.total == 2
    assert report.failures == [
        {"params": {"L": 0}, "lhs": "(2)", "rhs": "(2)"},
        {"params": {"L": 1}, "lhs": "(2)*a^-1 + (2)*a",
         "rhs": "(2)*a^-1 + (2)*a"}]


def test_carlitz_passes_below_zero():
    # for L < 0 both sides are 0, and the sum over m = 0..L has no terms
    assert cli.main(["carlitz", "--L=-3..0"]) == 0


@pytest.mark.parametrize("module, name, identity, ranges, times_q", [
    (keyid, "boundary_sides", "boundary",
     {"i": (0, 1), "j": (0, 1), "k": (0, 2), "M": (0, 3)}, lambda p: p.shift(1)),
    (keyid, "key_limit_sides", "key-limit", {"i": (0, 1), "j": (0, 1), "k": (0, 2)},
     lambda s: s * TruncSeries.from_poly(q_power(1), s.order)),
    (corollaries, "bounded_jtp_sides", "jtp-bounded", {"L": (0, 3)},
     lambda side: {e: c.shift(1) for e, c in side.items()}),
])
def test_table_binds_sides_late(monkeypatch, module, name, identity, ranges,
                                times_q):
    # the table looks each sides function up on its module at every tuple,
    # so a wrapper installed after import (a tracer, this double) is what runs
    real = getattr(module, name)

    def shifted(*args):
        lhs, rhs = real(*args)
        return lhs, times_q(rhs)

    ident = IDENTITIES[identity]
    extra = {} if ident.default_order is None else {"order": ident.default_order}
    render = partial(corollaries.render_powers, var="A") \
        if module is corollaries else str
    assert run_sweep(SweepSpec(identity, ranges)).ok
    monkeypatch.setattr(module, name, shifted)
    report = run_sweep(SweepSpec(identity, ranges))
    expected = []
    for combo in itertools.product(*(range(lo, hi + 1) for lo, hi in
                                     (ranges[p] for p in ident.params))):
        params = {**dict(zip(ident.params, combo)), **extra}
        lhs, rhs = shifted(*params.values())
        if lhs != rhs:
            expected.append({"params": params, "lhs": render(lhs),
                             "rhs": render(rhs)})
    assert expected and report.failures == expected


# The JSON report of the sweep below, as the keyword-argument harness wrote
# it before checkers took their tuple positionally.
_CORRUPT_KEY_LIMIT_JSON = (
    '{"identity": "key-limit", "total": 8, "failures": ['
    '{"params": {"i": 0, "j": 0, "k": 1, "order": 6}, '
    '"lhs": "q + q^2 + q^3 + q^4 + q^5 + O(q^6)", '
    '"rhs": "q^2 + q^3 + q^4 + q^5 + O(q^6)"}, '
    '{"params": {"i": 0, "j": 1, "k": 0, "order": 6}, '
    '"lhs": "q + q^2 + q^3 + q^4 + q^5 + O(q^6)", '
    '"rhs": "q^2 + q^3 + q^4 + q^5 + O(q^6)"}, '
    '{"params": {"i": 1, "j": 0, "k": 0, "order": 6}, '
    '"lhs": "q + q^2 + q^3 + q^4 + q^5 + O(q^6)", '
    '"rhs": "q^2 + q^3 + q^4 + q^5 + O(q^6)"}, '
    '{"params": {"i": 1, "j": 1, "k": 0, "order": 6}, '
    '"lhs": "ArithmeticError: no sides at 1, 1, 0", "rhs": ""}], '
    '"elapsed_ms": 0, "version": "VERSION"}')


def test_failing_sweep_with_an_order_reports_as_before(monkeypatch):
    # the order follows the swept parameters in every row, and a tuple whose
    # sides raise gives one row naming the exception
    real = keyid.key_limit_sides
    raised = []

    def corrupted(i, j, k, order):
        if (i, j, k) == (1, 1, 0):
            raised.append((i, j, k, order))
            raise ArithmeticError(f"no sides at {i}, {j}, {k}")
        lhs, rhs = real(i, j, k, order)
        if i + j + k == 1:
            rhs = rhs * TruncSeries.from_poly(q_power(1), order)
        return lhs, rhs

    monkeypatch.setattr(keyid, "key_limit_sides", corrupted)
    report = run_sweep(SweepSpec("key-limit", {"i": (0, 1), "j": (0, 1), "k": (0, 1)},
                                 order=6))
    assert render_report(report, "json") == \
        _CORRUPT_KEY_LIMIT_JSON.replace("VERSION", cli.__version__)
    assert raised == [(1, 1, 0, 6)]
    assert [row["params"] for row in report.failures
            if row["lhs"].startswith("ArithmeticError")] == [
        {"i": 1, "j": 1, "k": 0, "order": 6}]


def _times_q(side):
    """side times q: a polynomial, a series, or a {power: coefficient} dict
    of either."""
    if isinstance(side, dict):
        return {e: _times_q(c) for e, c in side.items()}
    if isinstance(side, TruncSeries):
        return side * TruncSeries.from_poly(q_power(1), side.order)
    return side.shift(1)


_REPORTS = Path(__file__).resolve().parent / "data" / "failure_reports"


@pytest.mark.parametrize("name, spec", [
    ("carl_poly_sides", SweepSpec("carl", {"L": (0, 3)})),
    ("bounded_jtp_sides", SweepSpec("jtp-bounded", {"L": (0, 3)})),
    ("jtp_series", SweepSpec("jtp-series", order=6)),
    ("false_theta_sides", SweepSpec("false-theta", order=8)),
], ids=lambda arg: arg.identity if isinstance(arg, SweepSpec) else arg)
def test_failing_corollary_sweep_reports_as_before(monkeypatch, name, spec):
    # with its right side times q, each sweep renders the text and JSON
    # reports in data/failure_reports byte for byte; they were captured
    # when these sides were still ring values in qcore and false theta
    # still used series reciprocals (VERSION stands for the version, and
    # the elapsed time is zeroed)
    real = getattr(corollaries, name)

    def corrupted(*args):
        lhs, rhs = real(*args)
        return lhs, _times_q(rhs)

    monkeypatch.setattr(corollaries, name, corrupted)
    report = dataclasses.replace(run_sweep(spec), elapsed_ms=0)
    text, json_text = (
        (_REPORTS / f"{spec.identity}.{ext}").read_text(encoding="utf-8")
        .replace("VERSION", cli.__version__) for ext in ("txt", "json"))
    assert render_report(report, "text") == text
    assert render_report(report, "json") + "\n" == json_text


def test_table_binds_carlitz_rule_late(monkeypatch):
    # a patched a = 1 rule decides every tuple; each row renders the real
    # sides in a
    monkeypatch.setattr(corollaries, "check_carlitz", lambda L: False)
    report = run_sweep(SweepSpec("carlitz", {"L": (-1, 2)}))
    assert report.total == 4
    assert report.failures == [
        {"params": {"L": L}, "lhs": corollaries.render_powers(lhs, "a"),
         "rhs": corollaries.render_powers(rhs, "a")}
        for L in range(-1, 3) for lhs, rhs in [corollaries.carlitz_sides(L)]]


def test_grid_ceiling_checked_before_any_tuple(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_GRID", 12)
    assert run_sweep(SweepSpec("gollnitz", {"n": (0, 11)})).total == 12
    with pytest.raises(UsageError, match="grid of 13 tuples"):
        run_sweep(SweepSpec("gollnitz", {"n": (0, 12)}))
    # the unfiltered size counts: theorem1 would keep 12 of these 16 tuples
    with pytest.raises(UsageError, match="grid of 16 tuples"):
        run_sweep(SweepSpec("theorem1", {"i": (0, 1), "j": (0, 1), "k": (0, 0),
                                         "L": (0, 3)}))
    monkeypatch.setattr(cli.itertools, "product", None)  # no tuple is built
    assert cli.main(["gollnitz", "--n", "0..1000000000"]) == 2
    assert "exceeds the limit of 12" in capsys.readouterr().err


def test_sweep_checks_each_tuple_as_it_is_generated():
    filtered = []

    def counting_filter(params):
        filtered.append(params)
        return True

    def check(n, L):
        if not at_first_check:
            at_first_check.append(len(filtered))
        return True, "", ""

    at_first_check = []
    spec = IdentitySpec("streamed", ("n", "L"), {"n": (0, 30), "L": (0, 30)},
                        check, tuple_filter=counting_filter)
    IDENTITIES[spec.name] = spec
    try:
        report = run_sweep(SweepSpec("streamed"))
    finally:
        del IDENTITIES[spec.name]
    assert report.ok and report.total == len(filtered) == 31 ** 2
    assert at_first_check == [1]


def test_jobs_sweep_starts_no_thread(monkeypatch):
    serial = render_report(run_sweep(small_key_spec()), "json")

    def no_thread(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert render_report(run_sweep(small_key_spec(jobs=8)), "json") == serial


def test_order_ceiling_checked_before_any_tuple(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_ORDER", 6)
    assert run_sweep(SweepSpec("false-theta", order=6)).ok
    with pytest.raises(UsageError, match="order 7 exceeds the limit of 6"):
        run_sweep(SweepSpec("false-theta", order=7))
    monkeypatch.setattr(corollaries, "jtp_series", None)  # nothing is evaluated
    assert cli.main(["jtp-series", "--order", "2000"]) == 2
    assert "exceeds the limit of 6" in capsys.readouterr().err


def test_order_rejected_for_identity_without_order(capsys):
    with pytest.raises(UsageError):
        run_sweep(SweepSpec("key", {}, order=5))
    assert cli.main(["key", "--i", "0..1", "--order", "5"]) == 2
    assert "takes no order" in capsys.readouterr().err


_README = Path(__file__).resolve().parents[1] / "README.md"


def readme_invocations():
    """Each ``qgollnitz ...`` command in README.md's code blocks, as argv."""
    in_block = False
    for line in _README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("qgollnitz ") and "<" not in line:
            yield shlex.split(line, comments=True)[1:]


@pytest.mark.parametrize("argv", list(readme_invocations()), ids=" ".join)
def test_readme_invocation_parses_as_written(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.identity in IDENTITIES or args.identity == "golden"
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("--") and flag[2:] in cli._RANGE_FLAGS:
            lo, _, hi = value.partition("..")
            assert getattr(args, flag[2:]) == (int(lo), int(hi or lo))


def readme_python_blocks():
    """The source of each ```python block of README.md."""
    return re.findall(r"^```python\n(.*?)^```$",
                      _README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("source", readme_python_blocks(),
                         ids=lambda source: source.partition("\n")[0])
def test_readme_python_block_runs_as_written(source):
    src = str(_README.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_space_separated_negative_ranges():
    args = cli.build_parser().parse_args(
        ["qpascal", "--top", "-3..-1", "--bottom", "-2", "--order", "-5"])
    assert (args.top, args.bottom, args.order) == ((-3, -1), (-2, -2), -5)
