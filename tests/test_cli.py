"""Harness tests: sweeping, reporting, determinism, exit codes, golden corpus."""

import argparse
import itertools
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qgollnitz import cli, corollaries, keyid, partcomb
from qgollnitz.qcore import q_power
from qgollnitz.cli import (IDENTITIES, IdentitySpec, SweepSpec, UsageError,
                           render_report, run_golden, run_sweep)


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
    ok, left, right = cli._check_theorem1(i, j, k, L)
    assert not ok and left != right
    assert (left, right) == (str(sides[shown[0]]), str(sides[shown[1]]))


def test_key_sweep_on_wide_bounds():
    ranges = {"i": (0, 4), "j": (0, 4), "k": (0, 4), "L": (0, 20), "M": (0, 20)}
    report = run_sweep(SweepSpec("key", ranges))
    assert report.ok, report.failures[:1]
    assert report.total == 5 ** 3 * 21 ** 2


def test_key_sweep_fails_exactly_where_polynomials_differ(monkeypatch):
    real = keyid.rhs_summands

    def corrupted(i, j, k, L, M):
        right = real(i, j, k, L, M)
        kind = (i + j + L) % 3
        if kind == 0:
            return [(e + 1, fs) for e, fs in right]  # times q
        if kind == 1:
            return right + [(M, ())]  # + q^M
        return right[:-1]  # one summand dropped

    ranges = {"i": (0, 2), "j": (-1, 2), "k": (0, 1), "L": (-2, 3), "M": (-1, 3)}
    monkeypatch.setattr(keyid, "rhs_summands", corrupted)
    keyid.rhs_p.cache_clear()
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
        keyid.rhs_p.cache_clear()
    assert 0 < len(expected) < report.total
    assert report.failures == expected


def test_cube_sweep_fails_exactly_where_polynomials_differ(monkeypatch):
    real = corollaries.jacobi_cube_poly_summands

    def corrupted(L):
        left, right = real(L)
        right = list(right)
        kind = L % 3
        if kind == 0 and left:  # 1 added to the last (2l+1) coefficient
            shift, fs, coeff = left[-1]
            return left[:-1] + [(shift, fs, coeff + 1)], right
        if kind == 1:  # a cycle with a zero binomial leaves the value alone
            return left, right + [keyid.cycle_summand(L + 1, 0, 0, L, 5)]
        return left, [(e + 1, *rest) for e, *rest in right]  # times q

    monkeypatch.setattr(corollaries, "jacobi_cube_poly_summands", corrupted)
    report = run_sweep(SweepSpec("jacobi-cube-poly", {"L": (-2, 8)}))
    expected = []
    for L in range(-2, 9):
        lhs, rhs = corollaries.jacobi_cube_poly_sides(L)
        if lhs != rhs:
            expected.append({"params": {"L": L}, "lhs": str(lhs), "rhs": str(rhs)})
    assert report.total == 11
    assert [f["params"]["L"] for f in expected] == [0, 2, 3, 5, 6, 8]
    assert report.failures == expected


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


def test_golden_catches_corruption(tmp_path, monkeypatch):
    from importlib import resources
    stored = resources.files("qgollnitz").joinpath("data/golden_key.txt") \
        .read_text(encoding="utf-8")
    lines = stored.splitlines()
    head, lhs, rhs = lines[3].split("\t")
    lines[3] = "\t".join((head, lhs + " + q^99", rhs))
    corrupted = "\n".join(lines) + "\n"

    class FakeResource:
        def joinpath(self, _):
            return self

        def read_text(self, encoding="utf-8"):
            return corrupted

    monkeypatch.setattr(cli.resources, "files", lambda _: FakeResource())
    report = run_golden()
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0]["params"]["i"] == 0


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
    monkeypatch.setattr(corollaries, "carlitz_sides",
                        lambda L: tuple(side + side for side in real(L)))
    report = run_sweep(SweepSpec("carlitz", {"L": (0, 1)}))
    assert report.total == 2
    assert report.failures == [
        {"params": {"L": 0}, "lhs": "(2)", "rhs": "(2)"},
        {"params": {"L": 1}, "lhs": "(2)*a^-1 + (2)*a",
         "rhs": "(2)*a^-1 + (2)*a"}]


def test_carlitz_passes_below_zero():
    # for L < 0 both sides are 0, and the sum over m = 0..L has no terms
    assert cli.main(["carlitz", "--L=-3..0"]) == 0


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


def readme_invocations():
    """Each ``qgollnitz ...`` command in README.md's code blocks, as argv."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    in_block = False
    for line in readme.read_text(encoding="utf-8").splitlines():
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


def test_space_separated_negative_ranges():
    args = cli.build_parser().parse_args(
        ["qpascal", "--top", "-3..-1", "--bottom", "-2", "--order", "-5"])
    assert (args.top, args.bottom, args.order) == ((-3, -1), (-2, -2), -5)
