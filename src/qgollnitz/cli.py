"""Batch verification harness.

``qgollnitz <identity> [range options]`` sweeps an identity over a Cartesian
grid of integer parameters, evaluating every tuple exactly, and reports each
failing tuple with the canonical rendering of both sides; a tuple whose
checker raises fails with the exception's name in place of its lhs.  Exit
status is 0 when every tuple passes, 1 on any mismatch, 2 on a usage error.

Tuples are evaluated one after another in grid order: every checker is
pure Python and holds the interpreter lock, so worker threads would only
slow a sweep down.  The JSON rendering puts 0 in the elapsed_ms slot, so
two runs of the same sweep with the same engine version are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from typing import Callable, Optional

from . import __version__, corollaries, keyid, partcomb, qcomb
from .qcore import parse_poly


class UsageError(ValueError):
    """Malformed sweep request."""


# ---------------------------------------------------------------------------
# identities: each checker maps params -> (ok, rendered lhs, rendered rhs)
# ---------------------------------------------------------------------------

_PASS = (True, "", "")


def _current(fn):
    """A getter for fn.  A module function is looked up on its module at
    every call, so that a wrapper installed there later (a tracer, a test
    double) is what runs."""
    home, name = sys.modules[fn.__module__], fn.__name__
    if getattr(home, name, None) is not fn:
        return lambda: fn
    return partial(getattr, home, name)


def _compare(sides, render=str, holds=None):
    """Turn sides(**params) -> (lhs, rhs) into a checker.  A tuple passes
    when the sides are equal and, if given, holds(lhs, rhs, **params) is
    true; the sides are rendered only on a failure, since sweeps mostly
    pass."""
    sides = _current(sides)

    def check(**params):
        lhs, rhs = sides()(**params)
        if lhs == rhs and (holds is None or holds(lhs, rhs, **params)):
            return _PASS
        return False, render(lhs), render(rhs)
    return check


def _by_images(summands):
    """A checker that decides each tuple by qcomb.summands_agree on
    summands(**params) -> (left, right), two summand lists.  Only a failing
    tuple has the lists' polynomials built by qcomb.summand_poly, to render
    its row; they come from a second call, since the comparison uses up a
    side given as a generator."""
    summands = _current(summands)

    def check(**params):
        if qcomb.summands_agree(*summands()(**params)):
            return _PASS
        lhs, rhs = summands()(**params)
        return False, str(qcomb.summand_poly(lhs)), str(qcomb.summand_poly(rhs))
    return check


def _in_a(side) -> str:
    return side.render("a")


def _check_theorem1(i, j, k, L):
    if partcomb.check_theorem1(L, i, j, k):
        return _PASS
    left, right = next(pair for pair in partcomb.theorem1_pairs(L, i, j, k)
                       if pair[0] != pair[1])
    return False, str(left), str(right)


def _check_gollnitz(n):
    b = partcomb.gollnitz_B(n)
    c = partcomb.gollnitz_C(n)
    if b == c:
        return _PASS
    return False, f"B({n}) = {b}", f"C({n}) = {c}"


def _check_remark3(n):
    if partcomb.check_remark3(n):
        return _PASS
    total = sum(1 for _ in partcomb.iter_type1_transformed(n))
    return False, f"{total} transformed Type-1 partitions", \
        f"C({n}) = {partcomb.gollnitz_C(n)}"


def _check_multinom_rec(L, s, i, j):
    for label, lhs, rhs in qcomb.multinom_recurrence_relations(L, s, i, j):
        if lhs != rhs:
            return False, f"{label}: {lhs}", f"{label}: {rhs}"
    return _PASS


def _check_support(i, j, k, L):
    if keyid.check_support(i, j, k, L):
        return _PASS
    return False, "every nonzero summand has L-t >= 0", "violated"


@dataclass(frozen=True)
class IdentitySpec:
    """How to sweep one identity: swept parameter names, default inclusive
    ranges, the checker, the default truncation order (None when the
    identity takes no order), and an optional tuple filter."""
    name: str
    params: tuple[str, ...]
    defaults: dict[str, tuple[int, int]]
    check: Callable
    default_order: Optional[int] = None
    tuple_filter: Optional[Callable] = None


def _bound_covers_pairs(params):
    # counting interpretations need L at least every pairwise sum of i, j, k
    return params["L"] >= max(params["i"] + params["j"],
                              params["j"] + params["k"],
                              params["k"] + params["i"])


_KEY_PARAMS = ("i", "j", "k", "L", "M")
_KEY_GRID = {"i": (0, 3), "j": (0, 3), "k": (0, 3), "L": (0, 8), "M": (0, 8)}

IDENTITIES: dict[str, IdentitySpec] = {spec.name: spec for spec in (
    IdentitySpec("key", _KEY_PARAMS, _KEY_GRID, _by_images(keyid.key_summands)),
    IdentitySpec("boundary", ("i", "j", "k", "M"),
                 {"i": (0, 4), "j": (0, 4), "k": (0, 4), "M": (0, 10)},
                 _compare(lambda i, j, k, M: (keyid.lhs_g(i, j, k, i + j - 1, M),
                                              keyid.boundary_value(i, j, k, M)))),
    IdentitySpec("recurrence-g", _KEY_PARAMS, _KEY_GRID,
                 _compare(keyid.recurrence_sides_g)),
    IdentitySpec("recurrence-p", _KEY_PARAMS, _KEY_GRID,
                 _compare(keyid.recurrence_sides_p)),
    IdentitySpec("recurrence-andrews", _KEY_PARAMS, _KEY_GRID,
                 _compare(keyid.andrews_sides)),
    IdentitySpec("schur", ("j", "k", "L", "M"),
                 {"j": (0, 3), "k": (0, 3), "L": (0, 6), "M": (0, 6)},
                 _compare(keyid.schur_sides, holds=lambda left, right, j, k, L, M:
                          left == keyid.lhs_g(0, j, k, L, M)
                          == keyid.rhs_p(0, j, k, L, M))),
    IdentitySpec("key-limit", ("i", "j", "k"),
                 {"i": (0, 3), "j": (0, 3), "k": (0, 3)},
                 _compare(lambda i, j, k, order: (keyid.key_limit_lhs(i, j, k, order),
                                                  keyid.key_limit_rhs(i, j, k, order))),
                 default_order=25),
    IdentitySpec("theorem1", ("i", "j", "k", "L"),
                 {"i": (0, 3), "j": (0, 3), "k": (0, 3), "L": (0, 7)},
                 _check_theorem1, tuple_filter=_bound_covers_pairs),
    IdentitySpec("gollnitz", ("n",), {"n": (0, 60)}, _check_gollnitz),
    IdentitySpec("remark3", ("n",), {"n": (0, 60)}, _check_remark3),
    IdentitySpec("jtp-bounded", ("L",), {"L": (0, 8)},
                 _compare(lambda L: (corollaries.bounded_jtp_lhs(L),
                                     corollaries.bounded_jtp_rhs(L)))),
    IdentitySpec("jtp-series", (), {}, _compare(corollaries.jtp_series),
                 default_order=10),
    IdentitySpec("false-theta", (), {}, _compare(corollaries.false_theta_sides),
                 default_order=30),
    IdentitySpec("jacobi-cube-poly", ("L",), {"L": (0, 20)},
                 _by_images(corollaries.jacobi_cube_poly_summands)),
    IdentitySpec("jacobi-cube-series", (), {},
                 _compare(corollaries.jacobi_cube_series), default_order=50),
    IdentitySpec("carl", ("L",), {"L": (0, 10)},
                 _compare(corollaries.carl_poly_sides, render=_in_a)),
    IdentitySpec("carlitz", ("L",), {"L": (0, 12)},
                 _compare(corollaries.carlitz_sides, render=_in_a,
                          holds=lambda lhs, rhs, L:
                          lhs.substitute_one().at_one() == max(L + 1, 0))),
    IdentitySpec("four-param", ("i", "j", "k", "l"),
                 {"i": (0, 2), "j": (0, 2), "k": (0, 2), "l": (0, 2)},
                 _compare(corollaries.four_param_sides), default_order=20),
    IdentitySpec("qpascal", ("top", "bottom"),
                 {"top": (-6, 10), "bottom": (-6, 10)},
                 _compare(qcomb.qpascal_sides)),
    IdentitySpec("multinom-rec", ("L", "s", "i", "j"),
                 {"L": (0, 8), "s": (0, 8), "i": (0, 8), "j": (0, 8)},
                 _check_multinom_rec),
    IdentitySpec("support", ("i", "j", "k", "L"),
                 {"i": (0, 4), "j": (0, 4), "k": (0, 4), "L": (0, 10)},
                 _check_support, tuple_filter=_bound_covers_pairs),
)}

# every parameter some identity sweeps gets a --NAME range flag
_RANGE_FLAGS = tuple(dict.fromkeys(
    name for spec in IDENTITIES.values() for name in spec.params))


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

# Most tuples a grid may hold before filtering, ~15x acceptance criterion 1's.
# A sweep holds no grid, so this bounds time, not memory.
_MAX_GRID = 10 ** 6
# Highest truncation order: false-theta takes about 25 s at order 400.
_MAX_ORDER = 1000


@dataclass
class SweepSpec:
    """A sweep request: identity name, inclusive per-parameter ranges
    (defaults fill anything omitted), truncation order where relevant, and
    a worker count that must be >= 1 but does not change the serial sweep."""
    identity: str
    ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    order: Optional[int] = None
    jobs: int = 1


@dataclass
class SweepReport:
    identity: str
    total: int
    failures: list
    elapsed_ms: int
    version: str = __version__

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate every tuple in the sweep grid, in grid order, each as it is
    generated.  Any jobs value gives the same serial sweep.  A checker that
    raises makes a failure row whose lhs names the exception, and the sweep
    goes on."""
    ident = IDENTITIES.get(spec.identity)
    if ident is None:
        raise UsageError(f"unknown identity {spec.identity!r}")
    for name in spec.ranges:
        if name not in ident.params:
            raise UsageError(
                f"identity {ident.name!r} does not take a range for {name!r}")
    ranges, size = [], 1
    for name in ident.params:
        lo, hi = spec.ranges.get(name, ident.defaults[name])
        if lo > hi:
            raise UsageError(f"empty range for {name!r}: {lo}..{hi}")
        ranges.append(range(lo, hi + 1))
        size *= hi - lo + 1
    if size > _MAX_GRID:
        raise UsageError(f"grid of {size} tuples exceeds the limit of {_MAX_GRID}")
    if ident.default_order is None:
        if spec.order is not None:
            raise UsageError(f"identity {ident.name!r} takes no order")
        extra = {}
    else:
        order = ident.default_order if spec.order is None else spec.order
        if order < 1:
            raise UsageError(f"order must be >= 1, got {order}")
        if order > _MAX_ORDER:
            raise UsageError(f"order {order} exceeds the limit of {_MAX_ORDER}")
        extra = {"order": order}
    if spec.jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {spec.jobs}")

    start = time.perf_counter()
    total, failures = 0, []
    for combo in itertools.product(*ranges):
        params = dict(zip(ident.params, combo))
        if ident.tuple_filter is not None and not ident.tuple_filter(params):
            continue
        total += 1
        try:
            ok, lhs, rhs = ident.check(**params, **extra)
        except Exception as exc:  # a checker that raises fails its tuple
            ok, lhs, rhs = False, f"{type(exc).__name__}: {exc}", ""
        if not ok:
            failures.append({"params": {**params, **extra}, "lhs": lhs, "rhs": rhs})
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return SweepReport(ident.name, total, failures, elapsed_ms)


def render_report(report: SweepReport, fmt: str = "text") -> str:
    """Render a report; JSON keeps a stable key order and zeroes the elapsed
    slot so identical sweeps give byte-identical output."""
    if fmt == "json":
        return json.dumps({
            "identity": report.identity,
            "total": report.total,
            "failures": report.failures,
            "elapsed_ms": 0,
            "version": report.version,
        })
    if fmt != "text":
        raise UsageError(f"unknown format {fmt!r}")
    lines = [
        f"identity: {report.identity}",
        f"tuples:   {report.total}",
        f"failures: {len(report.failures)}",
        f"elapsed:  {report.elapsed_ms} ms",
        f"version:  {report.version}",
    ]
    if report.failures:
        rows = [(", ".join(f"{k}={v}" for k, v in f["params"].items()),
                 f["lhs"], f["rhs"]) for f in report.failures]
        names = ("params", "lhs", "rhs")
        widths = [max(len(name), *(len(r[col]) for r in rows))
                  for col, name in enumerate(names)]
        lines.append("")
        lines.append(" | ".join(s.ljust(w) for s, w in zip(names, widths)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in rows:
            lines.append(" | ".join(s.ljust(w) for s, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# golden corpus
# ---------------------------------------------------------------------------

_GOLDEN_IJK = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 1, 1),
               (2, 2, 2), (3, 1, 0), (4, 2, 1), (-1, 2, 0)]
_GOLDEN_LM = [(0, 0), (1, 3), (4, 4), (5, 7), (-2, 3), (8, 8)]


def golden_lines():
    """Derive the golden corpus: tab-separated tuple, lhs and rhs renderings
    for a fixed set of key-identity instances."""
    for i, j, k in _GOLDEN_IJK:
        for L, M in _GOLDEN_LM:
            lhs = keyid.lhs_g(i, j, k, L, M)
            rhs = keyid.rhs_p(i, j, k, L, M)
            yield f"{i} {j} {k} {L} {M}\t{lhs}\t{rhs}"


def run_golden() -> SweepReport:
    """Re-derive the shipped golden corpus and diff it line by line; a
    failure carries the stored and freshly computed renderings."""
    start = time.perf_counter()
    text = resources.files("qgollnitz").joinpath("data/golden_key.txt") \
        .read_text(encoding="utf-8")
    stored = [ln for ln in text.splitlines() if ln.strip()]
    derived = list(golden_lines())
    failures = []
    total = max(len(stored), len(derived))
    for idx in range(total):
        if idx >= len(stored) or idx >= len(derived):
            failures.append({"params": {"line": idx + 1},
                             "lhs": stored[idx] if idx < len(stored) else "<missing>",
                             "rhs": derived[idx] if idx < len(derived) else "<missing>"})
            continue
        got, want = stored[idx], derived[idx]
        try:
            head, lhs_txt, rhs_txt = got.split("\t")
            i, j, k, L, M = map(int, head.split())
            ok = (parse_poly(lhs_txt) == keyid.lhs_g(i, j, k, L, M)
                  and parse_poly(rhs_txt) == keyid.rhs_p(i, j, k, L, M)
                  and got == want)
            params = {"i": i, "j": j, "k": k, "L": L, "M": M}
        except ValueError:
            ok = False
            params = {"line": idx + 1}
        if not ok:
            failures.append({"params": params, "lhs": got, "rhs": want})
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return SweepReport("golden", total, failures, elapsed_ms)


# ---------------------------------------------------------------------------
# command line entry point
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[int, int]:
    lo_txt, dots, hi_txt = text.partition("..")
    try:
        lo = int(lo_txt)
        return lo, int(hi_txt) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgollnitz",
        description="Sweep exact q-series identities and report mismatches.")
    # read "--i -2..4" as a value, as argparse already reads "--order -5"
    parser._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$")
    names = ", ".join(sorted(IDENTITIES))
    parser.add_argument("identity",
                        help=f"identity to sweep ({names}) or 'golden'")
    for name in _RANGE_FLAGS:
        parser.add_argument(f"--{name}", type=_parse_range, metavar="LO..HI",
                            help=f"inclusive range for parameter {name}")
    parser.add_argument("--order", type=int,
                        help="truncation order for series identities")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; sweeps run serially")
    parser.add_argument("--emit", action="store_true",
                        help="with 'golden': print the freshly derived corpus")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    ranges = {name: getattr(args, name) for name in _RANGE_FLAGS
              if getattr(args, name) is not None}
    try:
        if args.identity == "golden":
            if ranges or args.order is not None:
                raise UsageError("'golden' takes no range and no order")
            if args.jobs < 1:
                raise UsageError(f"jobs must be >= 1, got {args.jobs}")
            if not args.emit:
                report = run_golden()
        else:
            if args.emit:
                raise UsageError("--emit only goes with 'golden'")
            spec = SweepSpec(args.identity, ranges, args.order, args.jobs)
            report = run_sweep(spec)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.emit:
        out, status = (f"{line}\n" for line in golden_lines()), 0
    else:
        out, status = [render_report(report, args.format)], 0 if report.ok else 1
    try:
        for text in out:
            sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (say, `| head -1`).  As the Python docs
        # advise, point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
