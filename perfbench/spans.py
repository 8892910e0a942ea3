"""Per-layer tracing from outside the program.

A ``Tracer`` replaces public functions and methods of the qgollnitz modules
with wrappers that open a span on entry and close it on exit.  A span is
its name, its start and end (``time.perf_counter``) and its parent, the
span open below it on the stack.  Self time is a span's duration minus the
time its child spans cover.

The key grid opens millions of spans, so closed spans are not kept: each is
folded into its name's totals (calls, total seconds, self seconds) as it
closes, which gives the same self times as keeping them all.  Per-tuple
durations of sweeps are kept, for their percentiles.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import types
from time import perf_counter

# Span names of the per-layer metrics, with what each wraps.
METHODS = (
    ("qcore.mul", "qcore", "LaurentPoly", "__mul__"),
    ("qcore.add", "qcore", "LaurentPoly", "__add__"),
    ("qcore.series_mul", "qcore", "TruncSeries", "__mul__"),
    ("qcore.recip", "qcore", "TruncSeries", "recip"),
)
FUNCTIONS = (
    ("qcomb.qbinom", "qcomb", "qbinom"),
    ("qcomb.qmultinom", "qcomb", "qmultinom"),
    ("keyid.lhs_g", "keyid", "lhs_g"),
    ("keyid.rhs_p", "keyid", "rhs_p"),
    ("keyid.key_limit", "keyid", "key_limit_lhs"),
    ("keyid.key_limit", "keyid", "key_limit_rhs"),
    ("partcomb.staircase", "partcomb", "staircase_forward"),
    ("partcomb.staircase", "partcomb", "staircase_inverse"),
    ("partcomb.theorem1", "partcomb", "check_theorem1"),
    ("corollaries.poch_series", "corollaries", "poch_series"),
    ("corollaries.sides", "corollaries", "bounded_jtp_lhs"),
    ("corollaries.sides", "corollaries", "bounded_jtp_rhs"),
    ("corollaries.sides", "corollaries", "jtp_series"),
    ("corollaries.sides", "corollaries", "false_theta_sides"),
    ("corollaries.sides", "corollaries", "jacobi_cube_poly_sides"),
    ("corollaries.sides", "corollaries", "jacobi_cube_series"),
    ("corollaries.sides", "corollaries", "carl_poly_sides"),
    ("corollaries.sides", "corollaries", "carlitz_sides"),
    ("corollaries.sides", "corollaries", "four_param_sides"),
    ("cli.run_sweep", "cli", "run_sweep"),
)
GENERATORS = (
    ("partcomb.enum", "partcomb", "iter_type1"),
    ("partcomb.enum", "partcomb", "iter_type1_all"),
    ("partcomb.enum", "partcomb", "iter_type1_transformed"),
)
MODULES = ("qcore", "qcomb", "keyid", "partcomb", "corollaries", "cli")


def package_modules() -> list[types.ModuleType]:
    """The qgollnitz modules, imported."""
    import qgollnitz  # noqa: F401  (imports every module below)
    return [sys.modules[f"qgollnitz.{name}"] for name in MODULES]


def find_caches() -> dict[str, list]:
    """Every ``lru_cache`` found among each module's attributes, by module
    name, so a memo added or renamed later is still found."""
    return {mod.__name__.rsplit(".", 1)[1]:
            [obj for obj in vars(mod).values() if hasattr(obj, "cache_info")]
            for mod in package_modules()}


def memo_stats(caches: list) -> tuple[int, int, int]:
    """Summed (hits, misses, entries) of a module's memo tables."""
    infos = [c.cache_info() for c in caches]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


def _run_length(p) -> int:
    # length of a LaurentPoly's dense coefficient run
    return p.degree - p.valuation + 1 if p else 0


class Tracer:
    """Installs span wrappers on the package; ``uninstall`` restores it."""

    def __init__(self):
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {"qcore.mul.pairs": 0,
                                       "partcomb.type1.partitions": 0}
        self.tuple_s: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _close(self, frame, end):
        stack = self.stack
        stack.pop()
        dur = end - frame[1]
        agg = self.totals.get(frame[0])
        if agg is None:
            agg = self.totals[frame[0]] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[2]
        if stack:
            stack[-1][2] += dur
        return dur

    def span(self, name, fn, before=None, durations=None):
        """Wrap fn in a span called name.  before(*args) runs first, for
        counters; durations, if given, collects each call's duration."""
        stack = self.stack
        close = self._close

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = close(frame, perf_counter())
                if durations is not None:
                    durations.append(dur)
        return wrapper

    def generator_span(self, name, fn):
        """Wrap a generator function: each step of the generator is a span,
        and each item it yields is counted."""
        stack = self.stack
        close = self._close
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [name, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(frame, perf_counter())
                counts["partcomb.type1.partitions"] += 1
                yield item
        return wrapper

    # -- installing ---------------------------------------------------------

    def _replace(self, owners, old, new):
        # every module or class attribute bound to old, including names
        # other modules imported with ``from .x import y``
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is old:
                    self._undo.append((owner, attr, old))
                    setattr(owner, attr, new)

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in package_modules()}
        counts = self.counts

        def count_pairs(a, b):
            if isinstance(b, type(a)):
                la, lb = _run_length(a), _run_length(b)
                if la > 1 and lb > 1:
                    counts["qcore.mul.pairs"] += la * lb

        for name, mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            fn = vars(cls)[attr]
            before = count_pairs if name == "qcore.mul" else None
            self._replace([cls], fn, self.span(name, fn, before))
        for name, mod, attr in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._replace(mods.values(), fn, self.span(name, fn))
        for name, mod, attr in GENERATORS:
            fn = getattr(mods[mod], attr)
            self._replace(mods.values(), fn, self.generator_span(name, fn))
        identities = mods["cli"].IDENTITIES
        for key, spec in list(identities.items()):
            self._undo.append((identities, key, spec))
            identities[key] = dataclasses.replace(
                spec, check=self.span("cli.tuple", spec.check,
                                      durations=self.tuple_s))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, caches: dict[str, list]) -> dict[str, float]:
        """The per-layer metrics, by name.  Layers a workload never calls
        read 0."""
        def agg(name):
            return self.totals.get(name, (0, 0.0, 0.0))

        out: dict[str, float] = {}
        for name in ("qcore.mul", "qcore.add", "qcore.series_mul",
                     "qcore.recip", "qcomb.qbinom", "keyid.lhs_g"):
            out[f"{name}.calls"] = agg(name)[0]
        for name in ("qcore.mul", "qcore.add", "qcore.series_mul",
                     "qcore.recip", "qcomb.qbinom", "qcomb.qmultinom",
                     "keyid.lhs_g", "keyid.rhs_p", "keyid.key_limit",
                     "partcomb.enum", "partcomb.staircase",
                     "partcomb.theorem1", "corollaries.sides",
                     "cli.run_sweep"):
            out[f"{name}.self_s"] = agg(name)[2]
        out["corollaries.poch_series.calls"] = agg("corollaries.poch_series")[0]
        out.update(self.counts)
        for mod in ("qcomb", "keyid"):
            hits, misses, entries = memo_stats(caches[mod])
            out[f"{mod}.memo.hit_ratio"] = hits / (hits + misses) \
                if hits + misses else 0.0
            out[f"{mod}.memo.entries"] = entries
        if self.tuple_s:
            cuts = statistics.quantiles(self.tuple_s, n=100, method="inclusive")
            out["cli.tuple.p50_ms"] = cuts[49] * 1000
            out["cli.tuple.p99_ms"] = cuts[98] * 1000
        else:
            out["cli.tuple.p50_ms"] = out["cli.tuple.p99_ms"] = 0.0
        return out

    def table(self) -> dict[str, dict]:
        """Every span name's calls, total and self seconds."""
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())}
