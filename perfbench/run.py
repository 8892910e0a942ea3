"""Benchmark of qgollnitz's cold verification sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round of a workload runs in a fresh
single-threaded interpreter (``worker.py``) with the checkout's ``src`` on
``PYTHONPATH`` and ``PYTHONHASHSEED`` fixed, so its memo tables start empty,
as they do on every ``qgollnitz`` invocation.

With ``--trace 0`` the run first starts one untimed interpreter (it writes
the bytecode caches), then ``SETUP_PROBES`` interpreters that only set up,
then whole rounds while the next round is expected to end within S seconds
of the first probe (at least ``MIN_ROUNDS``).  It reports the end-to-end
metrics: ``setup_s``, the median over probes and rounds of the time from
starting an interpreter to its first timed call; ``sweep_s``, the median
round's wall time of all the workload's checks; ``peak_rss_mib``, the
median round's peak resident memory.

With ``--trace 1`` it runs one round without wrappers and one with the span
wrappers of ``spans.py``, and reports the per-layer metrics plus
``trace.overhead_s``, the traced sweep time minus the untraced one.  The
table of every span name goes to ``perfbench/out/``.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct`` (no check of the timed
sweeps failed and every output check against ``oracle.py`` matched),
``attempted`` and ``failed`` (checks of the timed sweeps) and ``metrics``.  A missing program or a failed round exits 1 or 2
without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 8
MIN_ROUNDS = 1
RUN_LIMIT_S = 170  # every run, traced or not, ends within this


class RoundFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, rnd: int, mode: str, deadline: float) -> dict:
    """Run one worker interpreter to its end and return its report, with
    ``setup_s`` and ``wall_s`` measured from here."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(rnd), "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} {mode} round {rnd} passed the "
                          f"{RUN_LIMIT_S} s limit") from None
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        raise RoundFailed(f"{workload} {mode} round {rnd} exited "
                          f"{proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    report["wall_s"] = wall_s
    return report


def measure(workload: str, seed: int, seconds: float, deadline: float):
    spawn(workload, seed, 0, "setup", deadline)  # writes bytecode caches
    start = time.monotonic()
    setups = [spawn(workload, seed, 0, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start + \
            statistics.median(r["wall_s"] for r in rounds) <= seconds:
        rounds.append(spawn(workload, seed, len(rounds), "sweep", deadline))
        setups.append(rounds[-1]["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(r["sweep_s"] for r in rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024,
    }
    return rounds, metrics


def trace(workload: str, seed: int, deadline: float):
    plain = spawn(workload, seed, 0, "sweep", deadline)
    traced = spawn(workload, seed, 1, "trace", deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["sweep_s"] - plain["sweep_s"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload}-{seed}.json").write_text(
        json.dumps(traced["spans"], indent=1) + "\n")
    return [plain, traced], metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgollnitz" / "__init__.py").is_file():
        print(f"error: no qgollnitz package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            rounds, values = trace(args.workload, args.seed, deadline)
        else:
            rounds, values = measure(args.workload, args.seed, args.seconds, deadline)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, BENCHMARK.json lists "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    mismatches = sorted({m for r in rounds for m in r["oracle_failures"]})
    for m in mismatches:
        print(f"oracle mismatch: {m}", file=sys.stderr)
    failed = sum(r["failed"] for r in rounds)
    if failed:
        print(f"{failed} checks of the timed sweeps failed", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds")
    for name, unit in units.items():
        print(f"  {name:32} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not mismatches and not failed,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
