"""Run the whole benchmark and report how steady it is.

    python3 perfbench/steady.py

Runs two sets.  In each set, runs ``run.py`` once per workload and seed
(ten seeds per workload, different seeds in each set, workloads
interleaved), each for ``run_seconds`` from ``BENCHMARK.json``.  Then it
prints each end-to-end metric's median and quartiles, its spread (the
distance between the first and third quartile as a share of the median)
next to its bound, and how far the second set's median moved against the
first, counted positive when it got worse.  Last, it makes one traced run
per workload and prints every per-layer metric.  Raw results go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # seeds per workload and set
SETS = 2


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    results: dict = {"sets": [], "trace": {}}
    for s in range(SETS):
        runs = {w: [] for w in names}
        for r in range(RUNS):
            for w in names:
                seed = 1000 * s + r + 1
                out = run_once(w, seed, seconds, False)
                if not out["correct"]:
                    sys.exit(f"{w} seed {seed}: an output check failed")
                runs[w].append(out)
                print(f"set {s + 1} {w:12} seed {seed:5}  " + "  ".join(
                    f"{m['name']} {out['metrics'][m['name']]['value']:.4f}"
                    for m in metrics), flush=True)
        results["sets"].append(runs)

    print(f"\n{'workload':12} {'metric (unit)':20} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}" + "".join(
              f" {'set' + str(s + 1) + ' moved':>10}" for s in range(1, SETS)))
    for w in names:
        shares = {(r["failed"], r["attempted"]) for runs in results["sets"]
                  for r in runs[w]}
        for m in metrics:
            sets = [[r["metrics"][m["name"]]["value"] for r in runs[w]]
                    for runs in results["sets"]]
            med, q1, q3, share = spread(sets[0])
            sign = 1 if m["better"] == "lower" else -1
            moved = [sign * (statistics.median(v) - med) / med for v in sets[1:]]
            label = f"{m['name']} ({m['unit']})"
            print(f"{w:12} {label:20} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{share:7.3f} {m['bound']:6.2f}"
                  + "".join(f" {x:+10.3f}" for x in moved)
                  + "".join(f"\n{'':33} set {s + 2} spread "
                            f"{spread(v)[3]:.3f}" for s, v in enumerate(sets[1:])))
        failed_shares = {f / a for f, a in shares}
        print(f"{w:12} failed share {sorted(failed_shares)}")

    for w in names:
        results["trace"][w] = run_once(w, 1, seconds, True)
    print(f"\n{'per-layer metric':32}" + "".join(f" {w:>13}" for w in names))
    for m in spec["per_layer"]:
        print(f"{m['name'] + ' (' + m['unit'] + ')':32}" + "".join(
            f" {results['trace'][w]['metrics'][m['name']]['value']:13.6g}"
            for w in names))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
