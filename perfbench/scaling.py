"""Scaling series for later algorithmic work, timed once and not gated.

    python3 perfbench/scaling.py

Times ``check_theorem1(L, 3, 3, 3)`` at L = 8, 10, 12 and
``false_theta_sides(order)`` at orders 50 and 100.  Each point runs in a
fresh interpreter, so its memo tables start empty.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time

import run

POINTS = [("theorem1", 8), ("theorem1", 10), ("theorem1", 12),
          ("false-theta", 50), ("false-theta", 100)]


def point(kind: str, n: int) -> None:
    from qgollnitz import corollaries, partcomb
    start = time.perf_counter()
    if kind == "theorem1":
        ok = partcomb.check_theorem1(n, 3, 3, 3)
    else:
        lhs, rhs = corollaries.false_theta_sides(n)
        ok = lhs == rhs
    print(f"{time.perf_counter() - start:.3f} {ok}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", nargs=2, help=argparse.SUPPRESS)  # KIND N, in a child
    args = parser.parse_args(argv)
    if args.point:
        point(args.point[0], int(args.point[1]))
        return 0
    for kind, n in POINTS:
        proc = subprocess.run([sys.executable, __file__, "--point", kind, str(n)],
                              env=run.child_env(), capture_output=True, text=True,
                              check=True)
        seconds, ok = proc.stdout.split()
        print(f"{kind + ':' + str(n):18} {float(seconds):9.3f} s  holds: {ok}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
