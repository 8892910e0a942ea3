"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --round R --mode MODE

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and a fixed ``PYTHONHASHSEED``.  MODE is ``setup`` (import and build
the inputs, then stop), ``sweep`` (time the workload's tasks with no
wrappers installed) or ``trace`` (the same with the span wrappers of
``spans.py`` installed).  It prints one JSON object:

- ``ready``: ``time.monotonic()`` when set-up ended, for the parent's
  set-up time (the clock is shared by all processes of the machine);
- ``sweep_s``, ``attempted``, ``failed``, ``peak_rss_kib``;
- ``oracle_failures``: names of output checks that did not match;
- in trace mode, ``layers`` (per-layer metrics) and ``spans``.
"""

import argparse
import json
import resource
import sys
import time

import workloads  # imports qgollnitz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "sweep", "trace"), default="sweep")
    args = parser.parse_args(argv)
    work = workloads.build(args.workload, args.seed, args.round)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import spans
    caches = spans.find_caches()
    warm = [f"{mod}.{c.__name__}" for mod, cs in caches.items() for c in cs
            if c.cache_info().currsize]
    if warm:
        raise RuntimeError(f"memo tables not empty before the sweep: {warm}")
    tracer = spans.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()

    start = time.perf_counter()
    results = [task() for task in work.tasks]
    sweep_s = time.perf_counter() - start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"ready": ready, "sweep_s": sweep_s, "peak_rss_kib": peak_rss_kib,
           "attempted": sum(a for a, _ in results),
           "failed": sum(f for _, f in results)}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics(caches)
        out["spans"] = tracer.table()
    if out["attempted"] != work.expected:
        raise RuntimeError(f"{args.workload}: attempted {out['attempted']} checks, "
                           f"the grid has {work.expected}")
    out["oracle_failures"] = work.verify()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
