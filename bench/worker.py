"""One measured repetition of one workload, in a fresh interpreter.

The runner starts ``python3 -m bench.worker`` from the repository root,
with ``src`` on ``PYTHONPATH``.  The worker pins itself to one CPU, times
importing the workload's entry module (the set-up cost), runs the
workload once, and prints one JSON line: set-up seconds, the run's wall
and CPU seconds, its CPU seconds scaled to the reference host, peak RSS,
items, point records and layer counts.  Both the import and the run are
timed beside the pace process (:mod:`bench.pace`).  With ``--trace`` the
repetition runs unpaced under :class:`bench.tracer.Tracer` and the line
also carries the raw trace.  With ``--setup-only`` it stops after the
imports.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from bench.pace import paced
from bench.workloads import WORKLOADS

#: Warm re-runs behind ``sweep.cached_rerun_s`` (traced pass only).
CACHED_RERUNS = 5
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pin_to_one_cpu() -> None:
    """Keep the pace process and the workload on the same CPU: the
    slowdowns that tenants cause differ from CPU to CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def timed(fn, *args):
    """``(fn(*args), wall seconds, CPU seconds of this process)``."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - w0, time.process_time() - c0


def measure(name: str, seed: int, smoke: bool, trace: bool) -> dict:
    """Run ``name`` once in this process; the worker's JSON document."""
    wl = WORKLOADS[name]
    doc = {"trace": None}
    if not trace:
        outcome, doc["wall_s"], doc["cpu_s"], doc["ref_s"] = paced(wl.run, seed, smoke)
    else:
        from bench.tracer import Tracer

        # The traced report pass fills a result cache on the way, so the
        # warm re-runs after it measure what a cached regeneration costs.
        # The cache stays inside the benchmark's own directory.
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=BENCH_DIR) if wl.rerun_cached else None
        try:
            args = (seed, smoke, cache_dir) if cache_dir else (seed, smoke)
            tracer = Tracer().install()
            try:
                outcome, doc["wall_s"], doc["cpu_s"] = timed(wl.run, *args)
            finally:
                tracer.restore()
            doc["trace"] = tracer.raw()
            if cache_dir:
                cpus = []
                for _ in range(CACHED_RERUNS):
                    points, _wall, cpu = timed(wl.rerun_cached, cache_dir, smoke)
                    outcome.points += points
                    cpus.append(cpu)
                outcome.counts["sweep.cached_rerun_s"] = statistics.median(cpus)
        finally:
            if cache_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)
    doc.update(
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        items=outcome.items,
        points=outcome.points,
        counts=outcome.counts,
    )
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench.worker", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    *_, setup_s = paced(importlib.import_module, WORKLOADS[args.workload].entry)
    doc = {} if args.setup_only else measure(args.workload, args.seed, args.smoke, args.trace)
    doc["setup_s"] = setup_s
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
