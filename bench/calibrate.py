"""Measure the benchmark's run-to-run spread and record the baseline.

From the repository root::

    python3 bench/calibrate.py [--runs 10] [--first-seed 1] [--out bench/calibration.json]
    python3 bench/calibrate.py --sensitivity [--runs 10]

Runs ``bench/run.py --trace 0`` once per seed on every workload (seeds
interleaved across workloads), then reports for each end-to-end metric
the median, the quartiles and the spread: the distance between the
quartiles as a share of the median.  A spread at or above a third of the
metric's bound in BENCHMARK.json is flagged, because a run that noisy
cannot tell a regression of that size from chance.  The exit code is 1
when a spread other than ``setup_s``'s reaches its bound, or when a run
was incorrect.

``--sensitivity`` checks instead that pacing does not hide a slowdown.
The pace process shares a CPU, and so its caches, with the measured code,
so a change that grows the working set could slow the pacer too and be
scaled away.  The check times a base of smoke fuzz runs alone and with
an injected extra cost of about a tenth of the base, once interpreter
bound and once memory bound (random gathers over a 64 MiB array),
alternating ``--runs`` pairs.  It reports how much the injected cost
raised raw CPU time (fastest run per side), how much it raised paced
time (medians), and how much it slowed the pacer's own kernel.  The exit
code is 1 when the paced rise differs from the raw rise by a third of
the ``cpu_s`` bound or more.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = ROOT  # import the bench package, not bench/ as a top level

from bench.compare import quartiles  # noqa: E402
from bench.run import environment  # noqa: E402

#: Smoke fuzz seeds in the sensitivity base: about a second of work.
BASE_SEEDS = range(1, 9)
#: The injected cost as a share of the base.
EXTRA_SHARE = 0.10
#: Words in the memory-bound extra's array: 64 MiB of int64.
MEMORY_WORDS = 8 << 20


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def sensitivity(pairs: int, bound: float) -> bool:
    """Run the pacing check in this process (see the module doc)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from bench.pace import PACE_REF_S, paced
    from bench.worker import pin_to_one_cpu
    from bench.workloads import run_fuzz

    pin_to_one_cpu()
    table = np.arange(MEMORY_WORDS, dtype=np.int64)
    picks = np.random.default_rng(0).integers(0, MEMORY_WORDS, size=1 << 16)

    def cpu_unit():
        acc = 0
        for i in range(20_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    def memory_unit():
        return int(table[picks].sum())

    def per_run_cost(unit) -> float:
        c0 = time.process_time()
        for _ in range(50):
            unit()
        return (time.process_time() - c0) / 50

    def base_cpu() -> float:
        c0 = time.process_time()
        for seed in BASE_SEEDS:
            run_fuzz(seed, True)
        return time.process_time() - c0

    base_cpu()  # warm: imports and first-call costs stay out of the pairs
    base = min(base_cpu() for _ in range(3))
    ok = True
    for kind, unit in (("cpu", cpu_unit), ("memory", memory_unit)):
        # Spread the extra cost over the base, one share after every
        # fuzz run, as a grown working set would be.
        per_seed = max(1, round(EXTRA_SHARE * base / per_run_cost(unit) / len(BASE_SEEDS)))

        def work(extra: int) -> None:
            for seed in BASE_SEEDS:
                run_fuzz(seed, True)
                for _ in range(extra):
                    unit()

        raw = {0: [], per_seed: []}
        scaled = {0: [], per_seed: []}
        kernel = {0: [], per_seed: []}
        for i in range(pairs):
            for extra in (0, per_seed)[:: 1 if i % 2 == 0 else -1]:
                _, _wall, cpu, ref = paced(work, extra)
                raw[extra].append(cpu)
                scaled[extra].append(ref)
                kernel[extra].append(PACE_REF_S * cpu / ref)

        def rise(values: dict, pick=statistics.median) -> float:
            return pick(values[per_seed]) / pick(values[0]) - 1

        # Raw CPU time is the truth only where no tenant slowed the run,
        # so its least-slowed run per side stands for it.
        nominal = per_seed * len(BASE_SEEDS) * per_run_cost(unit) / base
        gap = rise(scaled) - rise(raw, min)
        ok &= abs(gap) < bound / 3
        print(f"{kind:6s} extra: nominal +{nominal:.1%}, raw CPU +{rise(raw, min):.1%} "
              f"(fastest runs), paced +{rise(scaled):.1%} (medians, gap {gap:+.1%}), "
              f"pacer kernel {rise(kernel):+.1%}", flush=True)
    return ok


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="python3 bench/calibrate.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names, default=None)
    ap.add_argument("--out", default=None, help="write the baseline JSON here")
    ap.add_argument("--sensitivity", action="store_true",
                    help="check that pacing keeps an injected slowdown instead")
    args = ap.parse_args(argv)
    if args.sensitivity:
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "cpu_s")
        return 0 if sensitivity(args.runs, bound) else 1
    names = args.workload or names

    values = {name: {m["name"]: [] for m in spec["end_to_end"]} for name in names}
    elapsed = {name: [] for name in names}
    correct = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed[name].append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{name} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}",
                      file=sys.stderr)
                return 2
            line = json.loads(lines[-1])
            correct &= line["correct"]
            for metric, v in line["metrics"].items():
                values[name][metric].append(v["value"])
            print(f"{name} seed {seed}: {elapsed[name][-1]:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"env": environment(), "runs": args.runs, "first_seed": args.first_seed,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = correct
    for name in names:
        doc["workloads"][name] = {"elapsed_s": summary(elapsed[name])}
        for metric, vals in values[name].items():
            q = summary(vals)
            doc["workloads"][name][metric] = q
            flag = ""
            if q["spread"] >= bounds[metric] / 3:
                flag = "  <- spread at or above a third of the bound"
                if metric != "setup_s" and q["spread"] >= bounds[metric]:
                    ok = False
            print(f"{name:14s} {metric:12s} median {q['median']:.6g} "
                  f"[{q['q1']:.6g}, {q['q3']:.6g}] spread {q['spread']:.2%}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
