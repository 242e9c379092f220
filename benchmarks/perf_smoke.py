#!/usr/bin/env python
"""Perf smoke: wall-clock throughput of the three protocols on omega.

Times one small lock-free workload (shared writes, neighbour reads, an
atomic counter, a hardware barrier per round) on each data protocol and
writes machine-readable timings to ``BENCH_PR3.json``.  Also reports —
informationally, never as a gate — the overhead of running the same
workload with the trace bus enabled, so a tracing-cost regression shows
up in the CI artifact history.

The PR4 section additionally measures the kernel fast path and the sweep
runner, writing before/after numbers to ``BENCH_PR4.json``:

* **kernel microbenchmark** — events/sec of the zero-delay-lane discipline
  vs. the heap-only discipline on a large calendar of message-style
  processes (the regime protocol simulations live in);
* **machine workload** — the same protocol smoke, both disciplines;
* **sweep** — wall-clock of a small figure sweep cold vs. re-run against
  the on-disk result cache.

The gates are *ratios* measured in the same process on the same machine
(fast vs. heap, cold vs. cached), so they are load- and hardware-
independent; ``--check-floors`` re-reads the JSON and fails CI when a
ratio regresses below its pinned floor.

The PR8 section times the traffic frontend's demand generator (the
open-loop schedule builder: arrivals + client multiplexing + Zipf keys
for ~1M requests over a 2M-client population) and writes
``BENCH_PR8.json``.  Its gate is an *absolute* requests/sec floor —
deliberately set an order of magnitude below the measured rate, so it
only fires if schedule building falls off the vectorized path (e.g. a
per-request python loop sneaking in), not on runner load.

The PR9 section is a per-layer microbenchmark suite writing
``BENCH_PR9.json``:

* **kernel drain** — events/sec draining a prefilled same-instant burst
  over deep ballast, heap vs. fast discipline.  This isolates the batched
  dispatch loop (what PR9 optimized) from event *creation* (a workload-
  side cost both disciplines share); gate: batched/heap >= 3x.
* **vectorized rounds** — references/sec compiling sync-model task plans,
  numpy builder vs. the scalar referee; gate: >= 4x.
* **quick report** — wall-clock of one cold ``--quick`` report
  regeneration, gated by a deliberately generous absolute ceiling so only
  an algorithmic cliff (not runner load) can trip it.

Run:  python benchmarks/perf_smoke.py [--out BENCH_PR3.json]
                                      [--pr4-out BENCH_PR4.json]
                                      [--pr8-out BENCH_PR8.json]
                                      [--pr9-out BENCH_PR9.json]
      python benchmarks/perf_smoke.py --check-floors BENCH_PR4.json
      python benchmarks/perf_smoke.py --check-floors BENCH_PR8.json
      python benchmarks/perf_smoke.py --check-floors BENCH_PR9.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import HWBarrier, Machine, MachineConfig, ObsParams  # noqa: E402

N_NODES = 8
ROUNDS = 12
REPEATS = 3
PROTOCOLS = ("wbi", "primitives", "writeupdate")

# Pinned ratio floors for the PR4 gates (see module docstring).
KERNEL_SPEEDUP_FLOOR = 1.5
SWEEP_CACHED_SPEEDUP_FLOOR = 3.0

# Absolute floor for the PR8 demand-generator gate: measured ~2-7M req/s;
# the floor is >10x below that so it only catches algorithmic regressions.
DEMAND_THROUGHPUT_FLOOR = 200_000.0

# PR9 gates: batched drain loop vs. heap referee (measured ~4.5x), numpy
# round compilation vs. the scalar referee (measured >10x at coarse grain),
# and a generous absolute ceiling on one cold --quick report regeneration.
KERNEL_BATCHED_SPEEDUP_FLOOR = 3.0
ROUNDS_VECTOR_SPEEDUP_FLOOR = 4.0
REPORT_QUICK_WALL_CEILING = 600.0


def run_once(protocol: str, obs: ObsParams | None = None, fast_path: bool | None = None):
    """One run; returns (completion_cycles, wall_seconds, sim_events)."""
    cfg = MachineConfig(n_nodes=N_NODES, seed=5, network="omega", obs=obs)
    machine = Machine(cfg, protocol=protocol, fast_path=fast_path)
    bar = HWBarrier(machine, n=N_NODES)
    slots = [machine.alloc_word() for _ in range(N_NODES)]
    ctr = machine.alloc_word()

    def worker(proc, t):
        for r in range(ROUNDS):
            yield from proc.compute(10)
            yield from proc.shared_write(slots[t], r + 1)
            yield from proc.shared_read(slots[(t + 1) % N_NODES])
            yield from proc.rmw(ctr, "fetch_add", 1)
            yield from proc.barrier(bar)

    for t in range(N_NODES):
        proc = machine.processor(t, consistency="sc")
        machine.spawn(worker(proc, t), name=f"smoke-{t}")
    t0 = time.perf_counter()
    machine.run_all()
    wall = time.perf_counter() - t0
    return machine.metrics().completion_time, wall, machine.sim.events_processed


def measure(protocol: str, obs: ObsParams | None = None, fast_path: bool | None = None) -> dict:
    """Best-of-REPEATS timing for one configuration."""
    best = None
    for _ in range(REPEATS):
        cycles, wall, events = run_once(protocol, obs=obs, fast_path=fast_path)
        if best is None or wall < best[1]:
            best = (cycles, wall, events)
    cycles, wall, events = best
    return {
        "bench": protocol + ("+trace" if obs is not None else ""),
        "cycles": cycles,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


# --------------------------------------------------------------- PR4 section


def kernel_microbench(
    fast: bool, ballast: int = 2048, burst: int = 64, rounds: int = 500
) -> dict:
    """Pure-kernel events/sec in the regime the zero-delay lane targets:
    bursts of same-instant events processed while the calendar holds a deep
    backlog of future timeouts (``ballast`` — outstanding protocol timeout
    guards, in a real run).  Every zero-delay push/pop the heap discipline
    performs is O(log ballast); the lane makes them O(1)."""
    from repro.sim.core import Simulator

    def driver(sim):
        for _ in range(rounds):
            for _ in range(burst):
                sim.timeout(0)
            yield sim.timeout(1)

    best = None
    for _ in range(REPEATS):
        sim = Simulator(fast_path=fast)
        for i in range(ballast):
            sim.timeout(10**9 + i)
        sim.process(driver(sim))
        t0 = time.perf_counter()
        sim.run(until=rounds + 2)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, sim.events_processed)
    wall, events = best
    return {
        "ballast": ballast,
        "burst": burst,
        "rounds": rounds,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


def sweep_bench() -> dict:
    """The full ``python -m repro.experiments`` sweep three ways: serial
    cold (the pre-PR driver), parallel cold against a fresh cache, and a
    cached re-run.  The gate is serial-cold vs. cached (load-independent);
    the parallel-cold number records what the worker pool alone buys on
    this runner's core count."""
    import io

    from repro.experiments import run_report
    from repro.sweep import SweepStats, default_jobs

    def timed(**kw):
        stats = SweepStats()
        t0 = time.perf_counter()
        run_report(io.StringIO(), stats=stats, **kw)
        return time.perf_counter() - t0, stats

    cache = tempfile.mkdtemp(prefix="bench-sweep-cache-")
    try:
        serial_wall, serial = timed(jobs=1, use_cache=False)
        parallel_wall, parallel = timed(jobs=default_jobs(), cache_dir=cache)
        cached_wall, cached = timed(jobs=default_jobs(), cache_dir=cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    assert cached.hits == cached.total, "warm re-run recomputed points"
    return {
        "points": serial.total,
        "jobs": parallel.jobs,
        "serial_cold_seconds": serial_wall,
        "parallel_cold_seconds": parallel_wall,
        "cached_seconds": cached_wall,
        "parallel_speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "cached_speedup": serial_wall / cached_wall if cached_wall > 0 else float("inf"),
    }


def run_pr4(out_path: str) -> dict:
    """Measure the PR4 before/after set and write ``BENCH_PR4.json``."""
    kb_heap = kernel_microbench(fast=False)
    kb_fast = kernel_microbench(fast=True)
    kernel_speedup = (
        kb_fast["events_per_sec"] / kb_heap["events_per_sec"]
        if kb_heap["events_per_sec"] > 0 else 0.0
    )
    mw_heap = measure("primitives", fast_path=False)
    mw_fast = measure("primitives", fast_path=True)
    machine_speedup = (
        mw_fast["events_per_sec"] / mw_heap["events_per_sec"]
        if mw_heap["events_per_sec"] > 0 else 0.0
    )
    sweep = sweep_bench()
    doc = {
        "kernel_microbench": {
            "before_heap": kb_heap,
            "after_fast": kb_fast,
            "speedup": kernel_speedup,
        },
        "machine_workload": {
            "before_heap": {k: mw_heap[k] for k in ("wall_seconds", "events_per_sec")},
            "after_fast": {k: mw_fast[k] for k in ("wall_seconds", "events_per_sec")},
            "speedup": machine_speedup,
        },
        "sweep": sweep,
        "floors": {
            "kernel_speedup_min": KERNEL_SPEEDUP_FLOOR,
            "sweep_cached_speedup_min": SWEEP_CACHED_SPEEDUP_FLOOR,
        },
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(
        f"kernel fast path: {kb_fast['events_per_sec']:,.0f} ev/s vs "
        f"{kb_heap['events_per_sec']:,.0f} heap = {kernel_speedup:.2f}x "
        f"(floor {KERNEL_SPEEDUP_FLOOR}x)"
    )
    print(
        f"machine workload: {machine_speedup:.2f}x events/sec (informational)"
    )
    print(
        f"sweep ({sweep['points']} points): serial cold "
        f"{sweep['serial_cold_seconds']:.1f}s, parallel cold "
        f"{sweep['parallel_cold_seconds']:.1f}s ({sweep['jobs']} jobs, "
        f"{sweep['parallel_speedup']:.2f}x), cached "
        f"{sweep['cached_seconds']:.2f}s ({sweep['cached_speedup']:.1f}x, "
        f"floor {SWEEP_CACHED_SPEEDUP_FLOOR}x)"
    )
    print(f"wrote {out_path}")
    return doc


def demand_bench() -> dict:
    """Demand-generator throughput: requests/sec of the open-loop schedule
    builder (arrivals, client multiplexing, Zipf keys) at million-request
    scale.  Best of ``REPEATS`` runs — the gate is about the vectorized
    path staying vectorized, not about runner load."""
    import numpy as np

    from repro.workloads.demand import DemandParams, OpenLoopDemand

    params = DemandParams(
        process="poisson",
        rate=20.0,
        horizon=50_000.0,
        n_clients=2_000_000,
        n_keys=1_024,
    )
    dem = OpenLoopDemand(params)
    dem.build(np.random.default_rng(0))  # warm numpy / allocators
    best = float("inf")
    requests = 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sched = dem.build(np.random.default_rng(1))
        best = min(best, time.perf_counter() - t0)
        requests = sched.n_requests
    return {
        "requests": requests,
        "n_clients": params.n_clients,
        "wall_seconds": best,
        "requests_per_sec": requests / best if best > 0 else 0.0,
    }


def run_pr8(out_path: str) -> dict:
    """Measure the PR8 traffic-frontend set and write ``BENCH_PR8.json``."""
    demand = demand_bench()
    doc = {
        "demand_generator": demand,
        "floors": {
            "demand_requests_per_sec_min": DEMAND_THROUGHPUT_FLOOR,
        },
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(
        f"demand generator: {demand['requests']:,} requests over "
        f"{demand['n_clients']:,} clients in {demand['wall_seconds']:.3f}s = "
        f"{demand['requests_per_sec']:,.0f} req/s "
        f"(floor {DEMAND_THROUGHPUT_FLOOR:,.0f})"
    )
    print(f"wrote {out_path}")
    return doc


# --------------------------------------------------------------- PR9 section


def kernel_drain_bench(fast: bool, n_events: int = 100_000, ballast: int = 8192) -> dict:
    """Drain-loop events/sec for one calendar discipline (``fast`` or heap).

    The calendar is prefilled with ``n_events`` same-instant zero-delay
    timeouts over ``ballast`` far-future guards, then ``run(until=0)`` is
    timed.  Creation happens before the clock starts, so this measures
    exactly the dispatch loop the batched kernel rewrote; the heap
    discipline pays an O(log ballast) pop per event where the lane pays a
    ``popleft``."""
    from repro.sim.core import Simulator

    best = None
    for _ in range(REPEATS):
        sim = Simulator(fast_path=fast)
        for i in range(ballast):
            sim.timeout(10**9 + i)
        for _ in range(n_events):
            sim.timeout(0)
        t0 = time.perf_counter()
        sim.run(until=0)
        wall = time.perf_counter() - t0
        assert sim.events_processed == n_events
        if best is None or wall < best:
            best = wall
    return {
        "fast": fast,
        "events": n_events,
        "ballast": ballast,
        "wall_seconds": best,
        "events_per_sec": n_events / best if best > 0 else 0.0,
    }


def rounds_bench(grain: int = 200, tasks: int = 400) -> dict:
    """Round-compilation references/sec: numpy round compiler vs. the
    scalar referee, both fed the *same* pre-drawn inputs.  The RNG draws
    are deliberately outside the timed region — both paths must consume
    bit-identical draw streams (REPORT byte-identity), so draw cost is a
    shared constant; the gate measures the per-round state-update
    computation that PR9 actually vectorized.  Grain 200 is the paper's
    coarse setting, where the Fig 4-7 sweeps spend their time."""
    import numpy as np

    from repro.workloads.rounds import (
        RoundScratch,
        _compile_sync_round,
        _compile_sync_round_scalar,
        build_sync_task_plan,
        build_sync_task_plan_scalar,
    )
    from repro.workloads.syncmodel import SyncModelParams

    params = SyncModelParams(grain_size=grain)
    shared = np.arange(100, 100 + params.n_shared_blocks, dtype=np.int64)
    wpb = 8
    scratch = RoundScratch(params, shared, wpb)

    rng = np.random.default_rng(7)
    drawn = [
        (
            rng.random((grain, 3)),
            rng.integers(0, params.n_shared_blocks, size=grain),
            rng.integers(0, wpb, size=grain),
        )
        for _ in range(tasks)
    ]

    def timed(compile_one) -> float:
        best = None
        for _ in range(REPEATS):
            last = fresh = 10_000
            t0 = time.perf_counter()
            for d, b, o in drawn:
                plan, last, fresh = compile_one(d, b, o, last, fresh)
            wall = time.perf_counter() - t0
            if best is None or wall < best:
                best = wall
        return best

    # Referee sanity: identical plans from identical draws, every task.
    rng_v = np.random.default_rng(3)
    rng_s = np.random.default_rng(3)
    lv = fv = ls = fs = 10_000
    for _ in range(5):
        pv, lv, fv = build_sync_task_plan(params, shared, wpb, rng_v, lv, fv, scratch)
        ps, ls, fs = build_sync_task_plan_scalar(params, shared, wpb, rng_s, ls, fs)
        assert pv == ps and (lv, fv) == (ls, fs), "plan builders diverged"

    scalar_wall = timed(
        lambda d, b, o, last, fresh: _compile_sync_round_scalar(
            params, shared, wpb, d, b, o, last, fresh
        )
    )
    vector_wall = timed(
        lambda d, b, o, last, fresh: _compile_sync_round(wpb, d, b, o, last, fresh, scratch)
    )
    refs = grain * tasks
    return {
        "grain": grain,
        "tasks": tasks,
        "refs": refs,
        "scalar_wall_seconds": scalar_wall,
        "vector_wall_seconds": vector_wall,
        "scalar_refs_per_sec": refs / scalar_wall if scalar_wall > 0 else 0.0,
        "vector_refs_per_sec": refs / vector_wall if vector_wall > 0 else 0.0,
        "speedup": scalar_wall / vector_wall if vector_wall > 0 else 0.0,
    }


def report_quick_bench() -> dict:
    """One cold ``--quick`` report regeneration, wall-clock."""
    import io

    from repro.experiments import run_report
    from repro.sweep import default_jobs

    t0 = time.perf_counter()
    run_report(io.StringIO(), quick=True, jobs=default_jobs(), use_cache=False)
    wall = time.perf_counter() - t0
    return {"quick": True, "jobs": default_jobs(), "wall_seconds": wall}


def run_pr9(out_path: str) -> dict:
    """Measure the PR9 per-layer set and write ``BENCH_PR9.json``."""
    drain = {"heap": kernel_drain_bench(False), "fast": kernel_drain_bench(True)}
    batched_speedup = (
        drain["fast"]["events_per_sec"] / drain["heap"]["events_per_sec"]
        if drain["heap"]["events_per_sec"] > 0 else 0.0
    )
    rounds = rounds_bench()
    report = report_quick_bench()
    doc = {
        "kernel_batched": {
            "drain": drain,
            "speedup": batched_speedup,
        },
        "vectorized_rounds": rounds,
        "report_quick": report,
        "floors": {
            "kernel_batched_speedup_min": KERNEL_BATCHED_SPEEDUP_FLOOR,
            "rounds_vector_speedup_min": ROUNDS_VECTOR_SPEEDUP_FLOOR,
            "report_quick_wall_max": REPORT_QUICK_WALL_CEILING,
        },
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(
        f"kernel drain: fast {drain['fast']['events_per_sec']:,.0f} ev/s, heap "
        f"{drain['heap']['events_per_sec']:,.0f} ev/s -> batched "
        f"{batched_speedup:.2f}x (floor {KERNEL_BATCHED_SPEEDUP_FLOOR}x)"
    )
    print(
        f"vectorized rounds: {rounds['vector_refs_per_sec']:,.0f} refs/s vs "
        f"{rounds['scalar_refs_per_sec']:,.0f} scalar = "
        f"{rounds['speedup']:.2f}x (floor {ROUNDS_VECTOR_SPEEDUP_FLOOR}x)"
    )
    print(
        f"quick report: {report['wall_seconds']:.1f}s "
        f"(ceiling {REPORT_QUICK_WALL_CEILING:.0f}s)"
    )
    print(f"wrote {out_path}")
    return doc


def check_floors(path: str) -> int:
    """CI gate: re-read a benchmark file and fail on a regressed floor.

    Dispatches on the document's keys, so the one flag validates
    ``BENCH_PR4.json`` (ratio floors), ``BENCH_PR8.json`` (absolute
    demand-generator throughput), and ``BENCH_PR9.json`` (batched-kernel
    and vectorized-rounds ratios plus the quick-report ceiling)."""
    with open(path) as fh:
        doc = json.load(fh)
    floors = doc["floors"]
    if "kernel_batched" in doc:
        failures = []
        k = doc["kernel_batched"]["speedup"]
        if k < floors["kernel_batched_speedup_min"]:
            failures.append(
                f"batched kernel drain speedup {k:.2f}x below floor "
                f"{floors['kernel_batched_speedup_min']}x"
            )
        r = doc["vectorized_rounds"]["speedup"]
        if r < floors["rounds_vector_speedup_min"]:
            failures.append(
                f"vectorized rounds speedup {r:.2f}x below floor "
                f"{floors['rounds_vector_speedup_min']}x"
            )
        w = doc["report_quick"]["wall_seconds"]
        if w > floors["report_quick_wall_max"]:
            failures.append(
                f"quick report took {w:.1f}s, over the "
                f"{floors['report_quick_wall_max']:.0f}s ceiling"
            )
        if failures:
            for f in failures:
                print(f"FLOOR VIOLATION: {f}", file=sys.stderr)
            return 1
        print(
            f"floors ok: batched kernel {k:.2f}x >= "
            f"{floors['kernel_batched_speedup_min']}x, vectorized rounds "
            f"{r:.2f}x >= {floors['rounds_vector_speedup_min']}x, quick "
            f"report {w:.1f}s <= {floors['report_quick_wall_max']:.0f}s"
        )
        return 0
    if "demand_generator" in doc:
        rps = doc["demand_generator"]["requests_per_sec"]
        if rps < floors["demand_requests_per_sec_min"]:
            print(
                f"FLOOR VIOLATION: demand generator {rps:,.0f} req/s below "
                f"floor {floors['demand_requests_per_sec_min']:,.0f}",
                file=sys.stderr,
            )
            return 1
        print(
            f"floors ok: demand generator {rps:,.0f} req/s >= "
            f"{floors['demand_requests_per_sec_min']:,.0f}"
        )
        return 0
    failures = []
    k = doc["kernel_microbench"]["speedup"]
    if k < floors["kernel_speedup_min"]:
        failures.append(
            f"kernel fast-path speedup {k:.2f}x below floor "
            f"{floors['kernel_speedup_min']}x"
        )
    s = doc["sweep"]["cached_speedup"]
    if s < floors["sweep_cached_speedup_min"]:
        failures.append(
            f"sweep cached speedup {s:.1f}x below floor "
            f"{floors['sweep_cached_speedup_min']}x"
        )
    if failures:
        for f in failures:
            print(f"FLOOR VIOLATION: {f}", file=sys.stderr)
        return 1
    print(
        f"floors ok: kernel {k:.2f}x >= {floors['kernel_speedup_min']}x, "
        f"sweep cached {s:.1f}x >= {floors['sweep_cached_speedup_min']}x"
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="BENCH_PR3.json", help="output JSON path")
    ap.add_argument(
        "--pr4-out", default="BENCH_PR4.json",
        help="fast-path/sweep benchmark output path ('' to skip)",
    )
    ap.add_argument(
        "--pr8-out", default="BENCH_PR8.json",
        help="demand-generator benchmark output path ('' to skip)",
    )
    ap.add_argument(
        "--pr9-out", default="BENCH_PR9.json",
        help="per-layer microbenchmark output path ('' to skip)",
    )
    ap.add_argument(
        "--check-floors", metavar="BENCH.json", default=None,
        help="validate an existing benchmark file (PR4/PR8/PR9) against its floors and exit",
    )
    args = ap.parse_args(argv)

    if args.check_floors is not None:
        return check_floors(args.check_floors)

    entries = [measure(p) for p in PROTOCOLS]
    traced = [measure(p, obs=ObsParams()) for p in PROTOCOLS]
    entries += traced

    rows = {e["bench"]: e for e in entries}
    print(f"{'bench':<20} {'cycles':>10} {'wall_s':>9} {'events/s':>12}")
    for e in entries:
        print(
            f"{e['bench']:<20} {e['cycles']:>10.0f} {e['wall_seconds']:>9.4f} "
            f"{e['events_per_sec']:>12.0f}"
        )
    for p in PROTOCOLS:
        base, tr = rows[p], rows[p + "+trace"]
        if base["wall_seconds"] > 0:
            ratio = tr["wall_seconds"] / base["wall_seconds"]
            print(f"tracing overhead on {p}: {100 * (ratio - 1):+.1f}% wall-clock")

    with open(args.out, "w") as fh:
        json.dump(entries, fh, indent=2)
    print(f"wrote {args.out} ({len(entries)} entries)")

    if args.pr4_out:
        run_pr4(args.pr4_out)
    if args.pr8_out:
        run_pr8(args.pr8_out)
    if args.pr9_out:
        run_pr9(args.pr9_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
