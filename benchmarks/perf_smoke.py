#!/usr/bin/env python
"""Perf floors: in-process speed gates over the simulator's fast paths.

Everything lives in one table, :data:`FLOORS`.  A row names an optimized
path, the referee it is timed against, the kind of its gate and the
floor:

``ratio``     referee time over optimized time, measured in the same
              process on the same machine, must reach the floor; being a
              ratio, it does not depend on runner load or hardware;
``absolute``  a throughput (per second) must reach the floor, which sits
              an order of magnitude below the measured rate so that only
              an algorithmic cliff trips it;
``ceiling``   a wall-clock time (seconds) must stay at or under a
              deliberately generous ceiling, for the same reason;
``info``      recorded for the artifact history, never a gate.

Every timing is the best of ``REPEATS`` runs.  To lock in a new speedup,
add a row: a name, its referee, its optimized path, a kind and a floor.

Run:  python benchmarks/perf_smoke.py [--json perf-floors.json]

It prints one line per row, writes the result document to ``--json`` and
exits 1 if any gating row misses its floor.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)  # the rounds and latency rows time referees from tests/

from repro import HWBarrier, Machine, MachineConfig, ObsParams  # noqa: E402

N_NODES = 8
ROUNDS = 12
REPEATS = 3
PROTOCOLS = ("wbi", "primitives", "writeupdate")

Measurement = Tuple[float, dict]


def _best(run: Callable[[], float]) -> float:
    """Smallest of ``REPEATS`` timings."""
    return min(run() for _ in range(REPEATS))


# -------------------------------------------------------------- measurements


def _smoke_run(protocol: str, obs: Optional[ObsParams]) -> Tuple[float, float, int]:
    """One lock-free smoke run (shared writes, neighbour reads, an atomic
    counter, a hardware barrier per round); (cycles, wall, events)."""
    cfg = MachineConfig(n_nodes=N_NODES, seed=5, network="omega", obs=obs)
    machine = Machine(cfg, protocol=protocol)
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


@functools.lru_cache(maxsize=None)
def _smoke() -> dict:
    """Best-of-``REPEATS`` smoke timing per protocol, trace bus off and on."""
    out = {}
    for p in PROTOCOLS:
        for traced in (False, True):
            runs = [_smoke_run(p, ObsParams() if traced else None) for _ in range(REPEATS)]
            cycles, wall, events = min(runs, key=lambda r: r[1])
            out[p + ("+trace" if traced else "")] = {
                "cycles": cycles,
                "wall_seconds": wall,
                "events_per_sec": events / wall if wall > 0 else 0.0,
            }
    return out


def protocol_smoke() -> Measurement:
    """Slowest protocol's events/sec on the smoke workload."""
    runs = _smoke()
    return min(runs[p]["events_per_sec"] for p in PROTOCOLS), runs


def trace_overhead() -> Measurement:
    """Largest traced/untraced wall-clock ratio over the protocols."""
    runs = _smoke()
    ratios = {
        p: runs[p + "+trace"]["wall_seconds"] / runs[p]["wall_seconds"] for p in PROTOCOLS
    }
    return max(ratios.values()), ratios


def _kernel_speedup(fill: Callable, until: float) -> Measurement:
    """Heap-discipline time over fast-discipline time to run one calendar;
    both must process the same number of events."""
    from repro.sim.core import Simulator

    events = {}

    def timed(fast: bool) -> float:
        sim = Simulator(fast_path=fast)
        fill(sim)
        t0 = time.perf_counter()
        sim.run(until=until)
        wall = time.perf_counter() - t0
        events[fast] = sim.events_processed
        return wall

    heap, fast = _best(lambda: timed(False)), _best(lambda: timed(True))
    assert events[False] == events[True], "kernel disciplines processed different events"
    return heap / fast, {
        "events": events[True], "heap_wall_seconds": heap, "fast_wall_seconds": fast,
    }


def kernel_lane(ballast: int = 2048, burst: int = 64, rounds: int = 500) -> Measurement:
    """Bursts of same-instant events created and processed over a deep
    backlog of far-future timeouts (outstanding protocol timeout guards,
    in a real run): every zero-delay push and pop the heap discipline
    performs is O(log ballast); the zero-delay lane makes them O(1)."""

    def driver(sim):
        for _ in range(rounds):
            for _ in range(burst):
                sim.timeout(0)
            yield sim.timeout(1)

    def fill(sim):
        for i in range(ballast):
            sim.timeout(10**9 + i)
        sim.process(driver(sim))

    return _kernel_speedup(fill, until=rounds + 2)


def kernel_drain(n_events: int = 100_000, ballast: int = 8192) -> Measurement:
    """A prefilled same-instant burst drained over deep ballast.  Creation
    happens before the clock starts, so this times exactly the dispatch
    loop: a heap pop per event against the batched lane's ``popleft``."""

    def fill(sim):
        for i in range(ballast):
            sim.timeout(10**9 + i)
        for _ in range(n_events):
            sim.timeout(0)

    return _kernel_speedup(fill, until=0)


def process_sleep(n_procs: int = 32, sleeps: int = 2000) -> Measurement:
    """Processes sleeping one cycle at a time: ``yield sim.timeout(1)``
    builds a Timeout per sleep, a bare ``yield 1`` puts the process itself
    on the calendar.  Both must process the same number of events."""
    from repro.sim.core import Simulator

    def with_timeout(sim):
        for _ in range(sleeps):
            yield sim.timeout(1)

    def bare(sim):
        for _ in range(sleeps):
            yield 1

    events = {}

    def timed(body) -> float:
        sim = Simulator()
        for _ in range(n_procs):
            sim.process(body(sim))
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        events[body] = sim.events_processed
        return wall

    # Interleaved, best of three times as many runs as the other rows: the
    # runs are short, and a noisy host otherwise lands whole bursts on
    # one side.
    runs = [(timed(with_timeout), timed(bare)) for _ in range(3 * REPEATS)]
    referee, optimized = min(r for r, _ in runs), min(o for _, o in runs)
    assert events[with_timeout] == events[bare], "sleep spellings processed different events"
    n = events[bare]
    return referee / optimized, {
        "events": n,
        "timeout_ns_per_event": referee / n * 1e9,
        "bare_ns_per_event": optimized / n * 1e9,
    }


def latency_record(batches: int = 20_000, size: int = 4) -> Measurement:
    """The traffic server's per-batch latency step on ``size``-sample
    batches: the numpy recorder (``tests/system/latency_referee.py``) fed
    ``now - issue[i:j]`` as an array, against ``record_many`` fed a list
    built from a memoryview of the same issue times.  Both must build the
    same histogram."""
    import numpy as np

    from repro.system.metrics import LatencyHistogram
    from tests.system.latency_referee import record_many_numpy

    issue = np.sort(np.random.default_rng(4).random(batches * size) * 1e6)
    issue_at = memoryview(issue)
    # (i, j, now) per batch; ``now`` a Python float, as ``sim.now`` is.
    ends = [(i, i + size, issue_at[i + size - 1] + 7.0) for i in range(0, batches * size, size)]
    hists = {}

    def numpy_batches() -> float:
        h = hists["numpy"] = LatencyHistogram()
        t0 = time.perf_counter()
        for i, j, now in ends:
            record_many_numpy(h, now - issue[i:j])
        return time.perf_counter() - t0

    def list_batches() -> float:
        h = hists["list"] = LatencyHistogram()
        record = h.record_many
        t0 = time.perf_counter()
        for i, j, now in ends:
            record([now - t for t in issue_at[i:j]])
        return time.perf_counter() - t0

    # Interleaved, best of three times as many runs as the other rows (as
    # in process_sleep): the runs are short.
    runs = [(numpy_batches(), list_batches()) for _ in range(3 * REPEATS)]
    referee, optimized = min(r for r, _ in runs), min(o for _, o in runs)
    assert hists["numpy"] == hists["list"], "latency recorders built different histograms"
    return referee / optimized, {
        "batches": batches,
        "batch_size": size,
        "numpy_ns_per_batch": referee / batches * 1e9,
        "list_ns_per_batch": optimized / batches * 1e9,
    }


def scalar_draws(programs: int = 400) -> Measurement:
    """``gen_program`` drawing through numpy ``Generator`` scalar calls,
    against ``gen_program`` drawing through a ``ScalarReader`` over a
    generator on the same seed.  The generators are built before the
    clock starts; the reader's own construction is timed.  Both must
    draw the same programs."""
    import numpy as np

    from repro.sim.rng import ScalarReader
    from repro.verify.fuzz import gen_program

    drawn = {}

    def timed(side: str) -> float:
        gens = [np.random.default_rng(seed) for seed in range(programs)]
        t0 = time.perf_counter()
        if side == "reader":
            progs = [gen_program(ScalarReader(g)) for g in gens]
        else:
            progs = [gen_program(g) for g in gens]
        wall = time.perf_counter() - t0
        drawn[side] = progs
        return wall

    # Interleaved, best of three times as many runs as the other rows (as
    # in process_sleep): the runs are short.
    runs = [(timed("numpy"), timed("reader")) for _ in range(3 * REPEATS)]
    referee, optimized = min(r for r, _ in runs), min(o for _, o in runs)
    assert drawn["numpy"] == drawn["reader"], "the reader drew different programs"
    return referee / optimized, {
        "programs": programs,
        "numpy_us_per_program": referee / programs * 1e6,
        "reader_us_per_program": optimized / programs * 1e6,
    }


def cached_sweep() -> Measurement:
    """The full ``python -m repro.experiments`` sweep serial and cold,
    parallel and cold against a fresh cache, then re-run cached.  The gate
    is serial cold over cached; the parallel number records what the
    worker pool alone buys on this runner's core count."""
    from repro.experiments import run_report
    from repro.sweep import SweepStats, default_jobs

    def timed(**kw):
        stats = SweepStats()
        t0 = time.perf_counter()
        run_report(io.StringIO(), stats=stats, **kw)
        return time.perf_counter() - t0, stats

    cache = tempfile.mkdtemp(prefix="bench-sweep-cache-")
    try:
        serial, stats = timed(jobs=1, use_cache=False)
        parallel, _ = timed(jobs=default_jobs(), cache_dir=cache)
        cached, warm = timed(jobs=default_jobs(), cache_dir=cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    assert warm.hits == warm.total, "warm re-run recomputed points"
    return serial / cached, {
        "points": stats.total,
        "jobs": default_jobs(),
        "serial_cold_seconds": serial,
        "parallel_cold_seconds": parallel,
        "cached_seconds": cached,
    }


def rounds_compile(grain: int = 200, tasks: int = 400) -> Measurement:
    """Sync-model round compilation, numpy compiler vs the scalar referee,
    both fed the same pre-drawn inputs.  The draws stay outside the timed
    region: both paths must consume bit-identical draw streams, so their
    cost is a shared constant.  Grain 200 is the paper's coarse setting,
    where the Fig 4-7 sweeps spend their time."""
    import numpy as np

    from repro.workloads.rounds import RoundScratch, _compile_sync_round, build_sync_task_plan
    from repro.workloads.syncmodel import SyncModelParams
    from tests.workloads.round_referees import (
        build_sync_task_plan_scalar,
        compile_sync_round_scalar,
    )

    params = SyncModelParams(grain_size=grain)
    shared = np.arange(100, 100 + params.n_shared_blocks, dtype=np.int64)
    wpb = 8
    scratch = RoundScratch(params, shared, wpb)

    # Referee sanity: identical plans from identical draws, every task.
    rng_v, rng_s = np.random.default_rng(3), np.random.default_rng(3)
    lv = fv = ls = fs = 10_000
    for _ in range(5):
        pv, lv, fv = build_sync_task_plan(params, shared, wpb, rng_v, lv, fv, scratch)
        ps, ls, fs = build_sync_task_plan_scalar(params, shared, wpb, rng_s, ls, fs)
        assert pv == ps and (lv, fv) == (ls, fs), "plan builders diverged"

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
        last = fresh = 10_000
        t0 = time.perf_counter()
        for d, b, o in drawn:
            _, last, fresh = compile_one(d, b, o, last, fresh)
        return time.perf_counter() - t0

    def scalar_one(d, b, o, last, fresh):
        return compile_sync_round_scalar(params, shared, wpb, d, b, o, last, fresh)

    def vector_one(d, b, o, last, fresh):
        return _compile_sync_round(wpb, d, b, o, last, fresh, scratch)

    # Interleaved, best of 3 * REPEATS, as in process_sleep: timing every
    # scalar run before every numpy run let a loaded host's bursts land on
    # one side only.
    runs = [(timed(scalar_one), timed(vector_one)) for _ in range(3 * REPEATS)]
    scalar, vector = min(s for s, _ in runs), min(v for _, v in runs)
    refs = grain * tasks
    return scalar / vector, {
        "refs": refs,
        "scalar_refs_per_sec": refs / scalar,
        "vector_refs_per_sec": refs / vector,
    }


def demand_generator() -> Measurement:
    """Requests/sec of the open-loop schedule builder (arrivals, client
    multiplexing, Zipf keys) for ~1M requests over 2M clients."""
    import numpy as np

    from repro.workloads.demand import DemandParams, OpenLoopDemand

    dem = OpenLoopDemand(
        DemandParams(
            process="poisson", rate=20.0, horizon=50_000.0, n_clients=2_000_000, n_keys=1_024
        )
    )
    dem.build(np.random.default_rng(0))  # warm numpy / allocators
    requests = dem.build(np.random.default_rng(1)).n_requests

    def timed() -> float:
        t0 = time.perf_counter()
        dem.build(np.random.default_rng(1))
        return time.perf_counter() - t0

    wall = _best(timed)
    return requests / wall, {"requests": requests, "wall_seconds": wall}


def quick_report() -> Measurement:
    """Wall-clock of one cold ``--quick`` report regeneration."""
    from repro.experiments import run_report
    from repro.sweep import default_jobs

    t0 = time.perf_counter()
    run_report(io.StringIO(), quick=True, jobs=default_jobs(), use_cache=False)
    return time.perf_counter() - t0, {"jobs": default_jobs()}


# ------------------------------------------------------------------- floors


@dataclass(frozen=True)
class Floor:
    """One row of the floors table."""

    name: str
    referee: str
    optimized: str
    kind: str  # "ratio", "absolute", "ceiling" or "info"
    floor: Optional[float]
    unit: str
    measure: Callable[[], Measurement]

    def passes(self, value: float) -> bool:
        if self.kind == "ceiling":
            return value <= self.floor
        if self.kind in ("ratio", "absolute"):
            return value >= self.floor
        return True


FLOORS: Tuple[Floor, ...] = (
    Floor("protocol smoke", "none", "three protocols, 8 nodes on omega",
          "info", None, "ev/s", protocol_smoke),
    Floor("trace overhead", "trace bus off", "trace bus on",
          "info", None, "x", trace_overhead),
    Floor("fast kernel", "heap calendar", "zero-delay lane",
          "ratio", 1.5, "x", kernel_lane),
    Floor("batched drain", "heap calendar drain", "batched drain loop",
          "ratio", 3.0, "x", kernel_drain),
    Floor("process sleep", "32 processes, yield sim.timeout(1)", "yield 1",
          "ratio", 1.5, "x", process_sleep),
    Floor("latency record", "tests/system/latency_referee.py numpy recorder",
          "list batches, pure-Python pairwise sum", "ratio", 2.0, "x", latency_record),
    Floor("scalar draws", "gen_program over numpy Generator scalar calls",
          "gen_program over ScalarReader", "ratio", 1.05, "x", scalar_draws),
    Floor("cached sweep", "serial cold report sweep", "cached re-run",
          "ratio", 3.0, "x", cached_sweep),
    Floor("rounds compile", "tests/workloads/round_referees.py scalar compiler",
          "numpy round compiler", "ratio", 4.0, "x", rounds_compile),
    Floor("demand generator", "none", "open-loop schedule builder",
          "absolute", 200_000.0, "req/s", demand_generator),
    Floor("quick report", "none", "cold --quick report",
          "ceiling", 600.0, "s", quick_report),
)


def verdict(doc: dict) -> int:
    """0 if every gating row of :data:`FLOORS` meets its floor in the
    result document ``doc``, else 1.  The floors come from the table,
    never from the document; a gating row missing from it fails."""
    values = {r["name"]: r["value"] for r in doc["rows"]}
    failed = [
        row for row in FLOORS
        if row.kind != "info" and not (row.name in values and row.passes(values[row.name]))
    ]
    for row in failed:
        print(
            f"FLOOR VIOLATION: {row.name} = {values.get(row.name)} {row.unit}, "
            f"{row.kind} floor {row.floor:g}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--json", metavar="PATH", default=None, help="write the results here")
    args = ap.parse_args(argv)

    rows = []
    for row in FLOORS:
        value, detail = row.measure()
        gate = "" if row.kind == "info" else f"  ({row.kind} floor {row.floor:g})"
        print(f"{row.name:<18} {value:>14,.2f} {row.unit:<6}{gate}")
        rows.append({
            "name": row.name, "referee": row.referee, "optimized": row.optimized,
            "kind": row.kind, "floor": row.floor, "unit": row.unit,
            "value": value, "ok": row.passes(value), "detail": detail,
        })
    doc = {"rows": rows}
    code = verdict(doc)
    doc["ok"] = code == 0
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    print("floors ok" if code == 0 else "floors FAILED")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
