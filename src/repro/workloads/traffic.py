"""Open-loop traffic frontend: demand -> policy -> service on one machine.

This is the assembly point of the three workload tiers.  A
:class:`TrafficWorkload` materializes a demand
:class:`~repro.workloads.demand.Schedule` (millions of logical clients
multiplexed into numpy arrays), places every request on a serving node via
a policy from :mod:`repro.workloads.policy`, and runs one *server process
per node* that consumes its arrival stream in batches against a service
from :mod:`repro.workloads.service`.

Per-request latency is ``batch-end - issue-time``: the time from the
logical client issuing the request (its schedule timestamp) to the serving
node completing the batch that contained it.  Latencies land in the
machine's deterministic histogram
(:class:`repro.system.metrics.LatencyHistogram`), so the p50/p95/p99/p999
columns of the rate sweep are bit-identical across repeats and simulator
kernels — the acceptance gate this module is named in.

Run it directly::

    python -m repro.workloads.traffic --rate-sweep

which prints a markdown tail-latency table (arrival rate x protocol) whose
top point multiplexes >= 1e6 distinct logical clients in a single run.
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import IO, List, Optional

import numpy as np

from ..sim.rng import block_reader
from ..sweep import derive_seed
from ..system.machine import Machine, MachineConfig
from .base import RunBuilder, WorkloadResult
from .demand import DemandParams, OpenLoopDemand, Schedule
from .policy import Placement, make_policy
from .service import make_service

__all__ = ["TrafficParams", "TrafficWorkload", "traffic_point", "main"]


@dataclass(slots=True)
class TrafficParams:
    """Full description of one traffic run (demand + policy + service)."""

    demand: DemandParams = field(default_factory=DemandParams)
    policy: str = "static-shard"
    service: str = "kv"
    lock_scheme: str = "cbl"
    consistency: str = "sc"
    #: Most requests one service batch may cover; hitting the cap counts
    #: as one saturated batch in the histogram's health counters.
    batch_cap: int = 64
    #: Protocol operations per batch (amortizes coherence traffic).
    ops_cap: int = 4
    #: Compute cycles charged per request (scales with batch size).
    service_cycles: float = 1.0
    read_ratio: float = 0.9

    def __post_init__(self) -> None:
        if self.batch_cap <= 0 or self.ops_cap <= 0:
            raise ValueError("batch_cap and ops_cap must be positive")
        if self.service_cycles < 0:
            raise ValueError("service_cycles must be >= 0")
        if not 0 <= self.read_ratio <= 1:
            raise ValueError("read_ratio must be in [0,1]")


class TrafficWorkload:
    """Serve one open-loop schedule on one machine.

    Construction is deterministic: the schedule is drawn from the
    machine-seeded ``"traffic:demand"`` stream, placement is a pure
    function of the schedule, and each server's batch loop consumes only
    its own ``node_stream(i, "traffic")``.
    """

    def __init__(self, machine: "Machine", params: Optional[TrafficParams] = None):
        self.machine = machine
        self.params = params or TrafficParams()
        p = self.params
        self.builder = RunBuilder(machine)
        self.service = make_service(
            p.service,
            machine,
            lock_scheme=p.lock_scheme,
            read_ratio=p.read_ratio,
            ops_cap=p.ops_cap,
        )
        self.schedule: Schedule = OpenLoopDemand(p.demand).build(
            machine.rng.stream("traffic:demand")
        )
        self.placement: Placement = make_policy(p.policy).place(
            self.schedule, machine.cfg.n_nodes
        )

    # -- the per-node server process ----------------------------------------
    def _server(self, proc, rows: np.ndarray):
        p = self.params
        m = self.machine
        sim = m.sim
        sched = self.schedule
        # The schedule stays one numpy array per column.  Memoryviews read
        # single issue times as Python floats and slice keys and clients
        # as Python-int sequences, so a batch makes no numpy call and no
        # Python object per request is built up front (that would cost
        # peak RSS).
        issue_at = memoryview(sched.issue_t[rows])
        keys = memoryview(sched.key[rows])
        clients = memoryview(sched.client[rows])
        coin = block_reader(m.rng.node_stream(proc.node_id, "traffic"))
        hist = m.latency_hist()
        serve_batch = self.service.serve_batch
        batch_cap = p.batch_cap
        service_cycles = p.service_cycles
        # proc.compute's accounting, inlined: a bare sleep charged to
        # compute_cycles, with no generator frame per call.
        counts = proc.stats.counters.counts
        i, n = 0, len(issue_at)
        while i < n:
            # Idle until the next unserved request has been issued.  The
            # float re-check absorbs rounding in now + (issue - now).
            while sim.now < issue_at[i]:
                d = issue_at[i] - sim.now
                counts["compute_cycles"] = counts.get("compute_cycles", 0) + int(d)
                yield d
            t0 = sim.now
            # Every served request was issued by an earlier batch start, so
            # searching [i, n) finds the same place as the whole array.
            backlog = bisect_right(issue_at, t0, i) - i
            hist.note_backlog(backlog)
            take = min(backlog, batch_cap)
            if take == batch_cap:
                hist.note_saturated()
            j = i + take
            yield from serve_batch(proc, coin, keys[i:j], clients[i:j])
            d = service_cycles * take
            if d > 0:
                counts["compute_cycles"] = counts.get("compute_cycles", 0) + int(d)
                yield d
            now = sim.now
            m.record_latencies([now - t for t in issue_at[i:j]])
            if m.obs is not None:
                m.obs.span(
                    f"serve:{self.service.kind}",
                    "traffic",
                    proc.node_id,
                    t0,
                    args={"batch": take, "backlog": backlog},
                )
            i = j

    # -- execution ----------------------------------------------------------
    def run(self, max_cycles: Optional[float] = 100_000_000) -> WorkloadResult:
        m = self.machine
        p = self.params
        for i in range(m.cfg.n_nodes):
            rows = self.placement.requests_of(i)
            if rows.size == 0:
                continue
            proc = m.processor(i, consistency=p.consistency)
            m.spawn(self._server(proc, rows), name=f"traffic-{i}")
        m.run_all(max_cycles)
        self.builder.add_sync(*self.service.sync_objects())
        self.builder.note(
            traffic={
                "process": p.demand.process,
                "rate": p.demand.rate,
                "policy": p.policy,
                "service": p.service,
                "requests": self.schedule.n_requests,
                "distinct_clients": self.schedule.distinct_clients(),
            }
        )
        served = m.latency_hist().total
        return self.builder.finish(tasks_done=int(served))


# --------------------------------------------------------------------------
# Sweep dispatch (JSON-in/JSON-out, resolvable by dotted path)
# --------------------------------------------------------------------------

def traffic_point(
    rate: float,
    horizon: float,
    process: str = "poisson",
    n_clients: int = 100_000,
    n_keys: int = 256,
    zipf_s: float = 1.1,
    policy: str = "static-shard",
    service: str = "kv",
    lock_scheme: str = "cbl",
    protocol: Optional[str] = None,
    consistency: str = "sc",
    n_nodes: int = 8,
    seed: int = 1,
    batch_cap: int = 64,
    ops_cap: int = 4,
    service_cycles: float = 1.0,
    read_ratio: float = 0.9,
) -> dict:
    """One traffic sample: tail latencies + health counters, JSON-safe."""
    if protocol is None:
        protocol = "primitives" if lock_scheme == "cbl" else "wbi"
    cfg = MachineConfig(n_nodes=n_nodes, cache_blocks=128, cache_assoc=2, seed=seed)
    with Machine(cfg, protocol=protocol) as machine:
        params = TrafficParams(
            demand=DemandParams(
                process=process,
                rate=rate,
                horizon=horizon,
                n_clients=n_clients,
                n_keys=n_keys,
                zipf_s=zipf_s,
            ),
            policy=policy,
            service=service,
            lock_scheme=lock_scheme,
            consistency=consistency,
            batch_cap=batch_cap,
            ops_cap=ops_cap,
            service_cycles=service_cycles,
            read_ratio=read_ratio,
        )
        wl = TrafficWorkload(machine, params)
        res = wl.run()
        lat = res.extra["latency"]
        info = res.extra["traffic"]
        return {
            "completion_time": res.completion_time,
            "messages": res.messages,
            "flits": res.flits,
            "served": res.tasks_done,
            "requests": info["requests"],
            "distinct_clients": info["distinct_clients"],
            "p50": lat["p50"],
            "p95": lat["p95"],
            "p99": lat["p99"],
            "p999": lat["p999"],
            "mean": lat["mean"],
            "backlog_peak": lat["backlog_peak"],
            "saturated_batches": lat["saturated_batches"],
        }


# --------------------------------------------------------------------------
# CLI: python -m repro.workloads.traffic --rate-sweep
# --------------------------------------------------------------------------

#: Default sweep: (aggregate rate req/cycle, arrival horizon cycles).  The
#: horizons shrink at low rates (the system reaches equilibrium quickly)
#: and stretch at the top so the final point multiplexes >= 1e6 distinct
#: logical clients out of the 4M-client population in one run.
DEFAULT_SWEEP = ((0.25, 32_000.0), (1.0, 8_000.0), (4.0, 25_000.0), (8.0, 150_000.0))
QUICK_SWEEP = ((0.25, 2_000.0), (2.0, 1_500.0))
DEFAULT_CLIENTS = 4_000_000


def _write_table(out: IO[str], rows: List[dict]) -> None:
    cols = [
        "rate", "protocol", "lock", "requests", "clients",
        "p50", "p95", "p99", "p999", "mean", "backlog", "saturated",
    ]
    out.write("| " + " | ".join(cols) + " |\n")
    out.write("|" + "---|" * len(cols) + "\n")
    for r in rows:
        out.write(
            "| {rate:g} | {protocol} | {lock} | {requests} | {clients} | "
            "{p50:g} | {p95:g} | {p99:g} | {p999:g} | {mean:.2f} | "
            "{backlog} | {saturated} |\n".format(**r)
        )


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.workloads.traffic",
        description="Open-loop service tail-latency sweep.",
    )
    ap.add_argument("--rate-sweep", action="store_true", help="run the default rate sweep")
    ap.add_argument("--quick", action="store_true", help="tiny sweep (CI smoke)")
    ap.add_argument("--rates", type=str, default=None,
                    help="comma-separated rate:horizon pairs, e.g. 0.5:4000,2:2000")
    ap.add_argument("--protocols", type=str, default="wbi,primitives")
    ap.add_argument("--lock", type=str, default=None,
                    help="lock scheme (default: cbl on primitives, ts on "
                         "writeupdate, tts otherwise)")
    ap.add_argument("--policy", type=str, default="static-shard")
    ap.add_argument("--service", type=str, default="kv")
    ap.add_argument("--process", type=str, default="poisson")
    ap.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    ap.add_argument("--n-keys", type=int, default=256)
    ap.add_argument("--n-nodes", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    if args.rates:
        sweep = []
        for pair in args.rates.split(","):
            rate_s, _, horizon_s = pair.partition(":")
            sweep.append((float(rate_s), float(horizon_s or 4000)))
        sweep = tuple(sweep)
    elif args.quick:
        sweep = QUICK_SWEEP
    else:
        sweep = DEFAULT_SWEEP
    if not args.rate_sweep and not args.rates:
        ap.error("nothing to do: pass --rate-sweep (optionally with --quick) or --rates")

    protocols = [s.strip() for s in args.protocols.split(",") if s.strip()]
    rows: List[dict] = []
    for rate, horizon in sweep:
        for protocol in protocols:
            # cbl is primitives-only hardware; tts spins on cached copies
            # and needs invalidations to wake, so writeupdate takes the
            # uncached ts lock.
            lock = args.lock or {
                "primitives": "cbl", "writeupdate": "ts"
            }.get(protocol, "tts")
            point = traffic_point(
                rate=rate,
                horizon=horizon,
                process=args.process,
                n_clients=args.clients,
                n_keys=args.n_keys,
                policy=args.policy,
                service=args.service,
                lock_scheme=lock,
                protocol=protocol,
                n_nodes=args.n_nodes,
                # Per-point seed: otherwise every rate re-scales the same
                # exponential draws and the rows are perfectly correlated.
                seed=derive_seed(args.seed, "traffic-cli", rate, horizon),
            )
            rows.append(
                {
                    "rate": rate,
                    "protocol": protocol,
                    "lock": lock,
                    "requests": point["requests"],
                    "clients": point["distinct_clients"],
                    "p50": point["p50"],
                    "p95": point["p95"],
                    "p99": point["p99"],
                    "p999": point["p999"],
                    "mean": point["mean"],
                    "backlog": point["backlog_peak"],
                    "saturated": point["saturated_batches"],
                }
            )
    sys.stdout.write(
        f"# Service tail latency ({args.service} service, {args.policy} policy, "
        f"{args.process} arrivals)\n\n"
    )
    _write_table(sys.stdout, rows)
    total_clients = max((r["clients"] for r in rows), default=0)
    sys.stdout.write(f"\nmax distinct logical clients in one run: {total_clients}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
