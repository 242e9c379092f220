"""Ablation — resource-limit knobs the paper's design discussion raises.

* **Directory structure** (Section 4.1 picks pointer-based over full-map /
  limited directories): a limited directory forces sharer evictions whose
  invalidation traffic grows as the pointer budget shrinks.
* **Write-buffer capacity** (the paper assumes infinite): finite buffers
  re-introduce processor stalls under BC.
* **Hot-spot saturation**: the simulated Omega network's throughput under
  a hot spot tracks the Pfister–Norton bound the paper cites [18].
"""

from types import SimpleNamespace

import pytest

from conftest import fmt, print_table
from repro import Machine, MachineConfig
from repro.analysis import hotspot_saturation
from repro.network import Message, MessageType, NetworkParams, OmegaNetwork
from repro.sim import Simulator


def test_directory_limit(benchmark):
    def run(limit):
        cfg = MachineConfig(
            n_nodes=16, cache_blocks=256, cache_assoc=2, directory_limit=limit
        )
        m = Machine(cfg, protocol="wbi")
        addr = m.alloc_word()

        def reader(p):
            for _ in range(4):
                yield from p.read(addr)
                yield from p.compute(50)

        for i in range(16):
            m.spawn(reader(m.processor(i)))
        m.run()
        return m.sim.now, m.net.count_of(MessageType.INV)

    res = benchmark.pedantic(
        lambda: {str(l): run(l) for l in (None, 8, 4, 1)}, rounds=1, iterations=1
    )
    print_table(
        "Limited directory (16 readers of one block)",
        ["pointer limit", "completion", "INV messages"],
        [[k, fmt(v[0], 0), v[1]] for k, v in res.items()],
    )
    assert res["None"][1] == 0
    assert res["1"][1] > res["4"][1] > res["8"][1]
    benchmark.extra_info["results"] = {k: {"time": v[0], "invs": v[1]} for k, v in res.items()}


def test_write_buffer_capacity(benchmark):
    def run(capacity):
        cfg = MachineConfig(
            n_nodes=4, cache_blocks=64, cache_assoc=2, write_buffer_capacity=capacity
        )
        m = Machine(cfg, protocol="primitives")
        p = m.processor(0, consistency="bc")
        addrs = [m.alloc_word() for _ in range(20)]
        out = {}

        def w():
            t0 = p.sim.now
            for a in addrs:
                yield from p.shared_write(a, 1)
            out["issue"] = p.sim.now - t0
            yield from p.flush()

        m.spawn(w())
        m.run()
        return out["issue"]

    res = benchmark.pedantic(
        lambda: {str(c): run(c) for c in (None, 8, 2, 1)}, rounds=1, iterations=1
    )
    print_table(
        "Write-buffer capacity (20 buffered global writes)",
        ["capacity", "issue stall (cycles)"],
        [[k, fmt(v, 0)] for k, v in res.items()],
    )
    # Infinite buffer: issue time ~ 1 cycle per write.  Tiny buffers stall.
    assert res["None"] < res["2"] <= res["1"]
    benchmark.extra_info["results"] = res


def test_hotspot_saturation_tracks_pfister_norton(benchmark):
    """Drain-time degradation under a hot spot vs the 1/(1+h(N-1)) bound.

    With a fraction ``h`` of traffic aimed at node 0, the hot module's
    final-stage wire carries ``h + (1-h)/N`` of all messages, so the burst
    drains ``1/(N(h + (1-h)/N)) = 1/(1 + h(N-1))``-times as fast as a
    uniform burst — exactly the Pfister–Norton saturation factor.
    """
    import numpy as np

    def drain_time(hot, n=16, msgs_per_node=400, seed=12345):
        sim = Simulator()
        net = OmegaNetwork(sim, n, NetworkParams())
        last = [0.0]
        sink = SimpleNamespace(handle=lambda m: last.__setitem__(0, sim.now))
        for i in range(n):
            net.attach(i, dict.fromkeys(MessageType, sink))
        rng = np.random.default_rng(seed)
        for src in range(n):
            for _k in range(msgs_per_node):
                dst = 0 if rng.random() < hot else int(rng.integers(0, n))
                net.send(Message(src, dst, MessageType.READ_MISS))
        sim.run()
        return last[0]

    def measure():
        base = drain_time(0.0)
        return {h: base / drain_time(h) for h in (0.1, 0.2, 0.5)}

    rel = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [h, fmt(rel[h], 3), fmt(hotspot_saturation(16, h), 3)] for h in rel
    ]
    print_table(
        "Hot-spot drain-rate degradation (n=16)",
        ["h", "measured relative rate", "Pfister-Norton bound"],
        rows,
    )
    for h, r in rel.items():
        bound = hotspot_saturation(16, h)
        assert r < 1.0
        # Same order as the steady-state bound (the finite uniform burst
        # itself suffers some contention, lifting the measured ratio).
        assert bound < r < 2.0 * bound, h
    # Monotone: hotter spot, worse degradation.
    assert rel[0.5] < rel[0.2] < rel[0.1]
    benchmark.extra_info["measured"] = rel


def test_stencil_mesh_vs_omega(benchmark):
    from repro.workloads import run_stencil

    res = benchmark.pedantic(
        lambda: {
            net: run_stencil(16, network=net, points_per_node=8, sweeps=3).completion_time
            for net in ("omega", "mesh")
        },
        rounds=1,
        iterations=1,
    )
    print_table(
        "Stencil (neighbour-local) on omega vs mesh, n=16",
        ["network", "completion"],
        [[k, fmt(v, 0)] for k, v in res.items()],
    )
    # Neighbour-local traffic: the mesh is competitive (within 2x).
    assert res["mesh"] < 2 * res["omega"]
    benchmark.extra_info["results"] = res


def test_topology_vs_traffic_pattern(benchmark):
    """The full picture: the mesh is competitive on neighbour-local work
    (stencil) but the multistage network's uniform log-N distance pays on
    all-to-all work (the solver) at scale — why the paper targets
    multistage interconnects for general shared memory."""
    from repro.workloads import run_linsolver, run_stencil

    def run_all():
        out = {}
        for net in ("omega", "mesh"):
            out[("stencil", net)] = run_stencil(
                16, network=net, points_per_node=8, sweeps=3
            ).completion_time
            out[("solver", net)] = run_linsolver(
                16, "read-update", iterations=3, network=net,
                cache_blocks=256, cache_assoc=2,
            ).completion_time
        return out

    res = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [wl, fmt(res[(wl, "omega")], 0), fmt(res[(wl, "mesh")], 0),
         fmt(res[(wl, "mesh")] / res[(wl, "omega")], 2)]
        for wl in ("stencil", "solver")
    ]
    print_table(
        "Topology vs traffic pattern, n=16",
        ["workload", "omega", "mesh", "mesh/omega"],
        rows,
    )
    stencil_ratio = res[("stencil", "mesh")] / res[("stencil", "omega")]
    solver_ratio = res[("solver", "mesh")] / res[("solver", "omega")]
    # The mesh's relative standing is better on local traffic than on
    # all-to-all traffic.
    assert stencil_ratio < solver_ratio
    benchmark.extra_info["ratios"] = {"stencil": stencil_ratio, "solver": solver_ratio}
