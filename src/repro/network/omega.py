"""Multistage Omega interconnect with 2x2 switches.

Two variants:

:class:`OmegaNetwork`
    The paper's configuration — infinite switch buffers.  Because each
    output wire is then an unbounded FIFO server, per-message departure
    times can be computed *analytically* (``depart = max(arrive, busy_until)
    + service``), so no simulation processes are spawned per message.  This
    is exact for FIFO store-and-forward with infinite buffers and makes the
    network model extremely cheap.

:class:`BufferedOmegaNetwork`
    Finite per-port buffers with backpressure (an ablation the paper leaves
    open): each wire becomes a process-driven store-and-forward server and a
    full port blocks the upstream stage.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from ..sim.core import Simulator
from ..sim.resources import Store
from .message import Message
from .routing import num_stages, omega_route
from .topology import Interconnect, NetworkParams, _Channel

__all__ = ["OmegaNetwork", "BufferedOmegaNetwork"]


@functools.cache
def _busy_indices(n_nodes: int, src: int, dst: int) -> Tuple[int, ...]:
    """The route ``src -> dst`` as flat ``stage * n_nodes + wire`` indices
    into :class:`OmegaNetwork`'s ``_busy_until``.  Routes are static, so
    every network of one size shares these tuples (a fuzz campaign builds
    thousands of small machines)."""
    return tuple(stage * n_nodes + wire for stage, wire in enumerate(omega_route(src, dst, n_nodes)))


class OmegaNetwork(Interconnect):
    """Omega network with infinite switch buffers (analytic contention)."""

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        super().__init__(sim, n_nodes, params)
        self.stages = num_stages(n_nodes)
        # busy_until[stage * n_nodes + wire]: the time that output wire frees up.
        self._busy_until: List[float] = [0.0] * (self.stages * n_nodes)
        # Sum of every wire's busy time: each message occupies one wire per
        # stage for the same (integral) service time.
        self._busy_total = 0
        self._queueing = self.stats.tally("queueing")

    def _route(self, msg: Message, flits: int, ch: _Channel) -> None:
        service = self.params.switch_cycle * flits
        now = t = self.sim.now
        # Destination-tag routes are static per (src, dst): the channel keeps
        # its route as flat indices into ``_busy_until``.
        route = ch.route
        if route is None:
            route = ch.route = _busy_indices(self.n_nodes, msg.src, msg.dst)
        busy = self._busy_until
        queued = 0.0
        for i in route:
            start = busy[i]
            if start < t:
                start = t
            else:
                queued += start - t
            t = busy[i] = start + service
        self._busy_total += service * self.stages
        self._queueing.observe(queued)
        counts = self._counts
        counts["stage_traversals"] = counts.get("stage_traversals", 0) + self.stages
        if self.obs is not None:
            self.obs.instant(
                "route:omega",
                "net",
                msg.src,
                args={"stages": self.stages, "queued": queued, "transit": t - now},
                id=msg.msg_id,
            )
        if self.fault_plan is None:
            # _deliver_after without the spike hook, one frame less.
            self.sim._push(msg, t - now)
        else:
            self._deliver_after(msg, t - now)

    # -- reporting ----------------------------------------------------------
    def uncontended_latency(self, flits: int) -> int:
        """End-to-end latency of an f-flit message through an idle network."""
        return self.stages * self.params.switch_cycle * flits

    def wire_utilization(self, until: Optional[float] = None) -> float:
        """Mean fraction of time output wires were busy."""
        horizon = self.sim.now if until is None else until
        if horizon <= 0:
            return 0.0
        return self._busy_total / (horizon * self.stages * self.n_nodes)


class BufferedOmegaNetwork(Interconnect):
    """Omega network with finite per-wire buffers and backpressure.

    Each output wire of each stage is a bounded :class:`Store` drained by a
    dedicated switch process.  When a downstream buffer is full, the
    upstream server blocks holding its own wire — head-of-line blocking and
    tree saturation become observable, which is the point of the ablation.
    """

    HONORS_BUFFER_CAPACITY = True

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        super().__init__(sim, n_nodes, params)
        self.stages = num_stages(n_nodes)
        cap = self.params.buffer_capacity
        self._ports: List[Dict[int, Store]] = [dict() for _ in range(self.stages)]
        self._port_started: List[Dict[int, bool]] = [dict() for _ in range(self.stages)]
        self._cap = cap

    def _port(self, stage: int, wire: int) -> Store:
        store = self._ports[stage].get(wire)
        if store is None:
            store = Store(self.sim, capacity=self._cap, name=f"omega[{stage}][{wire}]")
            self._ports[stage][wire] = store
            self.sim.process(self._serve(stage, wire, store), name=f"omega-srv-{stage}-{wire}")
        return store

    def _route(self, msg: Message, flits: int, ch: _Channel) -> None:
        wires = ch.route
        if wires is None:
            wires = ch.route = omega_route(msg.src, msg.dst, self.n_nodes)
        entry = self._port(0, wires[0])
        self.sim.process(self._inject(entry, msg, wires, flits))

    def _inject(self, entry: Store, msg: Message, wires, flits: int):
        yield entry.put((msg, wires, flits))

    def _serve(self, stage: int, wire: int, store: Store):
        while True:
            msg, wires, flits = yield store.get()
            # Occupy this wire for the store-and-forward service time.
            yield self.params.switch_cycle * flits
            if self.obs is not None:
                self.obs.instant(
                    "hop:omega-buffered",
                    "net",
                    msg.src,
                    args={"stage": stage, "wire": wire},
                    id=msg.msg_id,
                )
            next_stage = stage + 1
            if next_stage >= self.stages:
                self.stats.counters.add("stage_traversals", self.stages)
                self._deliver_after(msg, 0)
            else:
                nxt = self._port(next_stage, wires[next_stage])
                # Blocks (holding this server) if the downstream buffer is full.
                yield nxt.put((msg, wires, flits))
