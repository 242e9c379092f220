"""Interconnect topologies: the paper's Omega network and its comparators.

:class:`LinkNetwork`
    The analytic model every infinite-buffer topology shares.  Each
    directed link is an unbounded FIFO server, so per-message departure
    times are computed *analytically* (``depart = max(arrive, busy_until)
    + service`` on every link of a static route) and no simulation process
    is spawned per message.  This is exact for FIFO store-and-forward with
    infinite buffers and makes the network model extremely cheap.  A
    topology is only a link count and a route of link indices:

    * :class:`OmegaNetwork` -- the paper's configuration, ``log2 N``
      stages of ``N`` wires, destination-tag routed;
    * :class:`BusNetwork` -- one shared split-phase bus, the classic
      small-multiprocessor interconnect: bandwidth does not grow with N;
    * :class:`CrossbarNetwork` -- an ideal crossbar, contended only at the
      destination port: the best any interconnect could do at the same
      link speed;
    * :class:`MeshNetwork` -- a 2D mesh with XY routing, one link per
      direction between neighbours, so distance (and locality) matters.

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
from .routing import mesh_dims, num_stages, omega_route, xy_route
from .topology import Interconnect, NetworkParams, _Channel

__all__ = [
    "LinkNetwork", "OmegaNetwork", "BusNetwork", "CrossbarNetwork", "MeshNetwork",
    "BufferedOmegaNetwork",
]


class LinkNetwork(Interconnect):
    """Analytic FIFO-link contention over a topology's static routes.

    A subclass names its ``topology`` and gives :meth:`link_count` and
    :meth:`links`, the route ``src -> dst`` as indices into ``_busy_until``.
    """

    #: Trace name: each routed message emits a ``route:<topology>`` instant.
    topology = ""

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        super().__init__(sim, n_nodes, params)
        # busy_until[link]: the time that link frees up.
        self._busy_until: List[float] = [0.0] * self.link_count(n_nodes)
        # Sum of every link's busy time: each message occupies each link of
        # its route for the same (integral) service time.
        self._busy_total = 0
        self._queueing = self.stats.tally("queueing")

    @staticmethod
    def link_count(n_nodes: int) -> int:
        """Number of links in an ``n_nodes`` network of this topology."""
        raise NotImplementedError

    @staticmethod
    def links(n_nodes: int, src: int, dst: int) -> Tuple[int, ...]:
        """Link indices of the route ``src -> dst``, in traversal order."""
        raise NotImplementedError

    def _route(self, msg: Message, flits: int, ch: _Channel) -> None:
        service = self.params.switch_cycle * flits
        now = t = self.sim.now
        # Routes are static per (src, dst): the channel keeps its route.
        route = ch.route
        if route is None:
            route = ch.route = self.links(self.n_nodes, msg.src, msg.dst)
        busy = self._busy_until
        queued = 0.0
        for i in route:
            start = busy[i]
            if start < t:
                start = t
            else:
                queued += start - t
            t = busy[i] = start + service
        hops = len(route)
        self._busy_total += service * hops
        self._queueing.observe(queued)
        counts = self._counts
        counts["stage_traversals"] = counts.get("stage_traversals", 0) + hops
        if self.obs is not None:
            self.obs.instant(
                f"route:{self.topology}",
                "net",
                msg.src,
                args={"stages": hops, "queued": queued, "transit": t - now},
                id=msg.msg_id,
            )
        if self.fault_plan is None:
            # _deliver_after without the spike hook, one frame less.
            self.sim._push(msg, t - now)
        else:
            self._deliver_after(msg, t - now)

    # -- reporting ----------------------------------------------------------
    def hop_count(self, src: int, dst: int) -> int:
        """Links on the route ``src -> dst``."""
        return len(self.links(self.n_nodes, src, dst))

    def uncontended_latency(self, src: int, dst: int, flits: int) -> int:
        """Store-and-forward latency of an f-flit message, idle network."""
        return self.hop_count(src, dst) * self.params.switch_cycle * flits

    def wire_utilization(self, until: Optional[float] = None) -> float:
        """Mean fraction of time the links were busy (0 with no links: a
        one-node Omega or mesh has none)."""
        horizon = self.sim.now if until is None else until
        if horizon <= 0 or not self._busy_until:
            return 0.0
        return self._busy_total / (horizon * len(self._busy_until))


@functools.cache
def _omega_links(n_nodes: int, src: int, dst: int) -> Tuple[int, ...]:
    # Routes are static, so every network of one size shares these tuples
    # (a fuzz campaign builds thousands of small machines).
    return tuple(stage * n_nodes + wire for stage, wire in enumerate(omega_route(src, dst, n_nodes)))


class OmegaNetwork(LinkNetwork):
    """Omega network with infinite switch buffers: link ``stage * N + wire``
    is the output wire ``wire`` of switch stage ``stage``."""

    topology = "omega"

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        super().__init__(sim, n_nodes, params)
        self.stages = num_stages(n_nodes)

    @staticmethod
    def link_count(n_nodes: int) -> int:
        return num_stages(n_nodes) * n_nodes

    links = staticmethod(_omega_links)


class BusNetwork(LinkNetwork):
    """One shared FIFO bus: every remote message crosses link 0."""

    topology = "bus"

    @staticmethod
    def link_count(n_nodes: int) -> int:
        return 1

    @staticmethod
    def links(n_nodes: int, src: int, dst: int) -> Tuple[int, ...]:
        return (0,)


class CrossbarNetwork(LinkNetwork):
    """Full crossbar: link ``dst`` is the destination's output port."""

    topology = "crossbar"

    @staticmethod
    def link_count(n_nodes: int) -> int:
        return n_nodes

    @staticmethod
    def links(n_nodes: int, src: int, dst: int) -> Tuple[int, ...]:
        return (dst,)


@functools.cache
def _mesh_link_ids(n_nodes: int) -> Dict[Tuple[int, int], int]:
    """Directed mesh link ``(from_node, to_node)`` -> its link index."""
    rows, cols = mesh_dims(n_nodes)
    ids: Dict[Tuple[int, int], int] = {}
    for a in range(n_nodes):
        r, c = divmod(a, cols)
        for nr, nc in ((r, c + 1), (r, c - 1), (r + 1, c), (r - 1, c)):
            if 0 <= nr < rows and 0 <= nc < cols:
                ids[a, nr * cols + nc] = len(ids)
    return ids


@functools.cache
def _mesh_links(n_nodes: int, src: int, dst: int) -> Tuple[int, ...]:
    ids = _mesh_link_ids(n_nodes)
    return tuple(ids[link] for link in xy_route(src, dst, *mesh_dims(n_nodes)))


class MeshNetwork(LinkNetwork):
    """2D mesh with dimension-order (XY) routing: one link per direction
    between each pair of neighbours."""

    topology = "mesh"

    @staticmethod
    def link_count(n_nodes: int) -> int:
        return len(_mesh_link_ids(n_nodes))

    links = staticmethod(_mesh_links)


class BufferedOmegaNetwork(Interconnect):
    """Omega network with finite per-wire buffers and backpressure.

    Each output wire of each stage is a bounded :class:`Store` drained by a
    dedicated switch process.  When a downstream buffer is full, the
    upstream server blocks holding its own wire — head-of-line blocking and
    tree saturation become observable, which is the point of the ablation.
    """

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
