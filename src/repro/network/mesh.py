"""A 2D mesh interconnect with dimension-order (XY) routing.

A comparator beyond the paper: meshes were the other scalable topology of
the era (and won historically).  Unlike the Omega network's uniform
``log2 N`` stages, mesh distance varies with placement, so locality
matters.  Contention is modeled per directed link with the same analytic
FIFO-server scheme as :class:`~repro.network.omega.OmegaNetwork`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.core import Simulator
from .message import Message
from .topology import Interconnect, NetworkParams

__all__ = ["MeshNetwork", "mesh_dims", "xy_route"]


def mesh_dims(n_nodes: int) -> Tuple[int, int]:
    """Near-square (rows, cols) factorization for a power-of-two size."""
    if n_nodes <= 0 or n_nodes & (n_nodes - 1):
        raise ValueError(f"mesh size must be a positive power of two, got {n_nodes}")
    k = n_nodes.bit_length() - 1
    rows = 1 << (k // 2)
    return rows, n_nodes // rows


def xy_route(src: int, dst: int, rows: int, cols: int) -> List[Tuple[int, int]]:
    """Directed links (from_node, to_node) along the XY path src -> dst."""
    if not 0 <= src < rows * cols or not 0 <= dst < rows * cols:
        raise ValueError("src/dst out of range")
    links = []
    r, c = divmod(src, cols)
    dr, dc = divmod(dst, cols)
    while c != dc:  # X first
        nc = c + (1 if dc > c else -1)
        links.append((r * cols + c, r * cols + nc))
        c = nc
    while r != dr:  # then Y
        nr = r + (1 if dr > r else -1)
        links.append((r * cols + c, nr * cols + c))
        r = nr
    return links


class MeshNetwork(Interconnect):
    """2D mesh with per-link FIFO contention (analytic, infinite buffers)."""

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        super().__init__(sim, n_nodes, params)
        self.rows, self.cols = mesh_dims(n_nodes)
        self._busy_until: Dict[Tuple[int, int], float] = {}

    def _route(self, msg: Message, flits: int, ch) -> None:
        service = self.params.switch_cycle * flits
        t = self.sim.now
        links = xy_route(msg.src, msg.dst, self.rows, self.cols)
        queued = 0.0
        for link in links:
            start = self._busy_until.get(link, 0.0)
            if start < t:
                start = t
            else:
                queued += start - t
            depart = start + service
            self._busy_until[link] = depart
            t = depart
        self.stats.observe("queueing", queued)
        self.stats.counters.add("hops", len(links))
        if self.obs is not None:
            self.obs.instant(
                "route:mesh",
                "net",
                msg.src,
                args={"hops": len(links), "queued": queued, "transit": t - self.sim.now},
                id=msg.msg_id,
            )
        self._deliver_after(msg, t - self.sim.now)

    def hop_count(self, src: int, dst: int) -> int:
        return len(xy_route(src, dst, self.rows, self.cols))

    def uncontended_latency(self, src: int, dst: int, flits: int) -> int:
        """Store-and-forward latency over the XY path, idle network."""
        return self.hop_count(src, dst) * self.params.switch_cycle * flits
