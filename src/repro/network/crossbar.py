"""An ideal crossbar: contention only at destination ports.

Upper-bound comparator — the best any interconnect could do with the same
link speed, useful for isolating protocol overhead from network topology.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.core import Simulator
from .message import Message
from .topology import Interconnect, NetworkParams

__all__ = ["CrossbarNetwork"]


class CrossbarNetwork(Interconnect):
    """Full crossbar with per-destination output FIFOs (analytic)."""

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        super().__init__(sim, n_nodes, params)
        self._busy_until: List[float] = [0.0] * n_nodes

    def _route(self, msg: Message, flits: int, ch) -> None:
        service = self.params.switch_cycle * flits
        start = max(self.sim.now, self._busy_until[msg.dst])
        self.stats.observe("queueing", start - self.sim.now)
        depart = start + service
        self._busy_until[msg.dst] = depart
        if self.obs is not None:
            self.obs.instant(
                "route:crossbar",
                "net",
                msg.src,
                args={"queued": start - self.sim.now, "service": service},
                id=msg.msg_id,
            )
        self._deliver_after(msg, depart - self.sim.now)
