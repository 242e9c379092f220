"""A single split-phase bus: the classic small-multiprocessor interconnect.

Every remote message serializes through one shared server.  Included as a
comparator to show why the paper targets multistage networks: bus service
time is flat per message but total bandwidth does not grow with N.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Simulator
from .message import Message
from .topology import Interconnect, NetworkParams

__all__ = ["BusNetwork"]


class BusNetwork(Interconnect):
    """One shared FIFO bus (analytic occupancy, infinite request queue)."""

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        super().__init__(sim, n_nodes, params)
        self._busy_until = 0.0
        self._busy_time = 0.0

    def _route(self, msg: Message, flits: int, ch) -> None:
        service = self.params.switch_cycle * flits
        start = max(self.sim.now, self._busy_until)
        self.stats.observe("queueing", start - self.sim.now)
        depart = start + service
        self._busy_until = depart
        self._busy_time += service
        if self.obs is not None:
            self.obs.instant(
                "route:bus",
                "net",
                msg.src,
                args={"queued": start - self.sim.now, "service": service},
                id=msg.msg_id,
            )
        self._deliver_after(msg, depart - self.sim.now)

    def utilization(self) -> float:
        """Fraction of elapsed time the bus was carrying flits."""
        return self._busy_time / self.sim.now if self.sim.now > 0 else 0.0
