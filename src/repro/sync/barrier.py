"""Barriers: the hardware (memory-counter) barrier and software comparators.

The hardware barrier matches Table 3's cost profile: each arrival is one
request plus one ack (``2(t_nw + t_m)``), and the last arriver triggers a
release fan-out of one message per participant with a directory touch
between sends (``2 t_nw + (n-1) t_D``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from ..coherence.base import HomeController, resolves
from ..network.message import BARRIER_ACK, BARRIER_ARRIVE, BARRIER_RELEASE, Message

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node

__all__ = ["HardwareBarrierEngine"]


class HardwareBarrierEngine(HomeController):
    """Hardware barrier support at both the arriving and home sides.

    Resilient mode (``node.resilience`` set): the participant polls the home
    with backoff until the *release* arrives, always under the same
    ``rseq``.  The home records its ``BARRIER_ACK`` — and, once the episode
    completes, the ``BARRIER_RELEASE`` — against that rseq, so each poll
    replays exactly what the participant is owed: a lost arrive, ack, or
    release is all recovered by the same mechanism, and a duplicated arrive
    can never double-count the barrier.
    """

    _PROCESS_NAME = "barrier-{addr}"

    def __init__(self, node: "Node"):
        super().__init__(node)
        #: (block, participant) -> its BARRIER_ARRIVE message, kept until
        #: the release so the release is recorded under the arrive's rseq.
        self._bar_req: Dict[Tuple[int, int], Message] = {}
        #: block -> completed-episode count (tracing only; stays empty
        #: when the trace bus is disabled).
        self._epoch: Dict[int, int] = {}

    # -- participant side ----------------------------------------------------
    def wait(self, block: int, n: int):
        """Arrive at the barrier identified by ``block``; resume when all
        ``n`` participants have arrived."""
        self.stats.counters.add("barrier.arrivals")
        yield self.cfg.cache_cycle
        home = self.amap.home_of(block)
        if self.node.resilience is not None:
            # One poll loop keyed on the release; the intermediate ack is
            # informational (a replay may deliver it redundantly).
            yield from self.request(
                ("c:bar_rel", block), home, BARRIER_ARRIVE, addr=block, n=n
            )
            return
        ack = self.expect(("c:bar_ack", block))
        rel = self.expect(("c:bar_rel", block))
        self.send(home, BARRIER_ARRIVE, addr=block, n=n)
        yield ack  # arrival recorded in the barrier counter at home
        yield rel  # all arrived

    # -- home side ----------------------------------------------------------
    def _h_arrive(self, msg: Message, entry):
        # The barrier counter lives in main memory at the home node.
        yield self.cfg.dir_cycle + self.cfg.memory_cycle
        entry.barrier_count += 1
        entry.barrier_waiting.append(msg.src)
        if self.node.resilience is not None:
            self._bar_req[(entry.block, msg.src)] = msg
        self.reply_to(msg, BARRIER_ACK, addr=entry.block)
        if entry.barrier_count >= msg.info["n"]:
            waiting, entry.barrier_waiting = entry.barrier_waiting, []
            entry.barrier_count = 0
            obs = self.obs
            if obs is not None:
                epoch = self._epoch.get(entry.block, 0) + 1
                self._epoch[entry.block] = epoch
                obs.instant(
                    "barrier.epoch", "sync", self.node.node_id,
                    args={"block": entry.block, "epoch": epoch,
                          "n": len(waiting)},
                )
            for i, node_id in enumerate(waiting):
                if i:
                    yield self.cfg.dir_cycle
                req_msg = self._bar_req.pop((entry.block, node_id), None)
                if req_msg is not None:
                    self.reply_to(req_msg, BARRIER_RELEASE, addr=entry.block)
                else:
                    self.send(node_id, BARRIER_RELEASE, addr=entry.block)
        self._done(entry)

    _HANDLERS = {BARRIER_ARRIVE: _h_arrive}
    _RESPONSES = {
        BARRIER_ACK: resolves("c:bar_ack"),
        BARRIER_RELEASE: resolves("c:bar_rel"),
    }
