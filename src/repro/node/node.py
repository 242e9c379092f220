"""A node: processor-side caches, write buffer, memory module, directory,
and the protocol controllers, glued to the interconnect.

Figure 1 of the paper: each node hosts a processor, a private cache with
its cache directory, a write buffer, and a network controller; main memory
(with the central directory) is distributed one module per node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from ..cache.cache import SetAssocCache
from ..cache.lockcache import LockCache
from ..cache.writebuffer import WriteBuffer
from ..coherence.base import _IN_FLIGHT
from ..memory.address import AddressMap
from ..memory.directory import Directory
from ..memory.module import MemoryModule
from ..network.message import Message, MessageType
from ..network.topology import Interconnect
from ..sim.core import Event, Simulator
from ..sim.stats import StatSet
from ..system.config import MachineConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..coherence.base import Controller

__all__ = ["Node"]


class Node:
    """One multiprocessor node with its controllers and local memory module."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        cfg: MachineConfig,
        net: Interconnect,
        amap: AddressMap,
    ):
        self.node_id = node_id
        self.sim = sim
        self.cfg = cfg
        self.net = net
        self.amap = amap
        self.cache = SetAssocCache(cfg.cache_sets, cfg.cache_assoc, cfg.words_per_block)
        self.lockcache = LockCache(cfg.lock_cache_size, cfg.words_per_block)
        self.memory = MemoryModule(node_id, amap, cfg.memory_cycle)
        self.directory = Directory(node_id)
        self.stats = StatSet()
        #: Timeout/retry policy; ``None`` = the paper's reliable fabric.
        self.resilience = cfg.resilience
        #: Per-node monotonic request sequence (tags retryable messages).
        self._rseq = 0
        #: Dedup log: ``(src, rseq) -> in-flight marker | recorded replies``.
        self.req_log: Dict[Tuple, object] = {}
        #: Per-source FIFO of log keys for bounded pruning.
        self._req_order: Dict[int, list] = {}
        #: Pending request/reply rendezvous shared by all controllers.
        self._pending_replies: Dict[Tuple, Event] = {}
        #: ``mtype -> controller``; the interconnect's untraced, fault-free
        #: arrival path looks controllers up here directly.
        self.dispatch: Dict[MessageType, "Controller"] = {}
        #: Write buffer; its issue path is wired by the data protocol
        #: controller (primitives machine) after construction.
        self.write_buffer: WriteBuffer | None = None
        #: Trace bus or ``None``; the machine installs it before the
        #: controllers are constructed so they can cache the reference.
        self.obs = None
        net.attach(node_id, self.deliver)

    def next_rseq(self) -> int:
        """Fresh per-node request sequence number (resilience tagging)."""
        self._rseq += 1
        return self._rseq

    def log_request(self, key: Tuple) -> None:
        """Register a dedup-log key, pruning the oldest beyond capacity.

        Capacity is per source node, so one chatty peer cannot evict the
        dedup state that protects another peer's in-flight retries.
        """
        self.req_log[key] = _IN_FLIGHT
        order = self._req_order.setdefault(key[0], [])
        order.append(key)
        cap = self.resilience.dedup_capacity if self.resilience else 0
        while len(order) > cap:
            self.req_log.pop(order.pop(0), None)

    def register(self, controller: "Controller") -> None:
        """Route the controller's message types to it."""
        taken = self.dispatch.keys() & controller.IN_TYPES
        if taken:
            mtype = min(taken, key=lambda mt: mt.name)
            raise ValueError(
                f"message type {mtype.name} already handled on node {self.node_id}"
            )
        self.dispatch.update(dict.fromkeys(controller.IN_TYPES, controller))

    def deliver(self, msg: Message) -> None:
        """Network delivery callback."""
        ctl = self.dispatch.get(msg.mtype)
        if ctl is None:
            raise RuntimeError(
                f"node {self.node_id} has no controller for {msg.mtype.name}"
            )
        if self.obs is None:
            ctl.handle(msg)
            return
        # Tracing: messages sent while this handler runs record this
        # message as their causal parent (network lineage).
        net = self.net
        prev = net._cause
        net._cause = msg.msg_id
        try:
            ctl.handle(msg)
        finally:
            net._cause = prev
