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

__all__ = ["Node", "dispatch_layout"]

#: Controller-class tuple -> its dispatch layout (see :func:`dispatch_layout`).
_LAYOUTS: Dict[tuple, Dict[MessageType, int]] = {}


def _check_free(table, in_types, node_id: int) -> None:
    """Raise if any of ``in_types`` already has a handler in ``table``."""
    taken = table.keys() & in_types
    if taken:
        mtype = min(taken, key=lambda mt: mt.name)
        raise ValueError(f"message type {mtype.name} already handled on node {node_id}")


def dispatch_layout(classes: tuple, node_id: int = 0) -> Dict[MessageType, int]:
    """``mtype -> slot``, in table order: registering one controller of
    each of ``classes`` in order routes ``mtype`` to the one at ``slot``.

    Worked out once per class tuple and cached, so the mapping is shared
    and read-only.  A tuple whose ``IN_TYPES`` overlap raises
    :meth:`Node.register`'s ``ValueError`` (naming ``node_id``) every
    time and is never cached.
    """
    layout = _LAYOUTS.get(classes)
    if layout is None:
        slot_of: Dict[MessageType, int] = {}
        for slot, cls in enumerate(classes):
            _check_free(slot_of, cls.IN_TYPES, node_id)
            slot_of.update(dict.fromkeys(cls.IN_TYPES, slot))
        layout = _LAYOUTS[classes] = slot_of
    return layout


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
        _check_free(self.dispatch, controller.IN_TYPES, self.node_id)
        self.dispatch.update(dict.fromkeys(controller.IN_TYPES, controller))

    def register_all(self, controllers: Tuple["Controller", ...]) -> None:
        """:meth:`register` each of ``controllers``, in order, on a node
        that has none yet.

        The overlap check and the table's layout depend on the controller
        classes alone, so they are worked out once per class tuple
        (:func:`dispatch_layout`).  The table is filled in place: the
        interconnect holds this dict object for its direct arrival path.
        """
        table = self.dispatch
        if table:
            raise ValueError(f"node {self.node_id} already has controllers")
        layout = dispatch_layout(tuple(map(type, controllers)), self.node_id)
        # Copying the layout puts every key in place, in order, in one
        # step; the loop then only overwrites values.
        table.update(layout)
        for mtype, slot in layout.items():
            table[mtype] = controllers[slot]

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
