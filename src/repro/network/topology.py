"""Interconnect base class and shared delivery machinery.

An interconnect accepts :class:`~repro.network.message.Message` objects and
delivers each to the controller that its destination node's table names for
its type (``controller.handle(msg)``) after a modeled latency that accounts for
topology and contention.  Local traffic (``src == dst``) bypasses the network
entirely (the node's memory module sits on the node), costing only
``params.local_delivery`` cycles.

Delivery is **FIFO per (src, dst) channel**: two messages between the same
pair of nodes arrive in send order, exactly as store-and-forward switch
queues on a fixed route guarantee.  Without this, a short control message
(one flit) can overtake an earlier block transfer (1+B flits) — or any
message under latency jitter — and the directory protocols are built on the
standard point-to-point-ordering assumption (e.g. an INV must not overtake
the DATA_BLOCK reply that precedes it, or a requester installs a stale
copy after acking its invalidation; found by the schedule fuzzer in
:mod:`repro.verify.fuzz`).  Messages between *different* node pairs still
reorder freely, which is where the buffered machines' relaxed behaviors
come from.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..sim.core import SimulationError, Simulator
from ..sim.stats import StatSet
from .message import MSG_COUNTER_KEYS, Message, flit_table

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan

__all__ = ["NetworkParams", "Interconnect"]


class _Channel:
    """FIFO state of one ordered ``(src, dst)`` pair.

    ``send_seq``/``deliver_seq`` are the next sequence number to assign and
    to deliver; ``held`` maps the sequence numbers of early arrivals to
    their messages.  ``held_since`` orders the channels that hold messages
    by when they last started holding (the hang diagnosis lists them so),
    and ``route`` is topology-private: each topology keeps the channel's
    static route there.
    """

    __slots__ = ("send_seq", "deliver_seq", "held", "held_since", "route")

    def __init__(self) -> None:
        self.send_seq = 0
        self.deliver_seq = 0
        self.held: Dict[int, Message] = {}
        self.held_since = 0
        self.route = None


@dataclass(slots=True)
class NetworkParams:
    """Timing/shape parameters of the interconnect.

    ``switch_cycle``
        Cycles for one flit to cross one switch stage (store-and-forward per
        stage: a message of f flits occupies a stage port for
        ``switch_cycle * f`` cycles).
    ``words_per_block``
        Block size in words; fixes the flit size of block messages.
    ``local_delivery``
        Cycles to deliver a message whose source and destination coincide.
    ``buffer_capacity``
        Per-port buffer capacity in messages; ``None`` = infinite (the
        paper's assumption).  Only the buffered Omega variant
        (``network="omega-buffered"``) has finite buffers: the analytic
        Omega, bus, crossbar and mesh models are infinite-buffer FIFO
        links, so a network built directly ignores the setting, and
        :class:`~repro.system.config.MachineConfig` rejects a capacity on
        any network but ``"omega-buffered"``.
    """

    switch_cycle: int = 1
    words_per_block: int = 4
    local_delivery: int = 1
    buffer_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.switch_cycle <= 0:
            raise ValueError("switch_cycle must be positive")
        if self.words_per_block <= 0:
            raise ValueError("words_per_block must be positive")
        if self.local_delivery < 0:
            raise ValueError("local_delivery must be non-negative")


class Interconnect(ABC):
    """Base interconnect: attach node tables, send messages, collect stats."""

    def __init__(self, sim: Simulator, n_nodes: int, params: Optional[NetworkParams] = None):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.sim = sim
        self.n_nodes = n_nodes
        self.params = params or NetworkParams()
        #: node id -> the attached node's ``mtype -> controller`` table, or
        #: ``None`` before :meth:`attach`.
        self._tables: List[Optional[Dict[Any, Any]]] = [None] * n_nodes
        #: ``_chans[src][dst]``: the pair's channel record, created on its
        #: first send; ``_channels`` holds the same records in that order.
        self._chans: List[List[Optional[_Channel]]] = [[None] * n_nodes for _ in range(n_nodes)]
        self._channels: Dict[Tuple[int, int], _Channel] = {}
        self._holds_started = 0
        #: Optional fault injector; ``None`` = the paper's reliable fabric.
        self.fault_plan: Optional["FaultPlan"] = None
        #: Trace bus (:class:`repro.obs.bus.TraceBus`) or ``None``; the
        #: machine installs it after construction.
        self.obs = None
        #: msg_id of the message currently being handled on some node (set
        #: by :meth:`_handle` while a trace bus is installed): sends
        #: triggered synchronously from a handler inherit it as their
        #: causal parent.
        self._cause: int = -1
        self.stats = StatSet()
        # Per-message hot-path constants: the shared read-only mtype -> flit
        # count table, plus the latency tally (skips a dict probe per
        # arrival).
        self._flits = flit_table(self.params.words_per_block)
        self._counts = self.stats.counters.counts
        self._latency = self.stats.tally("latency")
        # In-flight messages are calendar payloads of their own; the run
        # loop hands each one to this hook when it is due.
        if sim._arrive is not None:
            raise SimulationError("a simulator carries one interconnect")
        sim._arrive = self._on_arrival

    def set_fault_plan(self, plan: Optional["FaultPlan"]) -> None:
        """Install (or clear) a fault injector on this interconnect.

        The plan is consulted at three points — outages in :meth:`send`
        before a channel sequence number exists, delay spikes in
        :meth:`_deliver_after` (pre-FIFO, so channel order is preserved),
        and drop/duplicate/reorder in :meth:`_dispatch` after the FIFO
        resequencer has consumed the sequence number.  Dropping earlier
        would wedge the resequencer on the missing sequence number.
        """
        self.fault_plan = plan

    # -- wiring ---------------------------------------------------------
    def attach(self, node_id: int, table: Dict[Any, Any]) -> None:
        """Deliver ``node_id``'s arrivals through ``table``: a message goes
        to ``table[msg.mtype].handle(msg)``.  The dict is read at each
        arrival, so it may be filled after attaching."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node id {node_id} out of range")
        if self._tables[node_id] is not None:
            raise ValueError(f"node {node_id} already attached")
        self._tables[node_id] = table

    def close(self) -> None:
        """Detach every node: each table holds a node's controllers, which
        hold this interconnect.  Stats stay readable; idempotent."""
        self._tables = [None] * self.n_nodes

    # -- sending ----------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Inject ``msg``; it will be delivered to the destination handler."""
        src = msg.src
        dst = msg.dst
        # Checked before the channel lookup: a negative index would wrap.
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"destination {dst} out of range")
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"source {src} out of range")
        if self.fault_plan is not None and self.fault_plan.send_outage(
            src, dst, self.sim.now
        ):
            # Died on a downed link/node before entering the fabric: no
            # sequence number assigned, so the FIFO resequencer never waits
            # for it.
            self.stats.counters.add("fault.outage_drops")
            return
        msg.send_time = self.sim.now
        ch = self._chans[src][dst]
        if ch is None:
            ch = self._chans[src][dst] = self._channels[src, dst] = _Channel()
        msg.chan_seq = seq = ch.send_seq
        ch.send_seq = seq + 1
        flits = self._flits[msg.mtype]
        # Counter.add inlined: the same dict writes, in the same order.
        counts = self._counts
        counts["messages"] = counts.get("messages", 0) + 1
        key = MSG_COUNTER_KEYS[msg.mtype]
        counts[key] = counts.get(key, 0) + 1
        counts["flits"] = counts.get("flits", 0) + flits
        obs = self.obs
        if obs is not None:
            if msg.parent_id < 0:
                msg.parent_id = self._cause
            obs.instant(
                f"send:{msg.mtype.name}",
                "net",
                msg.src,
                args={"dst": dst, "flits": flits, "seq": seq},
                id=msg.msg_id,
                parent=msg.parent_id,
            )
        if src == dst:
            counts["local_messages"] = counts.get("local_messages", 0) + 1
            self._deliver_after(msg, self.params.local_delivery)
            return
        self._route(msg, flits, ch)

    @abstractmethod
    def _route(self, msg: Message, flits: int, ch: _Channel) -> None:
        """Topology-specific routing of ``msg`` over its channel ``ch``; must
        end in :meth:`_deliver_after` (or, with no fault plan installed, in
        the ``sim._push(msg, delay)`` that :meth:`_deliver_after` makes)."""

    # -- delivery ----------------------------------------------------------
    def _deliver_after(self, msg: Message, delay: float) -> None:
        if self.fault_plan is not None:
            spike = self.fault_plan.extra_delay()
            if spike:
                self.stats.counters.add("fault.spikes")
                delay += spike
        self.sim._push(msg, delay)

    def _on_arrival(self, msg: Message) -> None:
        ch = self._chans[msg.src][msg.dst]
        expected = ch.deliver_seq
        if msg.chan_seq > expected:
            # Arrived ahead of an in-flight predecessor on the same channel:
            # hold until the channel's FIFO order catches up.
            if not ch.held:
                self._holds_started += 1
                ch.held_since = self._holds_started
            ch.held[msg.chan_seq] = msg
            self.stats.counters.add("fifo_holds")
            if self.obs is not None:
                self.obs.instant(
                    f"fifo_hold:{msg.mtype.name}",
                    "net",
                    msg.dst,
                    args={"seq": msg.chan_seq, "expected": expected},
                    id=msg.msg_id,
                )
            return
        ch.deliver_seq = expected + 1
        table = self._tables[msg.dst]
        if self.fault_plan is None and self.obs is None and table is not None:
            # Lean path: _dispatch -> _handle -> handle in one frame.  An
            # unknown type takes the general path, which raises its error.
            ctl = table.get(msg.mtype)
            if ctl is None:
                self._dispatch(msg)
            else:
                self._latency.observe(self.sim.now - msg.send_time)
                ctl.handle(msg)
        else:
            self._dispatch(msg)
        held = ch.held
        if held:
            while True:
                nxt = held.pop(ch.deliver_seq, None)
                if nxt is None:
                    break
                ch.deliver_seq += 1
                self._dispatch(nxt)

    def _dispatch(self, msg: Message) -> None:
        if self.fault_plan is not None:
            action = self.fault_plan.dispatch_action(msg, self.sim.now)
            if action == "drop":
                self.stats.counters.add("fault.drops")
                if self.obs is not None:
                    self.obs.instant(
                        f"fault.drop:{msg.mtype.name}", "net", msg.dst, id=msg.msg_id
                    )
                return
            if action == "dup":
                self.stats.counters.add("fault.dups")
                if self.obs is not None:
                    self.obs.instant(
                        f"fault.dup:{msg.mtype.name}", "net", msg.dst, id=msg.msg_id
                    )
                self._handle(msg)
                self._handle(msg)
                return
            if action == "reorder":
                # Late re-delivery straight to the handler, bypassing the
                # FIFO resequencer: same-channel successors may overtake.
                self.stats.counters.add("fault.reorders")
                if self.obs is not None:
                    self.obs.instant(
                        f"fault.reorder:{msg.mtype.name}", "net", msg.dst, id=msg.msg_id
                    )
                ev = self.sim.timeout(self.fault_plan.reorder_delay(), value=msg)
                ev.callbacks.append(lambda e: self._handle(e.value))
                return
        self._handle(msg)

    def _handle(self, msg: Message) -> None:
        self._latency.observe(self.sim.now - msg.send_time)
        obs = self.obs
        if obs is not None:
            # One span per delivered message: send_time -> now, on the
            # destination's track.  Together with the send instant this is
            # the full send->route->deliver->dispatch lineage of the
            # message (hop detail comes from the topology's route events).
            obs.span(
                msg.mtype.name,
                "net",
                msg.dst,
                msg.send_time,
                args={"src": msg.src, "seq": msg.chan_seq},
                id=msg.msg_id,
                parent=msg.parent_id,
            )
        table = self._tables[msg.dst]
        ctl = table.get(msg.mtype) if table is not None else None
        if ctl is None:
            raise RuntimeError(f"node {msg.dst} has no controller for {msg.mtype.name}")
        if obs is None:
            ctl.handle(msg)
            return
        # Tracing: messages sent while this handler runs record this
        # message as their causal parent (network lineage).
        prev = self._cause
        self._cause = msg.msg_id
        try:
            ctl.handle(msg)
        finally:
            self._cause = prev

    # -- reporting ----------------------------------------------------------
    @property
    def message_count(self) -> int:
        return self.stats.counters["messages"]

    @property
    def mean_latency(self) -> float:
        return self.stats.tally("latency").mean

    def count_of(self, mtype) -> int:
        return self.stats.counters[f"msg.{mtype.name}"]
