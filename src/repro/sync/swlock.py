"""Software locks and barriers built from atomic read-modify-write.

These are the comparators the paper measures CBL against: busy-wait locks
over the WBI cache protocol.  All network traffic they generate — RMW
probes crossing the network, invalidation storms when a cached spin
variable changes — emerges from the simulated protocol, not from canned
cost formulas.

=================  =====================================================
``TSLock``         test-and-set: every probe is a network RMW (hot spot)
``TTSLock``        test-and-test-and-set: spin on the cached copy; the
                   release invalidates all spinners, causing a miss+RMW
                   burst (the paper's "WBI" lock behaviour)
``TTSBackoffLock`` test-and-set with exponential backoff (the paper's
                   "backoff" curve)
``TicketLock``     FIFO ticket lock (fetch&add + cached spin)
``MCSLock``        queue lock with local spinning (the modern baseline)
``SWBarrier``      central sense-reversing barrier (fetch&add + spin)
=================  =====================================================

Spinning on a cached copy requires invalidation-based coherence, so the
spin-based locks need a WBI machine; ``TSLock`` and ``TTSBackoffLock``
work on either machine (they only need RMW).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .base import BARRIER_SYNC_LABELS, LOCK_SYNC_LABELS

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor
    from ..system.machine import Machine

__all__ = [
    "TSLock",
    "TTSLock",
    "TTSBackoffLock",
    "TicketLock",
    "MCSLock",
    "SWBarrier",
]


def _failed_probe(proc: "Processor", lock: object, addr: int) -> None:
    """Count a failed lock probe (and trace it when the bus is on)."""
    counts = proc.stats.counters.counts
    counts["lock.failed_probes"] = counts.get("lock.failed_probes", 0) + 1
    obs = proc.obs
    if obs is not None:
        obs.instant(
            f"probe_failed:{type(lock).__name__}", "sync", proc.node_id,
            args={"addr": addr},
        )


def _spin_ctl(proc: "Processor"):
    ctl = proc.data
    if not hasattr(ctl, "watch_invalidation"):
        raise RuntimeError(
            "cached spinning needs invalidation-based coherence; build the "
            "machine with protocol='wbi'"
        )
    return ctl


class TSLock:
    """Naive test-and-set: every probe crosses the network."""

    sync_labels = LOCK_SYNC_LABELS

    def __init__(self, machine: "Machine", addr: int | None = None):
        self.machine = machine
        self.addr = machine.alloc_word() if addr is None else addr
        self.block = machine.amap.block_of(self.addr)

    def acquire(self, proc: "Processor", mode: str = "write"):
        if mode != "write":
            raise ValueError("software locks are exclusive-only")
        ctl = proc.data
        while True:
            old = yield from ctl.rmw(self.addr, "test_set")
            if old == 0:
                return
            _failed_probe(proc, self, self.addr)

    def release(self, proc: "Processor", want_ack: bool = False):
        yield from proc.data.rmw(self.addr, "write", 0)


class TTSLock:
    """Test-and-test-and-set: spin locally on the cached copy."""

    sync_labels = LOCK_SYNC_LABELS

    def __init__(self, machine: "Machine", addr: int | None = None):
        self.machine = machine
        self.addr = machine.alloc_word() if addr is None else addr
        self.block = machine.amap.block_of(self.addr)

    def acquire(self, proc: "Processor", mode: str = "write"):
        if mode != "write":
            raise ValueError("software locks are exclusive-only")
        ctl = _spin_ctl(proc)
        while True:
            old = yield from ctl.rmw(self.addr, "test_set")
            if old == 0:
                return
            _failed_probe(proc, self, self.addr)
            while True:
                v = yield from ctl.read(self.addr)
                if v == 0:
                    break
                # The cached value can only change after an invalidation.
                yield ctl.watch_invalidation(self.block)

    def release(self, proc: "Processor", want_ack: bool = False):
        # A coherent write: invalidates every spinner's copy (the burst).
        yield from proc.data.write(self.addr, 0)


class TTSBackoffLock:
    """Test-and-set with capped exponential backoff between probes."""

    sync_labels = LOCK_SYNC_LABELS

    def __init__(
        self,
        machine: "Machine",
        addr: int | None = None,
        base_delay: int = 8,
        max_delay: int = 1024,
    ):
        if base_delay <= 0 or max_delay < base_delay:
            raise ValueError("bad backoff parameters")
        self.machine = machine
        self.addr = machine.alloc_word() if addr is None else addr
        self.block = machine.amap.block_of(self.addr)
        self.base_delay = base_delay
        self.max_delay = max_delay

    def acquire(self, proc: "Processor", mode: str = "write"):
        if mode != "write":
            raise ValueError("software locks are exclusive-only")
        ctl = proc.data
        delay = self.base_delay
        while True:
            old = yield from ctl.rmw(self.addr, "test_set")
            if old == 0:
                return
            _failed_probe(proc, self, self.addr)
            yield delay
            delay = min(delay * 2, self.max_delay)

    def release(self, proc: "Processor", want_ack: bool = False):
        yield from proc.data.rmw(self.addr, "write", 0)


class TicketLock:
    """FIFO ticket lock: fetch&add for the ticket, cached spin on serving."""

    sync_labels = LOCK_SYNC_LABELS

    def __init__(self, machine: "Machine", next_addr: int | None = None, serving_addr: int | None = None):
        self.machine = machine
        # The two words live on distinct blocks to avoid line ping-pong.
        self.next_addr = machine.alloc_word() if next_addr is None else next_addr
        self.serving_addr = machine.alloc_word() if serving_addr is None else serving_addr
        if machine.amap.block_of(self.next_addr) == machine.amap.block_of(self.serving_addr):
            raise ValueError("ticket and serving words must be on distinct blocks")
        self.block = machine.amap.block_of(self.next_addr)
        self.serving_block = machine.amap.block_of(self.serving_addr)
        self._my_ticket: Dict[int, int] = {}

    def acquire(self, proc: "Processor", mode: str = "write"):
        if mode != "write":
            raise ValueError("software locks are exclusive-only")
        ctl = _spin_ctl(proc)
        ticket = yield from ctl.rmw(self.next_addr, "fetch_add", 1)
        self._my_ticket[proc.node_id] = ticket
        while True:
            v = yield from ctl.read(self.serving_addr)
            if v == ticket:
                return
            _failed_probe(proc, self, self.serving_addr)
            yield ctl.watch_invalidation(self.serving_block)

    def release(self, proc: "Processor", want_ack: bool = False):
        ticket = self._my_ticket.pop(proc.node_id)
        yield from proc.data.write(self.serving_addr, ticket + 1)


class MCSLock:
    """MCS queue lock: swap on the tail, local spin on the private qnode.

    Each node's queue node (flag word + next word) lives in its own block,
    so spinning is entirely local until the predecessor hands over.  Node
    ids are encoded as ``id + 1`` so 0 can serve as nil.
    """

    sync_labels = LOCK_SYNC_LABELS

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.tail_addr = machine.alloc_word()
        self.block = machine.amap.block_of(self.tail_addr)
        n = machine.cfg.n_nodes
        # One block per node for (flag, next).
        base = machine.alloc_block(n)
        wpb = machine.cfg.words_per_block
        self.flag_addr = [machine.amap.word_addr(base + i, 0) for i in range(n)]
        self.next_addr = [machine.amap.word_addr(base + i, 1) for i in range(n)]

    def acquire(self, proc: "Processor", mode: str = "write"):
        if mode != "write":
            raise ValueError("software locks are exclusive-only")
        ctl = _spin_ctl(proc)
        me = proc.node_id
        yield from ctl.write(self.flag_addr[me], 1)  # assume we will wait
        yield from ctl.write(self.next_addr[me], 0)  # no successor yet
        pred = yield from ctl.rmw(self.tail_addr, "swap", me + 1)
        if pred == 0:
            return  # lock was free
        # Link behind the predecessor, then spin on our own flag.
        yield from ctl.write(self.next_addr[pred - 1], me + 1)
        my_flag_block = self.machine.amap.block_of(self.flag_addr[me])
        while True:
            v = yield from ctl.read(self.flag_addr[me])
            if v == 0:
                return
            _failed_probe(proc, self, self.flag_addr[me])
            yield ctl.watch_invalidation(my_flag_block)

    def release(self, proc: "Processor", want_ack: bool = False):
        ctl = _spin_ctl(proc)
        me = proc.node_id
        nxt = yield from ctl.read(self.next_addr[me])
        if nxt == 0:
            old = yield from ctl.rmw(self.tail_addr, "cas", (me + 1, 0))
            if old == me + 1:
                return  # no successor; queue emptied
            # A successor is linking itself right now; wait for the link.
            next_block = self.machine.amap.block_of(self.next_addr[me])
            while True:
                nxt = yield from ctl.read(self.next_addr[me])
                if nxt != 0:
                    break
                yield ctl.watch_invalidation(next_block)
        yield from ctl.write(self.flag_addr[nxt - 1], 0)


class SWBarrier:
    """Central sense-reversing software barrier over coherent memory."""

    sync_labels = BARRIER_SYNC_LABELS

    def __init__(self, machine: "Machine", n: int):
        if n <= 0:
            raise ValueError("barrier size must be positive")
        self.machine = machine
        self.n = n
        self.count_addr = machine.alloc_word()
        self.sense_addr = machine.alloc_word()
        if machine.amap.block_of(self.count_addr) == machine.amap.block_of(self.sense_addr):
            raise ValueError("count and sense words must be on distinct blocks")
        self.block = machine.amap.block_of(self.count_addr)
        self.sense_block = machine.amap.block_of(self.sense_addr)
        self._local_sense: Dict[int, int] = {}

    def wait(self, proc: "Processor"):
        ctl = _spin_ctl(proc)
        sense = 1 - self._local_sense.get(proc.node_id, 0)
        self._local_sense[proc.node_id] = sense
        pos = yield from ctl.rmw(self.count_addr, "fetch_add", 1)
        if pos == self.n - 1:
            yield from ctl.rmw(self.count_addr, "write", 0)
            yield from ctl.write(self.sense_addr, sense)  # releases spinners
            return
        while True:
            v = yield from ctl.read(self.sense_addr)
            if v == sense:
                return
            yield ctl.watch_invalidation(self.sense_block)
