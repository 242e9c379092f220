"""WBI: the write-back invalidation directory protocol (the paper's baseline).

An MSI-style protocol over a central (per-home) directory:

* ``read`` misses fetch a SHARED copy; if another cache holds the block
  dirty, the home fetches it back first.
* ``write`` needs EXCLUSIVE: misses fetch an exclusive copy after
  invalidating all sharers; hits on SHARED send an upgrade.
* ``rmw`` (atomic read-modify-write, the substrate for software locks) is
  performed at the home memory after invalidating every cached copy — each
  probe crosses the network, which is precisely the hot-spot behaviour the
  paper's CBL scheme is designed to avoid.

Every home transaction is serialized per block via the directory entry's
busy bit; conflicting requests are deferred and replayed in arrival order.

Fills apply **synchronously at message delivery** (MSHR-style): the
DATA_BLOCK / DATA_BLOCK_EXCL / UPGRADE_ACK handler installs the line and
performs the pending store before any later message is processed.  If the
requesting coroutine installed the line when it resumed instead, a probe
(INV / FETCH / FETCH_INV) delivered between the reply and the resumption
would find no line, ack vacuously, and the subsequently installed copy
would be stale — a coherence violation found by the schedule fuzzer in
:mod:`repro.verify.fuzz`.  The network's per-channel FIFO guarantees the
reply is delivered before any probe the home sent after it, so
handler-time installation makes the probe always see the settled state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..cache.states import LineState
from ..memory.directory import DirState
from ..network.message import Message, MessageType
from ..sim.core import Event, Process
from .base import Controller, SourceAckCollector

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node

__all__ = ["WBICacheController", "WBIHomeController", "apply_rmw"]


def apply_rmw(op: str, old: int, operand) -> int:
    """The new memory value for an atomic ``op`` given the old value."""
    if op == "test_set":
        return 1
    if op == "swap":
        return operand
    if op == "fetch_add":
        return old + operand
    if op == "cas":
        expected, new = operand
        return new if old == expected else old
    if op == "write":
        return operand
    raise ValueError(f"unknown rmw op {op!r}")


class WBICacheController(Controller):
    """Processor-side WBI engine: blocking read/write/rmw plus remote handlers."""

    #: Message types this controller consumes.
    IN_TYPES = frozenset(
        {
            MessageType.DATA_BLOCK,
            MessageType.DATA_BLOCK_EXCL,
            MessageType.UPGRADE_ACK,
            MessageType.WRITEBACK_ACK,
            MessageType.RMW_REPLY,
            MessageType.INV,
            MessageType.FETCH,
            MessageType.FETCH_INV,
        }
    )

    def __init__(self, node: "Node"):
        super().__init__(node)
        self._inv_watchers: Dict[int, List[Event]] = {}
        #: block -> pending store (offset, value) or None for a read fill.
        #: The reply handler installs the line and drains the store before
        #: any later probe can observe the cache (see module docstring).
        self._mshr: Dict[int, Optional[tuple]] = {}

    # ================= processor-side operations (generators) =============
    def read(self, word_addr: int):
        """Coherent read; returns the word value."""
        # AddressMap.block_of / offset_of inlined (same check, one pass).
        if word_addr < 0:
            raise ValueError("addresses are non-negative")
        block, offset = divmod(word_addr, self.amap.words_per_block)
        yield self.sim.timeout(self.cfg.cache_cycle)
        line = self.node.cache.lookup(block, now=self.sim.now)
        counts = self.stats.counters.counts
        if line is not None:
            counts["wbi.read_hits"] = counts.get("wbi.read_hits", 0) + 1
            return line.data[offset]
        counts["wbi.read_misses"] = counts.get("wbi.read_misses", 0) + 1
        t0 = self.sim.now
        yield from self._evict_for(block)
        home = self.amap.home_of(block)
        self._mshr[block] = None
        words = yield from self.request(("c:data", block), home, MessageType.READ_MISS, addr=block)
        if self.obs is not None:
            # Miss lifecycle: issue -> directory transaction -> fill.
            self.obs.span(
                "miss:wbi.read", "coh", self.node.node_id, t0, args={"block": block}
            )
        # The handler already installed (and a probe may since have taken)
        # the line; the reply snapshot is the coherent value at serialization.
        return words[offset]

    def write(self, word_addr: int, value: int):
        """Coherent write (needs exclusivity)."""
        if word_addr < 0:
            raise ValueError("addresses are non-negative")
        block, offset = divmod(word_addr, self.amap.words_per_block)
        yield self.sim.timeout(self.cfg.cache_cycle)
        line = self.node.cache.lookup(block, now=self.sim.now)
        counts = self.stats.counters.counts
        if line is not None and line.state is LineState.EXCLUSIVE:
            counts["wbi.write_hits"] = counts.get("wbi.write_hits", 0) + 1
            line.write_word(offset, value)
            return
        home = self.amap.home_of(block)
        t0 = self.sim.now
        if line is not None and line.state is LineState.SHARED:
            counts["wbi.upgrades"] = counts.get("wbi.upgrades", 0) + 1
            self._mshr[block] = (offset, value)
            yield from self.request(("c:excl", block), home, MessageType.UPGRADE, addr=block)
            if self.obs is not None:
                self.obs.span(
                    "miss:wbi.upgrade", "coh", self.node.node_id, t0, args={"block": block}
                )
            return
        counts["wbi.write_misses"] = counts.get("wbi.write_misses", 0) + 1
        yield from self._evict_for(block)
        self._mshr[block] = (offset, value)
        yield from self.request(("c:excl", block), home, MessageType.WRITE_MISS, addr=block)
        if self.obs is not None:
            self.obs.span(
                "miss:wbi.write", "coh", self.node.node_id, t0, args={"block": block}
            )

    def rmw(self, word_addr: int, op: str, operand=None):
        """Atomic read-modify-write at the home memory; returns the old value."""
        counts = self.stats.counters.counts
        counts["wbi.rmw"] = counts.get("wbi.rmw", 0) + 1
        block = self.amap.block_of(word_addr)
        home = self.amap.home_of(block)
        yield self.sim.timeout(self.cfg.cache_cycle)
        t0 = self.sim.now
        old = yield from self.request(
            ("c:rmw", word_addr), home, MessageType.RMW_REQ,
            addr=block, word=word_addr, op=op, operand=operand,
        )
        if self.obs is not None:
            self.obs.span(
                "miss:wbi.rmw", "coh", self.node.node_id, t0, args={"word": word_addr, "op": op}
            )
        return old

    def watch_invalidation(self, block: int) -> Event:
        """Event fired the next time ``block`` is invalidated locally.

        This is how test-and-test-and-set spinners wait: a cached spin value
        can only change after the local copy is invalidated.
        """
        ev = Event(self.sim, name=f"inv-watch({block})")
        self._inv_watchers.setdefault(block, []).append(ev)
        return ev

    # ================= internals ==========================================
    def _evict_for(self, block: int):
        """Make room for ``block``: write back the chosen victim if dirty."""
        victim = self.node.cache.victim_for(block)
        if victim is None or not victim.valid:
            return
        if victim.dirty:
            yield from self._writeback(victim)
        else:
            # Silent clean eviction: home's sharer list goes stale; a later
            # INV for this block is answered with a plain ack.
            self.stats.counters.add("wbi.silent_evictions")
        self._notify_invalidation(victim.block)
        victim.invalidate()

    def _writeback(self, line):
        self.stats.counters.add("wbi.writebacks")
        home = self.amap.home_of(line.block)
        words = list(line.data)
        mask = line.dirty_mask
        yield from self.request(
            ("c:wback", line.block), home, MessageType.WRITEBACK,
            addr=line.block, words=words, mask=mask,
        )

    def _notify_invalidation(self, block: int) -> None:
        watchers = self._inv_watchers.pop(block, None)
        if watchers:
            for ev in watchers:
                ev.succeed()

    def _install_fill(self, block: int, words, state: LineState):
        """Install a fill reply and drain the pending store, atomically with
        the message delivery (no probe can interleave)."""
        line, _ = self.node.cache.install(block, list(words), state, now=self.sim.now)
        store = self._mshr.pop(block, None)
        if store is not None:
            line.write_word(*store)
        return line

    # ================= message handlers ====================================
    def handle(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        resilient = self.node.resilience is not None
        mt = msg.mtype
        if mt is MessageType.DATA_BLOCK:
            if resilient and not self.has_pending(("c:data", msg.addr)):
                return  # stale duplicate fill: nobody is waiting
            snapshot = list(msg.info["words"])
            self._install_fill(msg.addr, msg.info["words"], LineState.SHARED)
            self.resolve(("c:data", msg.addr), snapshot)
        elif mt is MessageType.DATA_BLOCK_EXCL:
            # May answer either a write miss or an upgrade-turned-miss; the
            # defensive fallback resolves a read that was granted exclusivity.
            if resilient and not (
                self.has_pending(("c:excl", msg.addr)) or self.has_pending(("c:data", msg.addr))
            ):
                return
            snapshot = list(msg.info["words"])
            self._install_fill(msg.addr, msg.info["words"], LineState.EXCLUSIVE)
            if not self.resolve(("c:excl", msg.addr)):
                self.resolve(("c:data", msg.addr), snapshot)
        elif mt is MessageType.UPGRADE_ACK:
            if resilient and not self.has_pending(("c:excl", msg.addr)):
                return
            # The home saw us registered, so no INV preceded this ack on the
            # (ordered) home->us channel: the line must still be present.
            line = self.node.cache.peek(msg.addr)
            if line is None or not line.valid:
                raise RuntimeError(
                    f"UPGRADE_ACK for block {msg.addr} but no valid line at "
                    f"node {self.node.node_id}"
                )
            line.state = LineState.EXCLUSIVE
            store = self._mshr.pop(msg.addr, None)
            if store is not None:
                line.write_word(*store)
            self.resolve(("c:excl", msg.addr))
        elif mt is MessageType.WRITEBACK_ACK:
            self.resolve(("c:wback", msg.addr))
        elif mt is MessageType.RMW_REPLY:
            self.resolve(("c:rmw", msg.info["word"]), msg.info["old"])
        elif mt is MessageType.INV:
            self._on_inv(msg)
        elif mt is MessageType.FETCH:
            self._on_fetch(msg, invalidate=False)
        elif mt is MessageType.FETCH_INV:
            self._on_fetch(msg, invalidate=True)
        else:  # pragma: no cover - wiring error
            raise RuntimeError(f"WBI cache controller got {msg!r}")

    def _reply_later(self, req: Message, mtype: MessageType, addr: int, **info) -> None:
        """Send after the cache-directory check time; record for dedup replay
        (a retried probe must get the *original* answer — a re-run FETCH
        after invalidation would lose the dirty words forever)."""
        if self.node.resilience is not None:
            self.record_reply(req, req.src, mtype, addr, info)
        ev = self.sim.timeout(self.cfg.dir_cycle)
        ev.callbacks.append(lambda _e: self.send(req.src, mtype, addr=addr, **info))

    def _on_inv(self, msg: Message) -> None:
        line = self.node.cache.peek(msg.addr)
        if line is not None:
            counts = self.stats.counters.counts
            counts["wbi.invalidations_received"] = counts.get("wbi.invalidations_received", 0) + 1
            line.invalidate()
            self._notify_invalidation(msg.addr)
        self._reply_later(msg, MessageType.INV_ACK, msg.addr)

    def _on_fetch(self, msg: Message, invalidate: bool) -> None:
        line = self.node.cache.peek(msg.addr)
        if line is None:
            # Raced with our own eviction: the WRITEBACK is in flight and
            # carries the data; home will use it.  Tell home to use memory.
            self._reply_later(msg, MessageType.FETCH_REPLY, msg.addr, words=None)
            return
        words = list(line.data)
        if invalidate:
            line.invalidate()
            self._notify_invalidation(msg.addr)
        else:
            line.state = LineState.SHARED
            line.dirty_mask = 0
        self._reply_later(msg, MessageType.FETCH_REPLY, msg.addr, words=words)


class WBIHomeController(Controller):
    """Directory/home-side WBI engine."""

    #: Requests serialized by the per-block busy bit.
    REQUEST_TYPES = frozenset(
        {
            MessageType.READ_MISS,
            MessageType.WRITE_MISS,
            MessageType.UPGRADE,
            MessageType.WRITEBACK,
            MessageType.RMW_REQ,
        }
    )
    #: In-transaction responses (never deferred).
    RESPONSE_TYPES = frozenset({MessageType.INV_ACK, MessageType.FETCH_REPLY})
    IN_TYPES = REQUEST_TYPES | RESPONSE_TYPES

    #: Replies that grant a cached copy; a probe revokes them, so the
    #: home voids their dedup records before probing (see
    #: :meth:`Controller.void_stale_grants`).
    GRANT_TYPES = frozenset(
        {
            MessageType.DATA_BLOCK,
            MessageType.DATA_BLOCK_EXCL,
            MessageType.UPGRADE_ACK,
        }
    )

    def __init__(self, node: "Node"):
        super().__init__(node)
        self._ack_collectors: Dict[int, SourceAckCollector] = {}
        #: Request type -> home transaction, built once for :meth:`_admit`.
        self._handlers = {
            MessageType.READ_MISS: self._h_read_miss,
            MessageType.WRITE_MISS: self._h_write_miss,
            MessageType.UPGRADE: self._h_upgrade,
            MessageType.WRITEBACK: self._h_writeback,
            MessageType.RMW_REQ: self._h_rmw,
        }

    # -- dispatch ----------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Network entry point: dedup first, then admit.

        Deferred requests replayed by :meth:`_done` re-enter via
        :meth:`_admit` directly — they already passed dedup on arrival and
        must not be mistaken for their own duplicates.
        """
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        self._admit(msg)

    def _admit(self, msg: Message) -> None:
        mt = msg.mtype
        if mt is MessageType.INV_ACK:
            if self.node.resilience is None:
                coll = self._ack_collectors[msg.addr]
            else:
                coll = self._ack_collectors.get(msg.addr)
            if coll is not None:
                coll.ack(msg.src)
            return
        if mt is MessageType.FETCH_REPLY:
            self.resolve(("h:fetch", msg.addr), msg.info["words"])
            return
        entry = self.node.directory.entry(msg.addr)
        if entry.busy:
            entry.defer(msg)
            return
        entry.busy = True
        handler = self._handlers[mt]
        # The name only surfaces in traces and reprs: build it only then.
        name = f"wbi-home-{mt.name}-{msg.addr}" if self.obs is not None else ""
        Process(self.sim, handler(msg, entry), name)

    def _done(self, entry) -> None:
        """Close a transaction and replay the next deferred request."""
        entry.busy = False
        nxt = entry.pop_deferred()
        if nxt is not None:
            self._admit(nxt)

    # -- helpers ----------------------------------------------------------
    def _invalidate_sharers(self, entry, exclude: int):
        """Send INVs to all sharers except ``exclude``; wait for the acks."""
        targets = [s for s in sorted(entry.sharers) if s != exclude]
        coll = SourceAckCollector(self.sim, targets)
        rseq = self.rseq_or_none() if targets else None
        if targets:
            self._ack_collectors[entry.block] = coll
            for t in targets:
                self.void_stale_grants(t, entry.block, self.GRANT_TYPES)
                self.send(t, MessageType.INV, addr=entry.block, rseq=rseq)
            self.stats.counters.add("wbi.invalidations_sent", len(targets))
        yield from self.await_acks(
            coll,
            lambda waiting: [
                self.send(t, MessageType.INV, addr=entry.block, rseq=rseq) for t in waiting
            ],
        )
        self._ack_collectors.pop(entry.block, None)
        entry.sharers.clear()

    def _recall_from_owner(self, entry, invalidate: bool):
        """Fetch the dirty block back from its owner; returns fresh words."""
        mem = self.node.memory
        mtype = MessageType.FETCH_INV if invalidate else MessageType.FETCH
        owner = entry.owner
        self.void_stale_grants(owner, entry.block, self.GRANT_TYPES)
        words = yield from self.request(("h:fetch", entry.block), owner, mtype, addr=entry.block)
        if words is None:
            # The owner had already started a writeback; it is deferred on
            # this entry and will be replayed.  Use memory's current content
            # merged with the deferred writeback if present.
            for d in entry.deferred:
                if d.mtype is MessageType.WRITEBACK and d.src == entry.owner:
                    mem.write_dirty_words(entry.block, d.info["words"], d.info["mask"])
                    break
            words = mem.read_block(entry.block)
        else:
            mem.write_block(entry.block, words)
        yield self.sim.timeout(self.cfg.memory_cycle)
        return words

    # -- request handlers ----------------------------------------------------
    def _make_room_in_directory(self, entry, req: int):
        """Limited directory (Dir_i-NB): evict one sharer before adding
        another beyond the configured pointer limit."""
        limit = self.cfg.directory_limit
        if limit is None or req in entry.sharers or len(entry.sharers) < limit:
            return
        victim = next(iter(entry.sharers))
        coll = SourceAckCollector(self.sim, [victim])
        rseq = self.rseq_or_none()
        self._ack_collectors[entry.block] = coll
        self.void_stale_grants(victim, entry.block, self.GRANT_TYPES)
        self.send(victim, MessageType.INV, addr=entry.block, rseq=rseq)
        self.stats.counters.add("wbi.dir_evictions")
        yield from self.await_acks(
            coll,
            lambda waiting: [
                self.send(t, MessageType.INV, addr=entry.block, rseq=rseq) for t in waiting
            ],
        )
        self._ack_collectors.pop(entry.block, None)
        entry.sharers.discard(victim)

    def _h_read_miss(self, msg: Message, entry):
        req = msg.src
        yield self.sim.timeout(self.cfg.dir_cycle)
        mem = self.node.memory
        if entry.state is DirState.EXCLUSIVE and entry.owner != req:
            words = yield from self._recall_from_owner(entry, invalidate=False)
            entry.state = DirState.SHARED
            entry.sharers = {entry.owner, req}
            entry.owner = None
            self.reply_to(msg, MessageType.DATA_BLOCK, addr=entry.block, words=words)
        else:
            if entry.state is DirState.SHARED:
                yield from self._make_room_in_directory(entry, req)
            yield self.sim.timeout(self.cfg.memory_cycle)
            words = mem.read_block(entry.block)
            if entry.state is DirState.UNOWNED:
                entry.state = DirState.SHARED
                entry.sharers = {req}
            else:
                entry.sharers.add(req)
            self.reply_to(msg, MessageType.DATA_BLOCK, addr=entry.block, words=words)
        self._done(entry)

    def _h_write_miss(self, msg: Message, entry):
        req = msg.src
        yield self.sim.timeout(self.cfg.dir_cycle)
        mem = self.node.memory
        if entry.state is DirState.EXCLUSIVE and entry.owner != req:
            words = yield from self._recall_from_owner(entry, invalidate=True)
        else:
            if entry.state is DirState.SHARED:
                yield from self._invalidate_sharers(entry, exclude=req)
            yield self.sim.timeout(self.cfg.memory_cycle)
            words = mem.read_block(entry.block)
        entry.state = DirState.EXCLUSIVE
        entry.owner = req
        entry.sharers = set()
        self.reply_to(msg, MessageType.DATA_BLOCK_EXCL, addr=entry.block, words=words)
        self._done(entry)

    def _h_upgrade(self, msg: Message, entry):
        req = msg.src
        yield self.sim.timeout(self.cfg.dir_cycle)
        if entry.state is DirState.SHARED and req in entry.sharers:
            yield from self._invalidate_sharers(entry, exclude=req)
            entry.state = DirState.EXCLUSIVE
            entry.owner = req
            entry.sharers = set()
            self.reply_to(msg, MessageType.UPGRADE_ACK, addr=entry.block)
        else:
            # The requester's copy is gone (invalidated or recalled while the
            # upgrade was in flight): degrade to a full write miss.
            if entry.state is DirState.EXCLUSIVE and entry.owner != req:
                words = yield from self._recall_from_owner(entry, invalidate=True)
            else:
                if entry.state is DirState.SHARED:
                    yield from self._invalidate_sharers(entry, exclude=req)
                yield self.sim.timeout(self.cfg.memory_cycle)
                words = self.node.memory.read_block(entry.block)
            entry.state = DirState.EXCLUSIVE
            entry.owner = req
            entry.sharers = set()
            self.reply_to(msg, MessageType.DATA_BLOCK_EXCL, addr=entry.block, words=words)
        self._done(entry)

    def _h_writeback(self, msg: Message, entry):
        req = msg.src
        yield self.sim.timeout(self.cfg.dir_cycle)
        if entry.state is DirState.EXCLUSIVE and entry.owner == req:
            self.node.memory.write_dirty_words(entry.block, msg.info["words"], msg.info["mask"])
            yield self.sim.timeout(self.cfg.memory_cycle)
            entry.state = DirState.UNOWNED
            entry.owner = None
        else:
            # Stale writeback (raced with a fetch we already served).
            entry.sharers.discard(req)
        self.reply_to(msg, MessageType.WRITEBACK_ACK, addr=entry.block)
        self._done(entry)

    def _h_rmw(self, msg: Message, entry):
        req = msg.src
        yield self.sim.timeout(self.cfg.dir_cycle)
        mem = self.node.memory
        if entry.state is DirState.EXCLUSIVE:
            yield from self._recall_from_owner(entry, invalidate=True)
            entry.owner = None
        elif entry.state is DirState.SHARED:
            yield from self._invalidate_sharers(entry, exclude=-1)
        entry.state = DirState.UNOWNED
        yield self.sim.timeout(self.cfg.memory_cycle)
        word = msg.info["word"]
        old = mem.read_word(word)
        mem.write_word(word, apply_rmw(msg.info["op"], old, msg.info["operand"]))
        self.reply_to(msg, MessageType.RMW_REPLY, addr=entry.block, word=word, old=old)
        self._done(entry)
