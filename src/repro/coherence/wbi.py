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

from ..cache.states import LINE_EXCLUSIVE, LINE_SHARED, LineState
from ..memory.directory import DIR_EXCLUSIVE, DIR_SHARED, UNOWNED
from ..network.message import (
    DATA_BLOCK,
    DATA_BLOCK_EXCL,
    FETCH,
    FETCH_INV,
    FETCH_REPLY,
    INV,
    INV_ACK,
    READ_MISS,
    RMW_REPLY,
    RMW_REQ,
    UPGRADE,
    UPGRADE_ACK,
    WRITEBACK,
    WRITEBACK_ACK,
    WRITE_MISS,
    Message,
    MessageType,
)
from ..sim.core import Event
from .base import CacheController, HomeController, SourceAckCollector, resolves

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


class WBICacheController(CacheController):
    """Processor-side WBI engine: blocking read/write/rmw plus remote handlers."""

    _PREFIX = "wbi"

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
        yield self.cfg.cache_cycle
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
        words = yield from self.request(("c:data", block), home, READ_MISS, addr=block)
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
        yield self.cfg.cache_cycle
        line = self.node.cache.lookup(block, now=self.sim.now)
        counts = self.stats.counters.counts
        if line is not None and line.state is LINE_EXCLUSIVE:
            counts["wbi.write_hits"] = counts.get("wbi.write_hits", 0) + 1
            line.write_word(offset, value)
            return
        home = self.amap.home_of(block)
        t0 = self.sim.now
        if line is not None and line.state is LINE_SHARED:
            counts["wbi.upgrades"] = counts.get("wbi.upgrades", 0) + 1
            self._mshr[block] = (offset, value)
            yield from self.request(("c:excl", block), home, UPGRADE, addr=block)
            if self.obs is not None:
                self.obs.span(
                    "miss:wbi.upgrade", "coh", self.node.node_id, t0, args={"block": block}
                )
            return
        counts["wbi.write_misses"] = counts.get("wbi.write_misses", 0) + 1
        yield from self._evict_for(block)
        self._mshr[block] = (offset, value)
        yield from self.request(("c:excl", block), home, WRITE_MISS, addr=block)
        if self.obs is not None:
            self.obs.span(
                "miss:wbi.write", "coh", self.node.node_id, t0, args={"block": block}
            )

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
    def _on_data_block(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.has_pending(("c:data", msg.addr)):
            return  # stale duplicate fill: nobody is waiting
        snapshot = list(msg.info["words"])
        self._install_fill(msg.addr, msg.info["words"], LINE_SHARED)
        self.resolve(("c:data", msg.addr), snapshot)

    def _on_data_block_excl(self, msg: Message) -> None:
        # May answer either a write miss or an upgrade-turned-miss; the
        # defensive fallback resolves a read that was granted exclusivity.
        if self.node.resilience is not None and not (
            self.has_pending(("c:excl", msg.addr)) or self.has_pending(("c:data", msg.addr))
        ):
            return
        snapshot = list(msg.info["words"])
        self._install_fill(msg.addr, msg.info["words"], LINE_EXCLUSIVE)
        if not self.resolve(("c:excl", msg.addr)):
            self.resolve(("c:data", msg.addr), snapshot)

    def _on_upgrade_ack(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.has_pending(("c:excl", msg.addr)):
            return
        # The home saw us registered, so no INV preceded this ack on the
        # (ordered) home->us channel: the line must still be present.
        line = self.node.cache.peek(msg.addr)
        if line is None or not line.valid:
            raise RuntimeError(
                f"UPGRADE_ACK for block {msg.addr} but no valid line at "
                f"node {self.node.node_id}"
            )
        line.state = LINE_EXCLUSIVE
        store = self._mshr.pop(msg.addr, None)
        if store is not None:
            line.write_word(*store)
        self.resolve(("c:excl", msg.addr))

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
        self._reply_later(msg, INV_ACK, msg.addr)

    def _on_fetch(self, msg: Message) -> None:
        """FETCH downgrades the dirty line to SHARED; FETCH_INV drops it."""
        line = self.node.cache.peek(msg.addr)
        if line is None:
            # Raced with our own eviction: the WRITEBACK is in flight and
            # carries the data; home will use it.  Tell home to use memory.
            self._reply_later(msg, FETCH_REPLY, msg.addr, words=None)
            return
        words = list(line.data)
        if msg.mtype is FETCH_INV:
            line.invalidate()
            self._notify_invalidation(msg.addr)
        else:
            line.state = LINE_SHARED
            line.dirty_mask = 0
        self._reply_later(msg, FETCH_REPLY, msg.addr, words=words)

    _RESPONSES = {
        DATA_BLOCK: _on_data_block,
        DATA_BLOCK_EXCL: _on_data_block_excl,
        UPGRADE_ACK: _on_upgrade_ack,
        WRITEBACK_ACK: CacheController._on_writeback_ack,
        RMW_REPLY: CacheController._on_rmw_reply,
        INV: _on_inv,
        FETCH: _on_fetch,
        FETCH_INV: _on_fetch,
    }


class WBIHomeController(HomeController):
    """Directory/home-side WBI engine."""

    _PROCESS_NAME = "wbi-home-{mt}-{addr}"

    #: Replies that grant a cached copy; a probe revokes them, so the
    #: home voids their dedup records before probing (see
    #: :meth:`Controller.void_stale_grants`).
    GRANT_TYPES = frozenset(
        {
            DATA_BLOCK,
            DATA_BLOCK_EXCL,
            UPGRADE_ACK,
        }
    )

    def __init__(self, node: "Node"):
        super().__init__(node)
        self._ack_collectors: Dict[int, SourceAckCollector] = {}

    def _on_inv_ack(self, msg: Message) -> None:
        if self.node.resilience is None:
            coll = self._ack_collectors[msg.addr]
        else:
            coll = self._ack_collectors.get(msg.addr)
        if coll is not None:
            coll.ack(msg.src)

    # -- helpers ----------------------------------------------------------
    def _probe(self, entry, targets, counter: str):
        """Send INVs to ``targets``, tallied under ``counter``; wait for
        every ack, re-probing laggards with the same ``rseq``."""
        coll = SourceAckCollector(self.sim, targets)
        rseq = self.rseq_or_none() if targets else None
        # Without resilience there are no dedup records to void: skip the
        # bookkeeping calls (each would return at once).
        resilient = self.node.resilience is not None
        voided = []
        if targets:
            self._ack_collectors[entry.block] = coll
            for t in targets:
                if resilient:
                    voided += self.void_stale_grants(t, entry.block, self.GRANT_TYPES)
                self.send(t, INV, addr=entry.block, rseq=rseq)
            self.stats.counters.add(counter, len(targets))
        yield from self.await_acks(
            coll,
            lambda waiting: [
                self.send(t, INV, addr=entry.block, rseq=rseq) for t in waiting
            ],
        )
        if voided:
            self.forget_voided(voided)
        self._ack_collectors.pop(entry.block, None)

    def _invalidate_sharers(self, entry, exclude: int):
        """Invalidate all sharers except ``exclude``."""
        targets = [s for s in sorted(entry.sharers) if s != exclude]
        yield from self._probe(entry, targets, "wbi.invalidations_sent")
        entry.sharers.clear()

    def _recall_from_owner(self, entry, invalidate: bool):
        """Fetch the dirty block back from its owner; returns fresh words."""
        mem = self.node.memory
        mtype = FETCH_INV if invalidate else FETCH
        owner = entry.owner
        voided = (
            self.void_stale_grants(owner, entry.block, self.GRANT_TYPES)
            if self.node.resilience is not None
            else None
        )
        words = yield from self.request(("h:fetch", entry.block), owner, mtype, addr=entry.block)
        if voided:
            self.forget_voided(voided)
        if words is None:
            # The owner had already started a writeback; it is deferred on
            # this entry and will be replayed.  Use memory's current content
            # merged with the deferred writeback if present.
            for d in entry.deferred:
                if d.mtype is WRITEBACK and d.src == entry.owner:
                    mem.write_dirty_words(entry.block, d.info["words"], d.info["mask"])
                    break
            words = mem.read_block(entry.block)
        else:
            mem.write_block(entry.block, words)
        yield self.cfg.memory_cycle
        return words

    # -- request handlers ----------------------------------------------------
    def _make_room_in_directory(self, entry, req: int):
        """Limited directory (Dir_i-NB): evict one sharer before adding
        another beyond the configured pointer limit."""
        limit = self.cfg.directory_limit
        if limit is None or req in entry.sharers or len(entry.sharers) < limit:
            return
        victim = next(iter(entry.sharers))
        yield from self._probe(entry, [victim], "wbi.dir_evictions")
        entry.sharers.discard(victim)

    def _h_read_miss(self, msg: Message, entry):
        req = msg.src
        yield self.cfg.dir_cycle
        mem = self.node.memory
        if entry.state is DIR_EXCLUSIVE and entry.owner != req:
            words = yield from self._recall_from_owner(entry, invalidate=False)
            entry.state = DIR_SHARED
            entry.sharers = {entry.owner, req}
            entry.owner = None
            self.reply_to(msg, DATA_BLOCK, addr=entry.block, words=words)
        else:
            if entry.state is DIR_SHARED:
                yield from self._make_room_in_directory(entry, req)
            yield self.cfg.memory_cycle
            words = mem.read_block(entry.block)
            if entry.state is UNOWNED:
                entry.state = DIR_SHARED
                entry.sharers = {req}
            else:
                entry.sharers.add(req)
            self.reply_to(msg, DATA_BLOCK, addr=entry.block, words=words)
        self._done(entry)

    def _h_write_miss(self, msg: Message, entry):
        yield self.cfg.dir_cycle
        yield from self._grant_exclusive(msg, entry)
        self._done(entry)

    def _grant_exclusive(self, msg: Message, entry):
        """Revoke every other copy and reply with an exclusive one."""
        req = msg.src
        if entry.state is DIR_EXCLUSIVE and entry.owner != req:
            words = yield from self._recall_from_owner(entry, invalidate=True)
        else:
            if entry.state is DIR_SHARED:
                yield from self._invalidate_sharers(entry, exclude=req)
            yield self.cfg.memory_cycle
            words = self.node.memory.read_block(entry.block)
        entry.state = DIR_EXCLUSIVE
        entry.owner = req
        entry.sharers = set()
        self.reply_to(msg, DATA_BLOCK_EXCL, addr=entry.block, words=words)

    def _h_upgrade(self, msg: Message, entry):
        req = msg.src
        yield self.cfg.dir_cycle
        if entry.state is DIR_SHARED and req in entry.sharers:
            yield from self._invalidate_sharers(entry, exclude=req)
            entry.state = DIR_EXCLUSIVE
            entry.owner = req
            entry.sharers = set()
            self.reply_to(msg, UPGRADE_ACK, addr=entry.block)
        else:
            # The requester's copy is gone (invalidated or recalled while the
            # upgrade was in flight): degrade to a full write miss.
            yield from self._grant_exclusive(msg, entry)
        self._done(entry)

    def _h_writeback(self, msg: Message, entry):
        req = msg.src
        yield self.cfg.dir_cycle
        if entry.state is DIR_EXCLUSIVE and entry.owner == req:
            self.node.memory.write_dirty_words(entry.block, msg.info["words"], msg.info["mask"])
            yield self.cfg.memory_cycle
            entry.state = UNOWNED
            entry.owner = None
        else:
            # Stale writeback (raced with a fetch we already served).
            entry.sharers.discard(req)
        self.reply_to(msg, WRITEBACK_ACK, addr=entry.block)
        self._done(entry)

    def _h_rmw(self, msg: Message, entry):
        req = msg.src
        yield self.cfg.dir_cycle
        mem = self.node.memory
        if entry.state is DIR_EXCLUSIVE:
            yield from self._recall_from_owner(entry, invalidate=True)
            entry.owner = None
        elif entry.state is DIR_SHARED:
            yield from self._invalidate_sharers(entry, exclude=-1)
        entry.state = UNOWNED
        yield self.cfg.memory_cycle
        word = msg.info["word"]
        old = mem.read_word(word)
        mem.write_word(word, apply_rmw(msg.info["op"], old, msg.info["operand"]))
        self.reply_to(msg, RMW_REPLY, addr=entry.block, word=word, old=old)
        self._done(entry)

    _HANDLERS = {
        READ_MISS: _h_read_miss,
        WRITE_MISS: _h_write_miss,
        UPGRADE: _h_upgrade,
        WRITEBACK: _h_writeback,
        RMW_REQ: _h_rmw,
    }
    _RESPONSES = {INV_ACK: _on_inv_ack, FETCH_REPLY: resolves("h:fetch", "words")}
