"""Sender-initiated write-update protocol (Dragon/Firefly-style comparator).

Section 4.1 contrasts reader-initiated coherence with classic write-update
schemes: "In the latter, whenever a read operation is performed it is
remembered forever until the line is replaced by the reader.  So readers
continue to receive updates even if the line is not actively used."

This directory version makes that concrete:

* a read miss registers the reader in the block's sharer set and stays
  registered until the line is replaced (an explicit ``WU_EVICT`` trims
  the set — real hardware snoops; a directory must be told);
* every write is written through to the home, which updates memory and
  pushes the word to every other registered sharer;
* the writer stalls until the home's ack (the classic strongly-consistent
  formulation; the buffered variants belong to the primitives machine).

The protocol exists for ablations: it loses to READ-UPDATE exactly when
stale subscribers accumulate, which is the paper's argument for putting
the subscription under *reader* control.

Resilient mode (``node.resilience`` set) adds a recovery layer on top:

* requester operations issue through :meth:`Controller.request` (timeout +
  backoff reissue, per-request ``rseq`` dedup at the home, recorded-reply
  replay for idempotent retries — RMW included);
* update pushes become **versioned and acked**: the home keeps a per-word
  version counter, every ``WU_UPDATE`` carries ``ver`` and is retried until
  each sharer returns ``WU_UPDATE_ACK``; sharers apply a pushed word only
  when its version advances their applied-version watermark, so duplicated
  or reordered pushes can never roll a word backwards.  ``DATA_BLOCK``
  replies carry the block's version vector to seed the watermark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..cache.states import LineState
from ..network.message import Message, MessageType
from ..sim.core import Event, Process
from .base import Controller, SourceAckCollector
from .wbi import apply_rmw

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node

__all__ = ["WUCacheController", "WUHomeController"]


class WUCacheController(Controller):
    """Processor-side write-update engine."""

    IN_TYPES = frozenset(
        {
            MessageType.DATA_BLOCK,
            MessageType.WU_UPDATE,
            MessageType.WU_ACK,
            MessageType.RMW_REPLY,
        }
    )

    def __init__(self, node: "Node"):
        super().__init__(node)
        self._change_watchers: Dict[int, List[Event]] = {}
        #: word_addr -> highest pushed version applied (resilient mode only);
        #: rejects stale duplicated/reordered WU_UPDATE deliveries.
        self._applied_ver: Dict[int, int] = {}

    # -- processor operations ------------------------------------------------
    def read(self, word_addr: int):
        """Coherent read; registers this cache for future updates."""
        # AddressMap.block_of / offset_of inlined (same check, one pass).
        if word_addr < 0:
            raise ValueError("addresses are non-negative")
        block, offset = divmod(word_addr, self.amap.words_per_block)
        yield self.cfg.cache_cycle
        line = self.node.cache.lookup(block, now=self.sim.now)
        counts = self.stats.counters.counts
        if line is not None:
            counts["wu.read_hits"] = counts.get("wu.read_hits", 0) + 1
            return line.data[offset]
        counts["wu.read_misses"] = counts.get("wu.read_misses", 0) + 1
        t0 = self.sim.now
        yield from self._evict_for(block)
        home = self.amap.home_of(block)
        # The DATA_BLOCK handler installs the line synchronously at delivery:
        # the home registered us as a sharer before replying, so an update it
        # pushes right after must find the copy already present (the channel
        # is FIFO) or the word would be stale forever.
        words = yield from self.request(("c:data", block), home, MessageType.READ_MISS, addr=block)
        if self.obs is not None:
            self.obs.span(
                "miss:wu.read", "coh", self.node.node_id, t0, args={"block": block}
            )
        return words[offset]

    def write(self, word_addr: int, value: int):
        """Write-through-update: home pushes the word to all sharers."""
        block = self.amap.block_of(word_addr)
        offset = self.amap.offset_of(word_addr)
        counts = self.stats.counters.counts
        counts["wu.writes"] = counts.get("wu.writes", 0) + 1
        yield self.cfg.cache_cycle
        line = self.node.cache.peek(block)
        if line is not None:
            line.write_word(offset, value, dirty=False)  # write-through: clean
        home = self.amap.home_of(block)
        t0 = self.sim.now
        yield from self.request(
            ("c:wuack", word_addr), home, MessageType.WU_WRITE,
            addr=block, word=word_addr, value=value,
        )
        if self.obs is not None:
            self.obs.span(
                "miss:wu.write", "coh", self.node.node_id, t0, args={"word": word_addr}
            )

    def rmw(self, word_addr: int, op: str, operand=None):
        """Atomic at home; the new value is pushed to sharers like a write."""
        counts = self.stats.counters.counts
        counts["wu.rmw"] = counts.get("wu.rmw", 0) + 1
        block = self.amap.block_of(word_addr)
        home = self.amap.home_of(block)
        yield self.cfg.cache_cycle
        t0 = self.sim.now
        old = yield from self.request(
            ("c:rmw", word_addr), home, MessageType.RMW_REQ,
            addr=block, word=word_addr, op=op, operand=operand,
        )
        if self.obs is not None:
            self.obs.span(
                "miss:wu.rmw", "coh", self.node.node_id, t0, args={"word": word_addr, "op": op}
            )
        return old

    def watch_invalidation(self, block: int) -> Event:
        """Event fired when ``block``'s local copy next *changes*.

        Under write-update nothing is invalidated; spin loops wait for the
        pushed update instead.  The method keeps the WBI name so the
        software locks in :mod:`repro.sync.swlock` run unchanged on either
        machine.
        """
        ev = Event(self.sim, name=f"chg-watch({block})")
        self._change_watchers.setdefault(block, []).append(ev)
        return ev

    # -- internals ----------------------------------------------------------
    def _evict_for(self, block: int):
        victim = self.node.cache.victim_for(block)
        if victim is None or not victim.valid:
            return
        # Copies are always clean (write-through); just deregister.
        self.stats.counters.add("wu.evictions")
        self.send(
            self.amap.home_of(victim.block), MessageType.WU_EVICT, addr=victim.block
        )
        self._notify_change(victim.block)
        victim.invalidate()
        return
        yield  # pragma: no cover - generator form kept for symmetry

    def _notify_change(self, block: int) -> None:
        watchers = self._change_watchers.pop(block, None)
        if watchers:
            for ev in watchers:
                ev.succeed()

    # -- handlers ----------------------------------------------------------
    def handle(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        mt = msg.mtype
        resilient = self.node.resilience is not None
        if mt is MessageType.DATA_BLOCK:
            if resilient and not self.has_pending(("c:data", msg.addr)):
                return  # stale duplicate of an already-answered read miss
            snapshot = list(msg.info["words"])
            self.node.cache.install(
                msg.addr, list(msg.info["words"]), LineState.SHARED, now=self.sim.now
            )
            if resilient and "vers" in msg.info:
                # Seed the applied-version watermark from the home's version
                # vector: an in-flight older push must not undo this data.
                for off, ver in enumerate(msg.info["vers"]):
                    word = self.amap.word_addr(msg.addr, off)
                    if ver > self._applied_ver.get(word, 0):
                        self._applied_ver[word] = ver
            self.resolve(("c:data", msg.addr), snapshot)
        elif mt is MessageType.WU_UPDATE:
            self._on_update(msg, resilient)
        elif mt is MessageType.WU_ACK:
            self.resolve(("c:wuack", msg.info["word"]))
        elif mt is MessageType.RMW_REPLY:
            self.resolve(("c:rmw", msg.info["word"]), msg.info["old"])
        else:  # pragma: no cover - wiring error
            raise RuntimeError(f"WU cache controller got {msg!r}")

    def _on_update(self, msg: Message, resilient: bool) -> None:
        word, value = msg.info["word"], msg.info["value"]
        stale = False
        if resilient and "ver" in msg.info:
            ver = msg.info["ver"]
            stale = ver <= self._applied_ver.get(word, 0)
            if not stale:
                self._applied_ver[word] = ver
        if not stale:
            line = self.node.cache.peek(msg.addr)
            if line is not None:
                counts = self.stats.counters.counts
                counts["wu.updates_received"] = counts.get("wu.updates_received", 0) + 1
                line.write_word(self.amap.offset_of(word), value, dirty=False)
            self._notify_change(msg.addr)
        if msg.info.get("ack"):
            # Always ack — even stale duplicates and pushes to an evicted
            # line — so the home's fan-in can complete.
            self.send(msg.src, MessageType.WU_UPDATE_ACK, addr=msg.addr)


class WUHomeController(Controller):
    """Home-side write-update engine: sharer registry + update fan-out."""

    REQUEST_TYPES = frozenset(
        {
            MessageType.READ_MISS,
            MessageType.WU_WRITE,
            MessageType.WU_EVICT,
            MessageType.RMW_REQ,
        }
    )
    IN_TYPES = REQUEST_TYPES | {MessageType.WU_UPDATE_ACK}

    def __init__(self, node: "Node"):
        super().__init__(node)
        #: word_addr -> version of the last write/rmw (resilient mode only).
        self._word_ver: Dict[int, int] = {}
        #: block -> in-flight update fan-in (resilient mode only).
        self._upd_collectors: Dict[int, SourceAckCollector] = {}
        #: Request type -> home transaction, built once for :meth:`_admit`.
        self._handlers = {
            MessageType.READ_MISS: self._h_read_miss,
            MessageType.WU_WRITE: self._h_write,
            MessageType.WU_EVICT: self._h_evict,
            MessageType.RMW_REQ: self._h_rmw,
        }

    def handle(self, msg: Message) -> None:
        if msg.mtype is MessageType.WU_UPDATE_ACK:
            # Fan-in response for the in-flight transaction: bypasses both
            # dedup (the collector absorbs duplicates) and the busy check.
            coll = self._upd_collectors.get(msg.addr)
            if coll is not None:
                coll.ack(msg.src)
            return
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        self._admit(msg)

    def _admit(self, msg: Message) -> None:
        entry = self.node.directory.entry(msg.addr)
        if entry.busy:
            entry.defer(msg)
            return
        entry.busy = True
        handler = self._handlers[msg.mtype]
        # The name only surfaces in traces and reprs: build it only then.
        name = f"wu-home-{msg.mtype.name}-{msg.addr}" if self.obs is not None else ""
        Process(self.sim, handler(msg, entry), name)

    def _done(self, entry) -> None:
        entry.busy = False
        nxt = entry.pop_deferred()
        if nxt is not None:
            self._admit(nxt)

    def _h_read_miss(self, msg: Message, entry):
        yield self.cfg.dir_cycle + self.cfg.memory_cycle
        entry.sharers.add(msg.src)
        node = self.node
        words = node.memory.read_block(entry.block)
        if node.resilience is None:
            self.reply_to(msg, MessageType.DATA_BLOCK, addr=entry.block, words=words)
        else:
            # Answered, never recorded for dedup replay: an update pushed
            # after this reply can land while the reply is lost, so a
            # replayed copy would install data older than the sharer's
            # version watermark.  A retry re-executes against current
            # memory and versions; a late duplicate's reply finds no
            # pending read at the requester and is discarded there.
            vers = [self._word_ver.get(w, 0) for w in self.amap.words_of(entry.block)]
            self.send(msg.src, MessageType.DATA_BLOCK, addr=entry.block, words=words, vers=vers)
            rseq = msg.info.get("rseq")
            if rseq is not None:
                node.req_log.pop((msg.src, rseq), None)
        self._done(entry)

    def _push_update(self, entry, word: int, value: int, exclude: int):
        """Fan the updated word out to the registered sharers.

        Reliable mode: fire-and-forget (FIFO channels deliver in order).
        Resilient mode: versioned + acked — re-pushed to laggards until
        every sharer confirms, so a dropped push cannot strand a stale copy.
        """
        targets = [s for s in sorted(entry.sharers) if s != exclude]
        if not targets:
            return
        self.stats.counters.add("wu.pushes", len(targets))
        if self.node.resilience is None:
            for t in targets:
                self.send(t, MessageType.WU_UPDATE, addr=entry.block, word=word, value=value)
            return
        ver = self._word_ver[word]  # bumped by the caller before pushing

        def push(tgts):
            for t in sorted(tgts):
                self.send(
                    t, MessageType.WU_UPDATE, addr=entry.block,
                    word=word, value=value, ver=ver, ack=True,
                )

        coll = SourceAckCollector(self.sim, targets)
        self._upd_collectors[entry.block] = coll
        push(targets)
        try:
            yield from self.await_acks(coll, push)
        finally:
            self._upd_collectors.pop(entry.block, None)

    def _bump_ver(self, word: int) -> None:
        if self.node.resilience is not None:
            self._word_ver[word] = self._word_ver.get(word, 0) + 1

    def _h_write(self, msg: Message, entry):
        yield self.cfg.dir_cycle + self.cfg.memory_cycle
        word, value = msg.info["word"], msg.info["value"]
        self.node.memory.write_word(word, value)
        self._bump_ver(word)
        yield from self._push_update(entry, word, value, exclude=msg.src)
        self.reply_to(msg, MessageType.WU_ACK, addr=entry.block, word=word)
        self._done(entry)

    def _h_evict(self, msg: Message, entry):
        yield self.cfg.dir_cycle
        entry.sharers.discard(msg.src)
        self._done(entry)

    def _h_rmw(self, msg: Message, entry):
        yield self.cfg.dir_cycle + self.cfg.memory_cycle
        word = msg.info["word"]
        mem = self.node.memory
        old = mem.read_word(word)
        new = apply_rmw(msg.info["op"], old, msg.info["operand"])
        mem.write_word(word, new)
        self._bump_ver(word)
        yield from self._push_update(entry, word, new, exclude=-1)
        self.reply_to(msg, MessageType.RMW_REPLY, addr=entry.block, word=word, old=old)
        self._done(entry)
