"""The paper machine's data protocol: local caching + reader-initiated
coherence (Section 4.1).

Plain READ/WRITE behave as a uniprocessor cache — **no** coherence
maintenance; per-word dirty bits record local modifications and only dirty
words are written back (eliminating false sharing and the delayed-write
lost-update problem).  Consistency is requested explicitly:

* ``READ-GLOBAL`` bypasses the cache and reads main memory.
* ``WRITE-GLOBAL`` goes through the write buffer to main memory; the home
  then propagates the updated block down the doubly-linked list of
  ``READ-UPDATE`` subscribers (reader-initiated updates — the dual of
  sender-initiated write-update schemes).
* ``READ-UPDATE`` subscribes the reader; ``RESET-UPDATE`` unsubscribes.

The home keeps an ordered mirror of each block's subscriber list in the
directory entry (``ru_subscribers``); the distributed prev/next pointers in
cache lines are maintained by explicit messages, mirror the home list, and
are cross-checked by the verification layer.  List surgery and update
propagation are serialized per block by the directory busy bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..cache.states import LineState, LockMode
from ..memory.directory import Usage
from ..network.message import Message, MessageType
from ..sim.core import Event, Process
from .base import AckCollector, Controller
from .wbi import apply_rmw

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node

__all__ = ["PrimitivesCacheController", "PrimitivesHomeController"]


class PrimitivesCacheController(Controller):
    """Processor-side engine for the Table 1 read/write primitives."""

    IN_TYPES = frozenset(
        {
            MessageType.DATA_BLOCK,
            MessageType.READ_GLOBAL_REPLY,
            MessageType.WRITEBACK_ACK,
            MessageType.GLOBAL_WRITE_ACK,
            MessageType.RU_DATA,
            MessageType.RU_UPDATE,
            MessageType.RU_UPDATE_FWD,
            MessageType.RU_UNLINK,
            MessageType.RESET_UPDATE_ACK,
            MessageType.RMW_REPLY,
        }
    )

    def __init__(self, node: "Node"):
        super().__init__(node)
        self._update_watchers: Dict[int, List[Event]] = {}
        #: Subscriber-list traffic (RU_UPDATE_FWD / RU_UNLINK from *other
        #: caches*) that arrived before our own RU_DATA: those messages
        #: target the subscription we are about to install (the home
        #: serialized our RU_REQ first) but travel on a different network
        #: channel, so FIFO ordering cannot sequence them after the fill.
        #: They are replayed as soon as the subscription line exists.
        self._ru_deferred: Dict[int, List[Message]] = {}

    # ================= Table 1 primitives (generators) =====================
    def read(self, word_addr: int):
        """READ: retrieve data without coherence maintenance."""
        # AddressMap.block_of / offset_of inlined (same check, one pass).
        if word_addr < 0:
            raise ValueError("addresses are non-negative")
        block, offset = divmod(word_addr, self.amap.words_per_block)
        yield self.sim.timeout(self.cfg.cache_cycle)
        line = self.node.cache.lookup(block, now=self.sim.now)
        counts = self.stats.counters.counts
        if line is not None:
            counts["prim.read_hits"] = counts.get("prim.read_hits", 0) + 1
            return line.data[offset]
        counts["prim.read_misses"] = counts.get("prim.read_misses", 0) + 1
        line = yield from self._fetch_block(block)
        return line.data[offset]

    def write(self, word_addr: int, value: int):
        """WRITE: write data without coherence maintenance (per-word dirty)."""
        if word_addr < 0:
            raise ValueError("addresses are non-negative")
        block, offset = divmod(word_addr, self.amap.words_per_block)
        yield self.sim.timeout(self.cfg.cache_cycle)
        line = self.node.cache.lookup(block, now=self.sim.now)
        counts = self.stats.counters.counts
        if line is None:
            counts["prim.write_misses"] = counts.get("prim.write_misses", 0) + 1
            line = yield from self._fetch_block(block)
        else:
            counts["prim.write_hits"] = counts.get("prim.write_hits", 0) + 1
        line.write_word(offset, value)

    def read_global(self, word_addr: int):
        """READ-GLOBAL: read main memory, bypassing the local cache."""
        counts = self.stats.counters.counts
        counts["prim.read_globals"] = counts.get("prim.read_globals", 0) + 1
        block = self.amap.block_of(word_addr)
        home = self.amap.home_of(block)
        yield self.sim.timeout(self.cfg.cache_cycle)
        t0 = self.sim.now
        value = yield from self.request(
            ("c:rg", word_addr), home, MessageType.READ_GLOBAL, addr=block, word=word_addr
        )
        if self.obs is not None:
            self.obs.span(
                "miss:prim.read_global", "coh", self.node.node_id, t0, args={"word": word_addr}
            )
        return value

    def write_global(self, word_addr: int, value: int):
        """WRITE-GLOBAL: deposit in the write buffer; no stall.

        If the block is cached locally, the local copy is refreshed (clean)
        so the writer's subsequent plain READs observe its own write.
        """
        counts = self.stats.counters.counts
        counts["prim.write_globals"] = counts.get("prim.write_globals", 0) + 1
        block = self.amap.block_of(word_addr)
        line = self.node.cache.peek(block)
        if line is not None:
            line.write_word(self.amap.offset_of(word_addr), value, dirty=False)
        yield self.sim.timeout(self.cfg.cache_cycle)
        yield self.node.write_buffer.put(word_addr, value)

    def flush_buffer(self):
        """FLUSH-BUFFER: stall until all buffered global writes are performed."""
        self.stats.counters.add("prim.flushes")
        t0 = self.sim.now
        yield self.node.write_buffer.flush()
        if self.obs is not None:
            self.obs.span("flush_buffer", "wb", self.node.node_id, t0)

    def read_update(self, word_addr: int):
        """READ-UPDATE: read and subscribe to future updates of the block."""
        block = self.amap.block_of(word_addr)
        offset = self.amap.offset_of(word_addr)
        yield self.sim.timeout(self.cfg.cache_cycle)
        line = self.node.cache.lookup(block, now=self.sim.now)
        if line is not None and line.update:
            self.stats.counters.add("prim.ru_hits")
            return line.read_word(offset)
        self.stats.counters.add("prim.ru_subscribes")
        t0 = self.sim.now
        yield from self._evict_for(block)
        home = self.amap.home_of(block)
        # The RU_DATA handler installs the subscription line synchronously at
        # delivery so pushed updates can never slip between reply and install.
        words, old_head = yield from self.request(
            ("c:rudata", block), home, MessageType.RU_REQ, addr=block
        )
        if self.obs is not None:
            self.obs.span(
                "miss:prim.read_update", "coh", self.node.node_id, t0, args={"block": block}
            )
        if old_head is not None:
            # Thread ourselves before the old head of the subscriber list.
            self.send(old_head, MessageType.RU_UNLINK, addr=block, set_prev=self.node.node_id)
        return words[offset]

    def reset_update(self, word_addr: int):
        """RESET-UPDATE: cancel the update subscription for the block."""
        block = self.amap.block_of(word_addr)
        line = self.node.cache.peek(block)
        yield self.sim.timeout(self.cfg.cache_cycle)
        if line is None or not line.update:
            return
        yield from self._unsubscribe(line)

    def rmw(self, word_addr: int, op: str, operand=None):
        """Atomic read-modify-write at home memory (for software sync)."""
        counts = self.stats.counters.counts
        counts["prim.rmw"] = counts.get("prim.rmw", 0) + 1
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
                "miss:prim.rmw", "coh", self.node.node_id, t0, args={"word": word_addr, "op": op}
            )
        return old

    def watch_update(self, block: int) -> Event:
        """Event fired when the next RU update for ``block`` lands here.

        Lets workloads wait for a producer's value without polling.
        """
        ev = Event(self.sim, name=f"upd-watch({block})")
        self._update_watchers.setdefault(block, []).append(ev)
        return ev

    # ================= internals ==========================================
    def _fetch_block(self, block: int):
        t0 = self.sim.now
        yield from self._evict_for(block)
        home = self.amap.home_of(block)
        words = yield from self.request(("c:data", block), home, MessageType.READ_MISS, addr=block)
        line, _ = self.node.cache.install(block, words, LineState.VALID_LOCAL, now=self.sim.now)
        if self.obs is not None:
            self.obs.span(
                "miss:prim.fetch", "coh", self.node.node_id, t0, args={"block": block}
            )
        return line

    def _evict_for(self, block: int):
        """Make room: unsubscribe and/or write back the victim as needed."""
        cache = self.node.cache
        victim = cache.victim_for(block)
        if victim is None:
            # Every unpinned way is taken by update-subscribed lines; the
            # paper resets the update bit on replacement, so pick the LRU
            # subscribed line and unsubscribe it first.
            candidates = [
                l
                for l in cache._set(cache.set_index(block))
                if l.valid and l.lock is LockMode.NONE
            ]
            if not candidates:  # pragma: no cover - lock lines live in lock cache
                raise RuntimeError("no evictable line")
            victim = min(candidates, key=lambda l: l.last_used)
        if not victim.valid:
            return
        if victim.update:
            yield from self._unsubscribe(victim)
        if victim.dirty:
            yield from self._writeback(victim)
        victim.invalidate()

    def _writeback(self, line):
        """Write back only the dirty words (per-word dirty bits)."""
        self.stats.counters.add("prim.writebacks")
        home = self.amap.home_of(line.block)
        words = list(line.data)
        mask = line.dirty_mask
        yield from self.request(
            ("c:wback", line.block), home, MessageType.WRITEBACK,
            addr=line.block, words=words, mask=mask,
        )
        line.dirty_mask = 0

    def _unsubscribe(self, line):
        self.stats.counters.add("prim.ru_unsubscribes")
        home = self.amap.home_of(line.block)
        yield from self.request(
            ("c:ruack", line.block), home, MessageType.RESET_UPDATE, addr=line.block
        )
        line.update = False
        line.prev = None
        line.next = None

    # ================= message handlers ====================================
    def handle(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        mt = msg.mtype
        if mt is MessageType.DATA_BLOCK:
            self.resolve(("c:data", msg.addr), msg.info["words"])
        elif mt is MessageType.READ_GLOBAL_REPLY:
            self.resolve(("c:rg", msg.info["word"]), msg.info["value"])
        elif mt is MessageType.WRITEBACK_ACK:
            self.resolve(("c:wback", msg.addr))
        elif mt is MessageType.GLOBAL_WRITE_ACK:
            self.node.write_buffer.retire(msg.info["entry_id"])
        elif mt is MessageType.RU_DATA:
            if self.node.resilience is not None and not self.has_pending(("c:rudata", msg.addr)):
                return  # stale duplicate subscription fill
            self._on_ru_data(msg)
        elif mt in (MessageType.RU_UPDATE, MessageType.RU_UPDATE_FWD):
            if self.has_pending(("c:rudata", msg.addr)):
                self._ru_deferred.setdefault(msg.addr, []).append(msg)
            else:
                self._on_ru_update(msg)
        elif mt is MessageType.RU_UNLINK:
            if self.has_pending(("c:rudata", msg.addr)):
                self._ru_deferred.setdefault(msg.addr, []).append(msg)
            else:
                self._on_ru_unlink(msg)
        elif mt is MessageType.RESET_UPDATE_ACK:
            self.resolve(("c:ruack", msg.addr))
        elif mt is MessageType.RMW_REPLY:
            self.resolve(("c:rmw", msg.info["word"]), msg.info["old"])
        else:  # pragma: no cover - wiring error
            raise RuntimeError(f"primitives cache controller got {msg!r}")

    def _on_ru_data(self, msg: Message) -> None:
        """Install the subscription line atomically with the reply delivery,
        then replay any list traffic that raced ahead of it."""
        snapshot = list(msg.info["words"])
        old_head = msg.info["old_head"]
        line, _ = self.node.cache.install(
            msg.addr, list(msg.info["words"]), LineState.VALID_LOCAL, now=self.sim.now
        )
        line.update = True
        line.prev = None
        line.next = old_head
        self.resolve(("c:rudata", msg.addr), (snapshot, old_head))
        for deferred in self._ru_deferred.pop(msg.addr, ()):
            self.handle(deferred)

    def _on_ru_update(self, msg: Message) -> None:
        """An updated block propagating down the subscriber chain."""
        line = self.node.cache.peek(msg.addr)
        if line is not None and line.update:
            counts = self.stats.counters.counts
            counts["prim.ru_updates_received"] = counts.get("prim.ru_updates_received", 0) + 1
            # Refresh only words we have not locally dirtied.
            for i, w in enumerate(msg.info["words"]):
                if not (line.dirty_mask & (1 << i)):
                    line.data[i] = w
            watchers = self._update_watchers.pop(msg.addr, None)
            if watchers:
                for ev in watchers:
                    ev.succeed()
        chain = msg.info["chain"]
        home = self.amap.home_of(msg.addr)
        delay = self.sim.timeout(self.cfg.dir_cycle)
        if chain:
            nxt, rest = chain[0], chain[1:]
            delay.callbacks.append(
                lambda _e: self.send(
                    nxt,
                    MessageType.RU_UPDATE_FWD,
                    addr=msg.addr,
                    words=msg.info["words"],
                    chain=rest,
                    token=msg.info["token"],
                    ack_home=msg.info["ack_home"],
                )
            )
        elif msg.info["ack_home"]:
            delay.callbacks.append(
                lambda _e: self.send(
                    home, MessageType.RU_ACK, addr=msg.addr, token=msg.info["token"]
                )
            )

    def _on_ru_unlink(self, msg: Message) -> None:
        """Pointer surgery on our line for the distributed list."""
        line = self.node.cache.peek(msg.addr)
        if line is None or not line.update:
            return  # stale surgery for a line we already dropped
        if "set_prev" in msg.info:
            line.prev = msg.info["set_prev"]
        if "set_next" in msg.info:
            line.next = msg.info["set_next"]


class PrimitivesHomeController(Controller):
    """Home-side engine: block service, global writes, subscriber lists."""

    REQUEST_TYPES = frozenset(
        {
            MessageType.READ_MISS,
            MessageType.READ_GLOBAL,
            MessageType.GLOBAL_WRITE,
            MessageType.WRITEBACK,
            MessageType.RU_REQ,
            MessageType.RESET_UPDATE,
            MessageType.RMW_REQ,
        }
    )
    RESPONSE_TYPES = frozenset({MessageType.RU_ACK})
    IN_TYPES = REQUEST_TYPES | RESPONSE_TYPES

    def __init__(self, node: "Node"):
        super().__init__(node)
        self._token = 0
        self._ack_collectors: dict = {}
        #: Request type -> home transaction, built once for :meth:`_admit`.
        self._handlers = {
            MessageType.READ_MISS: self._h_read_miss,
            MessageType.READ_GLOBAL: self._h_read_global,
            MessageType.GLOBAL_WRITE: self._h_global_write,
            MessageType.WRITEBACK: self._h_writeback,
            MessageType.RU_REQ: self._h_ru_req,
            MessageType.RESET_UPDATE: self._h_reset_update,
            MessageType.RMW_REQ: self._h_rmw,
        }

    # -- dispatch ----------------------------------------------------------
    def handle(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        self._admit(msg)

    def _admit(self, msg: Message) -> None:
        if msg.mtype is MessageType.RU_ACK:
            key = (msg.addr, msg.info["token"])
            coll = self._ack_collectors.get(key)
            if coll is not None:
                coll.ack()
            else:
                self.resolve(("h:ruack", msg.addr, msg.info["token"]))
            return
        entry = self.node.directory.entry(msg.addr)
        if entry.busy:
            entry.defer(msg)
            return
        entry.busy = True
        handler = self._handlers[msg.mtype]
        # The name only surfaces in traces and reprs: build it only then.
        name = f"prim-home-{msg.mtype.name}-{msg.addr}" if self.obs is not None else ""
        Process(self.sim, handler(msg, entry), name)

    def _done(self, entry) -> None:
        entry.busy = False
        nxt = entry.pop_deferred()
        if nxt is not None:
            self._admit(nxt)

    # -- handlers ----------------------------------------------------------
    def _h_read_miss(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        words = self.node.memory.read_block(entry.block)
        self.reply_to(msg, MessageType.DATA_BLOCK, addr=entry.block, words=words)
        self._done(entry)

    def _h_read_global(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        value = self.node.memory.read_word(msg.info["word"])
        if self.obs is not None:
            # The home's serialization point: this read observes the word
            # *here*, between two entries of its coherence order.  The
            # conformance checker replays these instants as rf edges.
            self.obs.instant(
                "mem.read", "mem", self.node.node_id,
                args={"word": msg.info["word"], "value": value, "src": msg.src},
            )
        self.reply_to(
            msg,
            MessageType.READ_GLOBAL_REPLY,
            addr=entry.block,
            word=msg.info["word"],
            value=value,
        )
        self._done(entry)

    def _h_global_write(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        word = msg.info["word"]
        self.node.memory.write_word(word, msg.info["value"])
        if self.obs is not None:
            # One instant per *performed* write: dedup-replay absorbed
            # duplicates before this handler ran, so retried/reissued
            # writes already collapse to a single logical event — the
            # per-word instant stream IS the word's coherence order.
            self.obs.instant(
                "mem.perform", "mem", self.node.node_id,
                args={
                    "word": word, "value": msg.info["value"],
                    "src": msg.src, "entry": msg.info["entry_id"],
                },
            )
        subscribers = [s for s in entry.ru_subscribers if s != msg.src]
        ack_now = not self.cfg.strict_global_ack or not subscribers
        if ack_now:
            self.reply_to(
                msg,
                MessageType.GLOBAL_WRITE_ACK,
                addr=entry.block,
                entry_id=msg.info["entry_id"],
            )
        if subscribers:
            self.stats.counters.add("prim.ru_propagations")
            token = self._token = self._token + 1
            words = self.node.memory.read_block(entry.block)
            strict = self.cfg.strict_global_ack
            if self.cfg.ru_propagation == "multicast":
                # The home fans out one update per subscriber in parallel —
                # Table 2's (n-1)||C_B.  Under strict acks every subscriber
                # confirms delivery before the writer's ack goes out.
                if strict:
                    coll = AckCollector(
                        self.sim, len(subscribers), tolerant=self.node.resilience is not None
                    )
                    self._ack_collectors[(entry.block, token)] = coll
                for sub in subscribers:
                    self.send(
                        sub,
                        MessageType.RU_UPDATE,
                        addr=entry.block,
                        words=words,
                        chain=(),
                        token=token,
                        ack_home=strict,
                    )
                if strict:
                    yield coll.event
                    del self._ack_collectors[(entry.block, token)]
            else:
                # Hop-by-hop down the distributed linked list (serial); the
                # last subscriber always acks so the home can close the
                # transaction.
                ev = self.expect(("h:ruack", entry.block, token))
                head, rest = subscribers[0], tuple(subscribers[1:])
                self.send(
                    head,
                    MessageType.RU_UPDATE,
                    addr=entry.block,
                    words=words,
                    chain=rest,
                    token=token,
                    ack_home=True,
                )
                yield ev
            if not ack_now:
                self.reply_to(
                    msg,
                    MessageType.GLOBAL_WRITE_ACK,
                    addr=entry.block,
                    entry_id=msg.info["entry_id"],
                )
        self._done(entry)

    def _h_writeback(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        self.node.memory.write_dirty_words(entry.block, msg.info["words"], msg.info["mask"])
        if self.obs is not None:
            # Plain cached writes reach memory here, outside the global-
            # write order; the conformance checker excuses their words
            # from the value checks rather than guessing an order.
            self.obs.instant(
                "mem.wb", "mem", self.node.node_id,
                args={
                    "block": entry.block,
                    "words": [
                        self.amap.word_addr(entry.block, i)
                        for i, dirty in enumerate(msg.info["mask"])
                        if dirty
                    ],
                    "src": msg.src,
                },
            )
        self.reply_to(msg, MessageType.WRITEBACK_ACK, addr=entry.block)
        self._done(entry)

    def _h_ru_req(self, msg: Message, entry):
        if entry.usage is Usage.LOCK:
            raise RuntimeError(
                f"block {entry.block} is in use as a lock; READ-UPDATE and "
                "locks are mutually exclusive per block (paper, Section 4.1)"
            )
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        old_head = entry.ru_subscribers[0] if entry.ru_subscribers else None
        if msg.src in entry.ru_subscribers:
            entry.ru_subscribers.remove(msg.src)
            old_head = entry.ru_subscribers[0] if entry.ru_subscribers else None
        entry.ru_subscribers.insert(0, msg.src)
        entry.usage = Usage.READ_UPDATE
        entry.queue_pointer = msg.src  # head of the subscriber list
        words = self.node.memory.read_block(entry.block)
        self.reply_to(
            msg, MessageType.RU_DATA, addr=entry.block, words=words, old_head=old_head
        )
        self._done(entry)

    def _h_reset_update(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle)
        subs = entry.ru_subscribers
        if msg.src in subs:
            i = subs.index(msg.src)
            prv = subs[i - 1] if i > 0 else None
            nxt = subs[i + 1] if i + 1 < len(subs) else None
            subs.pop(i)
            # Splice the distributed list to match.
            if prv is not None:
                self.send(prv, MessageType.RU_UNLINK, addr=entry.block, set_next=nxt)
            if nxt is not None:
                self.send(nxt, MessageType.RU_UNLINK, addr=entry.block, set_prev=prv)
            entry.queue_pointer = subs[0] if subs else None
            if not subs:
                entry.usage = Usage.NONE
        self.reply_to(msg, MessageType.RESET_UPDATE_ACK, addr=entry.block)
        self._done(entry)

    def _h_rmw(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        word = msg.info["word"]
        mem = self.node.memory
        old = mem.read_word(word)
        new = apply_rmw(msg.info["op"], old, msg.info["operand"])
        mem.write_word(word, new)
        if self.obs is not None:
            self.obs.instant(
                "mem.rmw", "mem", self.node.node_id,
                args={"word": word, "old": old, "new": new, "src": msg.src},
            )
        self.reply_to(msg, MessageType.RMW_REPLY, addr=entry.block, word=word, old=old)
        self._done(entry)
