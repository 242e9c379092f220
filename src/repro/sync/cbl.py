"""CBL: the cache-based lock scheme (Section 4.3).

Queued locks built from cache lines: a requester sends one message to the
block's home, is threaded onto a distributed FIFO queue (the ``prev`` /
``next`` pointers of the participating lock-cache lines), and then *spins
locally* — zero network traffic while waiting.  The grant carries the
block's data, merging synchronization with data transfer.  Shared (read)
and exclusive (write) locks are supported; releasing a write lock wakes the
maximal prefix of waiting readers.

Implementation notes (see DESIGN.md):

* The home arbitrates handoffs: a release message carries the (possibly
  dirty) protected data home, which merges it into memory and grants the
  next waiter(s) from memory.  This makes every handoff exactly two network
  transits (release-in, grant-out) — matching Table 3's ``(2n+1) t_nw``
  parallel-lock time — and is race-free because memory is always current
  when a grant is issued.
* The queue-chaining messages of the distributed protocol (``LOCK_FWD`` to
  the old tail, ``LOCK_WAIT`` to the new waiter) are still exchanged and
  maintain the cache-line ``prev``/``next`` pointers, so the distributed
  queue structure exists and is verified against the home's mirror; but
  grant correctness never depends on it.
* The unlocking processor continues immediately (unlock is CP-Synch: the
  *consistency model* decides whether to flush the write buffer first, and
  weak-ordering variants may request a completion ack).

Resilient mode (``node.resilience`` set): acquire and release issue through
:meth:`Controller.request` — a lost request, grant, or release is recovered
by the backoff reissue, and the home's dedup replays the recorded grant for
a retried request whose original already succeeded.  A *queued* waiter's
retries are absorbed (its admit record stays in-flight); when the grant is
finally issued it is recorded under the waiter's original ``rseq``, so the
waiter's next poll recovers a grant the fabric ate.  Releases always
request the home's ``QUEUE_ACK`` under resilience so they can be retried
(a lost release would otherwise strand the whole queue).  The queue-chaining
messages (``LOCK_FWD``/``LOCK_WAIT``) stay fire-and-forget: they maintain
the advisory distributed pointers, and grant correctness never depends on
them (see above).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from ..cache.states import LockMode
from ..coherence.base import Controller
from ..memory.directory import Usage
from ..network.message import Message, MessageType
from ..sim.core import Process

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node

__all__ = ["CBLEngine"]

_WAIT = {"read": LockMode.WAIT_READ, "write": LockMode.WAIT_WRITE}
_HELD = {"read": LockMode.READ, "write": LockMode.WRITE}


class CBLEngine(Controller):
    """Cache-based locking: requester-side ops + home-side queue management."""

    IN_TYPES = frozenset(
        {
            MessageType.LOCK_REQ_READ,
            MessageType.LOCK_REQ_WRITE,
            MessageType.LOCK_RELEASE,
            MessageType.LOCK_GRANT,
            MessageType.LOCK_FWD,
            MessageType.LOCK_WAIT,
            MessageType.QUEUE_ACK,
        }
    )

    def __init__(self, node: "Node"):
        super().__init__(node)
        #: (block, waiter) -> the queued LOCK_REQ message, kept so a grant
        #: issued later can be recorded under the waiter's original rseq.
        self._lock_req: Dict[Tuple[int, int], Message] = {}

    # ================= requester-side operations ===========================
    def acquire(self, block: int, mode: str = "write"):
        """READ-LOCK / WRITE-LOCK: returns when the lock is held.

        The granted data block is installed in the lock cache; access it
        with :meth:`read_locked` / :meth:`write_locked`.
        """
        if mode not in ("read", "write"):
            raise ValueError(f"lock mode must be 'read' or 'write', got {mode!r}")
        self.stats.counters.add(f"cbl.acquire_{mode}")
        line = self.node.lockcache.allocate(block)
        if line.lock is not LockMode.NONE:
            raise RuntimeError(
                f"node {self.node.node_id} already holds/waits for lock {block}"
            )
        line.lock = _WAIT[mode]
        yield self.sim.timeout(self.cfg.cache_cycle)
        home = self.amap.home_of(block)
        mtype = (
            MessageType.LOCK_REQ_READ if mode == "read" else MessageType.LOCK_REQ_WRITE
        )
        # Local spin: no network traffic while waiting (resilient mode polls
        # with backoff, recovering a grant the fabric dropped).
        words = yield from self.request(("c:grant", block), home, mtype, addr=block)
        line.data = list(words)
        line.dirty_mask = 0
        line.lock = _HELD[mode]

    def release(self, block: int, want_ack: bool = False):
        """UNLOCK: pass the lock on; the releaser continues immediately.

        ``want_ack=True`` (used by the weak-ordering comparator) waits for
        the home to confirm the release has been processed.
        """
        line = self.node.lockcache.peek(block)
        if line is None or not line.lock.is_held:
            raise RuntimeError(f"node {self.node.node_id} does not hold lock {block}")
        counts = self.stats.counters.counts
        counts["cbl.release"] = counts.get("cbl.release", 0) + 1
        yield self.sim.timeout(self.cfg.cache_cycle)
        home = self.amap.home_of(block)
        words, mask = list(line.data), line.dirty_mask
        line.lock = LockMode.NONE
        self.node.lockcache.release(block)
        if self.node.resilience is not None:
            # A lost release strands the whole queue: always ack + retry.
            yield from self.request(
                ("c:relack", block), home, MessageType.LOCK_RELEASE,
                addr=block, words=words, mask=mask, want_ack=True,
            )
            return
        ev = self.expect(("c:relack", block)) if want_ack else None
        self.send(
            home,
            MessageType.LOCK_RELEASE,
            addr=block,
            words=words,
            mask=mask,
            want_ack=want_ack,
        )
        if ev is not None:
            yield ev

    def read_locked(self, block: int, offset: int = 0):
        """Read a word of the data guarded by (and delivered with) the lock."""
        line = self.node.lockcache.peek(block)
        if line is None or not line.lock.is_held:
            raise RuntimeError(f"lock {block} not held at node {self.node.node_id}")
        yield self.sim.timeout(self.cfg.cache_cycle)
        return line.read_word(offset)

    def write_locked(self, block: int, offset: int, value: int):
        """Write a word of the locked data (requires a write lock)."""
        line = self.node.lockcache.peek(block)
        if line is None or line.lock is not LockMode.WRITE:
            raise RuntimeError(
                f"write lock {block} not held at node {self.node.node_id}"
            )
        yield self.sim.timeout(self.cfg.cache_cycle)
        line.write_word(offset, value)

    def holds(self, block: int) -> bool:
        line = self.node.lockcache.peek(block)
        return line is not None and line.lock.is_held

    # ================= message dispatch ====================================
    def handle(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        mt = msg.mtype
        if mt in (MessageType.LOCK_REQ_READ, MessageType.LOCK_REQ_WRITE, MessageType.LOCK_RELEASE):
            self._admit(msg)
        elif mt is MessageType.LOCK_GRANT:
            self.resolve(("c:grant", msg.addr), msg.info["words"])
        elif mt is MessageType.LOCK_FWD:
            self._on_fwd(msg)
        elif mt is MessageType.LOCK_WAIT:
            self._on_wait(msg)
        elif mt is MessageType.QUEUE_ACK:
            self.resolve(("c:relack", msg.addr))
        else:  # pragma: no cover - wiring error
            raise RuntimeError(f"CBL engine got {msg!r}")

    def _admit(self, msg: Message) -> None:
        """Busy-check and launch a home transaction (post-dedup)."""
        entry = self.node.directory.entry(msg.addr)
        if entry.busy:
            entry.defer(msg)
            return
        entry.busy = True
        # The names only surface in traces and reprs: build them only then.
        traced = self.obs is not None
        if msg.mtype is MessageType.LOCK_RELEASE:
            Process(self.sim, self._h_release(msg, entry), f"cbl-rel-{msg.addr}" if traced else "")
        else:
            Process(self.sim, self._h_request(msg, entry), f"cbl-req-{msg.addr}" if traced else "")

    def _done(self, entry) -> None:
        entry.busy = False
        nxt = entry.pop_deferred()
        if nxt is not None:
            self._admit(nxt)

    # ================= home-side handlers ===================================
    def _h_request(self, msg: Message, entry):
        req = msg.src
        mode = "read" if msg.mtype is MessageType.LOCK_REQ_READ else "write"
        yield self.sim.timeout(self.cfg.dir_cycle)
        if entry.usage is Usage.READ_UPDATE:
            raise RuntimeError(
                f"block {entry.block} has READ-UPDATE subscribers; locks and "
                "read-update are mutually exclusive per block"
            )
        queue = entry.lock_queue
        if not queue:
            # Uncontended: grant straight from memory.
            entry.usage = Usage.LOCK
            entry.lock_held = True
            queue.append([req, mode, True])
            entry.queue_pointer = req
            yield self.sim.timeout(self.cfg.memory_cycle)
            words = self.node.memory.read_block(entry.block)
            self.reply_to(msg, MessageType.LOCK_GRANT, addr=entry.block, words=words)
            self._obs_grant(entry, req)
        else:
            old_tail = queue[-1][0]
            all_read_holders = all(m == "read" and h for _n, m, h in queue)
            share = mode == "read" and all_read_holders
            queue.append([req, mode, share])
            entry.queue_pointer = req
            # Thread the distributed queue: old tail learns its successor,
            # the newcomer learns its predecessor (and spins locally).
            self.send(old_tail, MessageType.LOCK_FWD, addr=entry.block, req=req, share=share)
            if share:
                self.stats.counters.add("cbl.read_shares")
                yield self.sim.timeout(self.cfg.memory_cycle)
                words = self.node.memory.read_block(entry.block)
                self.reply_to(msg, MessageType.LOCK_GRANT, addr=entry.block, words=words)
                self._obs_grant(entry, req)
            else:
                obs = self.obs
                if obs is not None:
                    obs.instant(
                        "cbl.queue", "sync", self.node.node_id,
                        args={"block": entry.block, "waiter": req,
                              "depth": len(queue)},
                    )
                if self.node.resilience is not None:
                    # Queued: keep the request so the eventual grant is
                    # recorded under the waiter's rseq (its polls then
                    # replay the grant).
                    self._lock_req[(entry.block, req)] = msg
        self._done(entry)

    def _h_release(self, msg: Message, entry):
        rel = msg.src
        yield self.sim.timeout(self.cfg.dir_cycle)
        # Merge the releaser's dirty words into memory first: memory is
        # always current before any grant goes out.
        if msg.info["mask"]:
            self.node.memory.write_dirty_words(entry.block, msg.info["words"], msg.info["mask"])
            yield self.sim.timeout(self.cfg.memory_cycle)
        queue = entry.lock_queue
        idx = next((i for i, it in enumerate(queue) if it[0] == rel and it[2]), None)
        if idx is None:
            raise RuntimeError(f"release from non-holder node {rel} for block {entry.block}")
        queue.pop(idx)
        self._splice_pointers(entry, idx, rel)
        holders = [it for it in queue if it[2]]
        if not holders and queue:
            # Wake the head waiter; if it is a reader, cascade the grant to
            # the maximal prefix of waiting readers.
            words = self.node.memory.read_block(entry.block)
            if queue[0][1] == "write":
                queue[0][2] = True
                self._grant(entry, queue[0][0], words)
            else:
                for it in queue:
                    if it[1] != "read":
                        break
                    it[2] = True
                    self._grant(entry, it[0], words)
                    yield self.sim.timeout(self.cfg.dir_cycle)
        if not queue:
            entry.lock_held = False
            entry.usage = Usage.NONE
            entry.queue_pointer = None
        else:
            entry.queue_pointer = queue[-1][0]
        if msg.info.get("want_ack"):
            self.reply_to(msg, MessageType.QUEUE_ACK, addr=entry.block)
        self._done(entry)

    def _grant(self, entry, waiter: int, words) -> None:
        """Send a LOCK_GRANT to a woken waiter, recording it against the
        waiter's queued request (resilient mode) so retries replay it."""
        req_msg = self._lock_req.pop((entry.block, waiter), None)
        if req_msg is not None:
            self.reply_to(req_msg, MessageType.LOCK_GRANT, addr=entry.block, words=words)
        else:
            self.send(waiter, MessageType.LOCK_GRANT, addr=entry.block, words=words)
        self._obs_grant(entry, waiter)

    def _obs_grant(self, entry, waiter: int) -> None:
        obs = self.obs
        if obs is not None:
            obs.instant(
                "cbl.grant", "sync", self.node.node_id,
                args={"block": entry.block, "waiter": waiter,
                      "queue": len(entry.lock_queue)},
            )

    def _splice_pointers(self, entry, idx: int, departed: int) -> None:
        """Fix the distributed prev/next pointers around a departure."""
        queue = entry.lock_queue
        prv = queue[idx - 1][0] if idx > 0 else None
        nxt = queue[idx][0] if idx < len(queue) else None
        if prv is not None:
            self.send(prv, MessageType.LOCK_FWD, addr=entry.block, req=nxt, share=False, splice=True)
        if nxt is not None:
            self.send(nxt, MessageType.LOCK_WAIT, addr=entry.block, prev=prv, splice=True)

    # ================= cache-side chaining handlers =========================
    def _on_fwd(self, msg: Message) -> None:
        """Home tells us our successor in the queue changed."""
        line = self.node.lockcache.peek(msg.addr)
        if line is not None and line.lock is not LockMode.NONE:
            line.next = msg.info["req"]
        if not msg.info.get("splice") and not msg.info.get("share"):
            # Distributed-protocol fidelity: the old tail notifies the new
            # waiter that it is queued (the newcomer then spins locally).
            self.send(msg.info["req"], MessageType.LOCK_WAIT, addr=msg.addr, prev=self.node.node_id)

    def _on_wait(self, msg: Message) -> None:
        """Our predecessor in the queue changed (or we just got queued)."""
        line = self.node.lockcache.peek(msg.addr)
        if line is not None and line.lock is not LockMode.NONE:
            line.prev = msg.info["prev"]
