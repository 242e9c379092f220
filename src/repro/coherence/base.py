"""Shared plumbing for cache-side and home-side protocol controllers.

Controllers are attached to a :class:`~repro.node.node.Node`, which gives
them the simulator, network, address map, directory, memory module, and
caches.  Three conventions keep the protocols tractable:

* **One intake table per engine.**  Every controller class declares its
  message types in class tables of plain functions, and
  :meth:`Controller.handle`, the one network entry point, runs dedup and
  then one lookup in the table derived from them (``_INTAKE``).  A cache
  controller's ``_RESPONSES`` map straight to delivery functions; so do a
  home engine's, while its ``_HANDLERS`` request types lead to the
  admission step of :class:`HomeController`.

* **Per-block home serialization**, held by :class:`HomeController`, the
  base of every engine that runs transactions at a home directory.  Every
  *request* marks the block busy for the duration of its transaction;
  conflicting requests are deferred on the directory entry and replayed in
  FIFO order when the transaction completes.  *Responses* (invalidation
  acks, fetch replies, grants) bypass the busy check.

* **Reply matching.**  A requester that expects a reply registers a pending
  event under a key (usually ``(kind, block)``); the handler for the reply
  message resolves it.

When the machine carries a :class:`~repro.faults.plan.ResilienceParams`
policy (``node.resilience``), two more conventions make the protocols
survive a lossy fabric:

* **Timeout/retry.**  Requesters issue through :meth:`Controller.request`,
  which reissues the request with exponential backoff when the reply does
  not arrive; home-side probe fan-outs wait through
  :meth:`Controller.await_acks`, which re-probes the unacked targets.

* **Request sequence numbers + dedup.**  Every retryable message carries
  ``info["rseq"]`` (per-sender monotonic).  Receivers admit each
  ``(src, rseq)`` once via :meth:`Controller.dedup_admit`; the terminal
  replies of the transaction are sent through :meth:`Controller.reply_to`,
  which records them against the request so a duplicate (a retry whose
  original succeeded, or a fabric duplication) replays the recorded reply
  instead of re-running the transaction — retries are idempotent even for
  RMW.  With resilience disabled (``node.resilience is None``) every helper
  collapses to the plain send/expect path and the fast path is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Tuple

from ..network.message import RMW_REQ, WRITEBACK, Message, MessageType
from ..sim.core import AnyOf, Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node

__all__ = [
    "Controller",
    "CacheController",
    "HomeController",
    "AckCollector",
    "SourceAckCollector",
    "resolves",
]

#: Sentinel request-log state: admitted, transaction still in flight.
_IN_FLIGHT = "in-flight"


class Controller:
    """Base for protocol engines living on a node.

    A class declares ``_RESPONSES``: message type -> plain function
    ``(self, msg)``, run at delivery (bound methods kept per instance
    would make every controller a reference cycle).  Class creation
    derives the intake table ``_INTAKE`` (:meth:`_intake`) and
    ``IN_TYPES``, its keys, so each accepted type is named once.
    """

    _RESPONSES: Dict[MessageType, Callable] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._INTAKE = cls._intake()
        cls.IN_TYPES = frozenset(cls._INTAKE)
        # Each engine's own ``handle`` attribute, so a per-class hook (the
        # layer tracer's) wraps one engine's entry point, not all nine.
        if "handle" not in vars(cls):
            cls.handle = Controller.handle

    @classmethod
    def _intake(cls) -> Dict[MessageType, Callable]:
        """``mtype -> (self, msg)``: what :meth:`handle` runs per type."""
        return dict(cls._RESPONSES)

    def __init__(self, node: "Node"):
        self.node = node
        self.sim = node.sim
        self.cfg = node.cfg
        self.amap = node.amap
        self.stats = node.stats
        #: Trace bus or ``None`` — the machine installs ``node.obs`` before
        #: constructing controllers, so caching here is safe.
        self.obs = node.obs

    def handle(self, msg: Message) -> None:
        """Network entry point: dedup (only with resilience), then intake.

        Messages an engine held back and replays later go through
        ``_INTAKE`` directly: they already passed dedup on arrival and
        must not be mistaken for their own duplicates.
        """
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        self._INTAKE[msg.mtype](self, msg)

    # -- messaging ----------------------------------------------------------
    def send(self, dst: int, mtype: MessageType, addr: int = -1, **info: Any) -> None:
        """Send one message from this node."""
        node = self.node
        node.net.send(Message(node.node_id, dst, mtype, addr, info))

    # -- pending replies ------------------------------------------------------
    def expect(self, key: Tuple) -> Event:
        """Register interest in a future reply identified by ``key``."""
        pending = self.node._pending_replies
        if key in pending:
            raise RuntimeError(f"duplicate pending reply key {key} at node {self.node.node_id}")
        # Event names only ever surface through the trace bus and reprs, so
        # skip the per-miss f-string on untraced runs (the common case).
        ev = Event(self.sim, name=f"expect{key}" if self.obs is not None else "")
        pending[key] = ev
        return ev

    def resolve(self, key: Tuple, value: Any = None) -> bool:
        """Fire the pending event for ``key``; returns False if nobody waits."""
        ev = self.node._pending_replies.pop(key, None)
        if ev is None:
            return False
        ev.succeed(value)
        return True

    def has_pending(self, key: Tuple) -> bool:
        return key in self.node._pending_replies

    # -- resilience: requester side -----------------------------------------
    def request(self, key: Tuple, dst: int, mtype: MessageType, addr: int = -1, **info: Any):
        """Generator: send a request and wait for its reply under ``key``.

        The request goes to ``dst`` with ``info`` plus ``info["rseq"]``, its
        sequence number (``None`` when resilience is disabled).  With a
        resilience policy, the request is reissued with the *same* ``rseq``
        and exponential backoff until the reply arrives; the receiver's
        dedup makes the retries idempotent.  When the retry budget is
        exhausted the requester parks on the reply event — from then on the
        hang belongs to the watchdog.
        """
        node = self.node
        res = node.resilience
        ev = self.expect(key)
        if res is None:
            info["rseq"] = None
            node.net.send(Message(node.node_id, dst, mtype, addr, info))
            val = yield ev
            return val
        rseq = node.next_rseq()
        self.send(dst, mtype, addr, **info, rseq=rseq)
        attempt = 0
        while True:
            timer = self.sim.timeout(res.timeout_for(attempt))
            winner, val = yield AnyOf(self.sim, (ev, timer))
            if winner is ev:
                if not timer.processed:
                    timer.cancel()
                return val
            self.stats.counters.add("resilience.timeouts")
            self.stats.counters.add("resilience.timeout_cycles", int(res.timeout_for(attempt)))
            if self.obs is not None:
                self.obs.instant(
                    "timeout",
                    "resilience",
                    self.node.node_id,
                    args={"key": str(key), "rseq": rseq, "attempt": attempt},
                )
            if res.max_retries is not None and attempt >= res.max_retries:
                val = yield ev
                return val
            attempt += 1
            self.stats.counters.add("resilience.retries")
            if self.obs is not None:
                self.obs.instant(
                    "retry",
                    "resilience",
                    self.node.node_id,
                    args={"key": str(key), "rseq": rseq, "attempt": attempt},
                )
            self.send(dst, mtype, addr, **info, rseq=rseq)

    def await_acks(self, coll: "SourceAckCollector", resend=None):
        """Generator: wait for an ack fan-in, re-probing laggards on timeout.

        ``resend(waiting)`` re-sends the probe to the still-unacked targets
        (reusing the original probe's ``rseq`` so targets replay their
        recorded acks rather than re-running side effects).
        """
        res = self.node.resilience
        if res is None or resend is None:
            yield coll.event
            return
        attempt = 0
        while not coll.event.processed:
            timer = self.sim.timeout(res.timeout_for(attempt))
            winner, _ = yield AnyOf(self.sim, (coll.event, timer))
            if winner is coll.event:
                if not timer.processed:
                    timer.cancel()
                return
            self.stats.counters.add("resilience.timeouts")
            if res.max_retries is not None and attempt >= res.max_retries:
                yield coll.event
                return
            attempt += 1
            self.stats.counters.add("resilience.retries")
            if self.obs is not None:
                self.obs.instant(
                    "reprobe",
                    "resilience",
                    self.node.node_id,
                    args={"waiting": sorted(coll.waiting), "attempt": attempt},
                )
            resend(set(coll.waiting))

    def rseq_or_none(self):
        """A fresh sequence number, or ``None`` with resilience disabled."""
        return self.node.next_rseq() if self.node.resilience is not None else None

    # -- resilience: receiver side ------------------------------------------
    def dedup_admit(self, msg: Message) -> bool:
        """Admit ``msg`` once per ``(src, rseq)``.

        Returns True when the message is fresh (caller proceeds).  A
        duplicate of an in-flight request is absorbed silently (its reply
        is still coming); a duplicate of a completed request replays the
        recorded reply messages.  Messages without an ``rseq`` tag pass
        through untouched, as does everything when resilience is off.
        """
        if self.node.resilience is None:
            return True
        rseq = msg.info.get("rseq")
        if rseq is None:
            return True
        key = (msg.src, rseq)
        log = self.node.req_log
        rec = log.get(key)
        if rec is None:
            self.node.log_request(key)
            return True
        self.stats.counters.add("resilience.dup_requests")
        if rec is not _IN_FLIGHT:
            for dst, mtype, addr, info in rec:
                self.send(dst, mtype, addr=addr, **info)
        return False

    def void_stale_grants(self, target: int, block: int, grant_types) -> list:
        """Hold back completed dedup records that granted ``block`` to
        ``target``; returns their keys for :meth:`forget_voided`.

        A home about to probe ``target`` (INV / FETCH / FETCH_INV) is
        revoking whatever those recorded replies granted.  Replaying one to
        a late retry would re-install a copy the directory no longer tracks
        (the fuzzer finds this as an EXCLUSIVE/SHARED coexistence).  Nor
        may the retry re-execute while the probe is out: the original grant
        can still be in flight ahead of the probe, and re-executing would
        grant the block a second time to a requester that already has it
        (found as "holds SHARED but is not registered").  So each record
        turns back into an in-flight marker, which absorbs retries, until
        the caller has the probe's answer and calls :meth:`forget_voided`.

        Per-channel FIFO makes the forgetting safe: ``target`` answers the
        probe only after the grant sent before it on the same channel has
        arrived or was dropped, and a requester retries only while its
        grant has not arrived, so a retry reaching the home after the
        answer follows a dropped grant and must re-execute.
        """
        if self.node.resilience is None:
            return []
        log = self.node.req_log
        stale = [
            key
            for key, rec in log.items()
            if key[0] == target
            and isinstance(rec, list)
            and any(m in grant_types and a == block for _dst, m, a, _info in rec)
        ]
        if stale:
            # Tallied so recovery tests (and scenario envelopes) can assert
            # the stale-grant path actually ran, not just that nothing broke.
            self.stats.counters.add("resilience.void_stale_grants", len(stale))
        for key in stale:
            log[key] = _IN_FLIGHT
        return stale

    def forget_voided(self, keys) -> None:
        """Forget the records :meth:`void_stale_grants` held back, once the
        probe is answered: a later retry re-executes."""
        log = self.node.req_log
        for key in keys:
            if log.get(key) is _IN_FLIGHT:
                del log[key]

    def reply_to(self, req: Message, mtype: MessageType, addr: int = -1, *, dst=None, **info: Any) -> None:
        """Send a terminal reply for ``req`` and record it for dedup replay."""
        node = self.node
        dst = req.src if dst is None else dst
        if node.resilience is None:
            node.net.send(Message(node.node_id, dst, mtype, addr, info))
            return
        # The message gets a copy of ``info``: the record keeps its own.
        self.send(dst, mtype, addr=addr, **info)
        self.record_reply(req, dst, mtype, addr, info)

    def record_reply(self, req: Message, dst: int, mtype: MessageType, addr: int, info: dict) -> None:
        """Record a reply against ``req``'s dedup key without sending it."""
        if self.node.resilience is None:
            return
        rseq = req.info.get("rseq")
        if rseq is None:
            return
        key = (req.src, rseq)
        log = self.node.req_log
        cur = log.get(key)
        if cur is None:
            # Recording without a prior admit (e.g. a late lock grant filed
            # under the waiter's original request): register for pruning.
            self.node.log_request(key)
            cur = self.node.req_log.get(key)
        if cur is None or cur is _IN_FLIGHT or isinstance(cur, str):
            log[key] = [(dst, mtype, addr, info)]
        else:
            cur.append((dst, mtype, addr, info))


def resolves(kind: str, field: Optional[str] = None) -> Callable:
    """A response handler that resolves the pending reply ``(kind, addr)``,
    with ``msg.info[field]`` as its value when ``field`` is given."""
    if field is None:
        return lambda self, msg: self.resolve((kind, msg.addr))
    return lambda self, msg: self.resolve((kind, msg.addr), msg.info[field])


class CacheController(Controller):
    """Base of the processor-side engines: the requester operations that
    every data protocol shares.

    A subclass sets ``_PREFIX``, which names the protocol in these
    operations' counters and miss spans (the keys are formatted once per
    class), and lists :meth:`_on_rmw_reply` (and :meth:`_on_writeback_ack`
    if it writes back) in its ``_RESPONSES``.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._RMW_COUNTER = f"{cls._PREFIX}.rmw"
        cls._RMW_SPAN = f"miss:{cls._PREFIX}.rmw"
        cls._WRITEBACK_COUNTER = f"{cls._PREFIX}.writebacks"

    def rmw(self, word_addr: int, op: str, operand=None):
        """Atomic read-modify-write at the home memory; returns the old value."""
        counts = self.stats.counters.counts
        key = self._RMW_COUNTER
        counts[key] = counts.get(key, 0) + 1
        block = self.amap.block_of(word_addr)
        home = self.amap.home_of(block)
        yield self.cfg.cache_cycle
        t0 = self.sim.now
        old = yield from self.request(
            ("c:rmw", word_addr), home, RMW_REQ,
            addr=block, word=word_addr, op=op, operand=operand,
        )
        if self.obs is not None:
            self.obs.span(
                self._RMW_SPAN, "coh", self.node.node_id, t0, args={"word": word_addr, "op": op}
            )
        return old

    def _writeback(self, line):
        """Write the line back; the home merges only its dirty words."""
        self.stats.counters.add(self._WRITEBACK_COUNTER)
        home = self.amap.home_of(line.block)
        words = list(line.data)
        mask = line.dirty_mask
        yield from self.request(
            ("c:wback", line.block), home, WRITEBACK,
            addr=line.block, words=words, mask=mask,
        )
        line.dirty_mask = 0

    def _on_rmw_reply(self, msg: Message) -> None:
        self.resolve(("c:rmw", msg.info["word"]), msg.info["old"])

    _on_writeback_ack = resolves("c:wback")


class HomeController(Controller):
    """Per-block home serialization, shared by every home-side engine.

    An engine declares two class tables of plain functions:

    * ``_HANDLERS``: request type -> home transaction, a generator
      ``(self, msg, entry)`` spawned as a :class:`Process` with the block's
      directory entry marked busy; it ends by calling :meth:`_done`;
    * ``_RESPONSES``: response type -> ``(self, msg)``, run at delivery
      with no busy check.

    The intake table sends each request type to :meth:`_admit` and each
    response type to its function.  ``_PROCESS_NAME`` is formatted with
    ``mt`` (the type's name) and ``addr`` into a transaction's process
    name, only while a trace bus is installed.
    """

    _HANDLERS: Dict[MessageType, Callable] = {}
    _PROCESS_NAME = "{mt}-{addr}"

    @classmethod
    def _intake(cls) -> Dict[MessageType, Callable]:
        return {**dict.fromkeys(cls._HANDLERS, cls._admit), **cls._RESPONSES}

    def _admit(self, msg: Message) -> None:
        """Defer a request for a busy block, or start its transaction."""
        entry = self.node.directory.entry(msg.addr)
        if entry.busy:
            entry.defer(msg)
            return
        entry.busy = True
        name = self._process_name(msg) if self.obs is not None else ""
        Process(self.sim, self._HANDLERS[msg.mtype](self, msg, entry), name)

    def _process_name(self, msg: Message) -> str:
        return self._PROCESS_NAME.format(mt=msg.mtype.name, addr=msg.addr)

    def _done(self, entry) -> None:
        """Close a transaction and replay the next deferred request."""
        entry.busy = False
        nxt = entry.pop_deferred()
        if nxt is not None:
            self._admit(nxt)


class AckCollector:
    """Counts down N acknowledgments, then fires its event.

    ``tolerant=True`` absorbs surplus acks instead of raising — required
    under fault injection, where duplicated deliveries produce legitimate
    extra acks.  The strict default stays a bug-catcher on reliable runs.
    """

    __slots__ = ("event", "remaining", "tolerant")

    def __init__(self, sim, n: int, tolerant: bool = False):
        self.event = Event(sim, name=f"acks({n})" if sim._obs is not None else "")
        self.remaining = n
        self.tolerant = tolerant
        if n == 0:
            self.event.succeed()

    def ack(self) -> None:
        if self.remaining <= 0:
            if self.tolerant:
                return
            raise RuntimeError("more acks than expected")
        self.remaining -= 1
        if self.remaining == 0:
            self.event.succeed()


class SourceAckCollector:
    """Collects one ack per expected source node; duplicates are absorbed.

    The by-source form is what probe retry needs: :meth:`waiting` names the
    laggards to re-probe, and a duplicated or replayed ack (same source
    twice) cannot over-count the fan-in.
    """

    __slots__ = ("event", "waiting")

    def __init__(self, sim, targets: Iterable[int]):
        self.waiting = set(targets)
        self.event = Event(
            sim, name=f"srcacks({len(self.waiting)})" if sim._obs is not None else ""
        )
        if not self.waiting:
            self.event.succeed()

    def ack(self, src: int) -> None:
        if src in self.waiting:
            self.waiting.discard(src)
            if not self.waiting:
                self.event.succeed()
