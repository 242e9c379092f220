"""Shared plumbing for cache-side and home-side protocol controllers.

Controllers are attached to a :class:`~repro.node.node.Node`, which gives
them the simulator, network, address map, directory, memory module, and
caches.  Two conventions keep the protocols tractable:

* **Per-block home serialization.**  Every *request* handled at a home
  directory marks the block busy for the duration of its transaction;
  conflicting requests are deferred on the directory entry and replayed in
  FIFO order when the transaction completes.  *Responses* that belong to
  the in-flight transaction (invalidation acks, fetch replies) bypass the
  busy check.

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

from typing import TYPE_CHECKING, Any, Iterable, Tuple

from ..network.message import Message, MessageType
from ..sim.core import AnyOf, Event

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node

__all__ = ["Controller", "AckCollector", "SourceAckCollector"]

#: Sentinel request-log state: admitted, transaction still in flight.
_IN_FLIGHT = "in-flight"


class Controller:
    """Base for protocol engines living on a node."""

    def __init__(self, node: "Node"):
        self.node = node
        self.sim = node.sim
        self.cfg = node.cfg
        self.amap = node.amap
        self.stats = node.stats
        #: Trace bus or ``None`` — the machine installs ``node.obs`` before
        #: constructing controllers, so caching here is safe.
        self.obs = node.obs

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

    def void_stale_grants(self, target: int, block: int, grant_types) -> None:
        """Forget completed dedup records that granted ``block`` to ``target``.

        A home about to probe ``target`` (INV / FETCH / FETCH_INV) is
        revoking whatever those recorded replies granted; a late retry of
        the original request must then *re-execute* against the current
        directory state rather than replay the stale grant — replaying it
        would re-install a copy the directory no longer tracks (the fuzzer
        finds this as an EXCLUSIVE/SHARED coexistence).  Per-channel FIFO
        makes voiding safe: by the time the probe is delivered, a grant the
        home sent earlier on the same channel has either arrived or was
        dropped — it can never show up afterwards.
        """
        if self.node.resilience is None:
            return
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
