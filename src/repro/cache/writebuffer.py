"""The per-node write buffer (Section 4.2).

WRITE-GLOBAL requests are deposited here and issued to the network without
stalling the processor; an entry retires when the home memory's ack
returns.  The buffer's occupancy *is* the Adve–Hill pending-operation
counter: FLUSH-BUFFER simply waits for occupancy zero.

The paper assumes an infinite buffer; a finite ``capacity`` makes ``put``
block (processor stall on a full buffer), exposed for ablations.

Writes to *different* addresses are issued immediately and may complete in
any order (that is the point of buffering); writes to the **same** word are
issued one at a time in program order — a later write waits for its
predecessor's ack before entering the network.  Without this, two buffered
writes to one location can arrive at the home transposed, and the earlier
value wins: a per-location coherence violation that even buffered
consistency forbids (found by the schedule fuzzer in
:mod:`repro.verify.fuzz`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..sim.core import Event, Simulator
from ..sim.stats import StatSet, TimeWeighted

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import ResilienceParams

__all__ = ["WriteBuffer"]


class WriteBuffer:
    """FIFO of pending global writes with ack-driven retirement."""

    def __init__(
        self,
        sim: Simulator,
        issue: Callable[[int, int, int], int],
        capacity: Optional[int] = None,
        resilience: Optional["ResilienceParams"] = None,
        retry_counters=None,
        obs=None,
        owner: int = 0,
    ):
        """``issue(word_addr, value, entry_id)`` sends the write toward its
        home and returns immediately; the caller must call :meth:`retire`
        with the same ``entry_id`` when the ack arrives.

        With a ``resilience`` policy, each in-network write arms a backoff
        timer and is reissued (same ``entry_id``, so the home's dedup
        absorbs duplicates) until the ack retires it; ``retry_counters`` is
        the node's counter set for the ``resilience.*`` bookkeeping, and
        duplicate acks for already-retired entries are absorbed instead of
        raising."""
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self._issue = issue
        self.capacity = capacity
        self.resilience = resilience
        self._retry_counters = retry_counters
        #: entry_id -> armed retry timer / attempt count (resilience only).
        self._retry_timers: Dict[int, Event] = {}
        self._attempts: Dict[int, int] = {}
        self._pending: Dict[int, tuple[int, int]] = {}
        #: word_addr -> pending entry ids in program order; only the head of
        #: each chain is in the network (same-address ordering).
        self._addr_chains: Dict[int, list[int]] = {}
        self._next_id = 0
        self._flush_waiters: list[Event] = []
        self._space_waiters: list[tuple[Event, int, int]] = []
        self.stats = StatSet()
        self.occupancy = TimeWeighted()
        #: Trace bus or ``None``; ``owner`` is the hosting node id (tid).
        self.obs = obs
        self.owner = owner

    # -- state ----------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """The Adve–Hill counter: global writes issued but not yet acked."""
        return len(self._pending)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and self.pending_count >= self.capacity

    # -- operations ----------------------------------------------------------
    def put(self, word_addr: int, value: int) -> Event:
        """Buffer a global write.  The event fires when the write has been
        *accepted* (immediately unless the buffer is full), NOT when it is
        globally performed — that is what FLUSH-BUFFER is for."""
        ev = Event(self.sim, name="wb.put")
        if self.is_full:
            self._space_waiters.append((ev, word_addr, value))
            if self.obs is not None:
                self.obs.instant(
                    "wb.stall", "wb", self.owner, args={"addr": word_addr}
                )
        else:
            self._accept(word_addr, value)
            ev.succeed()
        return ev

    def _accept(self, word_addr: int, value: int) -> None:
        entry_id = self._next_id
        self._next_id += 1
        self._pending[entry_id] = (word_addr, value)
        counts = self.stats.counters.counts
        counts["writes"] = counts.get("writes", 0) + 1
        self.occupancy.set(self.sim.now, self.pending_count)
        if self.obs is not None:
            # The write's *issue* point in its thread: paired with the
            # home's mem.perform (same owner + entry) by the conformance
            # checker to bound buffer residency against draining fences.
            self.obs.instant(
                "mem.issue", "mem", self.owner,
                args={"word": word_addr, "value": value, "entry": entry_id},
            )
            self.obs.counter(
                "wb.occupancy", "wb", self.owner, {"pending": self.pending_count}
            )
        chain = self._addr_chains.setdefault(word_addr, [])
        chain.append(entry_id)
        if len(chain) == 1:
            self._issue_tracked(entry_id)
        else:
            counts = self.stats.counters.counts
            counts["same_addr_deferred"] = counts.get("same_addr_deferred", 0) + 1

    def _issue_tracked(self, entry_id: int) -> None:
        """Issue the write; with resilience, arm the reissue timer."""
        word_addr, value = self._pending[entry_id]
        self._issue(word_addr, value, entry_id)
        res = self.resilience
        if res is None:
            return
        attempt = self._attempts.get(entry_id, 0)
        timer = self.sim.timeout(res.timeout_for(attempt))
        self._retry_timers[entry_id] = timer
        # The callback gets the timer as its argument: capturing it would
        # make the timer and its own callback a cycle.
        timer.callbacks.append(lambda ev: self._on_retry_timer(entry_id, ev))

    def _on_retry_timer(self, entry_id: int, timer: Event) -> None:
        if self._retry_timers.get(entry_id) is not timer:
            return  # superseded (stale timer from an earlier attempt)
        del self._retry_timers[entry_id]
        if entry_id not in self._pending:
            return
        res = self.resilience
        attempt = self._attempts.get(entry_id, 0)
        if self._retry_counters is not None:
            self._retry_counters.add("resilience.timeouts")
            self._retry_counters.add("resilience.timeout_cycles", int(res.timeout_for(attempt)))
        if res.max_retries is not None and attempt >= res.max_retries:
            return  # park unacked; the watchdog reports the stuck entry
        self._attempts[entry_id] = attempt + 1
        if self._retry_counters is not None:
            self._retry_counters.add("resilience.retries")
        self._issue_tracked(entry_id)

    def retire(self, entry_id: int) -> None:
        """Ack received from the home: the write is globally performed."""
        if entry_id not in self._pending:
            if self.resilience is not None:
                return  # duplicate ack for an already-retired entry
            raise KeyError(f"unknown write-buffer entry {entry_id}")
        timer = self._retry_timers.pop(entry_id, None)
        if timer is not None and not timer.processed:
            timer.cancel()
        self._attempts.pop(entry_id, None)
        word_addr, _value = self._pending.pop(entry_id)
        chain = self._addr_chains[word_addr]
        chain.remove(entry_id)
        if chain:
            self._issue_tracked(chain[0])
        else:
            del self._addr_chains[word_addr]
        counts = self.stats.counters.counts
        counts["retired"] = counts.get("retired", 0) + 1
        self.occupancy.set(self.sim.now, self.pending_count)
        if self.obs is not None:
            self.obs.counter(
                "wb.occupancy", "wb", self.owner, {"pending": self.pending_count}
            )
        if self._space_waiters and not self.is_full:
            # Accept synchronously so a concurrent flush sees the write as
            # pending before the waiter's event fires.
            ev, addr, value = self._space_waiters.pop(0)
            self._accept(addr, value)
            ev.succeed()
        if not self._pending and not self._space_waiters:
            waiters, self._flush_waiters = self._flush_waiters, []
            for ev in waiters:
                ev.succeed()

    def flush(self) -> Event:
        """FLUSH-BUFFER: fires when every buffered write has been acked."""
        ev = Event(self.sim, name="wb.flush")
        counts = self.stats.counters.counts
        counts["flushes"] = counts.get("flushes", 0) + 1
        if not self._pending and not self._space_waiters:
            ev.succeed()
        else:
            self._flush_waiters.append(ev)
        return ev
