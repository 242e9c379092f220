"""Hardware counting semaphores.

The paper names semaphore P among the NP-Synch operations and semaphore V
among the CP-Synch operations (Section 2).  This engine implements them at
the home directory: the semaphore's count lives in main memory at its home
node; P either decrements and grants immediately or queues the requester
(who then waits locally, like a CBL waiter); V wakes the oldest waiter or
increments the count.  One message each way — the same cost profile as
CBL's serial lock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from ..coherence.base import Controller
from ..network.message import Message, MessageType
from ..sim.core import Process

if TYPE_CHECKING:  # pragma: no cover
    from ..node.node import Node
    from ..node.processor import Processor
    from ..system.machine import Machine

__all__ = ["SemaphoreEngine", "HWSemaphore"]


class SemaphoreEngine(Controller):
    """P/V at the requester side plus home-side queue management."""

    IN_TYPES = frozenset(
        {
            MessageType.SEM_P,
            MessageType.SEM_V,
            MessageType.SEM_GRANT,
            MessageType.SEM_ACK,
        }
    )

    def __init__(self, node: "Node"):
        super().__init__(node)
        #: (block, waiter) -> the queued SEM_P message; a grant issued by a
        #: later V is recorded under the waiter's original rseq.
        self._sem_req: Dict[Tuple[int, int], Message] = {}

    # -- requester side ----------------------------------------------------
    def p(self, block: int):
        """Semaphore P (down): returns when granted.  NP-Synch."""
        self.stats.counters.add("sem.p")
        t0 = self.sim.now
        yield self.sim.timeout(self.cfg.cache_cycle)
        home = self.amap.home_of(block)
        # Waiters spin locally: no traffic until granted (resilient mode
        # polls with backoff; queued polls are absorbed by the home's dedup).
        yield from self.request(("c:sem_grant", block), home, MessageType.SEM_P, addr=block)
        obs = self.obs
        if obs is not None:
            obs.span("sem.p", "sync", self.node.node_id, t0, args={"block": block})

    def v(self, block: int, want_ack: bool = False):
        """Semaphore V (up).  CP-Synch; fire-and-forget unless ``want_ack``."""
        self.stats.counters.add("sem.v")
        obs = self.obs
        if obs is not None:
            obs.instant("sem.v", "sync", self.node.node_id, args={"block": block})
        yield self.sim.timeout(self.cfg.cache_cycle)
        home = self.amap.home_of(block)
        if self.node.resilience is not None:
            # A lost V loses a count forever: always ack + retry.
            yield from self.request(
                ("c:sem_ack", block), home, MessageType.SEM_V, addr=block, want_ack=True
            )
            return
        ev = self.expect(("c:sem_ack", block)) if want_ack else None
        self.send(home, MessageType.SEM_V, addr=block, want_ack=want_ack)
        if ev is not None:
            yield ev

    # -- dispatch ----------------------------------------------------------
    def handle(self, msg: Message) -> None:
        if self.node.resilience is not None and not self.dedup_admit(msg):
            return
        mt = msg.mtype
        if mt in (MessageType.SEM_P, MessageType.SEM_V):
            self._admit(msg)
        elif mt is MessageType.SEM_GRANT:
            self.resolve(("c:sem_grant", msg.addr))
        elif mt is MessageType.SEM_ACK:
            self.resolve(("c:sem_ack", msg.addr))
        else:  # pragma: no cover - wiring error
            raise RuntimeError(f"semaphore engine got {msg!r}")

    def _admit(self, msg: Message) -> None:
        """Busy-check and launch a home transaction (post-dedup)."""
        entry = self.node.directory.entry(msg.addr)
        if entry.busy:
            entry.defer(msg)
            return
        entry.busy = True
        handler = self._h_p if msg.mtype is MessageType.SEM_P else self._h_v
        # The name only surfaces in traces and reprs: build it only then.
        name = f"sem-{msg.mtype.name}-{msg.addr}" if self.obs is not None else ""
        Process(self.sim, handler(msg, entry), name)

    def _done(self, entry) -> None:
        entry.busy = False
        nxt = entry.pop_deferred()
        if nxt is not None:
            self._admit(nxt)

    # -- home side ----------------------------------------------------------
    def _h_p(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        if entry.sem_count > 0:
            entry.sem_count -= 1
            self.reply_to(msg, MessageType.SEM_GRANT, addr=entry.block)
        else:
            entry.sem_waiters.append(msg.src)
            if self.node.resilience is not None:
                self._sem_req[(entry.block, msg.src)] = msg
        self._done(entry)

    def _h_v(self, msg: Message, entry):
        yield self.sim.timeout(self.cfg.dir_cycle + self.cfg.memory_cycle)
        if entry.sem_waiters:
            waiter = entry.sem_waiters.pop(0)  # FIFO wake-up
            req_msg = self._sem_req.pop((entry.block, waiter), None)
            if req_msg is not None:
                self.reply_to(req_msg, MessageType.SEM_GRANT, addr=entry.block)
            else:
                self.send(waiter, MessageType.SEM_GRANT, addr=entry.block)
            obs = self.obs
            if obs is not None:
                obs.instant(
                    "sem.wake", "sync", self.node.node_id,
                    args={"block": entry.block, "waiter": waiter},
                )
        else:
            entry.sem_count += 1
        if msg.info.get("want_ack"):
            self.reply_to(msg, MessageType.SEM_ACK, addr=entry.block)
        self._done(entry)


class HWSemaphore:
    """A counting semaphore homed at one memory block."""

    def __init__(self, machine: "Machine", initial: int = 1, block: int | None = None):
        if initial < 0:
            raise ValueError("initial count must be non-negative")
        self.machine = machine
        self.block = machine.alloc_block() if block is None else block
        home = machine.nodes[machine.amap.home_of(self.block)]
        home.directory.entry(self.block).sem_count = initial

    def p(self, proc: "Processor"):
        """Acquire (NP-Synch: no write-buffer flush under BC)."""
        yield from proc.model.pre_acquire(proc)
        yield from proc.node.sem_engine.p(self.block)

    def v(self, proc: "Processor"):
        """Release (CP-Synch: flush pending global writes first under BC)."""
        yield from proc.model.pre_release(proc)
        yield from proc.node.sem_engine.v(
            self.block, want_ack=proc.model.release_wants_ack
        )

    # Lock-style aliases so a binary semaphore can stand in for a lock.
    def acquire(self, proc: "Processor", mode: str = "write"):
        if mode != "write":
            raise ValueError("semaphores are exclusive-only")
        yield from proc.node.sem_engine.p(self.block)

    def release(self, proc: "Processor", want_ack: bool = False):
        yield from proc.node.sem_engine.v(self.block, want_ack=want_ack)
