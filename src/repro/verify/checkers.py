"""Structural invariant checkers over a (possibly mid-run) machine.

These walk the caches, directories, and lock queues and raise
:class:`InvariantViolation` with a precise description when a protocol
invariant is broken.  Tests and property-based harnesses call them between
and after runs; they are read-only and cost nothing simulated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cache.states import LineState
from ..memory.directory import DirState, Usage

if TYPE_CHECKING:  # pragma: no cover
    from ..system.machine import Machine

__all__ = [
    "InvariantViolation",
    "check_wbi_coherence",
    "check_writeupdate_coherence",
    "check_ru_lists",
    "check_lock_queues",
    "check_all",
]


class InvariantViolation(AssertionError):
    """A protocol invariant does not hold."""


def _fail(msg: str) -> None:
    raise InvariantViolation(msg)


def check_wbi_coherence(machine: "Machine") -> int:
    """Single-writer / registered-sharer / clean-value invariants (WBI).

    Returns the number of blocks inspected.
    """
    if machine.protocol != "wbi":
        return 0
    n_checked = 0
    # Collect cached copies per block.
    copies: dict[int, list[tuple[int, object]]] = {}
    for node in machine.nodes:
        for line in node.cache.valid_lines():
            copies.setdefault(line.block, []).append((node.node_id, line))
    for block, holders in copies.items():
        n_checked += 1
        home = machine.nodes[machine.amap.home_of(block)]
        entry = home.directory.entry(block)
        excl = [(nid, l) for nid, l in holders if l.state is LineState.EXCLUSIVE]
        shared = [(nid, l) for nid, l in holders if l.state is LineState.SHARED]
        if len(excl) > 1:
            _fail(f"block {block}: {len(excl)} EXCLUSIVE copies ({[n for n, _ in excl]})")
        if excl and shared and not entry.busy:
            _fail(
                f"block {block}: EXCLUSIVE at node {excl[0][0]} coexists with "
                f"SHARED at {[n for n, _ in shared]}"
            )
        if excl and not entry.busy:
            nid, line = excl[0]
            if entry.state is not DirState.EXCLUSIVE or entry.owner != nid:
                _fail(
                    f"block {block}: cache EXCLUSIVE at {nid} but directory says "
                    f"{entry.state.name} owner={entry.owner}"
                )
        if not entry.busy:
            for nid, line in shared:
                if nid not in entry.sharers:
                    _fail(f"block {block}: node {nid} holds SHARED but is not registered")
                # Clean shared copies must match memory.
                if not line.dirty and line.data != home.memory.read_block(block):
                    _fail(f"block {block}: stale SHARED data at node {nid}")
    return n_checked


def check_writeupdate_coherence(machine: "Machine") -> int:
    """Write-update invariants (Dragon/Firefly comparator protocol).

    * every cached copy's holder is a registered sharer at the home — the
      directory pushes updates only to registered nodes, so an unregistered
      copy would go stale silently;
    * copies are never dirty: the protocol writes through, so a set dirty
      bit means a word that memory will never see;
    * at quiescence (no scheduled events, so no update is in flight) every
      cached block equals memory word-for-word.

    Returns the number of blocks inspected.
    """
    if machine.protocol != "writeupdate":
        return 0
    n_checked = 0
    quiescent = machine.sim.pending_live() == 0
    for node in machine.nodes:
        for line in node.cache.valid_lines():
            n_checked += 1
            block = line.block
            home = machine.nodes[machine.amap.home_of(block)]
            entry = home.directory.entry(block)
            if line.dirty:
                _fail(
                    f"block {block}: dirty copy at node {node.node_id} under "
                    f"write-through (mask={line.dirty_mask:b})"
                )
            if not entry.busy and node.node_id not in entry.sharers:
                _fail(
                    f"block {block}: node {node.node_id} caches a copy but is "
                    f"not a registered sharer ({sorted(entry.sharers)})"
                )
            if quiescent and line.data != home.memory.read_block(block):
                _fail(
                    f"block {block}: node {node.node_id} copy {line.data} != "
                    f"memory {home.memory.read_block(block)} at quiescence"
                )
    return n_checked


def check_ru_lists(machine: "Machine") -> int:
    """READ-UPDATE subscriber mirrors match the distributed pointers."""
    if machine.protocol != "primitives":
        return 0
    n_checked = 0
    for home in machine.nodes:
        for block in home.directory.known_blocks():
            entry = home.directory.entry(block)
            subs = entry.ru_subscribers
            if not subs:
                continue
            if entry.busy:
                continue  # mid-transaction: pointers may be in flux
            n_checked += 1
            if entry.usage is not Usage.READ_UPDATE:
                _fail(f"block {block}: subscribers present but usage={entry.usage.name}")
            if entry.queue_pointer != subs[0]:
                _fail(
                    f"block {block}: queue_pointer={entry.queue_pointer} but list head={subs[0]}"
                )
            for i, nid in enumerate(subs):
                line = machine.nodes[nid].cache.peek(block)
                if line is None or not line.update:
                    _fail(f"block {block}: subscriber {nid} has no update-bit line")
                want_prev = subs[i - 1] if i > 0 else None
                want_next = subs[i + 1] if i + 1 < len(subs) else None
                if line.prev != want_prev or line.next != want_next:
                    _fail(
                        f"block {block}: node {nid} pointers prev={line.prev},"
                        f"next={line.next}; mirror wants prev={want_prev},next={want_next}"
                    )
    return n_checked


def check_lock_queues(machine: "Machine") -> int:
    """Lock-queue invariants: holders form a coherent group, the distributed
    queue matches the home mirror, and lock-cache modes agree."""
    n_checked = 0
    for home in machine.nodes:
        for block in home.directory.known_blocks():
            entry = home.directory.entry(block)
            queue = entry.lock_queue
            if not queue:
                continue
            n_checked += 1
            holders = [it for it in queue if it[2]]
            waiters = [it for it in queue if not it[2]]
            # Holders must form a prefix of the queue (FIFO grant order).
            if queue[: len(holders)] != holders:
                _fail(f"block {block}: holders are not a queue prefix: {queue}")
            modes = {m for _n, m, _h in holders}
            if "write" in modes and len(holders) > 1:
                _fail(f"block {block}: write holder shares with others: {holders}")
            if entry.queue_pointer != queue[-1][0]:
                _fail(
                    f"block {block}: queue_pointer={entry.queue_pointer} but tail={queue[-1][0]}"
                )
            # Lock-cache line states: granted holders hold, queued waiters wait.
            # (A grant may still be in flight, so only flag impossible states.)
            for nid, mode, is_holder in queue:
                line = machine.nodes[nid].lockcache.peek(block)
                if line is None:
                    continue  # released or grant in flight
                if line.lock.is_held and not is_holder:
                    _fail(f"block {block}: node {nid} holds but mirror says waiter")
    return n_checked


def check_all(machine: "Machine") -> dict:
    """Run every applicable checker; returns counts of inspected objects."""
    return {
        "wbi_blocks": check_wbi_coherence(machine),
        "wu_blocks": check_writeupdate_coherence(machine),
        "ru_lists": check_ru_lists(machine),
        "lock_queues": check_lock_queues(machine),
    }
