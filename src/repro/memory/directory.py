"""The central directory: one entry per memory block, held at its home node.

Per the paper (Fig. 2b) an entry carries a *usage bit* saying whether the
block's linked list is a READ-UPDATE subscriber list or a lock-waiter queue
(the two are mutually exclusive per block), and a *queue pointer* to the
list.  For the WBI baseline protocol the same entry also tracks the
conventional owner/sharers state.  A *busy* flag serializes transactions on
a block: requests arriving mid-transaction are deferred and replayed, the
standard directory-protocol simplification.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Deque, Optional, Set

from ..network.message import Message

__all__ = ["Usage", "DirState", "DirectoryEntry", "Directory"]


class Usage(Enum):
    """What the per-block linked list is currently used for."""

    NONE = auto()
    READ_UPDATE = auto()  # list of update subscribers
    LOCK = auto()  # queue of lock holders/waiters


class DirState(Enum):
    """Conventional coherence state of a block at its home (WBI protocol)."""

    UNOWNED = auto()  # memory has the only valid copy
    SHARED = auto()  # one or more clean cached copies
    EXCLUSIVE = auto()  # exactly one dirty cached copy


# Every member bound once as a module global for function bodies to load
# (see the note above ``repro.network.message.READ_MISS``).  ``NONE``,
# ``SHARED`` and ``EXCLUSIVE`` recur in ``LockMode`` and ``LineState``, so
# they carry a prefix here.
USAGE_NONE = Usage.NONE
READ_UPDATE = Usage.READ_UPDATE
LOCK = Usage.LOCK
UNOWNED = DirState.UNOWNED
DIR_SHARED = DirState.SHARED
DIR_EXCLUSIVE = DirState.EXCLUSIVE


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one memory block."""

    block: int
    # -- Fig. 2b fields ----------------------------------------------------
    usage: Usage = USAGE_NONE
    #: Tail of the distributed linked list (lock queue) or head of the
    #: subscriber list (read-update); ``None`` when the list is empty.
    queue_pointer: Optional[int] = None
    # -- WBI bookkeeping ----------------------------------------------------
    state: DirState = UNOWNED
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    # -- lock bookkeeping --------------------------------------------------
    #: Home mirror of the distributed lock queue, in FIFO order.  Each item
    #: is ``[node_id, mode, is_holder]`` with mode "read"/"write".  The
    #: distributed prev/next pointers in cache lines mirror this list; the
    #: verification layer cross-checks the two.
    lock_queue: list = field(default_factory=list)
    lock_held: bool = False
    #: READ-UPDATE subscriber list in head-to-tail order (home mirror of the
    #: distributed doubly-linked list).
    ru_subscribers: list = field(default_factory=list)
    #: Barrier bookkeeping when this block is used as a hardware barrier.
    barrier_count: int = 0
    barrier_waiting: list = field(default_factory=list)
    #: Semaphore bookkeeping when this block backs a hardware semaphore.
    sem_count: int = 0
    sem_waiters: list = field(default_factory=list)
    # -- transaction serialization ------------------------------------------
    busy: bool = False
    deferred: Deque[Message] = field(default_factory=deque)

    def defer(self, msg: Message) -> None:
        """Queue a request that arrived while a transaction is in flight."""
        self.deferred.append(msg)

    def pop_deferred(self) -> Optional[Message]:
        return self.deferred.popleft() if self.deferred else None


class Directory:
    """All directory entries homed at one node (sparse: created on demand)."""

    __slots__ = ("node_id", "_entries")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._entries: dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        e = self._entries.get(block)
        if e is None:
            e = self._entries[block] = DirectoryEntry(block)
        return e

    def known_blocks(self) -> list[int]:
        return list(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries
