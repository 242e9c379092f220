"""The cache line: data words plus the Fig. 2a metadata.

Each line carries, exactly as the paper's cache-directory entry does:

* per-word dirty bits ``d1..dk`` (only dirty words are written back —
  eliminating false sharing and the delayed-write lost-update problem),
* an ``update`` bit (set while the line is subscribed via READ-UPDATE),
* a ``lock`` field (lock mode when the line is a lock variable),
* ``prev``/``next`` node pointers used to thread the distributed linked
  list for both the read-update subscriber list and the CBL lock queue.
"""

from __future__ import annotations

from typing import List, Optional

from .states import INVALID, LOCK_NONE, LineState, LockMode

__all__ = ["CacheLine"]


class CacheLine:
    """One cache line with Fig. 2a metadata."""

    __slots__ = (
        "block",
        "state",
        "data",
        "dirty_mask",
        "update",
        "lock",
        "prev",
        "next",
        "last_used",
    )

    def __init__(self, words_per_block: int):
        self.block: int = -1
        self.state: LineState = INVALID
        self.data: List[int] = [0] * words_per_block
        self.dirty_mask: int = 0
        self.update: bool = False
        self.lock: LockMode = LOCK_NONE
        self.prev: Optional[int] = None
        self.next: Optional[int] = None
        self.last_used: float = 0.0

    # -- predicates ----------------------------------------------------------
    @property
    def valid(self) -> bool:
        return self.state is not INVALID

    @property
    def dirty(self) -> bool:
        return self.dirty_mask != 0

    def is_queue_member(self) -> bool:
        """True while this line is threaded into a distributed list.

        Such lines must not be replaced (the paper's motivation for the
        separate lock cache): evicting one would sever the list.
        """
        return self.update or self.lock is not LOCK_NONE

    # -- word access -----------------------------------------------------
    def read_word(self, offset: int) -> int:
        return self.data[offset]

    def write_word(self, offset: int, value: int, dirty: bool = True) -> None:
        self.data[offset] = value
        if dirty:
            self.dirty_mask |= 1 << offset

    def fill(self, block: int, words: List[int], state: LineState) -> None:
        """Install a block, clearing all metadata."""
        self.block = block
        self.data = list(words)
        self.state = state
        self.dirty_mask = 0
        self.update = False
        self.lock = LOCK_NONE
        self.prev = None
        self.next = None

    def invalidate(self) -> None:
        self.state = INVALID
        self.dirty_mask = 0
        self.update = False
        self.lock = LOCK_NONE
        self.prev = None
        self.next = None

    def dirty_words(self) -> List[int]:
        """Offsets of the dirty words."""
        return [i for i in range(len(self.data)) if self.dirty_mask & (1 << i)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Line blk={self.block} {self.state.name} dirty={self.dirty_mask:b} "
            f"upd={int(self.update)} lock={self.lock.name} prev={self.prev} next={self.next}>"
        )
