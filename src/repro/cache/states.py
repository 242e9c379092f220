"""Cache line states and lock modes."""

from __future__ import annotations

from enum import Enum, auto

__all__ = ["LineState", "LockMode"]


class LineState(Enum):
    """Coherence state of a cache line.

    ``INVALID``/``SHARED``/``EXCLUSIVE`` are the conventional MSI states used
    by the WBI baseline.  ``VALID_LOCAL`` marks a line brought in by the
    paper's plain READ/WRITE primitives, which perform *no* coherence
    maintenance — the line behaves as in a uniprocessor cache, with per-word
    dirty bits recording local modifications.
    """

    INVALID = auto()
    SHARED = auto()
    EXCLUSIVE = auto()  # dirty, sole owner (WBI)
    VALID_LOCAL = auto()  # paper's uncoherent local-mode line


class LockMode(Enum):
    """Content of a line's lock field (Fig. 2a)."""

    NONE = auto()
    READ = auto()  # holding a shared lock
    WRITE = auto()  # holding an exclusive lock
    WAIT_READ = auto()  # queued for a shared lock
    WAIT_WRITE = auto()  # queued for an exclusive lock

    @property
    def is_held(self) -> bool:
        return self is READ or self is WRITE

    @property
    def is_waiting(self) -> bool:
        return self is WAIT_READ or self is WAIT_WRITE


# Every member bound once as a module global for function bodies to load
# (see the note above ``repro.network.message.READ_MISS``).  ``SHARED``,
# ``EXCLUSIVE`` and ``NONE`` recur in ``DirState`` and ``Usage``, so they
# carry a prefix here.
INVALID = LineState.INVALID
LINE_SHARED = LineState.SHARED
LINE_EXCLUSIVE = LineState.EXCLUSIVE
VALID_LOCAL = LineState.VALID_LOCAL
LOCK_NONE = LockMode.NONE
READ = LockMode.READ
WRITE = LockMode.WRITE
WAIT_READ = LockMode.WAIT_READ
WAIT_WRITE = LockMode.WAIT_WRITE
