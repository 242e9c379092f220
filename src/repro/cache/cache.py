"""A set-associative write-back data cache with LRU replacement."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.stats import StatSet
from .line import CacheLine
from .states import INVALID, LineState

__all__ = ["SetAssocCache", "CacheGeometryError"]


class CacheGeometryError(ValueError):
    """Raised for invalid cache shape parameters."""


class SetAssocCache:
    """``n_sets`` x ``assoc`` cache of ``words_per_block``-word lines.

    The replacement policy is LRU within a set, with one hard constraint
    from the paper: lines that are members of a distributed linked list
    (``update`` bit set or non-empty ``lock`` field) are *not* replaceable —
    callers must either find another victim or steer such lines to the lock
    cache.  ``victim_for`` returns ``None`` when every way is pinned.
    """

    def __init__(self, n_sets: int, assoc: int, words_per_block: int):
        if n_sets <= 0 or (n_sets & (n_sets - 1)) != 0:
            raise CacheGeometryError(f"n_sets must be a positive power of two, got {n_sets}")
        if assoc <= 0:
            raise CacheGeometryError(f"assoc must be positive, got {assoc}")
        if words_per_block <= 0:
            raise CacheGeometryError("words_per_block must be positive")
        self.n_sets = n_sets
        self.assoc = assoc
        self.words_per_block = words_per_block
        # Sets are materialized on first touch: a Table-4 machine has
        # n_nodes x 1024 lines, and eagerly building them dominated machine
        # construction time while a typical sweep point touches a fraction.
        self._sets: List[Optional[List[CacheLine]]] = [None] * n_sets
        self.stats = StatSet()

    def _set(self, idx: int) -> List[CacheLine]:
        s = self._sets[idx]
        if s is None:
            s = self._sets[idx] = [CacheLine(self.words_per_block) for _ in range(self.assoc)]
        return s

    # -- geometry ----------------------------------------------------------
    @property
    def capacity_blocks(self) -> int:
        return self.n_sets * self.assoc

    def set_index(self, block: int) -> int:
        return block & (self.n_sets - 1)

    # -- lookup ----------------------------------------------------------
    def lookup(self, block: int, touch: bool = True, now: float = 0.0) -> Optional[CacheLine]:
        """The valid line holding ``block``, or None; updates LRU on hit."""
        s = self._sets[block & (self.n_sets - 1)]
        counts = self.stats.counters.counts
        if s is not None:
            for line in s:
                # ``line.valid`` without the property frame (here and below).
                if line.state is not INVALID and line.block == block:
                    if touch:
                        line.last_used = now
                    counts["hits"] = counts.get("hits", 0) + 1
                    return line
        counts["misses"] = counts.get("misses", 0) + 1
        return None

    def peek(self, block: int) -> Optional[CacheLine]:
        """Lookup without touching LRU or stats."""
        s = self._sets[block & (self.n_sets - 1)]
        if s is not None:
            for line in s:
                if line.state is not INVALID and line.block == block:
                    return line
        return None

    # -- allocation ----------------------------------------------------------
    def victim_for(self, block: int) -> Optional[CacheLine]:
        """The line to (re)use for ``block``: an invalid way, else the LRU
        non-pinned way.  ``None`` if every way is pinned to a queue."""
        candidates = self._set(self.set_index(block))
        best: Optional[CacheLine] = None
        for line in candidates:
            if line.state is INVALID:
                return line
            if line.is_queue_member():
                continue
            if best is None or line.last_used < best.last_used:
                best = line
        return best

    def install(
        self, block: int, words: List[int], state: LineState, now: float = 0.0
    ) -> Tuple[CacheLine, Optional[Tuple[int, List[int], int]]]:
        """Place ``block`` into the cache.

        Returns ``(line, evicted)`` where ``evicted`` is
        ``(old_block, old_words, old_dirty_mask)`` if a valid dirty-or-clean
        line was displaced (the caller decides whether a write-back is
        needed), else ``None``.

        Raises :class:`CacheGeometryError` if the set is entirely pinned.
        """
        existing = self.peek(block)
        if existing is not None:
            existing.fill(block, words, state)
            existing.last_used = now
            return existing, None
        victim = self.victim_for(block)
        if victim is None:
            raise CacheGeometryError(
                f"all ways of set {self.set_index(block)} are pinned to queues"
            )
        evicted = None
        if victim.valid:
            self.stats.counters.add("evictions")
            evicted = (victim.block, list(victim.data), victim.dirty_mask)
        victim.fill(block, words, state)
        victim.last_used = now
        return victim, evicted

    # -- maintenance ----------------------------------------------------------
    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Invalidate ``block`` if present; returns the line (pre-cleared
        contents are the caller's responsibility to copy first)."""
        line = self.peek(block)
        if line is not None:
            line.invalidate()
        return line

    def valid_lines(self) -> List[CacheLine]:
        return [line for s in self._sets if s is not None for line in s if line.valid]

    @property
    def hit_rate(self) -> float:
        h = self.stats.counters["hits"]
        m = self.stats.counters["misses"]
        return h / (h + m) if h + m else 0.0
