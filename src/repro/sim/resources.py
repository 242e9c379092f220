"""A FIFO store on top of the kernel: the switch input queues of the
buffered Omega network."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, Simulator

__all__ = ["Store"]


class Store:
    """An unbounded-or-bounded FIFO of items with blocking get/put.

    ``capacity=None`` means unbounded (the paper assumes infinite switch
    buffers and an infinite write buffer; finite capacities are exposed for
    ablation studies).
    """

    __slots__ = ("sim", "capacity", "items", "_getters", "_putters", "name", "_put_name", "_get_name")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self.name = name
        # Event names are formatted once here, not per put/get: stores sit
        # on the per-message hot path (switch queues, write buffers).
        self._put_name = f"{name}.put" if name else ""
        self._get_name = f"{name}.get" if name else ""

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Deposit ``item``; the returned event fires when the put completes."""
        ev = Event(self.sim, name=self._put_name)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif not self.is_full:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self.items.append(item)
        return True

    def get(self) -> Event:
        """The returned event fires with the oldest item."""
        ev = Event(self.sim, name=self._get_name)
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()
