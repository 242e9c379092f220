"""All-heap referee for the kernel's run loop (:mod:`repro.sim.core`).

Production code runs one loop: :meth:`Simulator.run` keeps zero-delay
entries on a FIFO lane beside the heap and drains each instant in a
batched inner loop.  :class:`HeapSimulator` is what that loop must
reproduce: the seed kernel's calendar, where every entry goes on the
binary heap in ``(time, seq)`` order and ``run`` is a ``peek()``/
``step()`` iteration with an optional ``max_events`` budget.  It is the
referee of the kernel, sleep and traffic equivalence suites and of the
kernel rows of the perf floors table (``benchmarks/perf_smoke.py``).

:func:`heap_machines` builds every :class:`~repro.system.machine.Machine`
on the referee for the duration of a ``with`` block; tests reach it
through the ``heap_kernel`` fixture (``tests/conftest.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush
from math import inf
from types import ModuleType
from typing import Any, Iterator, List, Optional

import repro.system.machine as machine_mod
from repro.sim.core import (
    _CANCELED,
    _IN_FLIGHT,
    _PENDING,
    _PROCESSED,
    _SLEEPING,
    SimulationError,
    Simulator,
)


class HeapSimulator(Simulator):
    """:class:`Simulator` with every calendar entry on the heap and the
    seed kernel's one-event-at-a-time run loop."""

    __slots__ = ()

    def _push(self, payload: Any, delay: float) -> None:
        if delay > 0 and self._jitter is not None:
            delay = self._jitter(delay)
            if not 0 <= delay < inf:
                raise SimulationError(f"jitter hook produced an invalid delay {delay}")
        seq = self._seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, payload))

    def peek(self) -> float:
        """Time of the next live entry, or ``inf`` if none.  Canceled
        entries at the head are discarded on the way."""
        heap = self._heap
        while heap and heap[0][2]._state == _CANCELED:
            heappop(heap)
            self.canceled_pending -= 1
        return heap[0][0] if heap else inf

    def step(self) -> bool:
        """Process exactly one entry; returns False for a canceled one
        (discarded without advancing the clock or running callbacks)."""
        t, _seq, event = heappop(self._heap)
        state = event._state
        if state == _CANCELED:
            self.canceled_pending -= 1
            return False
        self.now = t
        self.events_processed += 1
        if state == _SLEEPING:
            event._state = _PENDING
            event._resume(event)
            return True
        if state == _IN_FLIGHT:
            self._arrive(event)
            return True
        event._state = _PROCESSED
        obs = self._obs
        if obs is not None and event.name and obs.enabled_for("kernel"):
            lat = t - event.sched_at if event.sched_at >= 0 else 0.0
            obs.instant(event.name, "kernel", 0, args={"lat": lat})
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the calendar drains, the next entry is due past
        ``until`` (inclusive), or ``max_events`` entries were processed.
        Canceled entries never count against the budget."""
        count = 0
        heap = self._heap
        while heap:
            if until is not None and self.peek() > until:
                return
            if self.step():
                count += 1
                if max_events is not None and count >= max_events:
                    return


@contextmanager
def heap_machines(*modules: ModuleType) -> Iterator[List[HeapSimulator]]:
    """Build every machine on a :class:`HeapSimulator` inside the block,
    and every ``Simulator()`` that one of ``modules`` makes by that name.

    Yields the list of referee simulators built so far, so a test can
    check that the referee really ran.  Sweep workers and the sweep cache
    are out of reach: run referee sweeps with ``jobs=1, use_cache=False``.
    """
    built: List[HeapSimulator] = []

    def build() -> HeapSimulator:
        sim = HeapSimulator()
        built.append(sim)
        return sim

    targets = (machine_mod, *modules)
    production = [target.Simulator for target in targets]
    for target in targets:
        target.Simulator = build
    try:
        yield built
    finally:
        for target, cls in zip(targets, production):
            target.Simulator = cls
