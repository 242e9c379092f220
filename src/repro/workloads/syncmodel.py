"""The *sync* workload model: a probabilistic memory-reference stream.

Modeled on Archibald & Baer's multiprocessor cache workload, extended as in
the paper with synchronization primitives and a distinction between
synchronization variables and ordinary shared data.  Table 4 gives the
parameter defaults.

Each processor executes ``tasks_per_node`` tasks.  A task issues
``grain_size`` data references; each reference is shared with probability
``shared_ratio`` (to one of ``n_shared_blocks`` hot blocks) and a read with
probability ``read_ratio``.  Private references hit in the cache with
probability ``hit_ratio`` (modeled by address reuse, so the hits and misses
exercise the real cache).  Between tasks the processor performs a
synchronization episode: with probability ``lock_ratio`` a lock/unlock pair
around a short critical section on one of the shared blocks, otherwise an
all-processor barrier.

Lock contention here is *spread* over ``n_locks`` locks, which is why the
paper finds WBI and CBL comparable under this model (the two bottom curves
of Figures 4 and 5) — the work-queue model concentrates contention instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..sync.base import HWBarrier
from ..sync.swlock import SWBarrier
from .base import make_lock
from .demand import ClosedLoopDemand
from .rounds import RoundScratch, build_sync_task_plan, execute_plan
from .service import ClosedLoopService

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor
    from ..system.machine import Machine

__all__ = ["SyncModelParams", "SyncModelWorkload"]


@dataclass(slots=True)
class SyncModelParams:
    """Table 4 parameters (defaults are the paper's values)."""

    shared_ratio: float = 0.03  # during task execution
    n_shared_blocks: int = 32
    hit_ratio: float = 0.95
    read_ratio: float = 0.85
    lock_ratio: float = 0.5
    grain_size: int = 50  # data references per task (granularity knob)
    tasks_per_node: int = 4
    critical_section_refs: int = 4
    n_locks: int = 8
    use_barriers: bool = True

    def __post_init__(self) -> None:
        for name in ("shared_ratio", "hit_ratio", "read_ratio", "lock_ratio"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.grain_size <= 0 or self.tasks_per_node <= 0:
            raise ValueError("grain_size and tasks_per_node must be positive")
        if self.n_shared_blocks <= 0 or self.n_locks <= 0:
            raise ValueError("n_shared_blocks and n_locks must be positive")


class SyncModelWorkload(ClosedLoopService):
    """Drives one machine with the probabilistic reference stream.

    A closed-loop configuration of the demand/policy/service layering:
    one logical client per processor issuing exactly ``tasks_per_node``
    requests back-to-back (:attr:`demand`); placement is identity (client
    i *is* node i); the service body is the Table-4 stream in
    :meth:`_driver`.  Scaffold and verified finish come from
    :class:`~repro.workloads.service.ClosedLoopService`.
    """

    name = "syncmodel"
    default_max_cycles = 50_000_000

    def __init__(
        self,
        machine: "Machine",
        params: Optional[SyncModelParams] = None,
        lock_scheme: str = "cbl",
        consistency: str = "sc",
    ):
        super().__init__(machine, lock_scheme, consistency)
        self.params = params or SyncModelParams()
        p = self.params
        first_shared = machine.alloc_block(p.n_shared_blocks)
        self.shared_blocks = list(range(first_shared, first_shared + p.n_shared_blocks))
        self._shared_arr = np.asarray(self.shared_blocks, dtype=np.int64)
        self._scratch = RoundScratch(p, self._shared_arr, machine.cfg.words_per_block)
        self.locks = [make_lock(machine, lock_scheme) for _ in range(p.n_locks)]
        n = machine.cfg.n_nodes
        if p.use_barriers:
            if lock_scheme == "cbl":
                self.barrier = HWBarrier(machine, n=n)
            else:
                self.barrier = SWBarrier(machine, n=n)
        else:
            self.barrier = None
        # Private address space: one region per node, far from shared data.
        self._private_base = machine.alloc_block(64 * n)
        self.builder.add_sync(*self.locks).add_sync(self.barrier)
        self.demand = ClosedLoopDemand(n_clients=n, requests_per_client=p.tasks_per_node)
        # Whether the sync episode after task k is a barrier must be agreed
        # by all processors (a barrier only some join would deadlock), so it
        # is drawn once from a machine-level stream.
        shared_rng = machine.rng.stream("syncmodel:episodes")
        self._is_barrier = (
            (shared_rng.random(p.tasks_per_node) >= p.lock_ratio)
            if self.barrier is not None
            else np.zeros(p.tasks_per_node, dtype=bool)
        )

    # -- reference stream ---------------------------------------------------
    def _task_refs(self, proc: "Processor", rng, last_private: int, fresh_private: int):
        """The ``grain_size`` data references of one task, compiled as array
        ops (:mod:`.rounds`) and replayed through the data controller.

        Returns the advanced ``(last_private, fresh_private)`` address
        cursor: a private miss claims the next fresh block, a hit reuses
        the last one.
        """
        plan, last_private, fresh_private = build_sync_task_plan(
            self.params, self._shared_arr, self.machine.cfg.words_per_block,
            rng, last_private, fresh_private, self._scratch,
        )
        yield from execute_plan(proc, plan)
        return last_private, fresh_private

    def _driver(self, proc: "Processor"):
        p = self.params
        rng = self.machine.rng.node_stream(proc.node_id, "syncmodel")
        amap = self.machine.amap
        wpb = self.machine.cfg.words_per_block
        private_base = amap.word_addr(self._private_base + 64 * proc.node_id, 0)
        last_private = private_base
        fresh_private = private_base
        for task_idx in range(p.tasks_per_node):
            last_private, fresh_private = yield from self._task_refs(
                proc, rng, last_private, fresh_private
            )
            # -- synchronization episode -----------------------------------
            if self._is_barrier[task_idx]:
                yield from proc.barrier(self.barrier)
            else:
                lock = self.locks[rng.integers(0, p.n_locks)]
                yield from proc.acquire(lock)
                for _ in range(p.critical_section_refs):
                    blk = self.shared_blocks[rng.integers(0, p.n_shared_blocks)]
                    addr = amap.word_addr(blk, rng.integers(0, wpb))
                    if rng.random() < p.read_ratio:
                        yield from proc.shared_read(addr)
                    else:
                        yield from proc.shared_write(addr, proc.node_id)
                yield from proc.release(lock)
            self.tasks_done += 1
