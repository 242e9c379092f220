"""The *work-queue* workload model (Section 5.2).

"A large problem is divided into atomic tasks ... Tasks are inserted into a
work queue of executable tasks ... Each processor takes a task from the
queue and processes it.  If a new task is generated as a result of the
processing, it is inserted into the queue.  All the processors execute the
same code until the task queue is empty."

The queue's head/tail/size words live in lock-protected shared memory; every
dequeue/enqueue acquires THE queue lock, touches the queue state with a 0.5
shared-access ratio (Table 4: "0.5: queue access"), and releases.  This
concentrates all lock contention on a single lock — the regime where WBI
collapses and CBL scales (Figures 4 and 5).

Task dependencies: each task is enabled only after its predecessors
complete; dependencies are drawn as a random DAG at build time, making the
queue "non-FIFO in nature" as the paper notes.  A task may also *spawn* a
new task with probability ``spawn_prob`` (bounded by ``max_spawned``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set

from ..sim.rng import ScalarReader
from ..sync.base import HWBarrier
from ..sync.swlock import SWBarrier
from .base import make_lock
from .rounds import build_queue_task_plan, execute_plan
from .service import ClosedLoopService

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor
    from ..system.machine import Machine

__all__ = ["WorkQueueParams", "WorkQueueWorkload"]


@dataclass(slots=True)
class WorkQueueParams:
    """Work-queue model parameters (Table 4 defaults where given)."""

    n_tasks: int = 32  # initial tasks
    grain_size: int = 50  # data references per task
    shared_ratio_task: float = 0.03  # during task execution
    shared_ratio_queue: float = 0.5  # during queue access
    n_shared_blocks: int = 32
    hit_ratio: float = 0.95
    read_ratio: float = 0.85
    queue_ops_refs: int = 4  # references per queue operation
    spawn_prob: float = 0.0
    max_spawned: int = 0
    dep_prob: float = 0.1  # chance task i depends on a given earlier task
    final_barrier: bool = True
    idle_backoff: int = 50  # pause before re-polling an empty queue

    def __post_init__(self) -> None:
        if self.n_tasks <= 0 or self.grain_size <= 0 or self.queue_ops_refs <= 0:
            raise ValueError("n_tasks, grain_size, queue_ops_refs must be positive")
        for name in (
            "shared_ratio_task",
            "shared_ratio_queue",
            "hit_ratio",
            "read_ratio",
            "spawn_prob",
            "dep_prob",
        ):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0,1]")


class _TaskGraph:
    """Dependency-aware task pool (the Python-side queue contents).

    ``rng`` supplies the dependency coins through ``random()``: the
    workload passes a :class:`~repro.sim.rng.ScalarReader`, and the numpy
    generator it wraps would draw the same doubles.
    """

    def __init__(self, n_tasks: int, dep_prob: float, rng: ScalarReader):
        self.deps: List[Set[int]] = []
        self.completed: Set[int] = set()
        self.ready: List[int] = []
        self.in_flight: Set[int] = set()
        self._rng = rng
        self._dep_prob = dep_prob
        for i in range(n_tasks):
            self._add_task(i)

    def _add_task(self, tid: int) -> None:
        # Depend on a sparse random subset of earlier tasks (a DAG).
        earlier = [t for t in range(len(self.deps)) if t not in self.completed]
        deps = {
            t for t in earlier[-8:] if self._rng.random() < self._dep_prob
        }
        self.deps.append(deps)
        if not deps:
            self.ready.append(tid)

    def spawn(self) -> int:
        tid = len(self.deps)
        self._add_task(tid)
        return tid

    def take(self) -> Optional[int]:
        """Pop a ready task honoring dependencies (non-FIFO)."""
        if not self.ready:
            return None
        tid = self.ready.pop(0)
        self.in_flight.add(tid)
        return tid

    def complete(self, tid: int) -> None:
        self.in_flight.discard(tid)
        self.completed.add(tid)
        for t, deps in enumerate(self.deps):
            if (
                tid in deps
                and t not in self.completed
                and t not in self.in_flight
                and t not in self.ready
            ):
                deps.discard(tid)
                if not deps:
                    self.ready.append(t)

    @property
    def drained(self) -> bool:
        return len(self.completed) == len(self.deps)


class WorkQueueWorkload(ClosedLoopService):
    """Dynamic-scheduling workload on one machine.

    In demand/policy/service terms this is a closed-loop configuration:
    one logical client per processor, each issuing its next dequeue when
    the previous task completes, until the shared pool drains
    (:attr:`demand`); placement is the queue itself (whoever wins the lock
    takes the task); the service body is the Table-4 reference stream in
    :meth:`_task_refs`.  The run scaffold and the verified finish path
    come from :class:`~repro.workloads.service.ClosedLoopService`.
    """

    name = "workqueue"
    default_max_cycles = 100_000_000

    def __init__(
        self,
        machine: "Machine",
        params: Optional[WorkQueueParams] = None,
        lock_scheme: str = "cbl",
        consistency: str = "sc",
    ):
        super().__init__(machine, lock_scheme, consistency)
        self.params = params or WorkQueueParams()
        p = self.params
        self.queue_lock = make_lock(machine, lock_scheme)
        # Queue bookkeeping words (head/tail/count) live on shared blocks.
        self.queue_state = machine.alloc_block(2)
        first_shared = machine.alloc_block(p.n_shared_blocks)
        self.shared_blocks = list(range(first_shared, first_shared + p.n_shared_blocks))
        n = machine.cfg.n_nodes
        if p.final_barrier:
            self.barrier = (
                HWBarrier(machine, n=n) if lock_scheme == "cbl" else SWBarrier(machine, n=n)
            )
        else:
            self.barrier = None
        self._private_base = machine.alloc_block(64 * n)
        self.graph = _TaskGraph(
            p.n_tasks, p.dep_prob, ScalarReader(machine.rng.stream("workqueue:deps"))
        )
        self._spawned = 0
        self.builder.add_sync(self.queue_lock, self.barrier)

    # -- pieces of the driver --------------------------------------------------
    def _queue_refs(self, proc: "Processor", rng) -> "Generator":
        """Memory references made while holding the queue lock."""
        p = self.params
        amap = self.machine.amap
        wpb = self.machine.cfg.words_per_block
        for _ in range(p.queue_ops_refs):
            if rng.random() < p.shared_ratio_queue:
                blk = self.queue_state + rng.integers(0, 2)
                addr = amap.word_addr(blk, rng.integers(0, wpb))
                if rng.random() < p.read_ratio:
                    yield from proc.shared_read(addr)
                else:
                    yield from proc.shared_write(addr, proc.node_id)
            else:
                yield from proc.compute(1)

    def _task_refs(self, proc: "Processor", tid: int, state) -> "Generator":
        """Memory references of one task execution, compiled to a
        :class:`~.rounds.TaskPlan` and replayed through the data controller.

        The stream is keyed by *task id*, not by node: a task costs the same
        work no matter which processor dequeues it, so completion-time
        comparisons between consistency models are not confounded by
        scheduling-induced work reassignment.  Each task's stream is
        derived, not cached: a task runs once, and ``stream()`` would keep
        its generator for the machine's life.
        """
        plan = build_queue_task_plan(
            self.params,
            self.shared_blocks,
            self.machine.cfg.words_per_block,
            ScalarReader(self.machine.rng.derive(f"task{tid}")),
            state,
        )
        yield from execute_plan(proc, plan)

    def _driver(self, proc: "Processor"):
        p = self.params
        rng = ScalarReader(self.machine.rng.node_stream(proc.node_id, "workqueue"))
        base = self.machine.amap.word_addr(
            self._private_base + 64 * proc.node_id, 0
        )
        state = {"last": base, "fresh": base}
        poll_addr = self.machine.amap.word_addr(self.queue_state, 0)
        while True:
            # ---- wait for visible work (poll outside the lock) ------------
            # Grabbing the lock just to find the queue empty would let idle
            # processors starve the one that needs it to finish its task
            # (unfair test-and-set locks make that a real livelock), so
            # idlers poll a queue-count word and back off exponentially.
            pause = p.idle_backoff
            polls = 0
            while not self.graph.ready and not self.graph.drained:
                yield from proc.shared_read(poll_addr)
                yield from proc.compute(pause)
                pause = min(pause * 2, p.idle_backoff * 64)
                polls += 1
                if polls > 100_000:  # pragma: no cover - safety net
                    raise RuntimeError("work queue starved: dependency deadlock?")
            if self.graph.drained:
                break
            # ---- dequeue under the queue lock -----------------------------
            yield from proc.acquire(self.queue_lock)
            yield from self._queue_refs(proc, rng)
            tid = self.graph.take()
            yield from proc.release(self.queue_lock)
            if tid is None:
                continue  # lost the race; back to polling
            # ---- execute the task ------------------------------------------
            yield from self._task_refs(proc, tid, state)
            # ---- possibly spawn a successor --------------------------------
            wants_spawn = rng.random() < p.spawn_prob
            # ---- mark complete (queue update under the lock) ----------------
            yield from proc.acquire(self.queue_lock)
            yield from self._queue_refs(proc, rng)
            self.graph.complete(tid)
            # The spawn cap is checked while holding the queue lock, exactly
            # as a real implementation would guard the shared counter.
            if wants_spawn and self._spawned < p.max_spawned:
                self.graph.spawn()
                self._spawned += 1
            yield from proc.release(self.queue_lock)
            self.tasks_done += 1
        if self.barrier is not None:
            yield from proc.barrier(self.barrier)
