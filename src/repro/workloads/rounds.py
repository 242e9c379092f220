"""Vectorized task rounds: plan/execute split for the Fig 4-7 workloads.

The probabilistic workload models (:mod:`.syncmodel`, :mod:`.workqueue`)
spend most of their time in the per-task reference loop: ``grain_size``
data references, each a couple of RNG draws, an address computation, and
nested generator frames (``proc.read`` -> controller).
For the homogeneous rounds none of that per-reference Python work depends
on simulation state — the reference *kinds* and *addresses* are a pure
function of the RNG draws — so it can be lifted out of simulated time:

1. **Plan**: compute the whole round's ``(kind, addr)`` arrays up front.
   For the sync model the round is branch-free given the draw matrix, so
   the plan builds as numpy array ops (:func:`build_sync_task_plan`); the
   work-queue model's draw order is data-dependent (a shared reference
   consumes a different number of draws than a private one), so its plan
   builder keeps the *exact* scalar draw sequence and only compiles the
   result (:func:`build_queue_task_plan`).
2. **Execute**: :func:`execute_plan` replays the plan through the node's
   data controller in one lean loop — direct controller calls instead of
   the processor wrappers, with the reference counters and the
   ``data_cycles`` bucket accumulated locally and added once per round.

Equivalence contract: a plan-driven round consumes the same RNG draws in
the same order, issues the same controller operations at the same
simulated times, and leaves every counter at the same total as the scalar
per-reference driver it replaced.  That scalar driver and the scalar plan
compiler live on as test referees (``tests/workloads/round_referees.py``):
the differential pins in ``tests/workloads/test_vectorized_rounds.py``
hold the two paths bit-identical, and the rounds row of the perf floors
table (``benchmarks/perf_smoke.py``) times the compiler against them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor
    from .syncmodel import SyncModelParams
    from .workqueue import WorkQueueParams

__all__ = [
    "TaskPlan",
    "RoundScratch",
    "build_sync_task_plan",
    "build_queue_task_plan",
    "execute_plan",
]

# Reference kinds.  Reads sort below writes so the execute loop's common
# case (reads dominate at read_ratio=0.85) is the first branch.
KIND_READ = 0  #: private read        -> data.read(addr)
KIND_SHARED_READ = 1  #: shared read  -> data.read(addr)
KIND_WRITE = 2  #: private write      -> data.write(addr, 1)
KIND_SHARED_WRITE = 3  #: shared write -> model.shared_write(proc, addr, id)

_COUNTER_KEYS = ("reads", "shared_reads", "writes", "shared_writes")


class TaskPlan:
    """One round's compiled reference stream.

    ``kinds``/``addrs`` are plain Python lists (not arrays): the execute
    loop reads them one element at a time between simulator yields, where
    list indexing beats numpy scalar extraction.
    """

    __slots__ = ("kinds", "addrs", "counts")

    def __init__(self, kinds: List[int], addrs: List[int], counts: List[Tuple[str, int]]):
        self.kinds = kinds
        self.addrs = addrs
        self.counts = counts

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TaskPlan)
            and self.kinds == other.kinds
            and self.addrs == other.addrs
            and sorted(self.counts) == sorted(other.counts)
        )


class RoundScratch:
    """Preallocated per-workload compilation buffers.

    One instance per workload: every round has the same grain, and a
    round compiles without yielding to the simulator (the plan copies out
    to lists), so the comparison/cumsum/address arrays can be allocated
    once, shared by every driver, and refilled with ``out=`` ops — at grain 200 the allocations are a
    measurable fraction of the compile cost.  Also caches the two
    loop-invariant operands: the probability-threshold row the draw matrix
    is compared against, and the shared block addresses premultiplied by
    the block width.
    """

    __slots__ = ("thresh", "shared_base", "flags", "miss", "addrs")

    def __init__(self, params: "SyncModelParams", shared_blocks, wpb: int):
        g = params.grain_size
        self.thresh = np.array([params.shared_ratio, params.read_ratio, params.hit_ratio])
        self.shared_base = np.asarray(shared_blocks, dtype=np.int64) * wpb
        self.flags = np.empty((g, 3), dtype=bool)
        self.miss = np.empty(g, dtype=bool)
        self.addrs = np.empty(g, dtype=np.int64)


def _compile_sync_round(
    wpb: int,
    draws: np.ndarray,
    blocks: np.ndarray,
    offsets: np.ndarray,
    last_private: int,
    fresh_private: int,
    scratch: RoundScratch,
) -> Tuple[TaskPlan, int, int]:
    """Array-op compilation of one drawn round (the vectorized hot path).

    The only loop-carried state in the scalar round is the private-address
    cursor: a miss claims the next fresh block and later hits reuse it.
    That recurrence is a prefix sum — after ``k`` misses the cursor sits at
    ``fresh0 + wpb * k`` — so a ``cumsum`` over the miss mask yields every
    reference's address without iterating.
    """
    g = len(blocks)
    flags = np.less(draws, scratch.thresh, out=scratch.flags)
    is_shared = flags[:, 0]
    is_read = flags[:, 1]
    miss = np.logical_or(is_shared, flags[:, 2], out=scratch.miss)
    miss = np.logical_not(miss, out=miss)
    # add.accumulate with an explicit dtype skips cumsum's bool->int64
    # cast pass, which dominates it at this grain.
    cum = np.add.accumulate(miss, dtype=np.int64)
    n_miss = int(cum[-1]) if g else 0
    if last_private == fresh_private:
        # Steady state: the cursor halves are equal from the first miss on
        # (every miss sets last := fresh), and they start equal too.
        addrs = np.multiply(cum, wpb, out=scratch.addrs)
        addrs += fresh_private
    else:
        addrs = np.where(cum > 0, fresh_private + wpb * cum, last_private)
    # kind = (0 if read else 2) + is_shared reproduces the KIND_* encoding.
    kinds = np.where(is_read, 0, 2)
    kinds += is_shared
    sidx = np.nonzero(is_shared)[0]
    n_shared = int(sidx.size)
    if n_shared:
        addrs[sidx] = scratch.shared_base[blocks[sidx]] + offsets[sidx]
        n_shared_reads = int(np.count_nonzero(is_read[sidx]))
    else:
        n_shared_reads = 0
    n_reads_total = int(np.count_nonzero(is_read))
    n_reads = n_reads_total - n_shared_reads
    pairs = (
        ("reads", n_reads),
        ("shared_reads", n_shared_reads),
        ("writes", g - n_shared - n_reads),
        ("shared_writes", n_shared - n_shared_reads),
    )
    # The scalar driver only ever creates a counter key it actually
    # increments; dropping zeros keeps the counter dicts identical.
    counts = [(k, n) for k, n in pairs if n]
    if n_miss:
        fresh_private += wpb * n_miss
        last_private = fresh_private
    plan = TaskPlan(kinds.tolist(), addrs.tolist(), counts)
    return plan, last_private, fresh_private


def build_sync_task_plan(
    params: "SyncModelParams",
    shared_blocks: np.ndarray,
    wpb: int,
    rng: np.random.Generator,
    last_private: int,
    fresh_private: int,
    scratch: RoundScratch = None,
) -> Tuple[TaskPlan, int, int]:
    """Compile one sync-model task round as array ops.

    Consumes exactly the draws of the scalar driver — one ``(grain, 3)``
    uniform matrix plus two integer arrays — and returns the plan together
    with the advanced ``(last_private, fresh_private)`` address cursor.
    Pass a reusable :class:`RoundScratch` to amortize buffer allocation
    across a driver's rounds.
    """
    p = params
    g = p.grain_size
    draws = rng.random((g, 3))
    blocks = rng.integers(0, p.n_shared_blocks, size=g)
    offsets = rng.integers(0, wpb, size=g)
    if scratch is None:
        scratch = RoundScratch(p, shared_blocks, wpb)
    return _compile_sync_round(wpb, draws, blocks, offsets, last_private, fresh_private, scratch)


def build_queue_task_plan(
    params: "WorkQueueParams",
    shared_blocks: List[int],
    wpb: int,
    rng: np.random.Generator,
    state: dict,
) -> TaskPlan:
    """Compile one work-queue task's reference stream.

    Unlike the sync model, the draw *order* here is data-dependent (the
    shared branch consumes three draws, the private branch three different
    ones), so batching the draws would change every subsequent value.  The
    builder therefore replays the scalar draw sequence exactly and only
    compiles the result, trading the processor's generator nest per
    reference for :func:`execute_plan`'s single lean loop.
    """
    p = params
    random = rng.random
    integers = rng.integers
    kinds: List[int] = []
    addrs: List[int] = []
    tally = dict.fromkeys(_COUNTER_KEYS, 0)
    for _ in range(p.grain_size):
        if random() < p.shared_ratio_task:
            blk = shared_blocks[int(integers(0, p.n_shared_blocks))]
            addr = blk * wpb + int(integers(0, wpb))
            if random() < p.read_ratio:
                kinds.append(KIND_SHARED_READ)
                tally["shared_reads"] += 1
            else:
                kinds.append(KIND_SHARED_WRITE)
                tally["shared_writes"] += 1
        else:
            if random() < p.hit_ratio:
                addr = state["last"]
            else:
                state["fresh"] += wpb
                addr = state["fresh"]
                state["last"] = addr
            if random() < p.read_ratio:
                kinds.append(KIND_READ)
                tally["reads"] += 1
            else:
                kinds.append(KIND_WRITE)
                tally["writes"] += 1
        addrs.append(addr)
    counts = [(k, n) for k, n in tally.items() if n]
    return TaskPlan(kinds, addrs, counts)


def execute_plan(proc: "Processor", plan: TaskPlan):
    """Replay a compiled round through the node's data controller.

    Equivalent to issuing each reference through ``proc.read`` /
    ``proc.write`` / ``proc.shared_read`` / ``proc.shared_write``, but with
    the controller generators driven directly (``yield from`` is
    transparent, so the event stream is identical) and the counters —
    including the per-reference ``int(now - t0)`` terms of the
    ``data_cycles`` bucket — accumulated locally and added once.
    """
    sim = proc.sim
    data_read = proc.data.read
    data_write = proc.data.write
    shared_write = proc.model.shared_write
    node_id = proc.node_id
    data_cycles = 0
    for kind, addr in zip(plan.kinds, plan.addrs):
        t0 = sim.now
        if kind <= KIND_SHARED_READ:
            yield from data_read(addr)
        elif kind == KIND_WRITE:
            yield from data_write(addr, 1)
        else:
            yield from shared_write(proc, addr, node_id)
        data_cycles += int(sim.now - t0)
    counts = proc.stats.counters.counts
    for key, n in plan.counts:
        counts[key] = counts.get(key, 0) + n
    counts["data_cycles"] = counts.get("data_cycles", 0) + data_cycles
