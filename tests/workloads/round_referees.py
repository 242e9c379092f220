"""Scalar referees for the compiled workload rounds (:mod:`repro.workloads.rounds`).

Production code only ever compiles task rounds to a :class:`TaskPlan`;
the scalar forms below are what that compilation must reproduce.  They
are line-for-line transcriptions of the original per-reference drivers
and must never diverge from them:

* :func:`compile_sync_round_scalar` / :func:`build_sync_task_plan_scalar`
  — the sync-model round compiled one reference at a time, the referee
  of the numpy compiler (plan-level pins, and the rounds row of the perf
  floors table in ``benchmarks/perf_smoke.py``);
* :class:`ScalarSyncModelWorkload` / :class:`ScalarWorkQueueWorkload` —
  the workloads with their per-task method swapped for the original
  generator nest (``proc.read`` / ``proc.shared_write`` per reference),
  the referees of the full-run metrics and trace-byte pins.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.workloads.rounds import (
    _COUNTER_KEYS,
    KIND_READ,
    KIND_SHARED_READ,
    KIND_SHARED_WRITE,
    KIND_WRITE,
    TaskPlan,
)
from repro.workloads.syncmodel import SyncModelParams, SyncModelWorkload
from repro.workloads.workqueue import WorkQueueWorkload


def compile_sync_round_scalar(
    params: SyncModelParams,
    shared_blocks: np.ndarray,
    wpb: int,
    draws: np.ndarray,
    blocks: np.ndarray,
    offsets: np.ndarray,
    last_private: int,
    fresh_private: int,
) -> Tuple[TaskPlan, int, int]:
    """Scalar referee for :func:`repro.workloads.rounds._compile_sync_round`."""
    p = params
    kinds: List[int] = []
    addrs: List[int] = []
    tally = dict.fromkeys(_COUNTER_KEYS, 0)
    for i in range(p.grain_size):
        is_shared = draws[i, 0] < p.shared_ratio
        is_read = draws[i, 1] < p.read_ratio
        if is_shared:
            addr = int(shared_blocks[blocks[i]]) * wpb + int(offsets[i])
            kinds.append(KIND_SHARED_READ if is_read else KIND_SHARED_WRITE)
            tally["shared_reads" if is_read else "shared_writes"] += 1
        else:
            if draws[i, 2] < p.hit_ratio:
                addr = last_private
            else:
                fresh_private += wpb
                addr = fresh_private
                last_private = addr
            kinds.append(KIND_READ if is_read else KIND_WRITE)
            tally["reads" if is_read else "writes"] += 1
        addrs.append(addr)
    counts = [(k, n) for k, n in tally.items() if n]
    return TaskPlan(kinds, addrs, counts), last_private, fresh_private


def build_sync_task_plan_scalar(
    params: SyncModelParams,
    shared_blocks: np.ndarray,
    wpb: int,
    rng: np.random.Generator,
    last_private: int,
    fresh_private: int,
) -> Tuple[TaskPlan, int, int]:
    """Draw-then-compile wrapper over :func:`compile_sync_round_scalar`."""
    p = params
    g = p.grain_size
    draws = rng.random((g, 3))
    blocks = rng.integers(0, p.n_shared_blocks, size=g)
    offsets = rng.integers(0, wpb, size=g)
    return compile_sync_round_scalar(
        p, shared_blocks, wpb, draws, blocks, offsets, last_private, fresh_private
    )


class ScalarSyncModelWorkload(SyncModelWorkload):
    """The sync model with the original per-reference task loop."""

    def _task_refs(self, proc, rng, last_private, fresh_private):
        p = self.params
        amap = self.machine.amap
        wpb = self.machine.cfg.words_per_block
        draws = rng.random((p.grain_size, 3))
        shared_blocks = rng.integers(0, p.n_shared_blocks, size=p.grain_size)
        offsets = rng.integers(0, wpb, size=p.grain_size)
        for i in range(p.grain_size):
            is_shared = draws[i, 0] < p.shared_ratio
            is_read = draws[i, 1] < p.read_ratio
            if is_shared:
                addr = amap.word_addr(self.shared_blocks[shared_blocks[i]], offsets[i])
                if is_read:
                    yield from proc.shared_read(addr)
                else:
                    yield from proc.shared_write(addr, proc.node_id)
            else:
                if draws[i, 2] < p.hit_ratio:
                    addr = last_private  # guaranteed cached
                else:
                    fresh_private += wpb  # new block: a compulsory miss
                    addr = fresh_private
                    last_private = addr
                if is_read:
                    yield from proc.read(addr)
                else:
                    yield from proc.write(addr, 1)
        return last_private, fresh_private


class ScalarWorkQueueWorkload(WorkQueueWorkload):
    """The work queue with the original per-reference task loop."""

    def _task_refs(self, proc, tid, state):
        p = self.params
        amap = self.machine.amap
        wpb = self.machine.cfg.words_per_block
        rng = self.machine.rng.stream(f"task{tid}")
        for _ in range(p.grain_size):
            if rng.random() < p.shared_ratio_task:
                blk = self.shared_blocks[int(rng.integers(0, p.n_shared_blocks))]
                addr = amap.word_addr(blk, int(rng.integers(0, wpb)))
                if rng.random() < p.read_ratio:
                    yield from proc.shared_read(addr)
                else:
                    yield from proc.shared_write(addr, proc.node_id)
            else:
                if rng.random() < p.hit_ratio:
                    addr = state["last"]
                else:
                    state["fresh"] += wpb
                    addr = state["fresh"]
                    state["last"] = addr
                if rng.random() < p.read_ratio:
                    yield from proc.read(addr)
                else:
                    yield from proc.write(addr, 1)
