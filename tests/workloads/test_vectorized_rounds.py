"""Differential pins for the vectorized workload rounds (:mod:`repro.workloads.rounds`).

Three layers of evidence that the plan/execute split changes nothing:

1. **Plan equality** — the numpy round compiler and the scalar referee
   produce identical :class:`TaskPlan` objects (kinds, addresses, counter
   tallies) and identical private-address cursors, across parameter edge
   cases that exercise every compiler branch.
2. **Metrics equality** — a full machine run of each probabilistic
   workload is bit-identical (``RunMetrics.to_json()`` plus the workload
   result) to the same run of its scalar referee subclass.
3. **Trace equality** — with tracing on, the two paths emit byte-identical
   event streams: the compiled rounds issue the same controller operations
   at the same simulated times.

The referees live in :mod:`tests.workloads.round_referees`.

Plus the cached kernel trace gate (satellite of the same PR): changing the
trace bus's category set mid-run must invalidate the kernel's cached
``enabled_for("kernel")`` answer.
"""

import itertools
import json

import numpy as np
import pytest

import repro.network.message as msgmod
from repro.obs import ObsParams
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.rounds import RoundScratch, _compile_sync_round, build_sync_task_plan
from repro.workloads.syncmodel import SyncModelParams, SyncModelWorkload
from repro.workloads.workqueue import WorkQueueWorkload

from .round_referees import (
    ScalarSyncModelWorkload,
    ScalarWorkQueueWorkload,
    build_sync_task_plan_scalar,
    compile_sync_round_scalar,
)

WPB = 4
SHARED = np.arange(100, 132, dtype=np.int64)


# -- layer 1: plan equality --------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_sync_plan_matches_scalar_referee(seed):
    p = SyncModelParams(grain_size=64)
    base = 10_000
    scratch = RoundScratch(p, SHARED, WPB)
    rng_v = np.random.default_rng(seed)
    rng_s = np.random.default_rng(seed)
    last_v = fresh_v = base
    last_s = fresh_s = base
    for _ in range(5):  # cursor threads across rounds
        plan_v, last_v, fresh_v = build_sync_task_plan(
            p, SHARED, WPB, rng_v, last_v, fresh_v, scratch
        )
        plan_s, last_s, fresh_s = build_sync_task_plan_scalar(
            p, SHARED, WPB, rng_s, last_s, fresh_s
        )
        assert plan_v == plan_s
        assert (last_v, fresh_v) == (last_s, fresh_s)


@pytest.mark.parametrize(
    "overrides",
    [
        {"shared_ratio": 0.0},  # no shared refs: empty sidx, zero counts dropped
        {"shared_ratio": 1.0},  # every ref shared: no private cursor motion
        {"hit_ratio": 1.0},  # no misses: n_miss == 0 branch
        {"hit_ratio": 0.0},  # all misses: cursor advances every private ref
        {"read_ratio": 0.0},
        {"read_ratio": 1.0},
        {"grain_size": 1},
    ],
)
def test_sync_plan_matches_scalar_at_edges(overrides):
    p = SyncModelParams(grain_size=overrides.pop("grain_size", 48), **overrides)
    scratch = RoundScratch(p, SHARED, WPB)
    plan_v, lv, fv = build_sync_task_plan(
        p, SHARED, WPB, np.random.default_rng(9), 400, 400, scratch
    )
    plan_s, ls, fs = build_sync_task_plan_scalar(
        p, SHARED, WPB, np.random.default_rng(9), 400, 400
    )
    assert plan_v == plan_s and (lv, fv) == (ls, fs)
    # Zero tallies are dropped, not recorded: counter dicts stay identical
    # to a scalar driver that never touches an absent key.
    assert all(n > 0 for _, n in plan_v.counts)


def test_sync_compile_split_cursor_branch():
    """``last_private != fresh_private`` takes the np.where branch; pin it
    against the scalar referee on the same pre-drawn inputs."""
    p = SyncModelParams(grain_size=32, hit_ratio=0.5)
    rng = np.random.default_rng(2)
    draws = rng.random((p.grain_size, 3))
    blocks = rng.integers(0, p.n_shared_blocks, size=p.grain_size)
    offsets = rng.integers(0, WPB, size=p.grain_size)
    scratch = RoundScratch(p, SHARED, WPB)
    got = _compile_sync_round(WPB, draws, blocks, offsets, 720, 800, scratch)
    want = compile_sync_round_scalar(p, SHARED, WPB, draws, blocks, offsets, 720, 800)
    assert got[0] == want[0] and got[1:] == want[1:]


# -- layers 2 and 3: full-run equality ---------------------------------------
REFEREES = {SyncModelWorkload: ScalarSyncModelWorkload, WorkQueueWorkload: ScalarWorkQueueWorkload}


def _run(workload_cls, obs=None, n_nodes=4, seed=11):
    # Message ids come from a module-level counter; reset it so the two
    # paths label messages identically and traces can be byte-diffed.
    msgmod._msg_ids = itertools.count()
    cfg = MachineConfig(n_nodes=n_nodes, seed=seed, obs=obs)
    m = Machine(cfg, protocol="wbi")
    w = workload_cls(m)
    res = w.run()
    return m, (
        res.completion_time,
        res.messages,
        res.flits,
        res.tasks_done,
        json.dumps(m.metrics().to_json(), sort_keys=True),
    )


@pytest.mark.parametrize("workload_cls", [SyncModelWorkload, WorkQueueWorkload])
def test_metrics_bit_identical(workload_cls):
    _, a = _run(workload_cls)
    _, b = _run(REFEREES[workload_cls])
    assert a == b


@pytest.mark.parametrize("workload_cls", [SyncModelWorkload, WorkQueueWorkload])
def test_trace_streams_identical(workload_cls, tmp_path):
    pa, pb = tmp_path / "vec.jsonl", tmp_path / "scalar.jsonl"
    ma, a = _run(workload_cls, obs=ObsParams(), n_nodes=2)
    ma.obs.dump_jsonl(str(pa))
    mb, b = _run(REFEREES[workload_cls], obs=ObsParams(), n_nodes=2)
    mb.obs.dump_jsonl(str(pb))
    assert a == b
    assert pa.read_bytes() == pb.read_bytes()


# -- cached kernel trace gate ------------------------------------------------
def test_set_categories_refreshes_kernel_gate():
    cfg = MachineConfig(n_nodes=2, seed=0, obs=ObsParams(categories=("net",)))
    m = Machine(cfg, protocol="wbi")
    sim = m.sim
    assert sim._trace_kernel is False
    m.obs.set_categories(("kernel", "net"))
    assert sim._trace_kernel is True
    m.obs.set_categories(None)  # None = every category
    assert sim._trace_kernel is True
    m.obs.set_categories(())
    assert sim._trace_kernel is False


def test_set_categories_gates_kernel_instants_mid_run():
    """Events processed while the kernel category is off leave no trace;
    re-enabling it mid-run resumes emission — proof the cached flag tracks
    the bus instead of being latched at run() entry."""
    cfg = MachineConfig(n_nodes=2, seed=0, obs=ObsParams(categories=()))
    m = Machine(cfg, protocol="wbi")
    sim = m.sim

    def flip(ev):
        m.obs.set_categories(("kernel",))

    first = sim.timeout(1.0)
    first.name = "quiet"
    first.callbacks.append(flip)
    second = sim.timeout(2.0)
    second.name = "loud"
    sim.run()
    names = [ev.name for ev in m.obs.events if ev.cat == "kernel"]
    assert names == ["loud"]
