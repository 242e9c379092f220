"""Tracing is an observer: a traced run of every lock scheme (and the
software barrier) completes and yields the untraced run's metrics."""

import json

import pytest

from repro import Machine, MachineConfig
from repro.obs import ObsParams
from repro.workloads import LOCK_FACTORIES, SyncModelParams, SyncModelWorkload


def _run(lock_scheme, obs):
    cfg = MachineConfig(n_nodes=4, cache_blocks=128, cache_assoc=2, seed=5, obs=obs)
    with Machine(cfg, protocol="wbi") as m:
        params = SyncModelParams(tasks_per_node=4, grain_size=10, use_barriers=True)
        wl = SyncModelWorkload(m, params, lock_scheme=lock_scheme)
        wl.run()
        # Both sync spans fire: the run takes locks and crosses barriers.
        assert wl.locks and wl.barrier is not None
        assert 0 < wl._is_barrier.sum() < params.tasks_per_node
        return json.dumps(m.metrics().to_json(), sort_keys=True)


@pytest.mark.parametrize("lock_scheme", sorted(LOCK_FACTORIES))
def test_traced_run_matches_untraced(lock_scheme):
    assert _run(lock_scheme, ObsParams()) == _run(lock_scheme, None)
