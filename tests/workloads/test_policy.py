"""Policy layer: placement decisions over a demand schedule."""

import numpy as np
import pytest

from repro.workloads.demand import DemandParams, OpenLoopDemand
from repro.workloads.policy import POLICY_FACTORIES, make_policy


def _schedule(zipf_s=1.5, seed=5):
    p = DemandParams(process="poisson", rate=0.5, horizon=2_000.0, n_clients=1_000, n_keys=32, zipf_s=zipf_s)
    return OpenLoopDemand(p).build(np.random.default_rng(seed))


def _node_per_row(pl, n_requests, n_nodes):
    """The serving node of each row, spelled out from the row selectors.

    Asserts on the way that the selectors partition the rows: every row is
    claimed by exactly one node.
    """
    node = np.full(n_requests, -1, dtype=np.int64)
    for i in range(n_nodes):
        rows = np.arange(n_requests)[pl.requests_of(i)]
        assert np.all(node[rows] == -1), f"node {i} claims a row twice or another node's"
        node[rows] = i
    assert np.all(node >= 0), "a row is served by no node"
    return node


def test_registry_names():
    assert sorted(POLICY_FACTORIES) == ["hot-key", "round-robin", "static-shard"]
    with pytest.raises(ValueError, match="unknown placement policy"):
        make_policy("teleport")


def test_static_shard_is_key_affine():
    sched = _schedule()
    pl = make_policy("static-shard").place(sched, 4)
    assert np.array_equal(_node_per_row(pl, sched.n_requests, 4), sched.key % 4)
    assert np.array_equal(pl.shard_of_key, np.arange(sched.n_keys) % 4)


def test_round_robin_is_arrival_balanced():
    sched = _schedule()
    pl = make_policy("round-robin").place(sched, 4)
    node = _node_per_row(pl, sched.n_requests, 4)
    assert np.array_equal(node, np.arange(sched.n_requests) % 4)
    sizes = [sched.issue_t[pl.requests_of(i)].size for i in range(4)]
    assert max(sizes) - min(sizes) <= 1
    # Each node's selector is a stride, so its columns are views of the
    # schedule's, in issue order.
    for i in range(4):
        sel = pl.requests_of(i)
        assert isinstance(sel, slice)
        assert np.shares_memory(sched.issue_t[sel], sched.issue_t)
        assert np.array_equal(sched.issue_t[sel], sched.issue_t[node == i])


def test_requests_of_partitions_the_schedule():
    sched = _schedule()
    for name in POLICY_FACTORIES:
        pl = make_policy(name).place(sched, 4)
        all_rows = np.arange(sched.n_requests)
        rows = np.concatenate([all_rows[pl.requests_of(i)] for i in range(4)])
        assert rows.size == sched.n_requests
        assert np.array_equal(np.sort(rows), all_rows)
        for i in range(4):
            # A node serves its requests in issue order.
            assert np.all(np.diff(all_rows[pl.requests_of(i)]) > 0)


def test_hot_key_policy_spreads_the_hot_head():
    sched = _schedule(zipf_s=1.5)
    n_nodes = 4
    pl = make_policy("hot-key", hot_k=1).place(sched, n_nodes)
    node = _node_per_row(pl, sched.n_requests, n_nodes)
    hot = int(sched.hot_key_counts().argmax())
    hot_rows = np.flatnonzero(sched.key == hot)
    # The molten key is served by every node, rotating by arrival order...
    assert np.array_equal(node[hot_rows], np.arange(hot_rows.size) % n_nodes)
    # ...while cold keys keep static-shard affinity.
    cold = np.flatnonzero(sched.key != hot)
    assert np.array_equal(node[cold], sched.key[cold] % n_nodes)


def test_hot_key_zero_is_static_shard():
    sched = _schedule()
    a = make_policy("hot-key", hot_k=0).place(sched, 4)
    b = make_policy("static-shard").place(sched, 4)
    for i in range(4):
        assert np.array_equal(a.requests_of(i), b.requests_of(i))


def test_placement_is_deterministic():
    for name in POLICY_FACTORIES:
        sched = _schedule(seed=9)
        a = make_policy(name).place(sched, 8)
        b = make_policy(name).place(_schedule(seed=9), 8)
        assert np.array_equal(
            _node_per_row(a, sched.n_requests, 8), _node_per_row(b, sched.n_requests, 8)
        )
        assert np.array_equal(a.shard_of_key, b.shard_of_key)
