"""Demand layer: arrival processes, the logical-client multiplexer, Zipf keys."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.demand import (
    ARRIVAL_FACTORIES,
    DemandParams,
    OpenLoopDemand,
    Schedule,
    make_arrivals,
    zipf_weights,
)


def _params(**kw):
    base = dict(process="poisson", rate=0.5, horizon=2_000.0, n_clients=10_000, n_keys=64)
    base.update(kw)
    return DemandParams(**base)


# ---------------------------------------------------------------- zipf


def test_zipf_weights_normalized_and_head_heavy():
    w = zipf_weights(100, 1.1)
    assert w.shape == (100,)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(np.diff(w) < 0)  # key 0 is strictly hottest


def test_zipf_weights_rejects_empty():
    with pytest.raises(ValueError, match="n_keys"):
        zipf_weights(0, 1.1)


# ---------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(ValueError, match="unknown arrival process"):
        _params(process="lunar")
    with pytest.raises(ValueError, match="rate and horizon"):
        _params(rate=0.0)
    with pytest.raises(ValueError, match="n_clients and n_keys"):
        _params(n_keys=0)
    with pytest.raises(ValueError, match="diurnal_depth"):
        _params(diurnal_depth=1.0)
    with pytest.raises(ValueError, match="burst"):
        _params(burst_lo=0.0)


# ---------------------------------------------------------------- arrivals


@pytest.mark.parametrize("process", sorted(ARRIVAL_FACTORIES))
def test_arrivals_sorted_bounded_and_deterministic(process):
    p = _params(process=process)
    t1 = make_arrivals(np.random.default_rng(7), p)
    t2 = make_arrivals(np.random.default_rng(7), p)
    assert np.array_equal(t1, t2)  # same generator state -> same times
    assert t1.size > 0
    assert np.all(np.diff(t1) >= 0)
    assert t1[0] >= 0 and t1[-1] < p.horizon
    t3 = make_arrivals(np.random.default_rng(8), p)
    assert not np.array_equal(t1, t3)  # the seed actually matters


def test_poisson_rate_is_roughly_honored():
    p = _params(rate=2.0, horizon=10_000.0)
    t = make_arrivals(np.random.default_rng(1), p)
    # 20k expected; 4-sigma band is +/- ~566.
    assert 18_000 < t.size < 22_000


# ---------------------------------------------------------------- schedule


def test_open_loop_schedule_shape_and_attribution():
    sched = OpenLoopDemand(_params(zipf_s=1.5)).build(np.random.default_rng(3))
    n = sched.n_requests
    assert n > 0
    assert sched.client.shape == sched.key.shape == sched.issue_t.shape
    assert sched.client.min() >= 0 and sched.client.max() < sched.n_clients
    assert sched.key.min() >= 0 and sched.key.max() < sched.n_keys
    counts = sched.hot_key_counts()
    assert counts.shape == (sched.n_keys,)
    assert int(counts.sum()) == n
    assert int(counts.argmax()) == 0  # Zipf mode is key 0 by construction
    assert 0 < sched.distinct_clients() <= min(n, sched.n_clients)


def test_open_loop_build_is_a_pure_function_of_the_generator():
    dem = OpenLoopDemand(_params(process="bursty"))
    a = dem.build(np.random.default_rng(11))
    b = dem.build(np.random.default_rng(11))
    assert np.array_equal(a.issue_t, b.issue_t)
    assert np.array_equal(a.client, b.client)
    assert np.array_equal(a.key, b.key)


def test_million_client_population_costs_one_word_per_request():
    """The multiplexer scales with requests, not clients: a 5M-client
    population materializes nothing per client."""
    p = _params(rate=0.2, horizon=5_000.0, n_clients=5_000_000)
    sched = OpenLoopDemand(p).build(np.random.default_rng(2))
    assert sched.n_clients == 5_000_000
    assert sched.client.nbytes == 8 * sched.n_requests  # one int64 per row
    # With ~1k requests over 5M clients, collisions are rare: nearly every
    # request comes from a distinct logical client.
    assert sched.distinct_clients() > 0.99 * sched.n_requests


# ---------------------------------------------------------------- distinct clients


def _schedule_of(clients):
    client = np.asarray(clients, dtype=np.int64)
    n = client.size
    return Schedule(np.zeros(n), client, np.zeros(n, dtype=np.int64), n_clients=2**62)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**62 - 1) | st.integers(0, 7), max_size=300))
def test_distinct_clients_counts_what_unique_counts(clients):
    assert _schedule_of(clients).distinct_clients() == np.unique(
        np.asarray(clients, dtype=np.int64)
    ).size


@pytest.mark.parametrize(
    "clients, expected",
    [([], 0), ([5], 1), ([3] * 50, 1), ([2, 1, 2, 1], 2), (list(range(9, -1, -1)), 10)],
)
def test_distinct_clients_edge_cases(clients, expected):
    assert _schedule_of(clients).distinct_clients() == expected


def test_distinct_clients_of_a_built_schedule_matches_unique():
    sched = OpenLoopDemand(_params(rate=4.0, n_clients=5_000)).build(np.random.default_rng(11))
    assert sched.distinct_clients() == np.unique(sched.client).size
