"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RngStreams
from repro.sim.rng import block_reader


def test_same_seed_same_stream():
    a = RngStreams(42).stream("node0:refs")
    b = RngStreams(42).stream("node0:refs")
    assert np.array_equal(a.random(10), b.random(10))


def test_different_names_differ():
    s = RngStreams(42)
    a = s.stream("node0:refs").random(10)
    b = s.stream("node1:refs").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random(10)
    b = RngStreams(2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_stream_cached_not_restarted():
    s = RngStreams(7)
    first = s.stream("w").random(5)
    second = s.stream("w").random(5)
    # Same generator object continues; draws must differ from the start.
    assert not np.array_equal(first, second)


def test_derive_draws_like_a_first_stream_call_but_is_not_cached():
    s = RngStreams(7)
    assert np.array_equal(s.derive("iter3").random(5), RngStreams(7).stream("iter3").random(5))
    # Each derive restarts the stream and the factory keeps nothing.
    assert np.array_equal(s.derive("iter3").random(5), s.derive("iter3").random(5))
    assert s._cache == {}


def test_node_stream_helper():
    s = RngStreams(3)
    assert np.array_equal(
        s.node_stream(4, "tasks").random(4),
        RngStreams(3).stream("node4:tasks").random(4),
    )


def test_fork_independent_but_deterministic():
    a = RngStreams(9).fork("rep1").stream("x").random(8)
    b = RngStreams(9).fork("rep1").stream("x").random(8)
    c = RngStreams(9).fork("rep2").stream("x").random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1)


@settings(max_examples=200, deadline=None)
@given(
    takes=st.lists(st.integers(0, 600), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_reader_takes_equal_successive_random_calls(takes, seed):
    """Reads from a block reader, grouped into takes of ``k``, are the
    lists successive ``rng.random(k).tolist()`` calls return, across the
    256-double block boundaries."""
    draw = block_reader(np.random.default_rng(seed))
    ref = np.random.default_rng(seed)
    for k in takes:
        assert [draw() for _ in range(k)] == ref.random(k).tolist()


def test_block_reader_crosses_many_blocks():
    draw = block_reader(RngStreams(3).stream("x"))
    ref = RngStreams(3).stream("x")
    takes = (255, 1, 1, 300, 4, 512)
    got = [[draw() for _ in range(k)] for k in takes]
    assert got == [ref.random(k).tolist() for k in takes]
    assert all(type(v) is float for take in got for v in take)
