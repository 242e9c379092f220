"""``LatencyHistogram.record_many`` is exactly a loop of ``record``.

The batch recorder buckets with the same scalar rule as ``record`` and
sums each batch with ``_pairwise_sum``, a pure-Python copy of numpy's
float64 pairwise summation, so ``counts``/``total``/``max`` equal the
per-sample loop and ``sum`` is bit-equal to ``float(np.asarray(arr).sum())``.
It takes a list of floats (the traffic server's form) or a numpy array.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.system.metrics import LATENCY_BOUNDS, LatencyHistogram, _pairwise_sum
from .latency_referee import record_many_numpy

#: Every bucket edge and the next float above it, plus the overflow range.
EDGES = sorted(
    {float(b) for b in LATENCY_BOUNDS}
    | {float(np.nextafter(float(b), np.inf)) for b in LATENCY_BOUNDS}
)
SAMPLES = st.one_of(
    st.sampled_from(EDGES + [0.0]),
    st.floats(0.0, 2e3, allow_nan=False),
    st.floats(1e9, 1e12, allow_nan=False, exclude_min=True),
)


def _looped(values):
    h = LatencyHistogram()
    for v in values:
        h.record(v)
    return h


def _assert_matches_loop(values):
    arr = np.asarray(values, dtype=np.float64)
    batch = LatencyHistogram()
    batch.record_many(arr)
    loop = _looped(values)
    assert batch.counts == loop.counts
    assert batch.total == loop.total == len(values)
    assert batch.max == loop.max
    assert batch.sum == float(arr.sum())


@settings(max_examples=300, deadline=None)
@given(st.lists(SAMPLES, max_size=64))
def test_record_many_equals_looped_record(values):
    _assert_matches_loop(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(SAMPLES, max_size=64), max_size=6))
def test_batches_accumulate_like_the_loop(batches):
    """Successive batches land in one histogram as one long loop would,
    with ``sum`` the running total of the per-batch numpy sums."""
    h = LatencyHistogram()
    expected_sum = 0.0
    for batch in batches:
        h.record_many(np.asarray(batch, dtype=np.float64))
        expected_sum += float(np.asarray(batch, dtype=np.float64).sum())
    loop = _looped([v for batch in batches for v in batch])
    assert (h.counts, h.total, h.max) == (loop.counts, loop.total, loop.max)
    assert h.sum == expected_sum


def test_edge_cases():
    _assert_matches_loop([])
    _assert_matches_loop([0.0])
    _assert_matches_loop(EDGES)  # every edge and the float above it
    _assert_matches_loop([1e9, 1e9 + 1, 5e11])  # the overflow bucket
    _assert_matches_loop([float(v) for v in range(64)])  # a full 64-sample batch
    h = LatencyHistogram()
    h.record_many(np.array([], dtype=np.float64))
    assert h == LatencyHistogram()


def test_overflow_bucket_and_edges_land_where_record_puts_them():
    h = LatencyHistogram()
    h.record_many([2e9, float(LATENCY_BOUNDS[-1])])
    assert h.counts[-1] == 1  # above the last edge: overflow
    assert h.counts[len(LATENCY_BOUNDS) - 1] == 1  # exactly the last edge
    h.record_many([float(LATENCY_BOUNDS[5]), float(np.nextafter(LATENCY_BOUNDS[5], np.inf))])
    assert h.counts[5] == 1 and h.counts[6] == 1


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(SAMPLES, min_size=1, max_size=64),
    n=st.integers(0, 1100),
    pick=st.randoms(use_true_random=False),
)
def test_pairwise_sum_is_numpys_float64_sum(pool, n, pick):
    """Every length from the plain loop (< 8) through the eight
    accumulators (<= 128) to several levels of halving; the samples are
    drawn from a pool because hypothesis cannot draw 1100 floats apiece."""
    xs = [pick.choice(pool) for _ in range(n)]
    assert _pairwise_sum(xs) == float(np.add.reduce(np.asarray(xs, dtype=np.float64)))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 255, 256, 257, 1100])
def test_pairwise_sum_at_the_branch_edges(n):
    rng = np.random.default_rng(n)
    xs = (rng.random(n) * 10.0 ** rng.integers(-3, 12, n)).tolist()
    assert _pairwise_sum(xs) == float(np.add.reduce(np.asarray(xs)))


@settings(max_examples=200, deadline=None)
@given(st.lists(SAMPLES, max_size=64))
def test_a_list_records_what_its_array_records(values):
    listed, arrayed = LatencyHistogram(), LatencyHistogram()
    listed.record_many(list(values))
    arrayed.record_many(np.asarray(values, dtype=np.float64))
    assert listed == arrayed
    assert type(listed.max) is float and type(listed.sum) is float


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(SAMPLES, max_size=70), max_size=6))
def test_list_batches_equal_the_numpy_referee(batches):
    """The traffic server's list batches give the histogram the old numpy
    recorder built from the same batches as arrays."""
    listed, referee = LatencyHistogram(), LatencyHistogram()
    for batch in batches:
        listed.record_many(list(batch))
        record_many_numpy(referee, np.asarray(batch, dtype=np.float64))
    assert listed == referee
