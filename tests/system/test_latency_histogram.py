"""``LatencyHistogram.record_many`` is exactly a loop of ``record``.

The batch recorder buckets with the same scalar rule as ``record`` and
keeps numpy's sum, so ``counts``/``total``/``max`` equal the per-sample
loop and ``sum`` is bit-equal to ``float(np.asarray(arr).sum())``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.system.metrics import LATENCY_BOUNDS, LatencyHistogram

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
