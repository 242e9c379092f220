"""The numpy batch latency recorder, kept as a referee.

Until the traffic server went numpy-free, ``LatencyHistogram.record_many``
converted each batch to a float64 array and summed it with ``arr.sum()``.
This is that recorder, unchanged.  ``test_latency_histogram.py`` pins the
list path to it, and the ``latency record`` row of
``benchmarks/perf_smoke.py`` times the list path against it.
"""

from bisect import bisect_left

import numpy as np

from repro.system.metrics import _EDGES, LatencyHistogram


def record_many_numpy(hist: LatencyHistogram, values) -> None:
    """Add ``values`` to ``hist`` through numpy, as the recorder once did."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    samples = arr.tolist()
    if not samples:
        return
    counts = hist.counts
    for v in samples:
        counts[bisect_left(_EDGES, v)] += 1
    hist.total += len(samples)
    hist.sum += float(arr.sum())
    m = max(samples)
    if m > hist.max:
        hist.max = m
