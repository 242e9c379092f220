"""Run-level metrics: completion time, message counts, and utilization."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["LatencyHistogram", "RunMetrics"]


def _geometric_bounds(lo: int = 1, hi: int = 10**9, num: int = 4) -> tuple:
    """Deterministic integer bucket bounds growing ~``2^(1/num)`` per step.

    Pure integer arithmetic (no floats in the growth rule), so the bucket
    edges are identical on every platform and Python build — a histogram's
    JSON form is bit-stable by construction.
    """
    bounds = [0]
    b = lo
    while b < hi:
        bounds.append(b)
        # Multiply by 2**(1/num) using the integer approximation
        # b -> b + ceil(b * (2**(1/num) - 1)); for num=4 the factor
        # 0.1892 is approximated as 3/16 + 1 (monotone, >= +1 per step).
        b = b + max(1, (b * 3) // 16)
    bounds.append(hi)
    return tuple(bounds)


#: Shared bucket upper edges (cycles).  Bucket ``i`` counts samples with
#: ``BOUNDS[i-1] < v <= BOUNDS[i]``; one overflow bucket sits past the end.
LATENCY_BOUNDS = _geometric_bounds()

#: :data:`LATENCY_BOUNDS` as floats: the read-only table both recorders
#: bisect.  Samples are floats, and float-float compares skip the int/float
#: coercion; every edge is an integer below 2**53, so the buckets match.
_EDGES = tuple(float(b) for b in LATENCY_BOUNDS)


def _pairwise_sum(xs: List[float]) -> float:
    """``float(np.add.reduce(np.asarray(xs, dtype=np.float64)))`` without
    numpy: the same additions in the same order.

    numpy reduces a contiguous float64 array by pairwise summation: below
    8 elements a plain loop from ``0.0``; up to 128, eight strided
    accumulators (:func:`_pairwise_block`); above that, two halves split
    at a multiple of 8.  Python floats are IEEE doubles, so each addition
    rounds as numpy's does and the result is bit-equal.  (The builtin
    ``sum`` is not a substitute: since Python 3.12 it compensates float
    rounding.)
    """
    if len(xs) < 8:
        res = 0.0
        for v in xs:
            res += v
        return res
    return _pairwise_block(xs, 0, len(xs))


def _pairwise_block(xs: List[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of ``xs[lo:lo + n]`` for ``n >= 8``.  Halving
    above 128 leaves at least 64 elements on each side, so the recursion
    never reaches the plain loop."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_block(xs, lo, half) + _pairwise_block(xs, lo + half, n - half)
    r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo:lo + 8]
    k, end = lo + 8, lo + n - n % 8
    while k < end:
        r0 += xs[k]
        r1 += xs[k + 1]
        r2 += xs[k + 2]
        r3 += xs[k + 3]
        r4 += xs[k + 4]
        r5 += xs[k + 5]
        r6 += xs[k + 6]
        r7 += xs[k + 7]
        k += 8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for k in range(end, lo + n):
        res += xs[k]
    return res


@dataclass(slots=True)
class LatencyHistogram:
    """Deterministic request-latency histogram plus service-health counters.

    Latencies land in fixed geometric buckets (:data:`LATENCY_BOUNDS`), so
    two runs that served the same requests produce byte-identical JSON —
    the property the traffic frontend's bit-identity gate rests on.
    Percentiles are nearest-rank over the bucket counts and therefore
    return bucket upper edges: coarse (~19% bucket width) but exactly
    reproducible, which is the point.

    ``backlog_peak`` is the largest number of issued-but-unserved requests
    any server observed when starting a batch; ``saturated`` counts service
    batches that hit the batch-size cap (the server fell behind the open-
    loop arrival process).  Both ride :meth:`to_json` with the counts.
    """

    counts: List[int] = field(default_factory=lambda: [0] * (len(LATENCY_BOUNDS) + 1))
    total: int = 0
    sum: float = 0.0
    max: float = 0.0
    backlog_peak: int = 0
    saturated: int = 0

    # -- recording ----------------------------------------------------------
    def record(self, value: float) -> None:
        """Add one latency sample (cycles)."""
        self.counts[bisect_left(_EDGES, value)] += 1
        self.total += 1
        self.sum += float(value)
        if value > self.max:
            self.max = float(value)

    def record_many(self, values) -> None:
        """:meth:`record` for a batch of samples.

        A ``list`` is taken to hold float samples already (the traffic
        server builds one per batch); anything else (a numpy array, a
        tuple) goes through numpy's float64 conversion first.  Each sample
        is bucketed by the same scalar ``bisect_left`` as :meth:`record`.
        The batch is summed by :func:`_pairwise_sum`, numpy's float64
        pairwise order, so :attr:`sum` and :attr:`mean` are bit-identical
        to histograms that summed each batch with ``arr.sum()``.
        """
        if values.__class__ is not list:
            values = np.asarray(values, dtype=np.float64).ravel().tolist()
        n = len(values)
        if not n:
            return
        counts = self.counts
        top = self.max
        if n < 8:
            # _pairwise_sum's plain loop, fused with the bucketing: most
            # traffic batches are this short.
            total = 0.0
            for v in values:
                counts[bisect_left(_EDGES, v)] += 1
                total += v
                if v > top:
                    top = v
        else:
            for v in values:
                counts[bisect_left(_EDGES, v)] += 1
                if v > top:
                    top = v
            total = _pairwise_sum(values)
        self.total += n
        self.sum += total
        if top > self.max:
            self.max = float(top)

    def note_backlog(self, backlog: int) -> None:
        """Record an observed service backlog (keeps the peak)."""
        if backlog > self.backlog_peak:
            self.backlog_peak = int(backlog)

    def note_saturated(self) -> None:
        """Record one service batch that hit the batch-size cap."""
        self.saturated += 1

    # -- summaries ----------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile: the edge of the bucket holding rank q.

        ``q`` in (0, 1].  Returns 0.0 on an empty histogram.  The answer is
        a bucket upper edge (or :attr:`max` for the overflow bucket), so it
        is deterministic across platforms.
        """
        if not 0 < q <= 1:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = min(self.total, max(1, math.ceil(self.total * q)))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(LATENCY_BOUNDS):
                    return float(LATENCY_BOUNDS[i])
                return float(self.max)
        return float(self.max)  # pragma: no cover - rank <= total always hits

    def quantiles(self) -> Dict[str, float]:
        """The report's tail summary: p50/p95/p99/p999."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }

    # -- algebra (phase deltas) --------------------------------------------
    def copy(self) -> "LatencyHistogram":
        return LatencyHistogram(
            counts=list(self.counts),
            total=self.total,
            sum=self.sum,
            max=self.max,
            backlog_peak=self.backlog_peak,
            saturated=self.saturated,
        )

    def minus(self, earlier: "LatencyHistogram") -> "LatencyHistogram":
        """Counter delta ``self - earlier`` (for phase rollups).

        ``max`` and ``backlog_peak`` are running peaks, not counters, so
        the delta carries the later snapshot's values (peak *so far* at
        phase end), documented in :class:`~repro.obs.metrics.PhaseStat`.
        """
        return LatencyHistogram(
            counts=[a - b for a, b in zip(self.counts, earlier.counts)],
            total=self.total - earlier.total,
            sum=self.sum - earlier.sum,
            max=self.max,
            backlog_peak=self.backlog_peak,
            saturated=self.saturated - earlier.saturated,
        )

    # -- JSON ---------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """Sparse JSON form: only nonzero buckets, keyed by bucket index."""
        return {
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
            "total": self.total,
            "sum": self.sum,
            "max": self.max,
            "backlog_peak": self.backlog_peak,
            "saturated": self.saturated,
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "LatencyHistogram":
        """Rebuild from :meth:`to_json`.

        Unlike :meth:`RunMetrics.from_json`, unknown keys are *tolerated*
        (ignored): histogram documents are embedded in long-lived sweep
        caches and CI artifacts, and a newer writer adding a counter must
        not make every archived document unreadable.
        """
        h = cls()
        for i, c in dict(d.get("buckets", {})).items():
            h.counts[int(i)] = int(c)
        h.total = int(d.get("total", 0))
        h.sum = float(d.get("sum", 0.0))
        h.max = float(d.get("max", 0.0))
        h.backlog_peak = int(d.get("backlog_peak", 0))
        h.saturated = int(d.get("saturated", 0))
        return h


@dataclass(slots=True)
class RunMetrics:
    """Summary of one simulated run.

    The paper's headline metric is *completion time measured in machine
    cycles* (not processor utilization, because "synchronization activities
    may keep the processor busy without performing any useful computation").

    Since the observability refactor this object is a *view*: the machine
    derives it from :class:`~repro.obs.metrics.PhaseMetrics` totals
    (``Machine.metrics()`` is ``Machine.phase_metrics().totals``), keeping
    these public fields stable for existing analysis code.
    """

    completion_time: float = 0.0
    messages: int = 0
    flits: int = 0
    mean_net_latency: float = 0.0
    msg_by_type: Dict[str, int] = field(default_factory=dict)
    node_counters: Dict[str, int] = field(default_factory=dict)
    #: Resilience bookkeeping (all zero on a reliable run): requests
    #: reissued after a timeout, timeouts that fired, and the cycles spent
    #: inside expired timeout windows.
    retries: int = 0
    timeouts: int = 0
    timeout_cycles: int = 0
    #: Fault-injection tally from the installed :class:`FaultPlan`
    #: (empty dict when no plan is installed).
    faults: Dict[str, int] = field(default_factory=dict)
    #: Tail of the fault plan's drop log (human-readable lines naming the
    #: lost messages; empty without a plan).  Surfaced here so scenario
    #: verdicts and CI artifacts carry the fault accounting without
    #: reaching into the live plan object.
    drop_log_tail: List[str] = field(default_factory=list)
    #: Request-latency histogram recorded through
    #: :meth:`Machine.record_latencies` (the traffic frontend's tail-latency
    #: source).  ``None`` on runs that never recorded a latency, so the
    #: JSON form of every pre-existing workload is unchanged.
    latency: Optional[LatencyHistogram] = None

    def messages_of(self, prefix: str) -> int:
        """Total messages whose type name starts with ``prefix``."""
        return sum(v for k, v in self.msg_by_type.items() if k.startswith(prefix))

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON dict of every field (round-trips via from_json)."""
        return {
            "completion_time": self.completion_time,
            "messages": self.messages,
            "flits": self.flits,
            "mean_net_latency": self.mean_net_latency,
            "msg_by_type": dict(self.msg_by_type),
            "node_counters": dict(self.node_counters),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "timeout_cycles": self.timeout_cycles,
            "faults": dict(self.faults),
            "drop_log_tail": list(self.drop_log_tail),
            "latency": self.latency.to_json() if self.latency is not None else None,
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "RunMetrics":
        """Rebuild a RunMetrics from a :meth:`to_json` dict.

        Tolerates missing keys (older documents) by falling back to the
        field defaults, but rejects unknown keys so schema drift is loud.
        """
        known = {
            "completion_time",
            "messages",
            "flits",
            "mean_net_latency",
            "msg_by_type",
            "node_counters",
            "retries",
            "timeouts",
            "timeout_cycles",
            "faults",
            "drop_log_tail",
            "latency",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown RunMetrics fields: {sorted(unknown)}")
        m = cls()
        for key in sorted(known):
            if key in d:
                value = d[key]
                if key in ("msg_by_type", "node_counters", "faults"):
                    value = dict(value)
                elif key == "drop_log_tail":
                    value = list(value)
                elif key == "latency":
                    value = LatencyHistogram.from_json(value) if value is not None else None
                setattr(m, key, value)
        return m
