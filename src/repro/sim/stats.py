"""Lightweight statistics collectors for simulation runs.

Counters, tallies, time-weighted averages, and histograms.  These are the
building blocks behind :class:`repro.system.metrics.Metrics`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["Counter", "Tally", "TimeWeighted", "Histogram", "StatSet"]


class Counter:
    """A named bag of monotonically increasing integer counters.

    ``counts`` is the underlying ``key -> count`` dict.  Hot paths bump it
    directly (``counts[k] = counts.get(k, 0) + n``), which is exactly what
    :meth:`add` writes, in the same key insertion order.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def get(self, key: str) -> int:
        return self.counts.get(key, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def merge(self, other: "Counter") -> None:
        # Snapshot so merging a counter into itself doubles every key
        # instead of mutating the dict mid-iteration.
        for k, v in list(other.counts.items()):
            self.add(k, v)

    def __getitem__(self, key: str) -> int:
        return self.get(key)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.counts!r})"


class Tally:
    """Streaming mean/variance/min/max of observed samples (Welford)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "Tally") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self._mean, self._m2 = other.n, other._mean, other._m2
            self.min, self.max = other.min, other.max
            return
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


class TimeWeighted:
    """Time-weighted average of a piecewise-constant level (e.g. queue length)."""

    __slots__ = ("_level", "_last_t", "_area", "_start", "max")

    def __init__(self, start_time: float = 0.0, level: float = 0.0):
        self._level = level
        self._last_t = start_time
        self._start = start_time
        self._area = 0.0
        self.max = level

    def set(self, t: float, level: float) -> None:
        if t < self._last_t:
            raise ValueError("time must be non-decreasing")
        self._area += self._level * (t - self._last_t)
        self._last_t = t
        self._level = level
        if level > self.max:
            self.max = level

    def adjust(self, t: float, delta: float) -> None:
        self.set(t, self._level + delta)

    @property
    def level(self) -> float:
        return self._level

    def average(self, t: Optional[float] = None) -> float:
        end = self._last_t if t is None else t
        span = end - self._start
        if span <= 0:
            return self._level
        area = self._area + self._level * (end - self._last_t)
        return area / span


class Histogram:
    """Fixed-width bin histogram with overflow bin."""

    __slots__ = ("lo", "width", "bins", "overflow", "underflow", "n")

    def __init__(self, lo: float, hi: float, nbins: int):
        if nbins <= 0 or hi <= lo:
            raise ValueError("bad histogram bounds")
        self.lo = lo
        self.width = (hi - lo) / nbins
        self.bins: List[int] = [0] * nbins
        self.overflow = 0
        self.underflow = 0
        self.n = 0

    def observe(self, x: float) -> None:
        self.n += 1
        if x < self.lo:
            self.underflow += 1
            return
        i = int((x - self.lo) / self.width)
        if i >= len(self.bins):
            self.overflow += 1
        else:
            self.bins[i] += 1

    def fraction_at_or_below(self, x: float) -> float:
        """Fraction of samples <= x (bin-resolution approximation)."""
        if self.n == 0:
            return 0.0
        if x < self.lo:
            return 0.0
        i = int((x - self.lo) / self.width)
        inside = sum(self.bins[: min(i + 1, len(self.bins))])
        return (self.underflow + inside) / self.n


class StatSet:
    """A bundle of named statistics shared by a component."""

    __slots__ = ("counters", "tallies")

    def __init__(self) -> None:
        self.counters = Counter()
        self.tallies: Dict[str, Tally] = {}

    def tally(self, name: str) -> Tally:
        t = self.tallies.get(name)
        if t is None:
            t = self.tallies[name] = Tally()
        return t

    def observe(self, name: str, x: float) -> None:
        self.tally(name).observe(x)
