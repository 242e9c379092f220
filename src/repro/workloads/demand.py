"""Demand layer: who asks for work, and when.

The paper's workload models are *closed loops* — "client count" is welded
to "processor count" because each processor issues its next reference only
after the previous one completes.  A storage service sees the opposite
regime: an **open loop** where millions of logical clients issue requests
on their own clocks, and the machine either keeps up or builds a backlog.

This module generates that demand as data, not processes.  An
:class:`OpenLoopDemand` draws one aggregate arrival process (Poisson,
bursty MMPP-2, or diurnal ramp) and stamps every arrival with a client id
and a key drawn from a Zipfian popularity law.  The superposition theorem
makes this exact for Poisson demand: the merge of a million independent
thin Poisson clients *is* a Poisson process at the aggregate rate with
uniform client identity per arrival — so one numpy array multiplexes a
million logical clients with zero per-client state.  That is the
determinism contract: a :class:`Schedule` is a pure function of
``(DemandParams, seeded Generator)``, byte-identical across repeats,
platforms, and simulator kernels, because nothing downstream mutates it.

Layering: demand (this module) decides *when/who/which key*; the policy
layer (:mod:`repro.workloads.policy`) decides *where* each request runs;
the service layer (:mod:`repro.workloads.service`) decides *what* the
machine does for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

__all__ = [
    "ARRIVAL_FACTORIES",
    "DemandParams",
    "Schedule",
    "OpenLoopDemand",
    "zipf_weights",
    "make_arrivals",
]


def zipf_weights(n_keys: int, s: float) -> np.ndarray:
    """Normalized Zipf(s) popularity over ``n_keys`` keys (key 0 hottest)."""
    if n_keys <= 0:
        raise ValueError("n_keys must be positive")
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    w = ranks ** (-float(s))
    return w / w.sum()


@dataclass(slots=True)
class DemandParams:
    """Open-loop demand description.

    ``rate`` is the *aggregate* arrival rate in requests per cycle — the
    sum over all logical clients, which is the only rate that matters to
    the machine.  ``n_clients`` sizes the logical-client population the
    arrivals are attributed to.
    """

    process: str = "poisson"
    rate: float = 0.05  # aggregate requests per cycle
    horizon: float = 50_000.0  # cycles of arrivals
    n_clients: int = 100_000
    n_keys: int = 256
    zipf_s: float = 1.1
    # MMPP-2 ("bursty"): alternate high/low phases with exponential lengths.
    burst_hi: float = 4.0  # rate multiplier in the high phase
    burst_lo: float = 0.25  # rate multiplier in the low phase
    burst_mean_len: float = 2_000.0  # mean phase length, cycles
    # "diurnal": one sinusoidal ramp over the horizon, depth in [0, 1).
    diurnal_depth: float = 0.8

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_FACTORIES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"choose from {sorted(ARRIVAL_FACTORIES)}"
            )
        if self.rate <= 0 or self.horizon <= 0:
            raise ValueError("rate and horizon must be positive")
        if self.n_clients <= 0 or self.n_keys <= 0:
            raise ValueError("n_clients and n_keys must be positive")
        if not 0 <= self.diurnal_depth < 1:
            raise ValueError("diurnal_depth must be in [0, 1)")
        if self.burst_hi <= 0 or self.burst_lo <= 0 or self.burst_mean_len <= 0:
            raise ValueError("burst parameters must be positive")


# -- arrival processes -------------------------------------------------------


def _poisson_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Homogeneous Poisson arrival times on [0, horizon).

    The result is usually a prefix view of the one chunk of gaps drawn:
    each chunk is turned into times in place (a running sum, then the
    chunk's start added), and the times are cut at the horizon by a
    binary search, which is exact because they are nondecreasing.  So the
    draw holds no array beside its chunks.
    """
    times = []
    t = 0.0
    # Draw gaps in chunks sized so one chunk almost always covers the
    # horizon; the loop keeps it exact (and still deterministic — the
    # draw sequence depends only on the generator state) in the tail case.
    chunk = max(16, int(rate * horizon * 1.25) + 16)
    while t < horizon:
        ts = rng.exponential(1.0 / rate, size=chunk)
        np.cumsum(ts, out=ts)
        ts += t
        times.append(ts)
        t = float(ts[-1])
    all_t = times[0] if len(times) == 1 else np.concatenate(times)
    return all_t[: np.searchsorted(all_t, horizon)]


def _arrivals_poisson(rng: np.random.Generator, p: DemandParams) -> np.ndarray:
    return _poisson_times(rng, p.rate, p.horizon)


def _arrivals_bursty(rng: np.random.Generator, p: DemandParams) -> np.ndarray:
    """MMPP-2: exponential-length phases alternating burst_hi/burst_lo rates.

    Starts in the high phase, so short horizons still see a burst.  The
    long-run mean rate is ``rate * (burst_hi + burst_lo) / 2`` when phase
    lengths share a mean; we keep the multipliers explicit rather than
    renormalizing, so "bursty at rate r" stresses the service harder than
    "poisson at rate r" by construction.
    """
    pieces = []
    t = 0.0
    hi = True
    while t < p.horizon:
        length = float(rng.exponential(p.burst_mean_len))
        end = min(t + length, p.horizon)
        phase_rate = p.rate * (p.burst_hi if hi else p.burst_lo)
        span = end - t
        if span > 0:
            ts = _poisson_times(rng, phase_rate, span)
            pieces.append(t + ts)
        t = end
        hi = not hi
    if not pieces:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(pieces)


def _arrivals_diurnal(rng: np.random.Generator, p: DemandParams) -> np.ndarray:
    """Inhomogeneous Poisson via thinning: one sinusoidal ramp per horizon.

    Instantaneous rate ``rate * (1 + depth * sin(2*pi*t/horizon - pi/2))``
    starts at the trough, peaks at mid-horizon, and returns — the classic
    diurnal shape compressed into one run.
    """
    peak = p.rate * (1.0 + p.diurnal_depth)
    cand = _poisson_times(rng, peak, p.horizon)
    if cand.size == 0:
        return cand
    lam = p.rate * (
        1.0 + p.diurnal_depth * np.sin(2.0 * np.pi * cand / p.horizon - np.pi / 2.0)
    )
    keep = rng.random(cand.size) < (lam / peak)
    return cand[keep]


#: Arrival-process registry (mirrors ``LOCK_FACTORIES``): name -> factory
#: taking ``(rng, DemandParams)`` and returning sorted issue times.
ARRIVAL_FACTORIES: Dict[str, Callable[[np.random.Generator, DemandParams], np.ndarray]] = {
    "poisson": _arrivals_poisson,
    "bursty": _arrivals_bursty,
    "diurnal": _arrivals_diurnal,
}


def make_arrivals(rng: np.random.Generator, params: DemandParams) -> np.ndarray:
    """Issue times for ``params`` drawn from its named arrival process."""
    return ARRIVAL_FACTORIES[params.process](rng, params)


# -- the multiplexed schedule ------------------------------------------------


@dataclass(slots=True)
class Schedule:
    """The materialized demand: one row per request, sorted by issue time.

    This is the logical-client multiplexer.  ``client[i]`` attributes
    request ``i`` to one of ``n_clients`` logical clients; no per-client
    process or state exists anywhere, so the client population can be
    millions wide at the cost of one int64 per request.

    A Poisson ``issue_t`` is usually a prefix view of the chunk its gaps
    were drawn into (``1.25 * rate * horizon + 16`` doubles), so its base
    holds about a quarter more than ``issue_t.nbytes``.  Bursty and
    diurnal ``issue_t`` are fresh arrays.
    """

    issue_t: np.ndarray  # float64, nondecreasing
    client: np.ndarray  # int64 in [0, n_clients)
    key: np.ndarray  # int64 in [0, n_keys)
    n_clients: int = 0
    n_keys: int = 0

    @property
    def n_requests(self) -> int:
        return int(self.issue_t.size)

    def distinct_clients(self) -> int:
        """How many distinct logical clients actually issued a request.

        Counted as the changes between neighbours of the sorted ids, plus
        one: the same integer as ``np.unique(client).size``, which on
        recent numpy takes a hash path roughly 60 times slower.
        """
        if self.client.size == 0:
            return 0
        ids = np.sort(self.client)
        return int(np.count_nonzero(ids[1:] != ids[:-1])) + 1

    def hot_key_counts(self) -> np.ndarray:
        """Request count per key (length ``n_keys``)."""
        return np.bincount(self.key, minlength=self.n_keys)


class OpenLoopDemand:
    """Builds a :class:`Schedule` from :class:`DemandParams` and one RNG.

    Determinism contract: ``build`` consumes the generator in a fixed
    order (arrivals, then clients, then keys), uses only vectorized draws,
    and sorts nothing that is not already sorted — the output is a pure
    function of the generator state.
    """

    def __init__(self, params: Optional[DemandParams] = None):
        self.params = params or DemandParams()

    def build(self, rng: np.random.Generator) -> Schedule:
        p = self.params
        issue_t = make_arrivals(rng, p)
        n = int(issue_t.size)
        client = rng.integers(0, p.n_clients, size=n, dtype=np.int64)
        cum = np.cumsum(zipf_weights(p.n_keys, p.zipf_s))
        key = np.searchsorted(cum, rng.random(n), side="right").astype(np.int64, copy=False)
        # Guard the top edge: cum[-1] may round to slightly below 1.0.
        np.clip(key, 0, p.n_keys - 1, out=key)
        return Schedule(
            issue_t=issue_t, client=client, key=key, n_clients=p.n_clients, n_keys=p.n_keys
        )
