"""Discrete-event simulation kernel (events, processes, queues, stats, RNG)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Store
from .rng import RngStreams
from .stats import Counter, Histogram, StatSet, Tally, TimeWeighted

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Store",
    "RngStreams",
    "Counter",
    "Tally",
    "TimeWeighted",
    "Histogram",
    "StatSet",
]
