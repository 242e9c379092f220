"""Deterministic random-number streams for simulation components.

Every stochastic element (each processor's reference stream, each workload's
task-size draws, ...) draws from its own named stream derived from a single
master seed, so runs are exactly reproducible and adding a new consumer does
not perturb existing streams.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from typing import Callable, Dict

import numpy as np

__all__ = ["RngStreams", "ScalarReader", "block_reader", "py_random"]


def py_random(seed: int) -> random.Random:
    """A per-object seeded stdlib ``random.Random``.

    The sanctioned constructor for stdlib randomness in sim code: every
    consumer owns its instance and its seed, so nothing ever draws from
    the interpreter-global stream (the determinism linter's
    ``unseeded-random`` rule enforces this).
    """
    return random.Random(seed)


#: Doubles a :func:`block_reader` draws from its generator per refill.
READ_BLOCK = 256


def block_reader(rng: np.random.Generator) -> Callable[[], float]:
    """``rng.random()``'s doubles as Python floats, one per call.

    The doubles are drawn :data:`READ_BLOCK` at a time with
    ``rng.random(READ_BLOCK)`` and handed out in stream order.
    ``random(k)`` consumes one 64-bit word per double, so successive reads
    equal successive ``rng.random(k).tolist()`` calls whatever the ``k``,
    across block boundaries too, at a fraction of a numpy call per double.
    The reader draws ahead: nothing else may draw from ``rng`` once it is
    made.
    """
    return itertools.chain.from_iterable(
        rng.random(READ_BLOCK).tolist() for _ in itertools.repeat(None)
    ).__next__


#: 64-bit words a :class:`ScalarReader` draws from its bit generator per
#: refill (a fuzz iteration uses about twenty).
RAW_BLOCK = 32

_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_U32 = 0xFFFFFFFF


class ScalarReader:
    """``Generator.random()``, ``integers(low, high)`` and
    ``uniform(low, high)`` scalar draws as Python numbers, bit-equal to
    the wrapped PCG64 ``Generator``'s own, without a numpy call per draw.

    The reader takes the generator's 64-bit words :data:`RAW_BLOCK` at a
    time with ``bit_generator.random_raw`` and does numpy's arithmetic on
    them: a double is ``(w >> 11) * 2**-53``; a 32-bit draw is the low
    half of a fresh word, the high half kept for the next 32-bit draw
    (PCG64's buffered halves, which doubles do not touch); a bounded
    integer is Lemire's multiply-shift over 32-bit draws with rejection.
    ``integers`` serves ranges of up to ``2**32`` values, numpy's 32-bit
    path, and refuses wider ones.

    The reader draws ahead: nothing else may draw from the generator once
    it is wrapped.
    """

    __slots__ = ("_next", "_half")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(f"ScalarReader needs PCG64, got {state['bit_generator']}")
        raw = bitgen.random_raw
        self._next = itertools.chain.from_iterable(
            raw(RAW_BLOCK).tolist() for _ in itertools.repeat(None)
        ).__next__
        #: The buffered high half of the last 32-bit draw's word, or -1.
        self._half = state["uinteger"] if state["has_uint32"] else -1

    def random(self) -> float:
        """``Generator.random()``: a double in ``[0, 1)``."""
        return (self._next() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """``Generator.uniform(low, high)``: ``low + (high - low) * random()``."""
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("Range exceeds valid bounds")
        return low + span * self.random()

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._next()
        self._half = word >> 32
        return word & _U32

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: an int in ``[low, high)``."""
        low = int(low)  # numpy integer bounds would wrap in the products below
        span = int(high) - low
        if span <= 0:
            raise ValueError("low >= high")
        if span == 1:
            return low
        if span > 1 << 32:
            raise ValueError(f"range of {span} values is wider than 2**32")
        if span == 1 << 32:
            return low + self._next32()
        m = self._next32() * span
        leftover = m & _U32
        if leftover < span:
            threshold = ((1 << 32) - span) % span
            while leftover < threshold:
                m = self._next32() * span
                leftover = m & _U32
        return low + (m >> 32)


class RngStreams:
    """A factory of independent, named ``numpy.random.Generator`` streams."""

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self.master_seed = int(master_seed)
        self._cache: Dict[str, np.random.Generator] = {}
        self._py_cache: Dict[str, random.Random] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the stream for ``name`` (created and cached on first use).

        The stream seed mixes the master seed with a CRC of the name, so the
        same (master_seed, name) pair always yields the same sequence.
        """
        gen = self._cache.get(name)
        if gen is None:
            gen = self._cache[name] = self.derive(name)
        return gen

    def derive(self, name: str) -> np.random.Generator:
        """A fresh, *uncached* generator for ``name``.

        Draws exactly what a first :meth:`stream` call for ``name`` would,
        but the factory keeps no reference: a caller that derives one
        short-lived generator per name (one per fuzz iteration, say)
        holds memory for the live ones only.
        """
        label = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(label,))
        return np.random.default_rng(seq)

    def node_stream(self, node_id: int, purpose: str = "refs") -> np.random.Generator:
        """Convenience: the stream for one node's ``purpose``."""
        return self.stream(f"node{node_id}:{purpose}")

    def py_stream(self, name: str) -> random.Random:
        """The named stdlib :class:`random.Random` stream (cached).

        Mirrors :meth:`stream` for consumers that want the stdlib API:
        the seed mixes the master seed with a CRC of the name, so the
        same (master_seed, name) pair always yields the same sequence.
        """
        gen = self._py_cache.get(name)
        if gen is None:
            label = zlib.crc32(name.encode("utf-8"))
            gen = self._py_cache[name] = py_random(
                (self.master_seed * 1000003 + label) % (2**63)
            )
        return gen

    def fork(self, salt: str) -> "RngStreams":
        """A derived stream family (e.g. per-repetition)."""
        label = zlib.crc32(salt.encode("utf-8"))
        return RngStreams((self.master_seed * 1000003 + label) % (2**63))
