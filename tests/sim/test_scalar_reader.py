"""``ScalarReader`` draws exactly what its numpy ``Generator`` would.

The reader serves ``random()``, ``integers(low, high)`` and
``uniform(low, high)`` from the generator's raw 64-bit words with numpy's
own arithmetic.  The referee is a twin ``Generator`` on the same seed
making the same calls one at a time: every value must be equal, type
aside (the reader hands out Python numbers).  Hypothesis drives random
interleavings of the three calls, with ranges up to ``2**32`` values,
ranges where Lemire's method rejects often, and odd numbers of 32-bit
draws between doubles (PCG64 keeps the spare half of a word across them).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RAW_BLOCK, ScalarReader

#: Ranges with a high Lemire rejection rate: 2**32 mod span is large.
REJECTING = (2**31 + 1, 3 * 2**30, 2**32 - 1)

spans = st.one_of(
    st.integers(1, 8),
    st.sampled_from((2**31 - 1, 2**32) + REJECTING),
    st.integers(1, 2**32),
)
calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), spans),
    st.tuples(
        st.just("uniform"),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0, 1e6, allow_nan=False),
    ),
)


def _draw(rng, call):
    kind = call[0]
    if kind == "random":
        return rng.random()
    if kind == "integers":
        low, span = call[1], call[2]
        return rng.integers(low, low + span)
    low, width = call[1], call[2]
    return rng.uniform(low, low + width)


class CountingReader(ScalarReader):
    """Counts the 32-bit draws its ``integers`` calls make."""

    __slots__ = ("n32",)

    def __init__(self, rng):
        super().__init__(rng)
        self.n32 = 0

    def _next32(self):
        self.n32 += 1
        return super()._next32()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), program=st.lists(calls, min_size=1, max_size=3 * RAW_BLOCK))
def test_reader_equals_generator(seed, program):
    ref = np.random.default_rng(seed)
    reader = ScalarReader(np.random.default_rng(seed))
    for call in program:
        want, got = _draw(ref, call), _draw(reader, call)
        assert got == want, call
        assert type(got) is (int if call[0] == "integers" else float)


@pytest.mark.parametrize("span", REJECTING)
def test_lemire_rejections_match(span):
    ref = np.random.default_rng(17)
    reader = CountingReader(np.random.default_rng(17))
    n = 4 * RAW_BLOCK
    assert [reader.integers(0, span) for _ in range(n)] == [
        int(ref.integers(0, span)) for _ in range(n)
    ]
    if span != 2**32 - 1:  # rejection needs 2**32 mod span > 0
        assert reader.n32 > n, "no draw was rejected: the test lost its subject"


def test_odd_32_bit_draws_keep_the_spare_half_across_doubles():
    ref = np.random.default_rng(5)
    reader = ScalarReader(np.random.default_rng(5))
    for k in range(3 * RAW_BLOCK):
        assert reader.integers(0, 10) == ref.integers(0, 10)
        if k % 2 == 0:
            # k + 1 draws of 32 bits so far, an odd count: a spare high
            # half is waiting, and the double must not consume it.
            assert reader.random() == ref.random()


def test_a_generator_with_a_spare_half_is_read_from_there():
    ref, wrapped = np.random.default_rng(9), np.random.default_rng(9)
    assert ref.integers(0, 1000) == wrapped.integers(0, 1000)  # leaves a spare half
    reader = ScalarReader(wrapped)
    for _ in range(8):
        assert reader.integers(0, 1000) == ref.integers(0, 1000)
        assert reader.random() == ref.random()


def test_bounds_are_checked_like_numpy():
    reader = ScalarReader(np.random.default_rng(0))
    ref = np.random.default_rng(0)
    for low, high in ((5, 5), (5, 4)):
        with pytest.raises(ValueError):
            ref.integers(low, high)
        with pytest.raises(ValueError):
            reader.integers(low, high)
    assert reader.integers(7, 8) == ref.integers(7, 8) == 7  # one value: no draw
    # numpy integer bounds: the products must not wrap at 64 bits
    lo, hi = np.int64(-3), np.int64(2**32 - 4)
    for _ in range(8):
        assert reader.integers(lo, hi) == ref.integers(lo, hi)
    assert reader.random() == ref.random()
    with pytest.raises(OverflowError):
        reader.uniform(-1e308, 1e308)


@pytest.mark.parametrize("span", (2**32 + 1, 2**40, 2**63))
def test_ranges_wider_than_32_bits_are_refused(span):
    with pytest.raises(ValueError, match="wider than 2\\*\\*32"):
        ScalarReader(np.random.default_rng(0)).integers(0, span)


def test_only_pcg64_is_read():
    with pytest.raises(TypeError, match="PCG64"):
        ScalarReader(np.random.Generator(np.random.MT19937(0)))
