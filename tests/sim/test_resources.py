"""Unit tests for the FIFO store."""

import pytest

from repro.sim import Simulator, Store


# ---------------------------------------------------------------- Store


def test_store_put_then_get_immediate():
    sim = Simulator()
    store = Store(sim)
    got = []

    def p(sim):
        yield store.put("x")
        v = yield store.get()
        got.append(v)

    sim.process(p(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        v = yield store.get()
        got.append((sim.now, v))

    def putter(sim):
        yield sim.timeout(8)
        yield store.put("late")

    sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert got == [(8, "late")]


def test_store_fifo_ordering_of_items():
    sim = Simulator()
    store = Store(sim)
    got = []

    def p(sim):
        for x in (1, 2, 3):
            yield store.put(x)
        for _ in range(3):
            v = yield store.get()
            got.append(v)

    sim.process(p(sim))
    sim.run()
    assert got == [1, 2, 3]


def test_store_fifo_ordering_of_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, tag):
        v = yield store.get()
        got.append((tag, v))

    def putter(sim):
        yield sim.timeout(1)
        yield store.put("a")
        yield store.put("b")

    sim.process(getter(sim, "first"))
    sim.process(getter(sim, "second"))
    sim.process(putter(sim))
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_bounded_store_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer(sim):
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")  # blocks until consumer takes "a"
        log.append(("put-b", sim.now))

    def consumer(sim):
        yield sim.timeout(10)
        v = yield store.get()
        log.append(("got", v, sim.now))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert ("put-a", 0) in log
    assert ("got", "a", 10) in log
    assert ("put-b", 10) in log


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_try_put_and_try_get():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put(1) is True
    assert store.try_put(2) is False
    ok, v = store.try_get()
    assert (ok, v) == (True, 1)
    ok, v = store.try_get()
    assert ok is False


def test_store_len_tracks_items():
    sim = Simulator()
    store = Store(sim)
    store.try_put("a")
    store.try_put("b")
    assert len(store) == 2
