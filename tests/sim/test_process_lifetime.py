"""A finished process is freed by reference counting alone.

``Process._wake`` is the process's ``_resume`` bound once, so a live
process refers to itself.  The kernel drops that reference when the
generator returns or raises; then a finished process that nothing else
holds is freed at once, with the cyclic garbage collector switched off.
"""

import gc
import weakref

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _returns(sim):
    yield 3
    yield sim.timeout(2)
    return "done"


def _raises(sim):
    yield 1
    raise KeyError("boom")


def test_finished_process_is_freed_without_the_collector(no_gc):
    sim = Simulator()
    ref = weakref.ref(sim.process(_returns(sim)))
    assert ref() is not None  # on the calendar while it boots
    sim.run()
    assert ref() is None


def test_a_held_process_keeps_its_value_and_state():
    sim = Simulator()
    proc = sim.process(_returns(sim))
    sim.run()
    assert not proc.is_alive and proc.value == "done"
    assert proc._wake is None
    assert "processed" in repr(proc)


def test_interrupting_a_failed_process_still_raises():
    sim = Simulator()
    seen = []

    def watcher(sim, victim):
        try:
            yield victim
        except KeyError as exc:
            seen.append(exc.args[0])

    victim = sim.process(_raises(sim))
    sim.process(watcher(sim, victim))
    sim.run()
    assert seen == ["boom"] and not victim.is_alive
    assert victim._wake is None
    with pytest.raises(SimulationError, match="finished"):
        victim.interrupt()
