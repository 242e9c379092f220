"""A finished process is freed by reference counting alone.

``Process._wake`` is the process's ``_resume`` bound once, so a live
process refers to itself.  The kernel drops that reference when the
generator returns or raises; then a finished process that nothing else
holds is freed at once, with the cyclic garbage collector switched off.

A failed process keeps its exception as its value.  The traceback must
then hold no frame whose locals hold the process: neither the kernel's
own frame, nor the frame of a watcher that caught the failure.  The
failed generator's own frames stay on it.
"""

import gc
import traceback
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


@pytest.mark.parametrize("waits_on", ["event", "sleep"])
def test_closed_hung_process_is_freed_without_the_collector(no_gc, waits_on):
    """A process that never finishes, waiting on an event that never fires
    or asleep, is freed once closed; ``Process.close`` is how a hung
    machine's teardown retires its workloads."""
    sim = Simulator()
    never = sim.event(name="never")

    def body(sim):
        yield never if waits_on == "event" else 10**9

    proc = sim.process(body(sim))
    sim.run(until=5)
    assert proc.is_alive
    proc.close()
    ref = weakref.ref(proc)
    del proc
    sim.close()
    assert ref() is None
    assert never.callbacks == []


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


def _watch(sim, victim):
    try:
        yield victim
    except KeyError:
        pass


@pytest.mark.parametrize("watcher", ("process", "callback"))
def test_failed_watched_process_is_freed_without_the_collector(no_gc, watcher):
    sim = Simulator()
    victim = sim.process(_raises(sim))
    seen = []
    if watcher == "process":
        sim.process(_watch(sim, victim))
    else:
        victim.callbacks.append(lambda ev: seen.append(ev.value))
    ref = weakref.ref(victim)
    del victim
    sim.run()
    assert ref() is None
    if seen:
        # The generator's frames are still on the stored exception.
        lines = traceback.format_tb(seen[0].__traceback__)
        assert any('raise KeyError("boom")' in line for line in lines)
        assert not any("_resume" in line for line in lines)


def test_failed_process_keeps_its_generator_frames():
    sim = Simulator()
    victim = sim.process(_raises(sim))
    sim.process(_watch(sim, victim))
    sim.run()
    frames = [f.name for f in traceback.extract_tb(victim.value.__traceback__)]
    assert frames == ["_raises"]
