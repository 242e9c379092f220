"""Reprs of kernel objects: state, time, and name must be readable.

These strings end up in hang diagnoses and assertion messages, so their
shape is pinned — including the canceled state, which the original repr
could not render.
"""

import pytest

from repro.sim.core import Event, Process, SimulationError, Simulator


def test_event_repr_tracks_state():
    sim = Simulator()
    ev = Event(sim, name="grant")
    assert repr(ev) == "<Event grant pending t=0>"
    ev.succeed(delay=5)
    assert "grant triggered" in repr(ev)
    sim.run()
    assert "grant processed" in repr(ev) and "t=5" in repr(ev)


def test_event_repr_canceled():
    sim = Simulator()
    ev = Event(sim, name="retry-timer")
    ev.succeed(delay=10)
    ev.cancel()
    assert "retry-timer canceled" in repr(ev)


def test_anonymous_event_repr_uses_identity():
    sim = Simulator()
    ev = Event(sim)
    assert hex(id(ev)) in repr(ev)


def test_timeout_repr_shows_delay():
    sim = Simulator()
    t = sim.timeout(7)
    assert repr(t) == "<Timeout delay=7 triggered t=0>"
    sim.run()
    assert "processed" in repr(t) and "t=7" in repr(t)


def test_process_repr_alive_and_waiting():
    sim = Simulator()

    def body():
        yield sim.timeout(3)

    proc = Process(sim, body(), name="worker")
    assert repr(proc) == "<Process worker alive t=0>"
    sim.step()  # bootstrap: the process runs up to its first yield
    assert "waiting_on=Timeout" in repr(proc)
    sim.run()
    assert "worker processed" in repr(proc)


def test_process_repr_sleeping_on_bare_delay():
    sim = Simulator()

    def body():
        yield 3

    proc = Process(sim, body(), name="napper")
    assert repr(proc) == "<Process napper alive t=0>"  # booting
    sim.step()
    assert repr(proc) == "<Process napper alive sleeping t=0>"
    assert proc.is_alive and not proc.triggered
    with pytest.raises(SimulationError):
        _ = proc.value  # no return value while it sleeps
    sim.step()
    assert repr(proc) == "<Process napper triggered t=3>"
    sim.run()
    assert "napper processed" in repr(proc)


def test_process_repr_names_awaited_event():
    sim = Simulator()
    gate = Event(sim, name="gate")

    def body():
        yield gate

    proc = Process(sim, body(), name="waiter")
    sim.step()
    assert "waiting_on=gate" in repr(proc)
    gate.succeed()
    sim.run()
    assert proc.is_alive is False
