"""``REPRO_KERNEL`` calendar selection, including a retired calendar name.

The kernel keeps two cycle-identical calendar disciplines: the fast path
(default) and the all-heap referee. ``REPRO_KERNEL`` is read at
:class:`Simulator` construction; only ``heap`` selects the referee, and
every other value — unset, unknown, or the name of the removed calendar
queue — selects the fast path, so old sweep scripts that still export it
keep running. An explicit ``fast_path=`` argument always beats the
environment.
"""

from repro.sim.core import Simulator, _env_fast_path


def test_env_selects_calendar(monkeypatch):
    for name, fast in (("heap", False), ("fast", True), ("slotted", True),
                       ("warp-drive", True)):
        monkeypatch.setenv("REPRO_KERNEL", name)
        assert _env_fast_path() is fast, name
        assert Simulator().fast_path is fast, name
    monkeypatch.delenv("REPRO_KERNEL")
    assert _env_fast_path() is True
    assert Simulator().fast_path is True


def test_explicit_calendar_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "heap")
    assert Simulator(fast_path=True).fast_path is True
    monkeypatch.setenv("REPRO_KERNEL", "fast")
    assert Simulator(fast_path=False).fast_path is False
