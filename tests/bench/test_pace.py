"""bench/pace.py: paced timing returns the measured result and never leaves
the pace process running."""

import subprocess

import pytest

from bench import pace


@pytest.fixture
def started(monkeypatch):
    procs = []
    real = subprocess.Popen

    def spy(*args, **kwargs):
        procs.append(real(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(pace.subprocess, "Popen", spy)
    return procs


def test_paced_returns_the_result_and_scaled_cpu_time(started):
    result, wall, cpu, ref = pace.paced(sum, range(300_000))
    assert result == sum(range(300_000))
    assert wall > 0 and cpu > 0 and ref > 0
    assert [p.returncode for p in started] == [0]


def test_a_raising_measurement_still_stops_the_pace_process(started):
    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        pace.paced(boom)
    assert len(started) == 1 and started[0].returncode is not None
