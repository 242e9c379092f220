"""Tests for the queueing cross-check formulas."""

import pytest

from repro.analysis import hotspot_saturation, md1_wait, omega_uncontended_latency


def test_md1_zero_load_zero_wait():
    assert md1_wait(0.0, 5.0) == 0.0


def test_md1_wait_grows_with_load():
    assert md1_wait(0.1, 5.0) < md1_wait(0.15, 5.0)


def test_md1_saturation_infinite():
    assert md1_wait(0.2, 5.0) == float("inf")


def test_md1_known_value():
    # rho = 0.5: W = rho*S / (2*(1-rho)) = 0.5*2/(2*0.5) = 1.0
    assert md1_wait(0.25, 2.0) == pytest.approx(1.0)


def test_md1_validation():
    with pytest.raises(ValueError):
        md1_wait(0.1, 0)
    with pytest.raises(ValueError):
        md1_wait(-0.1, 1)


def test_hotspot_saturation_pfister_norton():
    # h=0: full throughput; h=1, n large: ~1/n.
    assert hotspot_saturation(64, 0.0) == 1.0
    assert hotspot_saturation(64, 1.0) == pytest.approx(1 / 64)
    assert hotspot_saturation(64, 0.1) == pytest.approx(1 / (1 + 0.1 * 63))


def test_hotspot_validation():
    with pytest.raises(ValueError):
        hotspot_saturation(0, 0.5)
    with pytest.raises(ValueError):
        hotspot_saturation(8, 1.5)


def test_omega_latency_matches_simulator_model():
    from repro.network import NetworkParams, OmegaNetwork
    from repro.sim import Simulator

    sim = Simulator()
    net = OmegaNetwork(sim, 16, NetworkParams(switch_cycle=2))
    assert omega_uncontended_latency(16, 5, 2) == net.uncontended_latency(0, 9, 5)


def test_omega_latency_validation():
    with pytest.raises(ValueError):
        omega_uncontended_latency(6, 1)
