"""Unit tests for Omega destination-tag routing."""

import pytest

from repro.network import (
    is_power_of_two,
    num_stages,
    omega_route,
)


def test_is_power_of_two():
    assert is_power_of_two(1)
    assert is_power_of_two(64)
    assert not is_power_of_two(0)
    assert not is_power_of_two(12)
    assert not is_power_of_two(-4)


def test_num_stages():
    assert num_stages(2) == 1
    assert num_stages(8) == 3
    assert num_stages(64) == 6


def test_num_stages_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        num_stages(6)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_route_ends_at_destination(n):
    for src in range(n):
        for dst in range(n):
            wires = omega_route(src, dst, n)
            assert len(wires) == num_stages(n)
            assert wires[-1] == dst


def test_route_known_example_8_nodes():
    # src=0 -> dst=5 (101b) in an 8-node network:
    # v0=0; v1 = (0<<1)|1 = 1; v2 = (1<<1)|0 = 2; v3 = (2<<1)|1 = 5
    assert omega_route(0, 5, 8) == [1, 2, 5]


def test_route_same_destination_converges():
    """All paths to the same destination share the final wire."""
    n = 16
    finals = {omega_route(src, 9, n)[-1] for src in range(n)}
    assert finals == {9}


def test_distinct_sources_distinct_first_wires_when_spread():
    """The shuffle keeps sources that differ in their low-order bits on
    distinct stage-0 wires (the MSB is dropped by the shift)."""
    n = 8
    w0 = omega_route(0, 0, n)[0]
    w1 = omega_route(1, 0, n)[0]
    assert w0 != w1
    # Sources differing only in the MSB collide at stage 0 — that is the
    # Omega network's blocking nature, not a bug.
    assert omega_route(0, 0, n)[0] == omega_route(4, 0, n)[0]


def test_route_out_of_range_rejected():
    with pytest.raises(ValueError):
        omega_route(8, 0, 8)
    with pytest.raises(ValueError):
        omega_route(0, -1, 8)


def test_hotspot_paths_share_final_stage_only_partially():
    """Paths from all sources to one destination form a tree: the number of
    distinct wires per stage halves toward the root."""
    n = 16
    k = num_stages(n)
    routes = [omega_route(s, 0, n) for s in range(n)]
    for stage in range(k):
        distinct = {r[stage] for r in routes}
        assert len(distinct) == n >> (stage + 1) or len(distinct) == max(1, n >> (stage + 1))
