"""Unit tests for the 2D mesh interconnect."""

import pytest

from repro.network import (
    Message,
    MessageType,
    MeshNetwork,
    NetworkParams,
    mesh_dims,
    xy_route,
)
from repro.sim import Simulator
from tests.network.sink import sink_table


def test_mesh_dims_near_square():
    assert mesh_dims(4) == (2, 2)
    assert mesh_dims(8) == (2, 4)
    assert mesh_dims(16) == (4, 4)
    assert mesh_dims(64) == (8, 8)


def test_mesh_dims_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        mesh_dims(6)
    with pytest.raises(ValueError):
        mesh_dims(0)


def test_xy_route_straight_line():
    # 4x4 mesh: 0 -> 3 is three X hops.
    assert xy_route(0, 3, 4, 4) == [(0, 1), (1, 2), (2, 3)]


def test_xy_route_turns_once():
    # 0 -> 15 in a 4x4 mesh: X to column 3, then Y down.
    links = xy_route(0, 15, 4, 4)
    assert links[:3] == [(0, 1), (1, 2), (2, 3)]
    assert links[3:] == [(3, 7), (7, 11), (11, 15)]


def test_xy_route_self_is_empty():
    assert xy_route(5, 5, 4, 4) == []


def test_xy_route_range_checked():
    with pytest.raises(ValueError):
        xy_route(0, 16, 4, 4)


def make_mesh(n=16, **kw):
    sim = Simulator()
    net = MeshNetwork(sim, n, NetworkParams(**kw))
    inbox = {i: [] for i in range(n)}
    for i in range(n):
        net.attach(i, sink_table(lambda m, i=i: inbox[i].append((sim.now, m))))
    return sim, net, inbox


def test_mesh_delivery_and_latency_scales_with_distance():
    sim, net, inbox = make_mesh()
    net.send(Message(0, 1, MessageType.READ_MISS))  # 1 hop
    net.send(Message(12, 15, MessageType.READ_MISS))  # 3 hops, disjoint path
    sim.run()
    assert inbox[1][0][0] == 1
    assert inbox[15][0][0] == 3
    assert net.uncontended_latency(0, 15, 1) == 6
    assert net.hop_count(0, 15) == 6


def test_mesh_link_contention_serializes():
    sim, net, inbox = make_mesh(n=4)
    # Both messages use link (0,1) first.
    net.send(Message(0, 1, MessageType.DATA_BLOCK))
    net.send(Message(0, 1, MessageType.DATA_BLOCK))
    sim.run()
    times = sorted(t for t, _ in inbox[1])
    assert times[1] == times[0] + 5  # second waits a full service time


def test_mesh_disjoint_paths_parallel():
    sim, net, inbox = make_mesh(n=16)
    net.send(Message(0, 1, MessageType.READ_MISS))
    net.send(Message(14, 15, MessageType.READ_MISS))
    sim.run()
    assert inbox[1][0][0] == 1
    assert inbox[15][0][0] == 1


def test_mesh_works_in_machine():
    from repro import CBLLock, Machine, MachineConfig

    cfg = MachineConfig(n_nodes=8, cache_blocks=64, cache_assoc=2, network="mesh")
    m = Machine(cfg, protocol="primitives")
    lock = CBLLock(m)

    def w(p):
        yield from p.acquire(lock)
        v = yield from lock.read_data(p, 0)
        yield from lock.write_data(p, 0, v + 1)
        yield from p.release(lock)

    for i in range(8):
        m.spawn(w(m.processor(i)))
    m.run()
    assert m.peek_memory(m.amap.word_addr(lock.block, 0)) == 8


def test_mesh_links_are_the_directed_neighbour_links():
    # A 4x4 mesh has 2 * (4*3 + 4*3) directed neighbour links; each gets
    # one index, shared by every route that crosses it.
    sim, net, inbox = make_mesh(n=16)
    assert net.link_count(16) == 48
    index = {}
    for src in range(16):
        for dst in range(16):
            for link, i in zip(xy_route(src, dst, 4, 4), net.links(16, src, dst)):
                assert index.setdefault(link, i) == i
    assert sorted(index.values()) == list(range(48))
    # One message over one link busies 1 of the 48 links for its service.
    net.send(Message(0, 1, MessageType.READ_MISS))
    sim.run()
    assert net.wire_utilization() == 1 / 48
