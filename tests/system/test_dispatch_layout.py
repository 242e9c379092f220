"""The machine fills each node's dispatch table from a cached layout.

``Node.register_all`` checks a controller-class tuple's ``IN_TYPES`` once
(``dispatch_layout``) and fills the table from the cached
``mtype -> slot`` map.  The referee routes each controller's ``IN_TYPES``
to it, one controller after the other: the table must hold the same
keys, in the same order, mapped to the same controller objects.  The
table must also be the very dict the interconnect delivers through, and
an overlap must still raise.
"""

import pytest

import repro.system.machine as machine_mod
from repro.network.message import MessageType
from repro.node.node import dispatch_layout
from repro.sync.cbl import CBLEngine
from repro.system.config import MachineConfig
from repro.system.machine import Machine


def _controllers(node):
    return (node.data_ctl, node.home_ctl, node.cbl, node.barrier_engine, node.sem_engine)


@pytest.mark.parametrize("n_nodes", (4, 8))
@pytest.mark.parametrize("protocol", Machine.PROTOCOLS)
def test_layout_table_equals_per_controller_registration(protocol, n_nodes):
    m = Machine(MachineConfig(n_nodes=n_nodes), protocol=protocol)
    for node in m.nodes:
        table, referee = node.dispatch, {}
        for ctl in _controllers(node):
            assert not referee.keys() & ctl.IN_TYPES
            referee.update(dict.fromkeys(ctl.IN_TYPES, ctl))
        assert list(table) == list(referee)
        assert all(table[k] is referee[k] for k in referee)


@pytest.mark.parametrize("protocol", Machine.PROTOCOLS)
def test_interconnect_holds_each_nodes_table(protocol):
    m = Machine(MachineConfig(n_nodes=8), protocol=protocol)
    for node in m.nodes:
        assert m.net._tables[node.node_id] is node.dispatch
        assert node.dispatch


class _GreedyCBL(CBLEngine):
    """A lock engine that also claims the data controller's replies (its
    ``IN_TYPES`` are derived from the response table)."""

    _RESPONSES = {
        **CBLEngine._RESPONSES,
        MessageType.DATA_BLOCK: CBLEngine._RESPONSES[MessageType.LOCK_GRANT],
    }


def test_an_overlapping_controller_still_raises(monkeypatch):
    """The overlap error, from the first node, on every build: a failed
    check is never cached."""
    monkeypatch.setattr(machine_mod, "CBLEngine", _GreedyCBL)
    for _ in range(2):
        with pytest.raises(ValueError, match="message type DATA_BLOCK already handled on node 0"):
            Machine(MachineConfig(n_nodes=4), protocol="writeupdate")


def test_layout_is_cached_per_class_tuple():
    node = Machine(MachineConfig(n_nodes=4), protocol="primitives").nodes[0]
    classes = tuple(type(c) for c in _controllers(node))
    assert dispatch_layout(classes) is dispatch_layout(classes)
    assert list(dispatch_layout(classes)) == list(node.dispatch)


def test_register_all_wants_an_empty_table():
    node = Machine(MachineConfig(n_nodes=4), protocol="wbi").nodes[1]
    with pytest.raises(ValueError, match="node 1 already has controllers"):
        node.register_all(_controllers(node))
