"""Per-block home serialization: one implementation for every home engine.

Each engine that runs transactions at a home directory inherits
:class:`~repro.coherence.base.HomeController` and declares only its
``_HANDLERS`` (request type -> transaction) and ``_RESPONSES`` (type ->
delivery function) tables.  These tests drive the shared discipline
through each engine with recording stand-ins for the tables' functions:
a busy block defers requests and replays them in FIFO order, responses
bypass the busy bit, and dedup runs once on arrival, never on replay.
"""

import pytest

from repro.coherence.base import HomeController
from repro.coherence.readupdate import PrimitivesHomeController
from repro.coherence.wbi import WBIHomeController
from repro.coherence.writeupdate import WUHomeController
from repro.faults.plan import DEFAULT_RESILIENCE
from repro.network.message import Message
from repro.sync.barrier import HardwareBarrierEngine
from repro.sync.cbl import CBLEngine
from repro.sync.semaphore import SemaphoreEngine
from repro.system.config import MachineConfig
from repro.system.machine import Machine

#: (engine class, protocol that installs it, node attribute holding it)
ENGINES = [
    (WBIHomeController, "wbi", "home_ctl"),
    (PrimitivesHomeController, "primitives", "home_ctl"),
    (WUHomeController, "writeupdate", "home_ctl"),
    (CBLEngine, "wbi", "cbl"),
    (HardwareBarrierEngine, "primitives", "barrier_engine"),
    (SemaphoreEngine, "writeupdate", "sem_engine"),
]
engines = pytest.mark.parametrize(
    "cls, protocol, attr", ENGINES, ids=[cls.__name__ for cls, _, _ in ENGINES]
)


def _home_engine(cls, protocol, attr, **cfg):
    """A fresh machine, the engine at ``block``'s home, and ``block``."""
    m = Machine(MachineConfig(n_nodes=4, **cfg), protocol=protocol)
    block = m.alloc_block()
    engine = getattr(m.nodes[m.amap.home_of(block)], attr)
    assert type(engine) is cls
    return m, engine, block


def _record_transactions(engine, log):
    """Replace every home transaction with one that logs its start and end
    and holds the block busy for 10 cycles."""

    def txn(self, msg, entry):
        log.append(("start", msg.info["tag"]))
        yield 10
        log.append(("end", msg.info["tag"]))
        self._done(entry)

    engine._HANDLERS = dict.fromkeys(type(engine)._HANDLERS, txn)


def _request(engine, block, tag, **info):
    types = list(type(engine)._HANDLERS)
    home = engine.node.node_id
    return Message(1, home, types[tag % len(types)], block, {"tag": tag, **info})


@engines
def test_busy_block_defers_requests_and_replays_them_in_fifo_order(cls, protocol, attr):
    m, engine, block = _home_engine(cls, protocol, attr)
    log = []
    _record_transactions(engine, log)
    for tag in range(3):
        engine.handle(_request(engine, block, tag))
    entry = engine.node.directory.entry(block)
    assert entry.busy
    assert [msg.info["tag"] for msg in entry.deferred] == [1, 2]
    m.run()
    assert log == [(edge, tag) for tag in range(3) for edge in ("start", "end")]
    assert not entry.busy and not entry.deferred


@engines
def test_a_response_is_delivered_while_the_block_is_busy(cls, protocol, attr):
    m, engine, block = _home_engine(cls, protocol, attr)
    log, delivered = [], []
    _record_transactions(engine, log)
    engine._RESPONSES = dict.fromkeys(
        cls._RESPONSES, lambda self, msg: delivered.append(msg.mtype)
    )
    engine.handle(_request(engine, block, 0))
    entry = engine.node.directory.entry(block)
    for mtype in cls._RESPONSES:
        engine.handle(Message(2, engine.node.node_id, mtype, block, {}))
        assert entry.busy and not entry.deferred
    assert delivered == list(cls._RESPONSES)
    m.run()
    assert log == [("start", 0), ("end", 0)]


@engines
def test_dedup_runs_on_arrival_and_never_on_replay(cls, protocol, attr):
    """A retry of a deferred request is absorbed on arrival; the deferred
    original, replayed by ``_done``, must not be taken for its own
    duplicate."""
    m, engine, block = _home_engine(cls, protocol, attr, resilience=DEFAULT_RESILIENCE)
    log = []
    _record_transactions(engine, log)
    for tag in (0, 1, 1, 2):
        engine.handle(_request(engine, block, tag, rseq=100 + tag))
    entry = engine.node.directory.entry(block)
    assert [msg.info["tag"] for msg in entry.deferred] == [1, 2]
    assert engine.stats.counters["resilience.dup_requests"] == 1
    m.run()
    assert log == [(edge, tag) for tag in range(3) for edge in ("start", "end")]


@engines
def test_engines_declare_tables_and_inherit_the_discipline(cls, protocol, attr):
    for name in ("handle", "_admit", "_done"):
        assert getattr(cls, name) is HomeController.__dict__[name], name
    assert "_admit" not in vars(cls) and "_done" not in vars(cls)
    assert not hasattr(cls, "REQUEST_TYPES") and not hasattr(cls, "RESPONSE_TYPES")
    assert not set(cls._HANDLERS) & set(cls._RESPONSES)
    assert cls.IN_TYPES == set(cls._HANDLERS) | set(cls._RESPONSES)
