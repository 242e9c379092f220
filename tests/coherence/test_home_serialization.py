"""Message intake and per-block home serialization: one implementation
for all nine controllers.

Every controller declares class tables of plain functions and inherits
the one network entry point, ``Controller.handle``: dedup (only with
resilience), then one lookup in the intake table derived from the
tables.  A cache controller declares ``_RESPONSES`` (type -> delivery
function); an engine that runs transactions at a home directory inherits
:class:`~repro.coherence.base.HomeController` and adds ``_HANDLERS``
(request type -> transaction).  These tests drive the shared discipline
through each home engine with recording stand-ins for the tables'
functions: a busy block defers requests and replays them in FIFO order,
responses bypass the busy bit, and dedup runs once on arrival, never on
replay.  The same holds for the subscriber-list traffic a primitives
cache holds back until its own subscription fill lands.
"""

import inspect

import pytest

from repro.coherence.base import CacheController, Controller, HomeController
from repro.coherence.readupdate import PrimitivesCacheController, PrimitivesHomeController
from repro.coherence.wbi import WBICacheController, WBIHomeController
from repro.coherence.writeupdate import WUCacheController, WUHomeController
from repro.faults.plan import DEFAULT_RESILIENCE, FaultPlan, FaultSpec
from repro.network.message import Message, MessageType
from repro.obs import ObsParams
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
    engine._INTAKE = {
        **cls._INTAKE,
        **dict.fromkeys(cls._RESPONSES, lambda self, msg: delivered.append(msg.mtype)),
    }
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


#: (cache controller class, protocol that installs it)
CACHES = [
    (WBICacheController, "wbi"),
    (PrimitivesCacheController, "primitives"),
    (WUCacheController, "writeupdate"),
]
ALL_CLASSES = [cls for cls, _ in CACHES] + [cls for cls, _, _ in ENGINES]


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=[cls.__name__ for cls in ALL_CLASSES])
def test_every_controller_takes_messages_through_its_tables(cls):
    """``IN_TYPES`` is the key set of the class tables, each class owns
    its ``handle`` attribute (the layer tracer wraps it per class), and
    that attribute is the one ``Controller.handle``."""
    tables = set(cls._RESPONSES)
    if issubclass(cls, HomeController):
        tables |= set(cls._HANDLERS)
    assert cls.IN_TYPES == tables == cls._INTAKE.keys()
    assert vars(cls)["handle"] is Controller.handle
    # Plain functions, never bound methods: a table of bound methods
    # would make every controller a reference cycle.
    for fn in cls._INTAKE.values():
        assert inspect.isfunction(fn)
    for mtype, fn in cls._RESPONSES.items():
        assert cls._INTAKE[mtype] is fn
    for mtype in getattr(cls, "_HANDLERS", ()):
        assert cls._INTAKE[mtype] is HomeController._admit


@pytest.mark.parametrize("cls, protocol", CACHES, ids=[cls.__name__ for cls, _ in CACHES])
def test_cache_controllers_share_the_requester_ops(cls, protocol):
    assert issubclass(cls, CacheController)
    for name in ("rmw", "_writeback", "_on_rmw_reply"):
        assert getattr(cls, name) is CacheController.__dict__[name], name
        assert name not in vars(cls), name
    assert cls._RESPONSES[MessageType.RMW_REPLY] is CacheController._on_rmw_reply
    assert cls._RMW_COUNTER == f"{cls._PREFIX}.rmw"


def _undeliverable(machine):
    """A message to node 1 of a type no controller of ``machine`` takes."""
    mtype = next(mt for mt in MessageType if mt not in machine.nodes[1].dispatch)
    return Message(0, 1, mtype, 0, {}), mtype


@pytest.mark.parametrize("path", ["lean", "fault-plan", "trace-bus"])
@pytest.mark.parametrize("protocol", Machine.PROTOCOLS)
def test_an_unknown_message_type_has_no_controller(protocol, path):
    obs = ObsParams() if path == "trace-bus" else None
    m = Machine(MachineConfig(n_nodes=4, obs=obs), protocol=protocol)
    if path == "fault-plan":
        m.net.set_fault_plan(FaultPlan(FaultSpec()))
    msg, mtype = _undeliverable(m)
    m.net.send(msg)
    with pytest.raises(RuntimeError, match=f"node 1 has no controller for {mtype.name}"):
        m.sim.run()


@pytest.mark.parametrize("mtype", [MessageType.RU_UPDATE_FWD, MessageType.RU_UNLINK])
def test_held_list_traffic_is_replayed_without_a_second_dedup(mtype, monkeypatch):
    """List traffic that overtakes the cache's own RU_DATA waits for it and
    is then replayed through the intake table: it passed dedup on arrival,
    and a second dedup would absorb it as its own duplicate."""
    m = Machine(MachineConfig(n_nodes=4, resilience=DEFAULT_RESILIENCE), protocol="primitives")
    block = m.alloc_block()
    node = m.nodes[(m.amap.home_of(block) + 1) % 4]
    ctl = node.data_ctl
    seen = []
    admit = type(ctl).dedup_admit

    def counting(self, msg):
        seen.append(msg.mtype)
        return admit(self, msg)

    monkeypatch.setattr(type(ctl), "dedup_admit", counting)
    ctl.expect(("c:rudata", block))
    if mtype is MessageType.RU_UNLINK:
        info = {"set_prev": 3}
    else:
        info = {"words": [7, 7, 7, 7], "chain": (), "token": 1, "ack_home": False}
    ctl.handle(Message(3, node.node_id, mtype, block, {**info, "rseq": 900}))
    assert ctl._ru_deferred[block]
    ctl.handle(
        Message(
            m.amap.home_of(block), node.node_id, MessageType.RU_DATA, block,
            {"words": [0, 0, 0, 0], "old_head": 3},
        )
    )
    assert seen == [mtype, MessageType.RU_DATA]
    assert ctl.stats.counters["resilience.dup_requests"] == 0
    line = node.cache.peek(block)
    if mtype is MessageType.RU_UNLINK:
        assert line.prev == 3
    else:
        assert line.data == [7, 7, 7, 7]
