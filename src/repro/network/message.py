"""Network messages exchanged between nodes and memory/directory controllers.

Message *categories* determine the size on the wire, mirroring the paper's
cost constants:

====================  =======================================  ==========
category              paper constant                           flits
====================  =======================================  ==========
control               C_R  (transaction carrying no data)      1
invalidation          C_I  (invalidation)                      1
word                  C_W  (word transfer)                     1 + 1
block                 C_B  (block transfer)                    1 + B
====================  =======================================  ==========

where B is the number of words per block.  A flit is one network transfer
unit; the header costs one flit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum, auto
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional

from ..sim.core import _IN_FLIGHT

__all__ = [
    "MessageType",
    "Message",
    "SizeClass",
    "flit_size",
    "flit_table",
    "MSG_COUNTER_KEYS",
]


class SizeClass(Enum):
    """Wire-size category of a message (maps to the paper's cost constants)."""

    CONTROL = auto()  # C_R
    INVALIDATION = auto()  # C_I
    WORD = auto()  # C_W
    BLOCK = auto()  # C_B


class MessageType(Enum):
    """All message kinds used by the coherence, memory, and sync protocols.

    Members are singletons compared by identity, so they hash by identity
    too: ``object.__hash__`` runs in C, where ``Enum.__hash__`` is a Python
    call on every dispatch lookup.  Node dispatch only looks types up and
    ``_SIZE_CLASS`` is an insertion-ordered dict, so no set order reaches
    simulated state.
    """

    __hash__ = object.__hash__

    # -- plain cache coherence (WBI baseline) -----------------------------
    READ_MISS = auto()  # cache -> home: need block (shared)
    WRITE_MISS = auto()  # cache -> home: need block exclusive
    UPGRADE = auto()  # cache -> home: have shared copy, need exclusive
    INV = auto()  # home -> sharer: invalidate
    INV_ACK = auto()  # sharer -> home: invalidated
    FETCH = auto()  # home -> owner: send block back (another node read)
    FETCH_INV = auto()  # home -> owner: send block back and invalidate
    FETCH_REPLY = auto()  # owner -> home: block data answering a FETCH
    DATA_BLOCK = auto()  # block payload (home->cache or cache->cache)
    DATA_BLOCK_EXCL = auto()  # block payload granting exclusive
    WRITEBACK = auto()  # cache -> home: dirty block on eviction
    WRITEBACK_ACK = auto()  # home -> cache
    UPGRADE_ACK = auto()  # home -> cache: exclusivity granted (no data)

    # -- Table 1 primitives ------------------------------------------------
    READ_GLOBAL = auto()  # cache -> home: read bypassing cache
    READ_GLOBAL_REPLY = auto()  # home -> cache: word reply
    GLOBAL_WRITE = auto()  # write buffer -> home: word write (WRITE-GLOBAL)
    GLOBAL_WRITE_ACK = auto()  # home -> write buffer

    # -- reader-initiated coherence (READ-UPDATE) ---------------------------
    RU_REQ = auto()  # cache -> home: read + subscribe to updates
    RU_DATA = auto()  # block carrying the subscription reply
    RU_UPDATE = auto()  # home -> subscriber: updated block propagation
    RU_UPDATE_FWD = auto()  # subscriber -> next subscriber (down the list)
    RESET_UPDATE = auto()  # cache -> home: unsubscribe
    RESET_UPDATE_ACK = auto()  # home -> cache: unsubscribed
    RU_UNLINK = auto()  # home/cache -> neighbour: fix linked list
    RU_ACK = auto()  # last subscriber -> home: propagation complete

    # -- cache-based locking (CBL) ------------------------------------------
    LOCK_REQ_READ = auto()  # cache -> home: READ-LOCK
    LOCK_REQ_WRITE = auto()  # cache -> home: WRITE-LOCK
    LOCK_FWD = auto()  # home -> current tail: chain the new requester
    LOCK_GRANT = auto()  # grant + data block
    LOCK_WAIT = auto()  # tail -> requester: you are queued, spin locally
    LOCK_RELEASE = auto()  # holder -> home: UNLOCK (carries dirty data)
    UNLOCK_RELEASE = auto()  # grant passed to the successor (carries data)
    QUEUE_SPLICE = auto()  # fix doubly-linked list on mid-queue departure
    QUEUE_ACK = auto()  # ack for splice / queue maintenance
    LOCK_WRITEBACK = auto()  # locked line flushed to memory on final release

    # -- sender-initiated write-update protocol (Dragon/Firefly comparator) --
    WU_WRITE = auto()  # cache -> home: write-through word
    WU_UPDATE = auto()  # home -> sharer: pushed word update
    WU_ACK = auto()  # home -> writer: write globally performed
    WU_UPDATE_ACK = auto()  # sharer -> home: pushed update applied (resilient mode)
    WU_EVICT = auto()  # cache -> home: deregister a replaced clean copy

    # -- hardware semaphores (P is NP-Synch, V is CP-Synch) ------------------
    SEM_P = auto()  # processor -> home: P (down)
    SEM_V = auto()  # processor -> home: V (up)
    SEM_GRANT = auto()  # home -> processor: P granted
    SEM_ACK = auto()  # home -> processor: V processed (optional)

    # -- synchronization over plain memory (software locks, barriers) -------
    RMW_REQ = auto()  # atomic read-modify-write request (test&set, fetch&add)
    RMW_REPLY = auto()  # word reply
    BARRIER_ARRIVE = auto()  # processor -> barrier home
    BARRIER_ACK = auto()  # barrier home -> processor: arrival recorded
    BARRIER_RELEASE = auto()  # barrier home -> processor


# Every member bound once as a module global, for function bodies to load
# instead of ``MessageType.X``.  On CPython 3.11 ``EnumType`` defines
# ``__getattr__``, so each member load through the class takes the generic
# attribute hook a metaclass ``__getattr__`` installs, which the interpreter
# cannot specialize (about 150 ns against about 15 ns for a global), and
# every handler branches on the message type at least once per message.
# The same holds for the bindings in ``repro.cache.states`` and
# ``repro.memory.directory``; ``tests/static/test_hot_path_enums.py`` keeps
# member loads out of the simulator's function bodies.
READ_MISS = MessageType.READ_MISS
WRITE_MISS = MessageType.WRITE_MISS
UPGRADE = MessageType.UPGRADE
INV = MessageType.INV
INV_ACK = MessageType.INV_ACK
FETCH = MessageType.FETCH
FETCH_INV = MessageType.FETCH_INV
FETCH_REPLY = MessageType.FETCH_REPLY
DATA_BLOCK = MessageType.DATA_BLOCK
DATA_BLOCK_EXCL = MessageType.DATA_BLOCK_EXCL
WRITEBACK = MessageType.WRITEBACK
WRITEBACK_ACK = MessageType.WRITEBACK_ACK
UPGRADE_ACK = MessageType.UPGRADE_ACK
READ_GLOBAL = MessageType.READ_GLOBAL
READ_GLOBAL_REPLY = MessageType.READ_GLOBAL_REPLY
GLOBAL_WRITE = MessageType.GLOBAL_WRITE
GLOBAL_WRITE_ACK = MessageType.GLOBAL_WRITE_ACK
RU_REQ = MessageType.RU_REQ
RU_DATA = MessageType.RU_DATA
RU_UPDATE = MessageType.RU_UPDATE
RU_UPDATE_FWD = MessageType.RU_UPDATE_FWD
RESET_UPDATE = MessageType.RESET_UPDATE
RESET_UPDATE_ACK = MessageType.RESET_UPDATE_ACK
RU_UNLINK = MessageType.RU_UNLINK
RU_ACK = MessageType.RU_ACK
LOCK_REQ_READ = MessageType.LOCK_REQ_READ
LOCK_REQ_WRITE = MessageType.LOCK_REQ_WRITE
LOCK_FWD = MessageType.LOCK_FWD
LOCK_GRANT = MessageType.LOCK_GRANT
LOCK_WAIT = MessageType.LOCK_WAIT
LOCK_RELEASE = MessageType.LOCK_RELEASE
UNLOCK_RELEASE = MessageType.UNLOCK_RELEASE
QUEUE_SPLICE = MessageType.QUEUE_SPLICE
QUEUE_ACK = MessageType.QUEUE_ACK
LOCK_WRITEBACK = MessageType.LOCK_WRITEBACK
WU_WRITE = MessageType.WU_WRITE
WU_UPDATE = MessageType.WU_UPDATE
WU_ACK = MessageType.WU_ACK
WU_UPDATE_ACK = MessageType.WU_UPDATE_ACK
WU_EVICT = MessageType.WU_EVICT
SEM_P = MessageType.SEM_P
SEM_V = MessageType.SEM_V
SEM_GRANT = MessageType.SEM_GRANT
SEM_ACK = MessageType.SEM_ACK
RMW_REQ = MessageType.RMW_REQ
RMW_REPLY = MessageType.RMW_REPLY
BARRIER_ARRIVE = MessageType.BARRIER_ARRIVE
BARRIER_ACK = MessageType.BARRIER_ACK
BARRIER_RELEASE = MessageType.BARRIER_RELEASE


#: Default mapping from message type to wire-size class.
_SIZE_CLASS: Dict[MessageType, SizeClass] = {
    MessageType.READ_MISS: SizeClass.CONTROL,
    MessageType.WRITE_MISS: SizeClass.CONTROL,
    MessageType.UPGRADE: SizeClass.CONTROL,
    MessageType.INV: SizeClass.INVALIDATION,
    MessageType.INV_ACK: SizeClass.CONTROL,
    MessageType.FETCH: SizeClass.CONTROL,
    MessageType.FETCH_INV: SizeClass.CONTROL,
    MessageType.FETCH_REPLY: SizeClass.BLOCK,
    MessageType.DATA_BLOCK: SizeClass.BLOCK,
    MessageType.DATA_BLOCK_EXCL: SizeClass.BLOCK,
    MessageType.WRITEBACK: SizeClass.BLOCK,
    MessageType.WRITEBACK_ACK: SizeClass.CONTROL,
    MessageType.UPGRADE_ACK: SizeClass.CONTROL,
    MessageType.READ_GLOBAL: SizeClass.CONTROL,
    MessageType.READ_GLOBAL_REPLY: SizeClass.WORD,
    MessageType.GLOBAL_WRITE: SizeClass.WORD,
    MessageType.GLOBAL_WRITE_ACK: SizeClass.CONTROL,
    MessageType.RU_REQ: SizeClass.CONTROL,
    MessageType.RU_DATA: SizeClass.BLOCK,
    MessageType.RU_UPDATE: SizeClass.BLOCK,
    MessageType.RU_UPDATE_FWD: SizeClass.BLOCK,
    MessageType.RESET_UPDATE: SizeClass.CONTROL,
    MessageType.RESET_UPDATE_ACK: SizeClass.CONTROL,
    MessageType.RU_UNLINK: SizeClass.CONTROL,
    MessageType.RU_ACK: SizeClass.CONTROL,
    MessageType.LOCK_REQ_READ: SizeClass.CONTROL,
    MessageType.LOCK_REQ_WRITE: SizeClass.CONTROL,
    MessageType.LOCK_FWD: SizeClass.CONTROL,
    MessageType.LOCK_GRANT: SizeClass.BLOCK,
    MessageType.LOCK_WAIT: SizeClass.CONTROL,
    MessageType.LOCK_RELEASE: SizeClass.BLOCK,
    MessageType.UNLOCK_RELEASE: SizeClass.BLOCK,
    MessageType.QUEUE_SPLICE: SizeClass.CONTROL,
    MessageType.QUEUE_ACK: SizeClass.CONTROL,
    MessageType.LOCK_WRITEBACK: SizeClass.BLOCK,
    MessageType.WU_WRITE: SizeClass.WORD,
    MessageType.WU_UPDATE: SizeClass.WORD,
    MessageType.WU_ACK: SizeClass.CONTROL,
    MessageType.WU_UPDATE_ACK: SizeClass.CONTROL,
    MessageType.WU_EVICT: SizeClass.CONTROL,
    MessageType.SEM_P: SizeClass.CONTROL,
    MessageType.SEM_V: SizeClass.CONTROL,
    MessageType.SEM_GRANT: SizeClass.CONTROL,
    MessageType.SEM_ACK: SizeClass.CONTROL,
    MessageType.RMW_REQ: SizeClass.WORD,
    MessageType.RMW_REPLY: SizeClass.WORD,
    MessageType.BARRIER_ARRIVE: SizeClass.CONTROL,
    MessageType.BARRIER_ACK: SizeClass.CONTROL,
    MessageType.BARRIER_RELEASE: SizeClass.CONTROL,
}

_BLOCK_CLASS = SizeClass.BLOCK
_WORD_CLASS = SizeClass.WORD

_msg_ids = itertools.count()


def flit_size(size_class: SizeClass, words_per_block: int) -> int:
    """Message size in flits: one header flit plus the payload."""
    if size_class is _BLOCK_CLASS:
        return 1 + words_per_block
    if size_class is _WORD_CLASS:
        return 2
    return 1  # CONTROL and INVALIDATION


@functools.cache
def flit_table(words_per_block: int) -> Mapping[MessageType, int]:
    """Read-only ``mtype -> flits`` map for a fixed block size.

    Built once per block size and shared by every interconnect, so the
    per-message send path is a single lookup instead of two enum property
    chases, and building a machine builds no table.
    """
    return MappingProxyType(
        {mt: flit_size(_SIZE_CLASS[mt], words_per_block) for mt in MessageType}
    )


#: Read-only ``mtype -> "msg.<NAME>"`` network counter keys (an f-string
#: per send adds up at millions of messages).
MSG_COUNTER_KEYS: Mapping[MessageType, str] = MappingProxyType(
    {mt: f"msg.{mt.name}" for mt in MessageType}
)


@dataclass(slots=True, init=False)
class Message:
    """One network message.

    ``src``/``dst`` are node ids (memory controllers share the id of the node
    hosting that memory module).  ``addr`` is a block address for coherence
    traffic.  ``info`` carries protocol-specific fields (requester id, lock
    mode, payload words, ...).

    A message in flight is its own calendar entry: the class-level
    ``_state`` tells the run loop to hand it to the interconnect's arrival
    hook, so an arrival builds no event.
    """

    _state = _IN_FLIGHT

    src: int
    dst: int
    mtype: MessageType
    addr: int
    info: Dict[str, Any]
    msg_id: int
    send_time: float
    #: Per-(src, dst) send sequence, assigned by the interconnect; delivery
    #: is FIFO per channel (see Interconnect._on_arrival).
    chan_seq: int
    #: Causal lineage (tracing only): the msg_id of the message whose
    #: handler sent this one, or -1.  Stamped by the interconnect while a
    #: trace bus is installed; best-effort — lineage does not survive into
    #: home-side transactions that continue in a spawned process.
    parent_id: int

    def __init__(
        self,
        src: int,
        dst: int,
        mtype: MessageType,
        addr: int = -1,
        info: Optional[Dict[str, Any]] = None,
        msg_id: Optional[int] = None,
        send_time: float = -1.0,
        chan_seq: int = -1,
        parent_id: int = -1,
    ):
        # Written out rather than generated: the generated initializer calls
        # a default-factory frame for ``msg_id`` on every message.
        self.src = src
        self.dst = dst
        self.mtype = mtype
        self.addr = addr
        self.info = {} if info is None else info
        # The module-level counter is read at call time, so resetting
        # ``_msg_ids`` between runs relabels the next run's messages.
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id
        self.send_time = send_time
        self.chan_seq = chan_seq
        self.parent_id = parent_id

    @property
    def size_class(self) -> SizeClass:
        return _SIZE_CLASS[self.mtype]

    def flits(self, words_per_block: int) -> int:
        return flit_size(self.size_class, words_per_block)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.mtype.name} {self.src}->{self.dst}"
            f" addr={self.addr} id={self.msg_id})"
        )
