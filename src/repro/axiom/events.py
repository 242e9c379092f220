"""Candidate-execution events and the program event graph.

The axiomatic checker (:mod:`repro.axiom`) reasons about a litmus or
fuzzer program as a finite set of **events** — one per dynamic shared
access or synchronization operation — plus a handful of virtual nodes:

* an ``init`` write per location (the coherence-order minimum);
* a ``rdv`` (rendezvous) node per barrier crossing: every participant's
  ``barrier`` event precedes the rendezvous, and the rendezvous precedes
  each participant's *next* event, which encodes "arrival happens-before
  every departure" without self-loops.

Shared accesses are lowered through :func:`repro.static.drf.lower_litmus`
— the same IR the DRF analyzer classifies — so the checker and the
analyzer can never disagree about what the program's accesses *are*;
this module only adds the synchronization events (acquire/release/
barrier/flush) that the relational axioms need as first-class graph
nodes, matched back to the IR by (thread, op-index).

:meth:`EventGraph.base_edges` realizes the model-dependent preserved
program order (ppo).  The simulated machine's only relaxation is the
write buffer delaying a *shared write* past later same-thread operations
(reads are blocking, so R→R and R→W are always preserved), bounded by

* the per-word address chain / per-channel FIFO: a delayed write still
  precedes the next same-location access of its thread, and
* draining fences: every CP-Synch operation (release, barrier, flush)
  drains the buffer; acquire joins them only when the model says so
  (WO's ``flush_before_acquire``) — via
  :func:`repro.sync.base.draining_kinds`, the labeling table's helper.

Everything else (rf, co, fr, the lock release→acquire order) is chosen
per candidate execution (:mod:`repro.axiom.relations`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..static.drf import Access, lower_litmus

__all__ = [
    "Event",
    "CriticalSection",
    "EventGraph",
    "litmus_event_graph",
]

#: Event kinds that are shared writes (subject to write-buffer delay).
WRITE_KINDS = frozenset({"w", "inc.write", "init"})
#: Event kinds that are shared reads.
READ_KINDS = frozenset({"r", "ru", "cr", "inc.read"})
#: Reads served from the local cache (READ-UPDATE subscription / plain
#: cached READ): they may return stale values, so their rf does not
#: constrain global happens-before — only coherence and the strict-ack
#: visibility bound apply.
CACHED_READ_KINDS = frozenset({"ru", "cr"})


@dataclass(frozen=True)
class Event:
    """One node of the candidate-execution graph."""

    eid: int
    thread: int  #: -1 for virtual events (init writes, rendezvous nodes)
    pos: int  #: program-order position within the thread (-1 for virtual)
    kind: str
    var: str = ""  #: location, lock name, or barrier name
    value: Optional[int] = None  #: written value; None = dynamic (inc.write)
    reg: str = ""  #: destination register for reads
    dep: Optional[int] = None  #: inc.write → eid of its paired inc.read
    crossing: int = -1  #: barrier/rdv events: 0-based crossing index
    op_index: int = -1  #: originating litmus op index (matches the DRF IR)

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS

    @property
    def is_read(self) -> bool:
        return self.kind in READ_KINDS

    @property
    def is_access(self) -> bool:
        return self.is_write or self.is_read

    @property
    def is_cached_read(self) -> bool:
        return self.kind in CACHED_READ_KINDS

    def describe(self) -> str:
        if self.kind == "init":
            return f"init({self.var}={self.value})"
        if self.kind == "rdv":
            return f"rdv({self.var}#{self.crossing})"
        core = f"t{self.thread}#{self.op_index}:{self.kind}"
        return f"{core}({self.var})" if self.var else core


@dataclass(frozen=True)
class CriticalSection:
    """One acquire…release instance of a lock (rel is None if unreleased)."""

    lock: str
    thread: int
    acq: int
    rel: Optional[int] = None


@dataclass
class EventGraph:
    """All events of one program plus the structure the axioms consume."""

    events: List[Event]
    #: Real threads: eids in program order (virtual events excluded).
    threads: List[List[int]]
    #: Location → eid of its virtual init write (coherence minimum).
    init_of: Dict[str, int]
    #: (barrier name, crossing index) → eid of the rendezvous node.
    rdv_of: Dict[Tuple[str, int], int]
    #: Lock name → its critical-section instances, in discovery order.
    sections: Dict[str, List[CriticalSection]]

    @property
    def n(self) -> int:
        return len(self.events)

    def locations(self) -> Tuple[str, ...]:
        return tuple(sorted(self.init_of))

    def writes_of(self, var: str) -> List[int]:
        """Non-init writes to ``var`` (thread order, then program order)."""
        return [
            e.eid
            for e in self.events
            if e.is_write and e.kind != "init" and e.var == var
        ]

    def reads(self) -> List[int]:
        return [e.eid for e in self.events if e.is_read]

    def base_edges(self, ax) -> List[Tuple[int, int]]:
        """ppo + rendezvous edges for axiomatic model ``ax``.

        Under a non-delaying model every event precedes its program-order
        successor.  Under a delaying model only a shared write's *own*
        performance is unordered: every later operation still issues after
        the write's non-delayed predecessors performed, so delayed writes
        are **transparent** to the ordering chain — each event gets an
        edge from the last non-delayed event before it, and a delayed
        write keeps just its two machine-guaranteed performance bounds:
        the next same-location home-bound access (per-word chain /
        per-channel FIFO) and the next draining fence (``ax.drain_kinds``,
        from the NP/CP-Synch labeling table).
        """

        def is_delayed(ev: Event) -> bool:
            return ax.delay_shared_writes and ev.kind in ("w", "inc.write")

        edges: List[Tuple[int, int]] = []
        for seq in self.threads:
            last_nd: Optional[int] = None  # last non-delayed event
            for i, eid in enumerate(seq):
                e = self.events[eid]
                if last_nd is not None:
                    edges.append((last_nd, eid))
                if not is_delayed(e):
                    last_nd = eid
                else:
                    for later in seq[i + 1 :]:
                        b = self.events[later]
                        # The next same-location access bound to the home
                        # (write or blocking read) witnesses the delayed
                        # write's performance: same-word buffer entries
                        # issue one at a time and the home's channels are
                        # FIFO.  A plain cached read never blocks on the
                        # home, so it witnesses nothing — skip it (its
                        # own-thread visibility is po-loc coherence).
                        if b.is_access and b.var == e.var and b.kind != "cr":
                            edges.append((eid, later))
                            break
                    for later in seq[i + 1 :]:
                        if self.events[later].kind in ax.drain_kinds:
                            edges.append((eid, later))
                            break
                if e.kind == "barrier":
                    rdv = self.rdv_of[(e.var, e.crossing)]
                    edges.append((eid, rdv))
                    # Arrival happens-before every departure: the
                    # rendezvous orders each later event's issue, so it
                    # too must see through delayed writes until the chain
                    # resumes at the first non-delayed successor.
                    for later in seq[i + 1 :]:
                        edges.append((rdv, later))
                        if not is_delayed(self.events[later]):
                            break
        return edges

    def sw_edges(
        self, lock_order: Dict[str, Tuple[int, ...]]
    ) -> List[Tuple[int, int]]:
        """release→acquire edges for one choice of per-lock CS order.

        ``lock_order[lock]`` is a permutation of indices into
        ``sections[lock]``; mutual exclusion makes each release precede
        the next holder's acquire in every execution with that order.
        """
        edges: List[Tuple[int, int]] = []
        for lock, perm in lock_order.items():
            secs = self.sections[lock]
            for a, b in zip(perm, perm[1:]):
                rel = secs[a].rel
                if rel is None:  # pragma: no cover - enumerator filters these
                    raise ValueError(
                        f"critical section of {lock!r} without a release "
                        "cannot precede another section"
                    )
                edges.append((rel, secs[b].acq))
        return edges


def _drf_accesses_by_op(ir) -> Dict[Tuple[int, int], List[Access]]:
    by_op: Dict[Tuple[int, int], List[Access]] = {}
    for acc in ir.accesses:
        by_op.setdefault((acc.thread, acc.index), []).append(acc)
    return by_op


def litmus_event_graph(test) -> EventGraph:
    """Build the event graph of a :class:`repro.verify.litmus.LitmusTest`.

    Access events come from the DRF analyzer's lowering (one source of
    truth for what counts as a shared access and what value a write
    stores); synchronization events are added by walking the same ops.
    """
    ir = lower_litmus(test.threads)
    by_op = _drf_accesses_by_op(ir)
    init_vals = dict(test.init)

    events: List[Event] = []
    threads: List[List[int]] = []
    sections: Dict[str, List[CriticalSection]] = {}
    var_order: List[str] = []
    crossings: List[Tuple[str, int]] = []

    def add(ev_kind: str, thread: int, seq: List[int], **kw) -> Event:
        ev = Event(eid=len(events), thread=thread, pos=len(seq), kind=ev_kind, **kw)
        events.append(ev)
        seq.append(ev.eid)
        return ev

    for t, ops in enumerate(test.threads):
        seq: List[int] = []
        open_cs: Dict[str, int] = {}  # lock -> index into sections[lock]
        xing: Dict[str, int] = {}
        for i, op in enumerate(ops):
            kind = op.kind
            if kind == "compute":
                continue
            if kind == "w":
                (acc,) = by_op[(t, i)]
                if acc.var not in var_order:
                    var_order.append(acc.var)
                add("w", t, seq, var=acc.var, value=acc.value, op_index=i)
            elif kind in ("r", "ru", "cr"):
                (acc,) = by_op[(t, i)]
                if acc.var not in var_order:
                    var_order.append(acc.var)
                add(kind, t, seq, var=acc.var, reg=op.reg, op_index=i)
            elif kind == "inc":
                racc, wacc = by_op[(t, i)]
                assert racc.kind == "inc.read" and wacc.kind == "inc.write"
                if racc.var not in var_order:
                    var_order.append(racc.var)
                rd = add("inc.read", t, seq, var=racc.var, reg=op.reg, op_index=i)
                add("inc.write", t, seq, var=wacc.var, dep=rd.eid, op_index=i)
            elif kind == "acquire":
                ev = add("acquire", t, seq, var=op.var, op_index=i)
                secs = sections.setdefault(op.var, [])
                open_cs[op.var] = len(secs)
                secs.append(CriticalSection(lock=op.var, thread=t, acq=ev.eid))
            elif kind == "release":
                ev = add("release", t, seq, var=op.var, op_index=i)
                ci = open_cs.pop(op.var, None)
                if ci is None:
                    raise ValueError(
                        f"litmus {test.name!r}: t{t} releases {op.var!r} "
                        "without holding it"
                    )
                secs = sections[op.var]
                secs[ci] = replace(secs[ci], rel=ev.eid)
            elif kind == "barrier":
                k = xing.get(op.var, 0)
                xing[op.var] = k + 1
                if (op.var, k) not in crossings:
                    crossings.append((op.var, k))
                add("barrier", t, seq, var=op.var, crossing=k, op_index=i)
            elif kind == "flush":
                add("flush", t, seq, op_index=i)
            else:  # pragma: no cover - lower_litmus rejected it already
                raise ValueError(f"unknown litmus op kind {kind!r}")
        threads.append(seq)

    init_of: Dict[str, int] = {}
    for var in var_order:
        ev = Event(
            eid=len(events), thread=-1, pos=-1, kind="init",
            var=var, value=init_vals.get(var, 0),
        )
        events.append(ev)
        init_of[var] = ev.eid

    rdv_of: Dict[Tuple[str, int], int] = {}
    for name, k in crossings:
        ev = Event(
            eid=len(events), thread=-1, pos=-1, kind="rdv", var=name, crossing=k
        )
        events.append(ev)
        rdv_of[(name, k)] = ev.eid

    return EventGraph(
        events=events, threads=threads, init_of=init_of,
        rdv_of=rdv_of, sections=sections,
    )
